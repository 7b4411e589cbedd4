import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import Domain, DomainError, GroupLaw

from helpers import partner


def test_partner_mod_add_examples():
    d = Domain(10)
    assert partner(d, 3, 7) == 6
    assert partner(d, 6, 3) == 3  # 2X = K (mod 10): self-partner


def test_partner_xor_example():
    d = Domain.xor_bits(3)
    assert partner(d, 5, 2) == 7


@pytest.mark.parametrize(
    "domain",
    [Domain(n) for n in (2, 3, 10, 255, 256)]
    + [Domain.xor_bits(w) for w in (1, 3, 8)],
    ids=lambda d: f"{d.law.value}-{d.size}",
)
def test_involution_exhaustive(domain):
    for k in range(domain.size):
        for x in range(domain.size):
            assert partner(domain, k, partner(domain, k, x)) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=257, max_value=1 << 128), st.data())
def test_involution_randomized_large(n, data):
    d = Domain(n)
    k = data.draw(st.integers(0, n - 1))
    x = data.draw(st.integers(0, n - 1))
    assert partner(d, k, partner(d, k, x)) == x


@pytest.mark.parametrize("n", range(2, 65))
def test_mod_add_fixed_point_count(n):
    d = Domain(n)
    for k in range(n):
        fixed = sum(partner(d, k, x) == x for x in range(n))
        if n % 2:
            assert fixed == 1
        else:
            assert fixed in (0, 2)
        # the pairing partitions [N] into 2-orbits plus those fixed points
        assert (n - fixed) % 2 == 0


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_xor_fixed_points(width):
    d = Domain.xor_bits(width)
    assert all(partner(d, 0, x) == x for x in range(d.size))
    for k in range(1, d.size):
        assert all(partner(d, k, x) != x for x in range(d.size))


def test_orbit_partition():
    d = Domain(12)
    for k in range(12):
        seen = set()
        for x in range(12):
            if x in seen:
                continue
            xp = partner(d, k, x)
            seen.update({x, xp})
        assert seen == set(range(12))


def test_rejects_bad_sizes():
    with pytest.raises(DomainError):
        Domain(1)
    with pytest.raises(DomainError):
        Domain(0)
    with pytest.raises(DomainError):
        Domain(12, GroupLaw.XOR)
    with pytest.raises(DomainError):
        Domain((1 << 128) + 1)
    with pytest.raises(DomainError):
        Domain.xor_bits(0)


def test_law_must_be_a_group_law():
    # A string law once passed as mod-add: Domain(8, "xor") enciphered like Domain(8).
    for size, law in [(8, "xor"), (6, "xor"), (8, "add"), (8, None)]:
        with pytest.raises(DomainError, match="^law must be a GroupLaw, got "):
            Domain(size, law)


def test_xor_bits_size():
    assert Domain.xor_bits(8).size == 256


def test_range_checks():
    d = Domain(10)
    with pytest.raises(DomainError):
        partner(d, 10, 0)
    with pytest.raises(DomainError):
        partner(d, 0, -1)
