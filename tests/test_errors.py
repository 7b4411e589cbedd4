"""Every count, size and element a caller passes is checked by ``errors.check_int``.

A value of the wrong type must raise the library's own ``ParameterError`` or
``DomainError``, never a ``TypeError`` or a ``ValueError`` from the standard
library.  The classes are compared exactly: both library errors subclass
``ValueError``, so ``pytest.raises(ValueError)`` would also pass a leak from,
say, ``itertools.islice``.  The second table holds the same rule for the
values that are not integers: a planner target, a model, a digit string, a
PRF key, and the exact verifier's start tuples, support and probabilities.
"""

import pytest

from swapornot import (
    BoundQuery,
    ConstantSource,
    DerivedSource,
    Domain,
    DomainError,
    FormatSpec,
    Model,
    ParameterError,
    PrfKey,
    ProjectedDistribution,
    RoundMaterial,
    cca_bound,
    decode_digits,
    derive_subkeys,
    encipher,
    exact_tvd_after,
    fpe_decrypt,
    fpe_encrypt,
    min_rounds,
    ncpa_bound,
    plan_rounds,
    shuffle_sample,
    thorp_bound,
    tweak_digest,
    validation_grid,
)
from swapornot import bounds, cipher, prf
from swapornot.cipher import STATE_USES
from swapornot.errors import check_int

KEY = PrfKey(bytes(range(32)))
TD = tweak_digest(KEY)

# (id, error class, call of one bad value)
ENTRY_POINTS = [
    ("Domain", DomainError, lambda v: Domain(v)),
    ("Domain.xor_bits", DomainError, lambda v: Domain.xor_bits(v)),
    ("Domain.check_element", DomainError, lambda v: Domain(10).check_element(v)),
    ("encipher-element", DomainError,
     lambda v: encipher(Domain(10), RoundMaterial((), ConstantSource(1)), v)),
    ("FormatSpec-radix", DomainError, lambda v: FormatSpec(v, 3)),
    ("FormatSpec-length", DomainError, lambda v: FormatSpec(10, v)),
    ("decode_digits", DomainError, lambda v: decode_digits(v, FormatSpec(10, 3))),
    ("RoundMaterial-subkey", DomainError,
     lambda v: encipher(Domain(1000), RoundMaterial((v,), ConstantSource(1)), 3)),
    ("RoundMaterial.derived", ParameterError,
     lambda v: RoundMaterial.derived(Domain(1000), v, KEY)),
    ("fpe_encrypt-rounds", ParameterError,
     lambda v: fpe_encrypt(KEY, FormatSpec(10, 9), "123456789", b"", v)),
    ("derive_subkeys", ParameterError, lambda v: derive_subkeys(KEY, Domain(1000), v)),
    ("encode_subkey_draw", ParameterError, lambda v: prf.encode_subkey_draw(v)),
    ("encode_round_bit", ParameterError, lambda v: prf.encode_round_bit(v, TD, 0)),
    ("sample_uniform-size", DomainError, lambda v: prf.sample_uniform(iter(()), v, 1)),
    ("sample_uniform-count", ParameterError, lambda v: prf.sample_uniform(iter(()), 10, v)),
    ("ProjectedDistribution-tracked", ParameterError,
     lambda v: ProjectedDistribution(Domain(4), v, {})),
    ("ProjectedDistribution.stationary", ParameterError,
     lambda v: ProjectedDistribution.stationary(Domain(4), v)),
    ("exact_tvd_after-rounds", ParameterError, lambda v: exact_tvd_after(Domain(4), v, 1)),
    ("exact_tvd_after-tracked", ParameterError, lambda v: exact_tvd_after(Domain(4), 2, v)),
    ("validation_grid-size", ParameterError, lambda v: list(validation_grid(v, 1, 1))),
    ("validation_grid-tracked", ParameterError, lambda v: list(validation_grid(4, v, 1))),
    ("validation_grid-rounds", ParameterError, lambda v: list(validation_grid(4, 1, v))),
    ("shuffle_sample", ParameterError, lambda v: shuffle_sample(Domain(8), v, 0)),
    ("ncpa_bound-N", ParameterError, lambda v: ncpa_bound(v, 4, 1)),
    ("ncpa_bound-rounds", ParameterError, lambda v: ncpa_bound(100, v, 1)),
    ("cca_bound-q", ParameterError, lambda v: cca_bound(100, 4, v)),
    ("thorp_bound-q", ParameterError, lambda v: thorp_bound(64, 4, v)),
    ("min_rounds-N", ParameterError, lambda v: min_rounds(v, 1, 1e-3, Model.CCA)),
    ("min_rounds-q", ParameterError, lambda v: min_rounds(100, v, 1e-3, Model.CCA)),
]


@pytest.mark.parametrize("bad", [2.5, "3"], ids=["float", "str"])
@pytest.mark.parametrize(
    "expected, call", [row[1:] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS]
)
def test_non_integers_raise_the_library_error(expected, call, bad):
    with pytest.raises((ParameterError, DomainError)) as info:
        call(bad)
    assert info.type is expected
    assert str(info.value).endswith(f"must be an integer, got {bad!r}")


# (id, error class, call) for values of another kind than int.
WRONG_KINDS = [
    ("min_rounds-target", ParameterError, lambda: min_rounds(10**9, 10, "0.1", Model.CCA)),
    ("plan_rounds-target", ParameterError,
     lambda: plan_rounds(FormatSpec(10, 9), 10**8, "1e-10")),
    ("min_rounds-model", ParameterError, lambda: min_rounds(10**9, 10, 1e-10, "cca")),
    ("BoundQuery-model", ParameterError,
     lambda: BoundQuery(10**9, 340, 10**8, "cca").advantage()),
    ("fpe_encrypt-plaintext", DomainError,
     lambda: fpe_encrypt(KEY, FormatSpec(10, 9), 123456789, b"", 10)),
    ("fpe_decrypt-ciphertext", DomainError,
     lambda: fpe_decrypt(KEY, FormatSpec(10, 9), b"123456789", b"", 10)),
    # A raw 32-byte string where a PrfKey belongs.
    ("fpe_encrypt-key", DomainError,
     lambda: fpe_encrypt(bytes(32), FormatSpec(10, 9), "123456789", b"", 10)),
    ("fpe_decrypt-key", DomainError,
     lambda: fpe_decrypt(bytes(32), FormatSpec(10, 9), "123456789", b"", 10)),
    ("RoundMaterial.derived-key", DomainError,
     lambda: RoundMaterial.derived(Domain(10), 4, bytes(32))),
    ("derive_subkeys-key", DomainError, lambda: derive_subkeys(bytes(32), Domain(10), 4)),
    ("tweak_digest-key", DomainError, lambda: tweak_digest(bytes(32))),
    ("round_bit-key", DomainError,
     lambda: prf.round_bit(bytes(32), 1, prf.TweakDigest(bytes(16)), 3)),
    ("DerivedSource-key", DomainError,
     lambda: encipher(Domain(10), RoundMaterial((1, 2), DerivedSource(bytes(32))), 3)),
    # The exact verifier's start tuples, support and probabilities.
    ("point_mass-start", DomainError, lambda: ProjectedDistribution.point_mass(Domain(4), 5)),
    ("exact_tvd_after-start", DomainError, lambda: exact_tvd_after(Domain(4), 1, 2, 5)),
    ("ProjectedDistribution-support-key", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, {0: 1})),
    ("ProjectedDistribution-pairs", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, [((0,), 1)])),
    ("ProjectedDistribution-nan", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, {(0,): float("nan")})),
    ("ProjectedDistribution-inf", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, {(0,): float("inf")})),
    ("ProjectedDistribution-None", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, {(0,): None})),
    ("ProjectedDistribution-str", DomainError,
     lambda: ProjectedDistribution(Domain(4), 1, {(0,): "1/2", (1,): "1/2"})),
]


@pytest.mark.parametrize(
    "expected, call", [row[1:] for row in WRONG_KINDS], ids=[row[0] for row in WRONG_KINDS]
)
def test_wrong_kinds_raise_the_library_error(expected, call):
    with pytest.raises((ParameterError, DomainError)) as info:
        call()
    assert info.type is expected


def test_check_int_messages():
    check_int(3, "n", 3, 3)
    check_int(10**40, "n", 3)
    check_int(-(10**40), "n", None)  # no lower bound: the type alone is checked
    with pytest.raises(ParameterError, match=r"^n must be an integer, got '3'$"):
        check_int("3", "n", None)
    with pytest.raises(ParameterError, match=r"^n must be an integer, got 3\.0$"):
        check_int(3.0, "n", 0)
    with pytest.raises(DomainError, match=r"^n must be in \[0, 4\], got 5$"):
        check_int(5, "n", 0, 4, DomainError)
    with pytest.raises(ParameterError, match=r"^n must be >= 2, got 1$"):
        check_int(1, "n", 2)


def test_one_round_cap_next_to_the_index_field():
    # The cipher and the planner read the cap that prf keeps below its 4-byte field.
    assert cipher.MAX_ROUNDS is prf.MAX_ROUNDS is bounds.ROUND_CAP < prf._MAX_INDEX
    with pytest.raises(ParameterError, match=r"^rounds must be in \[0, 65536\], got 65537$"):
        RoundMaterial.derived(Domain(1000), prf.MAX_ROUNDS + 1, KEY)


def test_public_subkeys_must_be_nonnegative_ints():
    # A non-int subkey once made encipher(Domain(1000), ..., 3) return 998.5.
    for subkeys in [(1.5,), ("a",), (4, 2.0), (-1,), (3, True, -2)]:
        m = RoundMaterial(subkeys, ConstantSource(1))
        for _ in range(2):  # refused on every call, not only the first
            with pytest.raises(DomainError, match="^subkey must be"):
                encipher(Domain(1000), m, 3)
    assert encipher(Domain(1000), RoundMaterial((4, 2), ConstantSource(1)), 3) == 1


def test_derived_materials_skip_the_subkey_scan(monkeypatch):
    # Derived subkeys are ints by construction: no call checks them one by one.
    calls = []
    monkeypatch.setattr(cipher, "check_int", lambda *args: calls.append(args[1]))
    d, key = Domain(10**9), PrfKey(bytes(32))
    for _ in range(STATE_USES + 1):
        encipher(d, RoundMaterial.derived(d, 340, key), 5)
    assert "subkey" not in calls and len(calls) == 2 * (STATE_USES + 1)
