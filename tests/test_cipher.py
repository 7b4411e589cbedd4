import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import (
    CallableSource,
    ConstantSource,
    DerivedSource,
    Domain,
    DomainError,
    GroupLaw,
    IdealSource,
    ParameterError,
    PrfKey,
    RoundMaterial,
    decipher,
    encipher,
    encipher_traced,
)
from swapornot.cipher import MAX_ROUNDS

from helpers import is_permutation, reference_encipher

SEED = bytes(range(32))
KEY = PrfKey(bytes(range(32)))


def test_zero_rounds_is_identity():
    d = Domain(10)
    m = RoundMaterial((), ConstantSource(1))
    assert all(encipher(d, m, x) == x for x in range(10))
    assert all(decipher(d, m, x) == x for x in range(10))


def test_all_zero_bits_never_swap():
    d = Domain(10)
    m = RoundMaterial((3, 8, 1, 7), ConstantSource(0))
    assert all(encipher(d, m, x) == x for x in range(10))


def test_hand_trace_mod_add():
    # N=10, K=(3,8), every swap taken: 7 -> (3-7)=6 -> (8-6)=2
    d = Domain(10)
    m = RoundMaterial((3, 8), ConstantSource(1))
    assert encipher(d, m, 7) == 2
    assert decipher(d, m, 2) == 7


def test_hand_trace_xor():
    d = Domain.xor_bits(3)
    m = RoundMaterial((5,), ConstantSource(1))
    assert encipher(d, m, 2) == 7


def test_matches_reference_implementation():
    # Compose explicit per-round permutation tables and compare.
    for law in (GroupLaw.MOD_ADD, GroupLaw.XOR):
        d = Domain(16, law)
        m = RoundMaterial.ideal(d, 9, SEED)
        ctx = m.source.context(b"cross-check")
        bit_fn = lambda i, x_hat: m.source.bit(i, ctx, x_hat)
        for x in range(16):
            expected = reference_encipher(16, law.value, m.subkeys, bit_fn, x)
            assert encipher(d, m, x, b"cross-check") == expected


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
@pytest.mark.parametrize("rounds", [0, 1, 2, 17])
def test_permutation_and_inverse_small(law, rounds):
    d = Domain(256, law)
    m = RoundMaterial.ideal(d, rounds, SEED)
    for tweak in (b"", b"\x01\x02"):
        outputs = [encipher(d, m, x, tweak) for x in range(256)]
        assert is_permutation(outputs, 256)
        assert all(decipher(d, m, y, tweak) == x for x, y in enumerate(outputs))


def test_permutation_non_power_of_two():
    d = Domain(1000)
    m = RoundMaterial.derived(d, 17, KEY)
    outputs = [encipher(d, m, x) for x in range(1000)]
    assert is_permutation(outputs, 1000)
    assert all(decipher(d, m, y) == x for x, y in enumerate(outputs))


def test_sampled_injectivity_large_domain():
    d = Domain(1 << 30)
    m = RoundMaterial.ideal(d, 17, SEED)
    rng = random.Random(7)
    xs = rng.sample(range(1 << 30), 2000)
    ys = [encipher(d, m, x) for x in xs]
    assert len(set(ys)) == len(xs)
    assert all(decipher(d, m, y) == x for x, y in zip(xs, ys))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 500),
    st.integers(0, 20),
    st.binary(max_size=8),
    st.randoms(use_true_random=False),
)
def test_roundtrip_property(n, rounds, tweak, rng):
    d = Domain(n)
    m = RoundMaterial.ideal(d, rounds, SEED)
    x = rng.randrange(n)
    assert decipher(d, m, encipher(d, m, x, tweak), tweak) == x


def test_reversal_symmetry():
    # Enciphering, then enciphering with reversed subkeys and round
    # functions, is the identity.
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(2, 200)
        law = GroupLaw.XOR if rng.random() < 0.3 else GroupLaw.MOD_ADD
        if law is GroupLaw.XOR:
            n = 1 << max(1, n.bit_length() - 1)
        d = Domain(n, law)
        m = RoundMaterial.ideal(d, rng.randrange(0, 24), rng.randbytes(32))
        rev = m.reversed()
        x = rng.randrange(n)
        tweak = rng.randbytes(rng.randrange(0, 5))
        assert encipher(d, rev, encipher(d, m, x, tweak), tweak) == x


def test_double_reverse_restores_behavior():
    d = Domain(50)
    m = RoundMaterial.ideal(d, 7, SEED)
    again = m.reversed().reversed()
    assert all(encipher(d, again, x) == encipher(d, m, x) for x in range(50))


def test_tweak_separation():
    d = Domain(64)
    m = RoundMaterial.derived(d, 17, KEY)
    perms = {}
    for tweak in (b"", b"a", b"b", b"ab"):
        outputs = [encipher(d, m, x, tweak) for x in range(64)]
        assert is_permutation(outputs, 64)
        perms[tweak] = tuple(outputs)
    # sanity only: with 17 PRF rounds these should not all coincide
    assert len(set(perms.values())) > 1


def test_determinism_across_instances():
    d = Domain(1000)
    a = RoundMaterial.ideal(d, 20, SEED)
    b = RoundMaterial.ideal(d, 20, bytes(SEED))
    assert a.subkeys == b.subkeys
    assert all(encipher(d, a, x, b"t") == encipher(d, b, x, b"t") for x in range(100))


def test_ideal_bits_behave_as_memoized():
    d = Domain(100)
    m = RoundMaterial.ideal(d, 5, SEED)
    ctx = m.source.context(b"t")
    bits = [(i, x, m.source.bit(i, ctx, x)) for i in (1, 5) for x in (0, 50, 99)]
    for i, x, bit in bits:
        assert m.source.bit(i, ctx, x) == bit


def test_ideal_and_derived_streams_differ():
    # Same 32 bytes as seed and as PRF key must not produce the same cipher.
    d = Domain(1 << 16)
    mi = RoundMaterial.ideal(d, 10, SEED)
    md = RoundMaterial.derived(d, 10, KEY)
    assert mi.subkeys != md.subkeys


def test_trace_shape_and_consistency():
    d = Domain(10)
    m = RoundMaterial.ideal(d, 1, SEED)
    _, trace = encipher_traced(d, m, 3)
    assert len(trace) == 1

    m = RoundMaterial.derived(d, 6, KEY)
    y, trace = encipher_traced(d, m, 7, b"tw")
    assert len(trace) == 6
    state = 7
    for i, step in enumerate(trace, start=1):
        assert step.x == state
        assert step.partner == d.partner(m.subkeys[i - 1], state)
        assert step.canonical == max(step.x, step.partner)
        assert step.bit in (0, 1)
        if step.bit:
            state = step.partner
    assert state == y
    assert y == encipher(d, m, 7, b"tw")


def test_trace_replay_through_stub_source():
    d = Domain(1000)
    m = RoundMaterial.derived(d, 17, KEY)
    y, trace = encipher_traced(d, m, 123, b"replay")
    bits = {(i, step.canonical): step.bit for i, step in enumerate(trace, start=1)}
    stub = RoundMaterial(m.subkeys, CallableSource(lambda i, xh: bits[(i, xh)]))
    assert encipher(d, stub, 123) == y


def test_out_of_range_inputs():
    d = Domain(10)
    m = RoundMaterial((3,), ConstantSource(1))
    with pytest.raises(DomainError):
        encipher(d, m, 10)
    with pytest.raises(DomainError):
        decipher(d, m, -1)


def test_subkey_domain_mismatch():
    d = Domain(10)
    m = RoundMaterial((3, 12), ConstantSource(1))  # 12 is not in [0, 10)
    with pytest.raises(DomainError):
        encipher(d, m, 0)


def test_round_cap():
    with pytest.raises(ParameterError):
        RoundMaterial(tuple([0] * (MAX_ROUNDS + 1)), ConstantSource(0))
    with pytest.raises(ParameterError):
        RoundMaterial.ideal(Domain(10), MAX_ROUNDS + 1, SEED)
    with pytest.raises(ParameterError):
        RoundMaterial.derived(Domain(10), -1, KEY)


def test_bad_sources():
    with pytest.raises(DomainError):
        IdealSource(b"short")
    with pytest.raises(DomainError):
        ConstantSource(2)


def test_material_is_immutable():
    m = RoundMaterial((1, 2, 3), ConstantSource(0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.subkeys = ()  # type: ignore[misc]
    assert m.rounds == 3


def test_derived_source_matches_module_functions():
    from swapornot import round_bit, tweak_digest

    src = DerivedSource(KEY)
    ctx = src.context(b"abc")
    assert ctx == tweak_digest(KEY, b"abc")
    assert src.bit(4, ctx, 99) == round_bit(KEY, 4, ctx, 99)


# The ideal stream pinned as literals (the golden vectors cover only the PRF
# stream): seed SEED, 8 rounds, tweak b"pin".
IDEAL_PINS = [
    (
        Domain(1000),
        (219, 98, 745, 428, 441, 3, 967, 734),
        {0: 526, 1: 647, 7: 630, 999: 305},
        {0: 320, 1: 2, 7: 870, 999: 75},
        (
            740,
            [
                (5, 214, 214, 0),
                (5, 93, 93, 0),
                (5, 740, 740, 1),
                (740, 688, 740, 0),
                (740, 701, 740, 0),
                (740, 263, 740, 0),
                (740, 227, 740, 0),
                (740, 994, 994, 0),
            ],
        ),
    ),
    (
        Domain.xor_bits(8),
        (107, 66, 225, 172, 105, 131, 167, 174),
        {0: 200, 1: 237, 7: 39, 255: 249},
        {0: 98, 1: 224, 7: 42, 255: 251},
        (
            106,
            [
                (5, 110, 110, 0),
                (5, 71, 71, 1),
                (71, 166, 166, 0),
                (71, 235, 235, 0),
                (71, 46, 71, 0),
                (71, 196, 196, 1),
                (196, 99, 196, 0),
                (196, 106, 196, 1),
            ],
        ),
    ),
]


@pytest.mark.parametrize("d,subkeys,enciphered,deciphered,traced", IDEAL_PINS)
def test_ideal_stream_pinned(d, subkeys, enciphered, deciphered, traced):
    m = RoundMaterial.ideal(d, 8, SEED)
    assert m.subkeys == subkeys
    assert {x: encipher(d, m, x, b"pin") for x in enciphered} == enciphered
    assert {y: decipher(d, m, y, b"pin") for y in deciphered} == deciphered
    y, trace = encipher_traced(d, m, 5, b"pin")
    assert (y, [tuple(step) for step in trace]) == traced
