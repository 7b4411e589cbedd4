import copy
import dataclasses
import hashlib
import pickle
import random
import sys
import threading
import tracemalloc

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
from swapornot import prf
from swapornot.cipher import MAX_ROUNDS, SCHEDULE_MEMO_SIZE, STATE_USES, _IdealKey

from helpers import is_permutation, partner, reference_encipher

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


def _oracle_block(key: bytes, message: bytes) -> bytes:
    # The pinned PRF written out afresh, with no PrfKey in the way.
    return hashlib.blake2b(message, digest_size=16, key=key, person=b"son.prf").digest()


def _oracle_subkeys(key: bytes, n: int, rounds: int) -> list[int]:
    # Rejection sampling of 64-bit candidates, as the prf module specifies for n <= 2**63.
    threshold = (1 << 64) // n * n
    out, counter = [], 1
    while len(out) < rounds:
        block = _oracle_block(key, b"K" + counter.to_bytes(4, "big"))
        counter += 1
        candidate = int.from_bytes(block[:8], "big")
        if candidate < threshold:
            out.append(candidate % n)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.binary(min_size=32, max_size=32),
    st.integers(2, 64),
    st.booleans(),
    st.integers(0, 24),
    st.binary(max_size=12),
    st.data(),
)
def test_derived_material_matches_independent_oracle(key, n, xor, rounds, tweak, data):
    law = GroupLaw.XOR if xor else GroupLaw.MOD_ADD
    if xor:
        n = 1 << (n.bit_length() - 1)
    d = Domain(n, law)
    m = RoundMaterial.derived(d, rounds, PrfKey(key))
    subkeys = _oracle_subkeys(key, n, rounds)
    digest = _oracle_block(key, b"T" + tweak)

    def bit_fn(i, x_hat):
        message = b"B" + i.to_bytes(4, "big") + digest + x_hat.to_bytes(16, "big")
        return _oracle_block(key, message)[-1] & 1

    x = data.draw(st.integers(0, n - 1))
    y = reference_encipher(n, law.value, subkeys, bit_fn, x)
    assert m.subkeys == tuple(subkeys)
    assert encipher(d, m, x, tweak) == y
    assert decipher(d, m, y, tweak) == x


SCALE_DOMAINS = {
    "add-2": Domain(2),
    "add-10^9": Domain(10**9),
    "add-36^12": Domain(36**12),
    "add-2^128": Domain(1 << 128),
    "xor-1": Domain.xor_bits(1),
    "xor-30": Domain.xor_bits(30),
    "xor-128": Domain.xor_bits(128),
}


@pytest.mark.parametrize("ideal", [False, True], ids=["derived", "ideal"])
@pytest.mark.parametrize("d", SCALE_DOMAINS.values(), ids=SCALE_DOMAINS.keys())
def test_keyed_loop_equals_generic_loop_at_scale(d, ideal):
    # Keyed material is hashed inline; the generic loop fed prf.round_bit is the spec.
    rng = random.Random(d.size)
    for rounds in (0, 1, 2, 340, 478):
        m = RoundMaterial.ideal(d, rounds, SEED) if ideal else RoundMaterial.derived(d, rounds, KEY)
        key = m.source.key
        # The same schedule on a fresh key object, asked for until it keeps round states.
        fresh = _IdealKey(SEED) if ideal else PrfKey(KEY.key_bytes)
        for _ in range(STATE_USES):
            reused = RoundMaterial.derived(d, rounds, fresh)
        assert reused.subkeys == m.subkeys and len(fresh._schedules[d.size, rounds][3]) == rounds
        for tweak in (b"", rng.randbytes(8), rng.randbytes(256)):
            td = prf.tweak_digest(key, tweak)
            generic = RoundMaterial(
                m.subkeys, CallableSource(lambda i, xh: prf.round_bit(key, i, td, xh))
            )
            for x in (0, 1, d.size - 1, rng.randrange(d.size)):
                y = encipher(d, m, x, tweak)
                assert y == encipher(d, generic, x) == encipher(d, reused, x, tweak)
                assert decipher(d, m, y, tweak) == x == decipher(d, generic, y)
                assert decipher(d, reused, y, tweak) == x


def test_keyed_loop_skips_the_bit_call_chain(monkeypatch):
    d = Domain(10**9)
    materials = [RoundMaterial.derived(d, 40, KEY), RoundMaterial.ideal(d, 40, SEED)]
    before = [
        (encipher(d, m, 7, b"tw"), encipher(d, m.reversed(), 7, b"tw"),
         encipher_traced(d, m, 7, b"tw"))
        for m in materials
    ]

    def refuse(*args):
        raise AssertionError("round bit through the call chain")

    monkeypatch.setattr(prf, "round_bit", refuse)
    monkeypatch.setattr(DerivedSource, "bit", refuse)
    # Reversed material only records its direction, so it runs fused too.
    for m, (y, y_reversed, _) in zip(materials, before):
        assert encipher(d, m, 7, b"tw") == y
        assert decipher(d, m, y, b"tw") == 7
        assert encipher(d, m.reversed(), 7, b"tw") == y_reversed
        assert decipher(d, m.reversed(), y_reversed, b"tw") == 7
    monkeypatch.undo()

    # Traces still ask the source for every bit.
    calls = []
    keyed_bit = DerivedSource.bit
    monkeypatch.setattr(
        DerivedSource, "bit", lambda self, i, ctx, xh: calls.append(i) or keyed_bit(self, i, ctx, xh)
    )
    for m, (_, _, traced) in zip(materials, before):
        assert encipher_traced(d, m, 7, b"tw") == traced
    assert calls == 2 * list(range(1, 41))

    # So do the test sources, in round order forwards and backwards.
    coins = []
    replay = RoundMaterial((3, 8), CallableSource(lambda i, xh: coins.append(i) or 1))
    assert encipher(Domain(10), replay, 7) == 2 and decipher(Domain(10), replay, 2) == 7
    assert coins == [1, 2, 2, 1]
    calls.clear()
    monkeypatch.setattr(ConstantSource, "bit", lambda self, i, ctx, xh: calls.append(i) or 1)
    constant = RoundMaterial((3, 8), ConstantSource(1))
    assert encipher(Domain(10), constant, 7) == 2 and decipher(Domain(10), constant, 2) == 7
    assert calls == [1, 2, 2, 1]


def test_derived_schedule_is_memoized_per_key():
    draws = []

    class CountingKey(PrfKey):
        def block(self, message):
            draws.append(message[:1] == b"K")
            return super().block(message)

    key = CountingKey(bytes(range(32)))
    first = RoundMaterial.derived(Domain(1024), 40, key)
    assert sum(draws) >= 40
    draws.clear()
    # Subkeys depend on (key, N, rounds) only, not on the group law.
    again = RoundMaterial.derived(Domain(1024, GroupLaw.XOR), 40, key)
    assert again.subkeys == first.subkeys and sum(draws) == 0
    # The memo belongs to the key object: an equal key derives afresh.
    twin = CountingKey(bytes(range(32)))
    assert RoundMaterial.derived(Domain(1024), 40, twin).subkeys == first.subkeys
    assert sum(draws) >= 40
    # It stays small however many schedules one key is asked for.
    for rounds in range(1, 3 * SCHEDULE_MEMO_SIZE):
        fresh = PrfKey(key.key_bytes)
        m = RoundMaterial.derived(Domain(1000), rounds, key)
        assert m.subkeys == RoundMaterial.derived(Domain(1000), rounds, fresh).subkeys
        assert len(key._schedules) <= SCHEDULE_MEMO_SIZE


def test_shared_key_schedule_memo_under_threads():
    # Threads racing on one key's memo may recompute a schedule or its round
    # states, never see a wrong one or give a wrong bit.
    shapes = [(n, r) for n in (10, 1000, 1024) for r in (3, 8)]
    assert len(shapes) > SCHEDULE_MEMO_SIZE
    expected = {}
    for n, r in shapes:
        m = RoundMaterial.derived(Domain(n), r, PrfKey(SEED))
        expected[n, r] = m.subkeys, [encipher(Domain(n), m, x, b"tw") for x in range(n)]
    key = PrfKey(SEED)
    wrong, with_states = [], []

    def work(offset):
        for i in range(300):
            n, r = shapes[(i + offset) % len(shapes)]
            m = RoundMaterial.derived(Domain(n), r, key)
            if m.subkeys != expected[n, r][0]:
                wrong.append((n, r))
            # Reuse the schedule until it keeps its round states, then use them.
            for _ in range(STATE_USES):
                m = RoundMaterial.derived(Domain(n), r, key)
            entry = key._schedules.get((n, r))
            with_states.append(entry is not None and entry[3] is not None)
            x = i * 7 % n
            y = encipher(Domain(n), m, x, b"tw")
            if y != expected[n, r][1][x] or decipher(Domain(n), m, y, b"tw") != x:
                wrong.append((n, r, x))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and len(with_states) == 6 * 300 and any(with_states)


def test_reversal_symmetry():
    # Enciphering, then enciphering with reversed material, is the identity.
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
    assert again == m and again != m.reversed()
    assert all(encipher(d, again, x) == encipher(d, m, x) for x in range(50))


def refuse_round_states(key, rounds):
    raise AssertionError("round states built for one call")


def replayed_coin(round_index: int, x_hat: int) -> int:
    # Module level, so a material that replays it can be pickled.
    return (round_index ^ x_hat) >> 1 & 1


@pytest.mark.parametrize(
    "source",
    [
        DerivedSource(PrfKey(SEED)),
        IdealSource(SEED),
        CallableSource(replayed_coin),
        ConstantSource(1),
    ],
    ids=["derived", "ideal", "callable", "constant"],
)
def test_reversed_material_is_the_decipher_direction(source, monkeypatch):
    d = Domain(1000)
    if isinstance(source, DerivedSource):
        # Reused until the schedule keeps its round states.
        for _ in range(STATE_USES):
            m = RoundMaterial.derived(d, 24, source.key)
        assert source.key._schedules[d.size, 24][3] is not None
        # Both directions run from the states the key keeps: none are built.
        monkeypatch.setattr(prf, "round_states", refuse_round_states)
    else:
        m = RoundMaterial(tuple(random.Random(5).randrange(1000) for _ in range(24)), source)
    rev = m.reversed()
    assert rev.subkeys == m.subkeys and rev.source is m.source
    assert rev.backward and not m.backward
    assert rev != m and rev.reversed() == m
    for x, tweak in ((0, b""), (7, b"tw"), (999, bytes(range(40)))):
        y = encipher(d, m, x, tweak)
        assert encipher(d, rev, y, tweak) == decipher(d, m, y, tweak) == x
        assert decipher(d, rev, x, tweak) == y
        back, trace = encipher_traced(d, rev, y, tweak)
        _, forward = encipher_traced(d, m, x, tweak)
        # The same pairs and bits, met from the last round to the first.
        assert back == x
        assert [step[2:] for step in trace] == [step[2:] for step in reversed(forward)]
    monkeypatch.undo()  # a clone's key is a new object, with no kept states
    for clone in (pickle.loads(pickle.dumps(rev)), copy.copy(rev), copy.deepcopy(rev)):
        assert clone == rev and clone.backward
        assert encipher(d, clone, 5, b"t") == decipher(d, m, 5, b"t")
    for raw in (SEED.hex(), repr(SEED), repr(SEED)[2:-1]):
        assert raw not in repr(rev)


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
        assert step.partner == partner(d, m.subkeys[i - 1], state)
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


def test_cached_span_guards_every_domain():
    # A material's subkey span is taken once, then compared with each domain it meets.
    m = RoundMaterial((3, 12), ConstantSource(1))
    assert encipher(Domain(13), m, 0) == 9
    for _ in range(2):
        with pytest.raises(DomainError, match="subkey 12 not in"):
            encipher(Domain(10), m, 0)
        with pytest.raises(DomainError, match="subkey 12 not in"):
            decipher(Domain(10), m, 0)
    assert decipher(Domain(13), m, 9) == 0
    # So is a derived schedule's, memoized with it, before and after it keeps round states.
    key = PrfKey(SEED)
    for _ in range(STATE_USES):
        derived = RoundMaterial.derived(Domain(1000), 17, key)
        with pytest.raises(DomainError):
            encipher(Domain(10), derived, 0)
    assert key._schedules[1000, 17][3] is not None


def test_round_states_held_only_by_a_reused_schedule(monkeypatch):
    d, rounds = Domain(10**9), 340
    RoundMaterial.derived(d, rounds, PrfKey(bytes(32)))  # builds the shared caches
    key = PrfKey(SEED)
    kept = []  # the key's round states for (N, R) after each derived call
    tracemalloc.start()
    try:
        first = RoundMaterial.derived(d, rounds, key)
        kept.append(key._schedules[d.size, rounds][3])
        encipher(d, first, 5)
        once = tracemalloc.get_traced_memory()[0]
        for _ in range(STATE_USES - 1):
            m = RoundMaterial.derived(d, rounds, key)
            kept.append(key._schedules[d.size, rounds][3])
        reused = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Used once, the key holds its subkeys and no round state (a state is about 0.45 KB).
    assert once < 200 * rounds
    assert all(states is None for states in kept[:-1])
    # Reused, its schedule holds exactly one state per round, kept for later materials.
    states = kept[-1]
    assert len(states) == rounds and reused - once > 300 * rounds
    RoundMaterial.derived(d, rounds, key)
    assert key._schedules[d.size, rounds][3] is states
    assert len(key._schedules) <= SCHEDULE_MEMO_SIZE
    # They belong to the key, so a public material over it runs from them too.
    public = RoundMaterial(m.subkeys, DerivedSource(key))
    expected = encipher(d, m, 5, b"t")
    monkeypatch.setattr(prf, "round_states", refuse_round_states)
    assert m == public and encipher(d, public, 5, b"t") == expected
    monkeypatch.undo()
    for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert clone == m and encipher(d, clone, 5, b"t") == expected


KEPT_DOMAINS = [Domain(10**9), Domain.xor_bits(30)]


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from(KEPT_DOMAINS),
    rounds=st.sampled_from([1, 2, 24]),
)
def test_public_material_runs_from_the_keys_kept_states(data, d, rounds):
    # Kept states depend only on the key and the round index, so once a key
    # keeps them for (N, R), any R subkeys in [0, N) over that key run from them.
    key = PrfKey(SEED)
    for _ in range(STATE_USES):
        RoundMaterial.derived(d, rounds, key)
    assert len(key._schedules[d.size, rounds][3]) == rounds
    subkeys = data.draw(st.lists(st.integers(0, d.size - 1), min_size=rounds, max_size=rounds))
    public = RoundMaterial(subkeys, DerivedSource(key))
    x = data.draw(st.integers(0, d.size - 1))
    for tweak in (b"", b"tw", bytes(range(256))):
        td = prf.tweak_digest(key, tweak)
        generic = RoundMaterial(subkeys, CallableSource(lambda i, xh: prf.round_bit(key, i, td, xh)))
        y, back = encipher(d, generic, x), decipher(d, generic, x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prf, "round_states", refuse_round_states)
            assert encipher(d, public, x, tweak) == y
            assert decipher(d, public, y, tweak) == x
            assert decipher(d, public, x, tweak) == back
            assert encipher(d, public.reversed(), y, tweak) == x


def test_round_cap():
    # Every round index fits the 4-byte field of a round-bit message.
    assert MAX_ROUNDS < 2**32
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
