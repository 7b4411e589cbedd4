import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import (
    Domain,
    DomainError,
    FormatSpec,
    PrfKey,
    RoundMaterial,
    TweakDigest,
    derive_subkeys,
    fpe_encrypt,
    round_bit,
    tweak_digest,
)
from swapornot import prf
from swapornot.cipher import STATE_USES, _IdealKey
from swapornot.errors import ParameterError
from swapornot.prf import (
    KEY_BYTES,
    MAX_TWEAK_BYTES,
    encode_round_bit,
    encode_subkey_draw,
    sample_uniform,
)

from helpers import reference_sample_uniform, reference_subkeys

KEY = PrfKey(bytes(range(KEY_BYTES)))
OTHER_KEY = PrfKey(bytes(range(1, KEY_BYTES + 1)))

# Chi-square critical values at significance 0.001.
CHI2_CRIT = {9: 27.877, 25: 52.620}


def test_key_length_enforced():
    with pytest.raises(DomainError):
        PrfKey(b"short")
    with pytest.raises(DomainError):
        PrfKey.from_hex("00" * 31)
    with pytest.raises(DomainError):
        PrfKey.from_hex("not hex")
    assert PrfKey.from_hex("00" * 32).key_bytes == bytes(32)


def test_used_key_is_a_plain_value():
    # Whatever a key caches once used must not leak into copies, pickles,
    # equality or hashing: those depend on the key bytes alone.
    raw = bytes(range(7, 7 + KEY_BYTES))
    used = PrfKey(raw)
    ciphertext = fpe_encrypt(used, FormatSpec(10, 6), "123456", b"t", 12)
    RoundMaterial.derived(Domain(1000), 5, used)
    # Used again until the schedule keeps its round states.
    for _ in range(STATE_USES - 1):
        assert fpe_encrypt(used, FormatSpec(10, 6), "123456", b"t", 12) == ciphertext
    RoundMaterial.derived(Domain(10**6), 12, used)
    assert len(used._schedules[10**6, 12][3]) == 12
    fresh = PrfKey(raw)
    assert used == fresh and hash(used) == hash(fresh)
    assert used != PrfKey(bytes(KEY_BYTES))
    for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used), copy.copy(used)):
        assert type(clone) is PrfKey
        assert clone == used and hash(clone) == hash(used)
        assert clone.block(b"x") == fresh.block(b"x")
        assert fpe_encrypt(clone, FormatSpec(10, 6), "123456", b"t", 12) == ciphertext
    assert len({used, fresh, copy.deepcopy(used)}) == 1


def test_repr_hides_key_bytes():
    raw = bytes(range(100, 100 + KEY_BYTES))
    key = PrfKey(raw)
    material = RoundMaterial.derived(Domain(10), 2, key)
    for text in (repr(key), str(key), repr([key]), repr(material)):
        assert raw.hex() not in text
        assert repr(raw) not in text
        assert repr(raw)[2:-1] not in text


def test_block_is_deterministic_and_keyed():
    assert KEY.block(b"x") == KEY.block(b"x")
    assert KEY.block(b"x") != KEY.block(b"y")
    assert KEY.block(b"x") != OTHER_KEY.block(b"x")
    assert len(KEY.block(b"")) == 16


def test_derive_subkeys_deterministic_and_in_range():
    d = Domain(1000)
    first = derive_subkeys(KEY, d, 64)
    assert first == derive_subkeys(KEY, d, 64)
    assert len(first) == 64
    assert all(0 <= k < 1000 for k in first)
    # prefixes agree: draws are consumed in a fixed stream order
    assert derive_subkeys(KEY, d, 10) == first[:10]


def test_derive_subkeys_rejects_zero_rounds():
    with pytest.raises(Exception):
        derive_subkeys(KEY, Domain(10), 0)


def test_power_of_two_subkeys_are_block_truncations():
    # No candidate is ever rejected, so subkey i is the low bits of the
    # 64-bit sample from draw counter i.
    d = Domain.xor_bits(8)
    subkeys = derive_subkeys(KEY, d, 5)
    for i, k in enumerate(subkeys, start=1):
        block = KEY.block(encode_subkey_draw(i))
        assert k == int.from_bytes(block[:8], "big") % 256


def test_round_bit_deterministic():
    td = tweak_digest(KEY, b"t")
    assert round_bit(KEY, 3, td, 41) == round_bit(KEY, 3, td, 41)
    assert round_bit(KEY, 3, td, 41) in (0, 1)


def test_round_bit_flip_rate():
    # Changing only the element should flip the bit about half the time.
    td = tweak_digest(KEY, b"")
    bits = [round_bit(KEY, 1, td, x) for x in range(10001)]
    flips = sum(a != b for a, b in zip(bits, bits[1:]))
    assert 0.48 <= flips / 10000 <= 0.52


def test_encoding_layout():
    td = tweak_digest(KEY, b"abc")
    msg = encode_round_bit(7, td, 300)
    assert msg[0:1] == b"B"
    assert msg[1:5] == (7).to_bytes(4, "big")
    assert msg[5:21] == td.digest
    assert msg[21:37] == (300).to_bytes(16, "big")
    assert len(msg) == 37
    assert encode_subkey_draw(9) == b"K" + (9).to_bytes(4, "big")


@pytest.mark.parametrize("i", [1, 255, 256, 300])
def test_round_headers_are_the_encodings_prefix(i):
    # The cached headers the cipher hashes from are the spec's first 5 bytes.
    td = tweak_digest(KEY, b"abc")
    header = b"B" + i.to_bytes(4, "big")
    assert prf.round_prefixes(300)[i - 1] == encode_round_bit(i, td, 12345)[:5] == header


def test_bytearray_tweak_digests_as_its_bytes():
    assert tweak_digest(KEY, bytearray(b"abc")) == tweak_digest(KEY, b"abc")


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 1 << 16), st.integers(0, (1 << 128) - 1)),
    st.tuples(st.integers(1, 1 << 16), st.integers(0, (1 << 128) - 1)),
)
def test_encoding_injective(a, b):
    td = tweak_digest(KEY, b"")
    if a != b:
        assert encode_round_bit(a[0], td, a[1]) != encode_round_bit(b[0], td, b[1])


def test_encoding_tweak_digest_separates():
    td1 = tweak_digest(KEY, b"one")
    td2 = tweak_digest(KEY, b"two")
    assert td1 != td2
    assert encode_round_bit(1, td1, 0) != encode_round_bit(1, td2, 0)


def test_tweak_digest_deterministic_and_sized():
    assert tweak_digest(KEY, b"") == tweak_digest(KEY, b"")
    assert len(tweak_digest(KEY, b"").digest) == 16
    assert tweak_digest(KEY, b"") != tweak_digest(OTHER_KEY, b"")


def test_tweak_digest_distinct_for_large_tweaks():
    one_mb = 1 << 20
    a = tweak_digest(KEY, b"\x00" * one_mb)
    b = tweak_digest(KEY, b"\x00" * (one_mb - 1) + b"\x01")
    assert a != b


def test_tweak_length_bound():
    assert MAX_TWEAK_BYTES == (1 << 32) - 1
    with pytest.raises(DomainError):
        tweak_digest(KEY, object())  # type: ignore[arg-type]
    for digest in (bytes(15), bytes(17), bytearray(16)):
        with pytest.raises(DomainError, match="^tweak digest must be exactly 16 bytes$"):
            TweakDigest(digest)


def test_round_bits_only_touch_the_digest():
    # Equal digests mean equal bits, regardless of what tweak produced them.
    td = tweak_digest(KEY, b"a long tweak " * 1000)
    clone = type(td)(td.digest)
    assert all(
        round_bit(KEY, i, td, x) == round_bit(KEY, i, clone, x)
        for i in (1, 2, 1200)
        for x in (0, 1, 12345)
    )


def _five_sigma_counts(counts, probabilities, draws):
    worst = 0.0
    for count, p in zip(counts, probabilities):
        sigma = math.sqrt(draws * p * (1 - p))
        worst = max(worst, abs(count - draws * p) / sigma)
    return worst


def _subkey_samples(n, draws):
    """The first ``draws`` subkeys of ``KEY`` on [0, n), past ``derive_subkeys``'s round cap."""
    return sample_uniform(map(KEY.block, map(encode_subkey_draw, itertools.count(1))), n, draws)


def test_derive_subkeys_caps_rounds_at_max_rounds():
    # The longest schedule draws past the cached message table, which keeps its fixed size.
    subkeys = derive_subkeys(KEY, Domain(10), prf.MAX_ROUNDS)
    assert len(prf._draw_table()) <= prf._DRAW_TABLE_SIZE
    assert subkeys == _subkey_samples(10, prf.MAX_ROUNDS)
    with pytest.raises(ParameterError, match=r"^rounds must be in \[1, 65536\], got 65537$"):
        derive_subkeys(KEY, Domain(10), prf.MAX_ROUNDS + 1)


@pytest.mark.parametrize("n", [10, 26])
def test_subkey_uniformity_small_domains(n):
    draws = 10**6
    samples = _subkey_samples(n, draws)
    counts = [0] * n
    for s in samples:
        counts[s] += 1
    # every residue class within 5 sigma of uniform
    assert _five_sigma_counts(counts, [1 / n] * n, draws) < 5.0
    # chi-square at significance 0.001
    expected = draws / n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT[n - 1]


def test_subkey_uniformity_large_domain_binned():
    # Per-residue counts are meaningless when N >> draws; check 64 bins.
    n = 10**9 + 7
    draws = 10**6
    bins = 64
    samples = _subkey_samples(n, draws)
    counts = [0] * bins
    for s in samples:
        counts[s * bins // n] += 1
    edges = [(b * n + bins - 1) // bins for b in range(bins + 1)]
    probabilities = [(edges[b + 1] - edges[b]) / n for b in range(bins)]
    assert _five_sigma_counts(counts, probabilities, draws) < 5.0


def test_sample_uniform_rejection_threshold():
    # A block stream rigged to the rejection region first, then a valid draw.
    n = 10
    threshold = ((1 << 64) // n) * n
    blocks = {
        1: threshold.to_bytes(8, "big") + bytes(8),
        2: ((1 << 64) - 1).to_bytes(8, "big") + bytes(8),
        3: (threshold - 3).to_bytes(8, "big") + bytes(8),
    }
    out = sample_uniform(map(blocks.__getitem__, itertools.count(1)), n, 1)
    assert out == ((threshold - 3) % n,)


def test_sample_uniform_stream_end_is_refused():
    n = 10
    rejected = (((1 << 64) // n) * n).to_bytes(8, "big") + bytes(8)
    accepted = bytes(16)
    for stream in ([rejected] * 3, [accepted, rejected], []):
        with pytest.raises(ParameterError, match="exhausted"):
            sample_uniform(iter(stream), n, 2)
    assert sample_uniform(iter([accepted, rejected, accepted]), n, 2) == (0, 0)
    assert sample_uniform(iter(()), n, 0) == ()


SAMPLER_SIZES = [2, 3, 36**12, 2**63, 2**63 + 1, 2**128]


@st.composite
def sampler_streams(draw):
    """A size, a draw count and a block stream with candidates on the rejection edges."""
    size = draw(st.sampled_from(SAMPLER_SIZES) | st.integers(2, 2**128))
    width = 8 if size <= 2**63 else 16
    threshold = ((1 << (8 * width)) // size) * size
    edges = [v for v in (threshold - 1, threshold, (1 << (8 * width)) - 1) if v < 1 << (8 * width)]
    edge_block = st.builds(
        lambda v, tail: v.to_bytes(width, "big") + tail,
        st.sampled_from(edges),
        st.binary(min_size=16 - width, max_size=16 - width),
    )
    count = draw(st.integers(-1, 12))
    # Up to 2 blocks short of the count, so some streams end before it is met.
    length = max(0, count + draw(st.integers(-2, 12)))
    block = st.binary(min_size=16, max_size=16) | edge_block
    return size, count, draw(st.lists(block, min_size=length, max_size=length))


@settings(max_examples=400, deadline=None)
@given(sampler_streams())
def test_sample_uniform_matches_per_block_reference(case):
    size, count, stream = case
    fast, slow = iter(stream), iter(stream)
    expected = reference_sample_uniform(slow, size, count)
    if expected is None:
        with pytest.raises(ParameterError, match="exhausted"):
            sample_uniform(fast, size, count)
    else:
        assert sample_uniform(fast, size, count) == expected
    # The same blocks consumed, and none past the last accepted one.
    left = list(fast)
    assert left == list(slow)
    read = len(stream) - len(left)
    if count <= 0:
        assert read == 0
    elif expected is not None:
        assert reference_sample_uniform(iter([stream[read - 1]]), size, 1) is not None


# Both candidate widths, the rejection edge (36^12 rejects about 23% of
# candidates) and, in PAST_TABLE, draws past the cached message table.
PAST_TABLE = [(36**12, 4000), (2**128, prf._DRAW_TABLE_SIZE + 3)]
ORACLE_CASES = [
    (n, rounds)
    for n in (2, 3, 10**9, 36**12, 2**63, 2**63 + 1, 2**128)
    for rounds in (1, 2, 478)
] + PAST_TABLE


@pytest.mark.parametrize("key_cls", [PrfKey, _IdealKey])
@pytest.mark.parametrize("n,rounds", ORACLE_CASES)
def test_derive_subkeys_matches_fresh_hasher_oracle(key_cls, n, rounds):
    key = key_cls(bytes(range(3, 3 + KEY_BYTES)))
    expected, draws = reference_subkeys(key.key_bytes, key_cls.person, n, rounds)
    assert derive_subkeys(key, Domain(n), rounds) == expected
    if (n, rounds) in PAST_TABLE:
        assert draws > prf._DRAW_TABLE_SIZE


PINNED_SUBKEYS = {
    PrfKey: (1332622707073169332, 551920828741007760, 3622930957349674794, 4606503980989446624),
    _IdealKey: (4732773295600522306, 3658036164678121953, 2749974133943648428, 1305537165460267175),
}


def test_derive_subkeys_hashes_each_draw_through_block(monkeypatch):
    # Every key class draws through PrfKey.block: one call per draw consumed,
    # rejected ones included, in counter order, and nothing past the last.
    messages, block = [], PrfKey.block

    def record(self, message):
        messages.append(message)
        return block(self, message)

    monkeypatch.setattr(PrfKey, "block", record)
    for key_cls, pinned in PINNED_SUBKEYS.items():
        messages.clear()
        key = key_cls(bytes(range(KEY_BYTES)))
        expected, draws = reference_subkeys(key.key_bytes, key_cls.person, 36**12, 4)
        assert derive_subkeys(key, Domain(36**12), 4) == pinned == expected
        assert messages == [encode_subkey_draw(c) for c in range(1, draws + 1)]
        assert draws > 4


def test_block_override_sees_every_subkey_draw():
    messages = []

    class CountingKey(PrfKey):
        def block(self, message: bytes) -> bytes:
            messages.append(message)
            return PrfKey.block(self, message)

    n, rounds = 36**12, 478
    expected, draws = reference_subkeys(KEY.key_bytes, PrfKey.person, n, rounds)
    assert derive_subkeys(CountingKey(KEY.key_bytes), Domain(n), rounds) == expected
    assert messages == [encode_subkey_draw(c) for c in range(1, draws + 1)]
    assert draws > rounds
