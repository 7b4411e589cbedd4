import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import (
    Domain,
    DomainError,
    FormatSpec,
    Model,
    ParameterError,
    PrfKey,
    RoundCapExceeded,
    RoundMaterial,
    decode_digits,
    encode_digits,
    fpe_decrypt,
    fpe_encrypt,
    min_rounds,
    plan_rounds,
)
from swapornot.fpe import format_golden_vectors, generate_golden_vectors

KEY = PrfKey.from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
VECTOR_FILE = Path(__file__).parent / "data" / "golden_vectors.txt"


def test_encode_examples():
    assert encode_digits("000", FormatSpec(10, 3)) == 0
    assert encode_digits("042", FormatSpec(10, 3)) == 42
    assert encode_digits("zz", FormatSpec(36, 2)) == 1295


def test_decode_examples():
    assert decode_digits(0, FormatSpec(10, 3)) == "000"
    assert decode_digits(42, FormatSpec(10, 3)) == "042"
    assert decode_digits(1295, FormatSpec(36, 2)) == "zz"


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 36), st.integers(1, 10), st.data())
def test_codec_roundtrip(radix, length, data):
    spec = FormatSpec(radix, length)
    value = data.draw(st.integers(0, spec.domain_size - 1))
    text = decode_digits(value, spec)
    assert len(text) == length
    assert set(text) <= set(spec.alphabet)
    assert encode_digits(text, spec) == value


def test_codec_errors():
    spec = FormatSpec(10, 3)
    with pytest.raises(DomainError):
        encode_digits("12", spec)
    with pytest.raises(DomainError):
        encode_digits("12a", spec)
    with pytest.raises(DomainError):
        encode_digits("12A", spec)
    with pytest.raises(DomainError):
        decode_digits(1000, spec)
    with pytest.raises(DomainError):
        decode_digits(-1, spec)


@pytest.mark.parametrize(
    "radix,length,text,bad",
    [
        (10, 9, " 12345678", " "),
        (10, 9, "+12345678", "+"),
        (10, 9, "-12345678", "-"),
        (10, 9, "1_2345678", "_"),
        (10, 9, "12345678\n", "\n"),
        (10, 9, "\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669", "\u0661"),
        (16, 4, "00FF", "F"),
    ],
)
def test_codec_rejects_what_int_accepts(radix, length, text, bad):
    # int(text, radix) parses each of these; the codec takes only 0-9a-z.
    with pytest.raises(DomainError, match=re.escape(f"character {bad!r} is not")):
        encode_digits(text, FormatSpec(radix, length))


def test_format_spec_validation():
    with pytest.raises(DomainError):
        FormatSpec(1, 3)
    with pytest.raises(DomainError):
        FormatSpec(37, 3)
    with pytest.raises(DomainError):
        FormatSpec(10, 0)
    with pytest.raises(DomainError):
        FormatSpec(36, 25)  # 36**25 > 2**128
    assert FormatSpec(2, 128).domain_size == 1 << 128


@pytest.mark.parametrize("radix,length", [(10, 9), (10, 16), (36, 6)])
def test_roundtrip_and_format_preservation(radix, length):
    spec = FormatSpec(radix, length)
    alphabet = spec.alphabet
    rng = random.Random(1234)
    for _ in range(100):
        plaintext = "".join(rng.choice(alphabet) for _ in range(length))
        ciphertext = fpe_encrypt(KEY, spec, plaintext, b"tw", 12)
        assert len(ciphertext) == length
        assert set(ciphertext) <= set(alphabet)
        assert fpe_decrypt(KEY, spec, ciphertext, b"tw", 12) == plaintext


def test_tweak_changes_ciphertext():
    spec = FormatSpec(10, 9)
    a = fpe_encrypt(KEY, spec, "123456789", b"", 10)
    b = fpe_encrypt(KEY, spec, "123456789", b"\xff", 10)
    assert a != b


def test_xor_law_roundtrip():
    spec = FormatSpec(16, 4)  # N = 65536, a power of two
    ct = fpe_encrypt(KEY, spec, "00ff", b"", 10, xor_law=True)
    assert fpe_decrypt(KEY, spec, ct, b"", 10, xor_law=True) == "00ff"
    assert ct != fpe_encrypt(KEY, spec, "00ff", b"", 10)  # law changes the permutation


def test_xor_law_needs_power_of_two():
    with pytest.raises(ParameterError):
        fpe_encrypt(KEY, FormatSpec(10, 9), "123456789", b"", 10, xor_law=True)


def test_rounds_floor():
    spec = FormatSpec(10, 9)
    with pytest.raises(ParameterError):
        fpe_encrypt(KEY, spec, "123456789", b"", 1)
    with pytest.raises(ParameterError):
        fpe_encrypt(KEY, spec, "123456789", b"", 0)


def test_float_rounds_are_refused():
    # 10.0 == 10 and hash(10.0) == hash(10): on a key whose memo holds the
    # 10-round schedule a float would find it, and on a fresh key it would
    # reach itertools.islice.  Both are refused before either.
    spec = FormatSpec(10, 9)
    for warm in (False, True):
        key = PrfKey(KEY.key_bytes)
        if warm:
            fpe_encrypt(key, spec, "123456789", b"", 10)
        for work in (fpe_encrypt, fpe_decrypt):
            with pytest.raises(ParameterError, match="got 10.0"):
                work(key, spec, "123456789", b"", 10.0)
        with pytest.raises(ParameterError, match="integer"):
            RoundMaterial.derived(Domain(spec.domain_size), 10.0, key)


def test_str_rounds_are_refused():
    # The round count's type is checked before it is compared with the FPE floor.
    for work in (fpe_encrypt, fpe_decrypt):
        with pytest.raises(ParameterError, match="got '10'"):
            work(KEY, FormatSpec(10, 9), "123456789", b"", "10")


def test_malformed_plaintext():
    spec = FormatSpec(10, 9)
    with pytest.raises(DomainError):
        fpe_encrypt(KEY, spec, "12345678", b"", 10)
    with pytest.raises(DomainError):
        fpe_encrypt(KEY, spec, "12345678x", b"", 10)


def test_plan_rounds_with_budget():
    spec = FormatSpec(10, 9)
    rounds = plan_rounds(spec, queries=10**8)
    assert rounds % 2 == 0
    assert rounds <= 340
    # auto-rounds plumb through encrypt/decrypt deterministically
    ct = fpe_encrypt(KEY, spec, "987654321", b"", None, queries=10**8)
    assert fpe_decrypt(KEY, spec, ct, b"", None, queries=10**8) == "987654321"


@pytest.mark.parametrize(
    "radix, length, queries, cca, cca_tweak",
    [(10, 9, 10**8, 334, 500), (36, 12, 10**12, 478, 622), (10, 16, 10**8, 426, 570)],
)
def test_planned_rounds_use_the_untweaked_cca_model(radix, length, queries, cca, cca_tweak):
    # Tweaked calls plan with the same model; README and the fpe docstring say so.
    n = radix**length
    assert plan_rounds(FormatSpec(radix, length), queries) == cca
    assert min_rounds(n, queries, 1e-10, Model.CCA) == cca
    assert min_rounds(n, queries, 1e-10, Model.CCA_TWEAK) == cca_tweak


def test_plan_rounds_default_budget_unreachable():
    # There is no default budget: planned rounds need the caller's, refused
    # up front (even before the digits are checked).  An explicit q = N-1
    # needs ~8N rounds, and the planner says so rather than weakening the target.
    spec = FormatSpec(10, 9)
    for work in (fpe_encrypt, fpe_decrypt):
        with pytest.raises(ParameterError, match="queries") as info:
            work(KEY, spec, "12345678x", b"", None)
        assert info.type is ParameterError
    with pytest.raises(RoundCapExceeded):
        plan_rounds(spec, 10**9 - 1)


def test_reused_key_matches_fresh_key():
    # One key object across alternating formats, round counts, laws and
    # planned rounds must give what a fresh key from the same bytes gives.
    # 16**4 == 2**16, so two formats share N and may share a subkey
    # schedule; 10**9 at 64 rounds must not reuse the 2**16 one.
    raw = bytes(range(32, 64))
    shared = PrfKey(raw)
    cases = [
        (FormatSpec(10, 9), 340, False),
        (FormatSpec(16, 4), 64, True),
        (FormatSpec(10, 9), 64, False),
        (FormatSpec(16, 4), 64, False),
        (FormatSpec(10, 9), None, False),
        (FormatSpec(2, 16), 64, True),
        (FormatSpec(36, 6), 17, False),
        (FormatSpec(16, 4), None, True),
        (FormatSpec(10, 9), 10, False),
    ]
    rng = random.Random(3)
    for _ in range(3):
        for spec, rounds, xor in cases:
            opts = {"queries": 10**4 if rounds is None else None, "xor_law": xor}
            text = "".join(rng.choices(spec.alphabet, k=spec.length))
            tweak = rng.randbytes(rng.randrange(9))
            ciphertext = fpe_encrypt(shared, spec, text, tweak, rounds, **opts)
            assert ciphertext == fpe_encrypt(PrfKey(raw), spec, text, tweak, rounds, **opts)
            assert fpe_decrypt(shared, spec, ciphertext, tweak, rounds, **opts) == text
            assert fpe_decrypt(PrfKey(raw), spec, ciphertext, tweak, rounds, **opts) == text


def test_golden_vectors_match_frozen_file():
    assert format_golden_vectors(generate_golden_vectors()) == VECTOR_FILE.read_text()


def test_golden_vectors_regeneration_is_stable():
    assert format_golden_vectors(generate_golden_vectors()) == format_golden_vectors(
        generate_golden_vectors()
    )


def test_golden_vectors_verify_and_invert():
    for v in generate_golden_vectors():
        spec = FormatSpec(v.radix, v.length)
        key = PrfKey.from_hex(v.key_hex)
        tweak = bytes.fromhex(v.tweak_hex)
        assert fpe_encrypt(key, spec, v.plaintext, tweak, v.rounds) == v.ciphertext
        assert fpe_decrypt(key, spec, v.ciphertext, tweak, v.rounds) == v.plaintext

