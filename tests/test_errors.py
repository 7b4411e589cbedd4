"""Every count, size and element a caller passes is checked by ``errors.check_int``.

A value of the wrong type must raise the library's own ``ParameterError`` or
``DomainError``, never a ``TypeError`` or a ``ValueError`` from the standard
library.  The classes are compared exactly: both library errors subclass
``ValueError``, so ``pytest.raises(ValueError)`` would also pass a leak from,
say, ``itertools.islice``.  The second table holds the same rule for the
values that are not integers: a planner target, a model, a digit string, a
PRF key, hex text, the exact verifier's start tuples, support and
probabilities, and an object of the wrong kind (a domain, format, material,
subkey sequence, round-bit source or function, tweak digest or distribution),
which ``errors.check_kind`` refuses with ``DomainError``.
"""

import pytest

from swapornot import (
    BoundQuery,
    CallableSource,
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
    decipher,
    decode_digits,
    derive_subkeys,
    encipher,
    encipher_traced,
    encode_digits,
    exact_tvd_after,
    fpe_decrypt,
    fpe_encrypt,
    min_rounds,
    ncpa_bound,
    plan_rounds,
    shuffle_sample,
    step,
    thorp_bound,
    tvd_to_stationary,
    tweak_digest,
    validation_grid,
)
from swapornot import bounds, cipher, prf
from swapornot.cipher import STATE_USES
from swapornot.errors import check_int, check_kind

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
    ("round_bit-element", DomainError, lambda v: prf.round_bit(KEY, 1, TD, v)),
    ("DerivedSource.bit-element", DomainError, lambda v: DerivedSource(KEY).bit(1, TD, v)),
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
    ("shuffle_sample-seed", ParameterError, lambda v: shuffle_sample(Domain(8), 2, v)),
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


@pytest.mark.parametrize("bad", [1 << 128, -1], ids=["2**128", "-1"])
@pytest.mark.parametrize(
    "call",
    [lambda v: prf.round_bit(KEY, 1, TD, v), lambda v: DerivedSource(KEY).bit(1, TD, v)],
    ids=["round_bit", "DerivedSource.bit"],
)
def test_round_bit_elements_out_of_range_raise_the_library_error(call, bad):
    # An element outside [0, 2**128) has no 16-byte field to go in.
    top = (1 << 128) - 1
    with pytest.raises(DomainError, match=rf"^element must be in \[0, {top}\], got {bad}$"):
        call(bad)


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
    # Hex text that is not a str.
    ("PrfKey.from_hex", DomainError, lambda: PrfKey.from_hex(5)),
    ("parse_hex-tweak", DomainError, lambda: prf.parse_hex(None, "tweak")),
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
    # An object of the wrong kind: an int for a Domain, a tuple for a FormatSpec, and so on.
    ("encipher-domain", DomainError,
     lambda: encipher(10, RoundMaterial((1, 2), ConstantSource(1)), 3)),
    ("fpe_encrypt-spec", DomainError,
     lambda: fpe_encrypt(KEY, (10, 9), "123456789", b"", 10)),
    ("encipher-source", DomainError,
     lambda: encipher(Domain(10), RoundMaterial((1, 2), "src"), 3)),
    ("decipher-material", DomainError, lambda: decipher(Domain(10), None, 3)),
    ("RoundMaterial-subkeys-None", DomainError, lambda: RoundMaterial(None, ConstantSource(1))),
    ("RoundMaterial-subkeys-int", DomainError, lambda: RoundMaterial(5, ConstantSource(1))),
    ("plan_rounds-spec", DomainError, lambda: plan_rounds((10, 9), 10**6)),
    ("encode_digits-spec", DomainError, lambda: encode_digits("12", (10, 2))),
    ("decode_digits-spec", DomainError, lambda: decode_digits(12, (10, 2))),
    ("derive_subkeys-domain", DomainError, lambda: derive_subkeys(KEY, 10, 4)),
    ("RoundMaterial.derived-domain", DomainError, lambda: RoundMaterial.derived(10, 4, KEY)),
    ("exact_tvd_after-domain", DomainError, lambda: exact_tvd_after(10, 1, 1)),
    ("ProjectedDistribution-domain", DomainError,
     lambda: ProjectedDistribution(4, 1, {(0,): 1})),
    ("ProjectedDistribution.stationary-domain", DomainError,
     lambda: ProjectedDistribution.stationary(4, 1)),
    ("shuffle_sample-domain", DomainError, lambda: shuffle_sample(10, 2, 1)),
    ("CallableSource", DomainError, lambda: CallableSource(5)),
    ("reversed-source", DomainError,
     lambda: encipher(Domain(10), RoundMaterial((1, 2), "src").reversed(), 3)),
    ("round_bit-tweak-digest", DomainError, lambda: prf.round_bit(KEY, 1, None, 3)),
    ("DerivedSource.bit-tweak-digest", DomainError, lambda: DerivedSource(KEY).bit(1, b"", 3)),
    ("step-distribution", DomainError, lambda: step(None)),
    ("tvd_to_stationary-distribution", DomainError, lambda: tvd_to_stationary(None)),
]


@pytest.mark.parametrize(
    "expected, call", [row[1:] for row in WRONG_KINDS], ids=[row[0] for row in WRONG_KINDS]
)
def test_wrong_kinds_raise_the_library_error(expected, call):
    with pytest.raises((ParameterError, DomainError)) as info:
        call()
    assert info.type is expected


# WRONG_KINDS ids and the whole message: "an" before a vowel, "a" before the rest.
KIND_MESSAGES = {
    "RoundMaterial-subkeys-None": "subkeys must be an Iterable, got a NoneType",
    "RoundMaterial-subkeys-int": "subkeys must be an Iterable, got an int",
    "encipher-domain": "domain must be a Domain, got an int",
    "fpe_encrypt-spec": "spec must be a FormatSpec, got a tuple",
    "encipher-source": "round-bit source must be a BitSource, got a str",
    "reversed-source": "round-bit source must be a BitSource, got a str",
    "decipher-material": "material must be a RoundMaterial, got a NoneType",
    "CallableSource": "round-bit function must be a Callable, got an int",
    "ProjectedDistribution-domain": "domain must be a Domain, got an int",
    "step-distribution": "distribution must be a ProjectedDistribution, got a NoneType",
}


@pytest.mark.parametrize("row", [row for row in WRONG_KINDS if row[0] in KIND_MESSAGES], ids=repr)
def test_wrong_kind_messages(row):
    name, expected, call = row
    with pytest.raises(expected) as info:
        call()
    assert str(info.value) == KIND_MESSAGES[name]


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


def test_check_kind_message():
    check_kind(KEY, PrfKey, "key")
    with pytest.raises(DomainError, match=r"^key must be a PrfKey, got a bytes$"):
        check_kind(bytes(32), PrfKey, "key")
    with pytest.raises(DomainError, match=r"^n must be an int, got an ellipsis$"):
        check_kind(..., int, "n")
    with pytest.raises(DomainError, match=r"^spec must be an object, got an int$"):
        check_kind(1, type("object", (), {}), "spec")


class _BitOnly:
    def bit(self, round_index, context, x_hat):
        return 1

    def __repr__(self):
        # A stable test id: the default repr carries a memory address.
        return "_BitOnly()"


class _ContextNone(ConstantSource):
    context = None


@pytest.mark.parametrize(
    "source",
    [ConstantSource(1), CallableSource(max), DerivedSource(KEY), _BitOnly(), _ContextNone(1),
     "src", None, 5],
    ids=repr,
)
def test_source_check_agrees_with_the_protocol(source):
    # The loop's attribute check admits exactly what isinstance(source, BitSource) does.
    material = RoundMaterial((1, 2), source)
    if isinstance(source, cipher.BitSource):
        assert encipher_traced(Domain(10), material, 3)[0] in range(10)
    else:
        with pytest.raises(DomainError, match="^round-bit source must be a BitSource, got an? "):
            encipher(Domain(10), material, 3)


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
