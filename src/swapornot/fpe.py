"""Format-preserving encryption of fixed-length radix strings.

A format is (radix, length) with the alphabet 0-9a-z; plaintexts and
ciphertexts are strings of exactly ``length`` digits in that radix, mapped
bijectively to integers in [0, radix**length) and enciphered there.  The
group law defaults to modular addition for every radix (XOR is available
when the domain size is a power of two), and the round count is either
explicit or planned automatically from a target CCA advantage and a query
budget.  Planned rounds use the untweaked ``cca`` model, also for calls with
a tweak; at 1e-10 the tweakable ``cca-tweak`` model would need 622 rounds,
not 478, at N = 36^12, q = 10^12, and 570, not 426, at N = 10^16, q = 10^8.
The planner (the ``bounds`` module) is imported by ``plan_rounds`` on the
first planned call, so explicit rounds never load it.

Golden vectors pin the end-to-end behavior - PRF backend, encodings, key
schedule, cipher loop, codec - as a deterministic text file, versioned by
the PRF identifier.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import NamedTuple

from .cipher import RoundMaterial, decipher, encipher
from .domain import MAX_DOMAIN_SIZE, Domain, GroupLaw
from .errors import DomainError, ParameterError, check_int, check_kind
from .prf import PRF_ID, PrfKey

ALPHABET = string.digits + string.ascii_lowercase

# Planner defaults: see the bounds module for why the query budget matters.
DEFAULT_TARGET_ADVANTAGE = 1e-10
MIN_FPE_ROUNDS = 2

VECTOR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FormatSpec:
    """A radix-string format: ``length`` digits base ``radix`` (alphabet 0-9a-z)."""

    radix: int
    length: int

    def __post_init__(self) -> None:
        check_int(self.radix, "radix", 2, len(ALPHABET), DomainError)
        check_int(self.length, "length", 1, error=DomainError)
        if self.domain_size > MAX_DOMAIN_SIZE:
            raise DomainError(f"radix**length must be <= 2**128, got {self.radix}**{self.length}")
        # Built once, not a field: it stays out of eq, hash and repr, as PrfKey's caches do.
        object.__setattr__(self, "_mod_add", Domain(self.domain_size, GroupLaw.MOD_ADD))

    @property
    def domain_size(self) -> int:
        return self.radix**self.length

    @property
    def alphabet(self) -> str:
        return ALPHABET[: self.radix]

    def domain(self, xor_law: bool = False) -> Domain:
        if not xor_law:
            return self._mod_add
        if (n := self.domain_size) & (n - 1):
            raise ParameterError(
                f"XOR law needs a power-of-two domain, got {self.radix}**{self.length}"
            )
        return Domain(n, GroupLaw.XOR)


def encode_digits(text: str, spec: FormatSpec) -> int:
    """Big-endian positional value of a digit string; leading zeros significant."""
    check_kind(spec, FormatSpec, "spec")
    if not isinstance(text, str):
        raise DomainError(f"digits must be a str, got {text!r}")
    if len(text) != spec.length:
        raise DomainError(f"expected {spec.length} digits, got {len(text)}")
    rest = text.lstrip(spec.alphabet)
    if rest:
        raise DomainError(f"character {rest[0]!r} is not a base-{spec.radix} digit")
    return int(text, spec.radix)


def decode_digits(value: int, spec: FormatSpec) -> str:
    """Inverse of encode_digits, zero-padded to the format's length."""
    check_kind(spec, FormatSpec, "spec")
    check_int(value, "value", 0, spec.domain_size - 1, DomainError)
    digits = []
    for _ in range(spec.length):
        value, d = divmod(value, spec.radix)
        digits.append(ALPHABET[d])
    return "".join(reversed(digits))


def plan_rounds(
    spec: FormatSpec, queries: int, target_advantage: float = DEFAULT_TARGET_ADVANTAGE
) -> int:
    """Round count meeting a CCA advantage target against ``queries`` queries on this format."""
    from . import bounds  # the planner loads on the first planned call

    check_kind(spec, FormatSpec, "spec")
    # The CCA planner only returns even counts >= 2, i.e. >= MIN_FPE_ROUNDS.
    return bounds.min_rounds(spec.domain_size, queries, target_advantage, bounds.Model.CCA)


def _fpe(cipher, key, spec, text, tweak, rounds, queries, target_advantage, xor_law) -> str:
    # ``cipher`` is encipher or decipher, read from this module's globals by the caller.
    check_kind(spec, FormatSpec, "spec")
    if rounds is None:
        if queries is None:
            raise ParameterError(
                "planned rounds (rounds=None) need queries, the query budget: at q near N "
                "the log of the bound falls by only about 1/(8N) per round"
            )
        rounds = plan_rounds(spec, queries, target_advantage)
    domain = spec.domain(xor_law)
    material = RoundMaterial.derived(domain, rounds, key, MIN_FPE_ROUNDS)
    return decode_digits(cipher(domain, material, encode_digits(text, spec), tweak), spec)


def fpe_encrypt(
    key: PrfKey,
    spec: FormatSpec,
    plaintext: str,
    tweak: bytes = b"",
    rounds: int | None = None,
    *,
    queries: int | None = None,
    target_advantage: float = DEFAULT_TARGET_ADVANTAGE,
    xor_law: bool = False,
) -> str:
    """Encrypt a digit string to a digit string of the same format."""
    return _fpe(encipher, key, spec, plaintext, tweak, rounds, queries, target_advantage, xor_law)


def fpe_decrypt(
    key: PrfKey,
    spec: FormatSpec,
    ciphertext: str,
    tweak: bytes = b"",
    rounds: int | None = None,
    *,
    queries: int | None = None,
    target_advantage: float = DEFAULT_TARGET_ADVANTAGE,
    xor_law: bool = False,
) -> str:
    """Invert fpe_encrypt under the same key, tweak, format, and rounds."""
    return _fpe(decipher, key, spec, ciphertext, tweak, rounds, queries, target_advantage, xor_law)


class GoldenVector(NamedTuple):
    """One frozen (key, tweak, format, rounds, plaintext) -> ciphertext record."""

    key_hex: str
    tweak_hex: str
    radix: int
    length: int
    rounds: int
    plaintext: str
    ciphertext: str


# Fixed inputs for the golden corpus: two keys, a spread of tweaks, formats,
# and round counts.  Changing anything here (or the PRF) is a vector-format
# version bump.
_VECTOR_KEY_A = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
_VECTOR_KEY_B = "d0e1f2a3b4c5968788796a5b4c3d2e1f0f1e2d3c4b5a69788796a5b4c3d2e1f0"

_VECTOR_INPUTS = [
    (_VECTOR_KEY_A, "", 10, 9, 10, "000000000"),
    (_VECTOR_KEY_A, "", 10, 9, 10, "123456789"),
    (_VECTOR_KEY_A, "ff", 10, 9, 10, "123456789"),
    (_VECTOR_KEY_A, "deadbeef", 10, 9, 340, "999999999"),
    (_VECTOR_KEY_B, "", 10, 16, 17, "0000000000000000"),
    (_VECTOR_KEY_B, "00112233445566778899aabbccddeeff", 10, 16, 100, "1234567890123456"),
    (_VECTOR_KEY_B, "", 36, 6, 10, "zzzzzz"),
    (_VECTOR_KEY_A, "746f6b656e", 36, 6, 17, "a1b2c3"),
    (_VECTOR_KEY_B, "ff00ff00", 16, 4, 64, "0000"),
    (_VECTOR_KEY_A, "", 2, 16, 128, "1010101010101010"),
]


def generate_golden_vectors() -> list[GoldenVector]:
    """Recompute the golden corpus from its fixed inputs."""
    out = []
    for key_hex, tweak_hex, radix, length, rounds, plaintext in _VECTOR_INPUTS:
        spec = FormatSpec(radix, length)
        ciphertext = fpe_encrypt(
            PrfKey.from_hex(key_hex),
            spec,
            plaintext,
            bytes.fromhex(tweak_hex),
            rounds,
        )
        out.append(
            GoldenVector(key_hex, tweak_hex, radix, length, rounds, plaintext, ciphertext)
        )
    return out


def format_golden_vectors(vectors: list[GoldenVector]) -> str:
    """Render the corpus as the line-oriented vector file."""
    lines = [
        f"# swapornot golden vectors format={VECTOR_FORMAT_VERSION} prf={PRF_ID}",
        "key,tweak,radix,length,rounds,plaintext,ciphertext",
    ]
    lines.extend(",".join(map(str, v)) for v in vectors)
    return "\n".join(lines) + "\n"

