"""Format-preserving encryption of fixed-length radix strings.

A format is (radix, length) with the alphabet 0-9a-z; plaintexts and
ciphertexts are strings of exactly ``length`` digits in that radix, mapped
bijectively to integers in [0, radix**length) and enciphered there.  The
group law defaults to modular addition for every radix (XOR is available
when the domain size is a power of two), and the round count is either
explicit or planned automatically from a target CCA advantage and a query
budget.

Golden vectors pin the end-to-end behavior - PRF backend, encodings, key
schedule, cipher loop, codec - as a deterministic text file, versioned by
the PRF identifier.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import NamedTuple

from . import bounds
from .cipher import RoundMaterial, decipher, encipher
from .domain import MAX_DOMAIN_SIZE, Domain, GroupLaw
from .errors import DomainError, ParameterError
from .prf import PRF_ID, PrfKey

ALPHABET = string.digits + string.ascii_lowercase

# Planner defaults: see the bounds module for why the query budget matters.
DEFAULT_TARGET_ADVANTAGE = 1e-10
MIN_FPE_ROUNDS = 2

VECTOR_FORMAT_VERSION = 1
VECTOR_HEADER = "key,tweak,radix,length,rounds,plaintext,ciphertext"


@dataclass(frozen=True)
class FormatSpec:
    """A radix-string format: ``length`` digits base ``radix`` (alphabet 0-9a-z)."""

    radix: int
    length: int

    def __post_init__(self) -> None:
        if not isinstance(self.radix, int) or not 2 <= self.radix <= 36:
            raise DomainError(f"radix must be an integer in [2, 36], got {self.radix!r}")
        if not isinstance(self.length, int) or self.length < 1:
            raise DomainError(f"length must be an integer >= 1, got {self.length!r}")
        if self.domain_size > MAX_DOMAIN_SIZE:
            raise DomainError(
                f"radix**length must be <= 2**128, got {self.radix}**{self.length}"
            )

    @property
    def domain_size(self) -> int:
        return self.radix**self.length

    @property
    def alphabet(self) -> str:
        return ALPHABET[: self.radix]

    def domain(self, xor_law: bool = False) -> Domain:
        if xor_law:
            n = self.domain_size
            if n & (n - 1):
                raise ParameterError(
                    f"XOR law needs a power-of-two domain, got {self.radix}**{self.length}"
                )
            return Domain(n, GroupLaw.XOR)
        return Domain(self.domain_size, GroupLaw.MOD_ADD)


def encode_digits(text: str, spec: FormatSpec) -> int:
    """Big-endian positional value of a digit string; leading zeros significant."""
    if len(text) != spec.length:
        raise DomainError(f"expected {spec.length} digits, got {len(text)}")
    rest = text.lstrip(spec.alphabet)
    if rest:
        raise DomainError(f"character {rest[0]!r} is not a base-{spec.radix} digit")
    return int(text, spec.radix)


def decode_digits(value: int, spec: FormatSpec) -> str:
    """Inverse of encode_digits, zero-padded to the format's length."""
    if not isinstance(value, int) or not 0 <= value < spec.domain_size:
        raise DomainError(f"value {value!r} not in [0, {spec.domain_size})")
    digits = []
    for _ in range(spec.length):
        value, d = divmod(value, spec.radix)
        digits.append(ALPHABET[d])
    return "".join(reversed(digits))


def plan_rounds(
    spec: FormatSpec, queries: int, target_advantage: float = DEFAULT_TARGET_ADVANTAGE
) -> int:
    """Round count meeting a CCA advantage target against ``queries`` queries on this format."""
    # The CCA planner only returns even counts >= 2, i.e. >= MIN_FPE_ROUNDS.
    return bounds.min_rounds(spec.domain_size, queries, target_advantage, bounds.Model.CCA)


def _fpe(cipher, key, spec, text, tweak, rounds, queries, target_advantage, xor_law) -> str:
    # ``cipher`` is encipher or decipher, read from this module's globals by the caller.
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
        VECTOR_HEADER,
    ]
    lines.extend(",".join(map(str, v)) for v in vectors)
    return "\n".join(lines) + "\n"


def parse_golden_vectors(text: str) -> list[GoldenVector]:
    """Parse a vector file, checking its PRF identifier against this build."""
    vectors = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == VECTOR_HEADER:
            continue
        if line.startswith("#"):
            if f"prf={PRF_ID}" not in line:
                raise ParameterError(
                    f"vector file was generated by a different PRF instantiation: {line}"
                )
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ParameterError(f"malformed vector line: {raw!r}")
        key_hex, tweak_hex, radix, length, rounds, plaintext, ciphertext = fields
        vectors.append(
            GoldenVector(
                key_hex, tweak_hex, int(radix), int(length), int(rounds), plaintext, ciphertext
            )
        )
    return vectors
