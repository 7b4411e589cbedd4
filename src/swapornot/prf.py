"""Keyed-PRF backend: subkey derivation, round bits, and tweak digests.

Everything keyed in this package bottoms out in one deterministic primitive,
a keyed pseudorandom function from byte strings to 16-byte blocks.  The
pinned instantiation is keyed BLAKE2b with a 128-bit digest (``PRF_ID``);
stored test vectors depend on it, so changing the primitive must bump the
identifier.

The PRF input encoding is normative and bit-exact:

* subkey draws:  ``b"K"`` + draw counter as 4-byte big-endian
* round bits:    ``b"B"`` + round index as 4-byte big-endian
  + 16-byte tweak digest + element as 16-byte big-endian
* tweak digest:  ``b"T"`` + raw tweak bytes

Fixed-width fields make distinct (tag, index, digest, element) tuples encode
to distinct byte strings; the tag byte separates the three uses.  The subkey
draw counter is 1-based and counts *candidate* draws, so on power-of-two
domains (where no candidate is ever rejected) subkey i comes from counter i.

A :class:`PrfKey` builds its keyed BLAKE2b state once and copies it for each
block, and carries a small memo of subkey schedules, keyed by (N, rounds),
that ``cipher.RoundMaterial.derived`` fills (with ``round_states`` too, once
reused).  Both live and die with the key object; neither takes part in its
equality, hash, repr, copies or pickles.

``encode_round_bit`` and ``round_bit`` are the normative round-bit spec, and
the tests compare the cipher against them.  The cipher's production loop
does not call them: from ``round_states`` it hashes each round's tweak digest
and element inline, in this same layout.  Subkey draws are hashed inline too,
unless the key's class overrides ``block``: the override sees tweak digests
and, since ``sample_uniform`` reads draws in chunks never past the last
accepted one, exactly the draws consumed.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator

from .domain import Domain
from .errors import DomainError, ParameterError, check_int

PRF_ID = "blake2b-128/v1"
KEY_BYTES = 32
BLOCK_BYTES = 16

# Largest value a 4-byte counter/index field can carry.
_MAX_INDEX = 0xFFFFFFFF
# Longest key schedule, the round planner's limit in ``bounds``; below _MAX_INDEX,
# so every round index fits its field.
MAX_ROUNDS = 1 << 16
MAX_TWEAK_BYTES = 0xFFFFFFFF
_DRAW_TABLE_SIZE = 1 << 12
_WORD, _WIDE = struct.Struct(">Q8x"), struct.Struct(">QQ")  # 8- and 16-byte subkey candidates


@dataclass(frozen=True)
class PrfKey:
    """A 32-byte secret key for the pinned keyed PRF.

    Equality and hash depend on ``key_bytes`` alone, and the repr hides it.
    """

    key_bytes: bytes = field(repr=False)
    person: ClassVar[bytes] = b"son.prf"

    def __post_init__(self) -> None:
        if not isinstance(self.key_bytes, bytes) or len(self.key_bytes) != KEY_BYTES:
            raise DomainError(f"PRF key must be exactly {KEY_BYTES} bytes")
        # Per-object caches, not dataclass fields: they stay out of eq, hash and repr.
        keyed = hashlib.blake2b(digest_size=BLOCK_BYTES, key=self.key_bytes, person=self.person)
        object.__setattr__(self, "_keyed", keyed)
        object.__setattr__(self, "_schedules", {})

    def __reduce__(self):
        # The keyed hasher cannot be pickled; a copy rebuilds it from the key bytes.
        return type(self), (self.key_bytes,)

    @classmethod
    def from_hex(cls, hex_string: str) -> "PrfKey":
        return cls(parse_hex(hex_string, "key"))

    def block(self, message: bytes) -> bytes:
        """The 16-byte PRF output for a message."""
        h = self._keyed.copy()
        h.update(message)
        return h.digest()


@dataclass(frozen=True)
class TweakDigest:
    """16-byte digest of a tweak, reusable across every round of a cipher call."""

    digest: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.digest, bytes) or len(self.digest) != BLOCK_BYTES:
            raise DomainError(f"tweak digest must be exactly {BLOCK_BYTES} bytes")


def parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise DomainError(f"{what} is not valid hex: {exc}") from exc


def check_key(key: PrfKey) -> None:
    if not isinstance(key, PrfKey):
        raise DomainError(f"key must be a PrfKey, got a {type(key).__name__}")


def check_tweak(tweak: bytes) -> None:
    if not isinstance(tweak, (bytes, bytearray)):
        raise DomainError("tweak must be a byte string")
    if len(tweak) > MAX_TWEAK_BYTES:
        raise DomainError(f"tweak longer than {MAX_TWEAK_BYTES} bytes")


def tweak_digest(key: PrfKey, tweak: bytes = b"") -> TweakDigest:
    """Digest a tweak once so round bits only ever touch 16 bytes of it."""
    check_key(key)
    check_tweak(tweak)
    return TweakDigest(key.block(b"T" + bytes(tweak)))


def encode_subkey_draw(counter: int) -> bytes:
    check_int(counter, "subkey draw counter", 1, _MAX_INDEX)
    return b"K" + counter.to_bytes(4, "big")


def round_prefix(round_index: int) -> bytes:
    """The message prefix of a round bit: ``b"B"`` + round index as 4-byte big-endian."""
    return b"B" + round_index.to_bytes(4, "big")


@functools.lru_cache(maxsize=8)
def round_prefixes(rounds: int) -> tuple[bytes, ...]:
    """The prefixes of rounds 1..rounds, built on first use of a round count."""
    return tuple(round_prefix(i) for i in range(1, rounds + 1))


def round_states(key: PrfKey, rounds: int) -> tuple:
    """Copies of the key's keyed state, the i-th fed ``round_prefix(i)``, all at C level."""
    states = tuple(itertools.starmap(key._keyed.copy, itertools.repeat((), rounds)))
    collections.deque(map(hashlib.blake2b.update, states, round_prefixes(rounds)), maxlen=0)
    return states


def encode_round_bit(round_index: int, td: TweakDigest, x_hat: int) -> bytes:
    check_int(round_index, "round index", 1, _MAX_INDEX)
    return round_prefix(round_index) + td.digest + x_hat.to_bytes(16, "big")


def round_bit(key: PrfKey, round_index: int, td: TweakDigest, x_hat: int) -> int:
    """Round-function bit for (round, tweak digest, canonical element).

    Bit 0 of the PRF block, reading the block as a big-endian integer.
    """
    check_key(key)
    return key.block(encode_round_bit(round_index, td, x_hat))[-1] & 1


def sample_uniform(blocks: Iterable[bytes], size: int, count: int) -> tuple[int, ...]:
    """Draw ``count`` independent uniform elements of [0, size) from a block stream.

    ``blocks`` yields the exactly 16-byte blocks of draw counters 1, 2, ... in
    order.  It is read in chunks of the elements still needed, never past the last
    accepted block, and a stream that ends first raises ``ParameterError``, as does
    a ``count`` that is not an int; an int count <= 0 reads nothing.  One
    ``struct`` call decodes a chunk's candidates: a block's first 8 bytes
    (big-endian) when size <= 2**63, all 16 otherwise.  Candidates at or above
    size * floor(2**w / size) are rejected, which removes modulo bias exactly with
    fewer than 2 draws per element on average.
    """
    check_int(size, "size", 2, error=DomainError)
    check_int(count, "count", None)
    wide = size > 1 << 63
    limit = ((1 << (128 if wide else 64)) // size) * size
    blocks, out = iter(blocks), []
    while len(out) < count:
        chunk = b"".join(itertools.islice(blocks, count - len(out)))
        if not chunk:
            raise ParameterError("subkey derivation exhausted the 32-bit draw counter")
        if wide:
            out += [c % size for hi, lo in _WIDE.iter_unpack(chunk) if (c := hi << 64 | lo) < limit]
        else:
            out += [c % size for (c,) in _WORD.iter_unpack(chunk) if c < limit]
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _draw_table() -> tuple[bytes, ...]:
    """The messages of draw counters 1.._DRAW_TABLE_SIZE, built on first use."""
    return tuple(map(encode_subkey_draw, range(1, _DRAW_TABLE_SIZE + 1)))


def _keyed_blocks(copy, messages: Iterable[bytes]) -> Iterator[bytes]:
    """``PrfKey.block`` of each message, hashed from a bound ``copy`` of the keyed state."""
    for message in messages:
        h = copy()
        h.update(message)
        yield h.digest()


def derive_subkeys(key: PrfKey, domain: Domain, rounds: int) -> tuple[int, ...]:
    """Per-round subkeys, uniform in [0, N) and deterministic per (key, N, rounds)."""
    check_key(key)
    check_int(rounds, "rounds", 1, MAX_ROUNDS)
    # Past the table, ``encode_subkey_draw`` without its per-call range check.
    counters = range(_DRAW_TABLE_SIZE + 1, _MAX_INDEX + 1)
    tail = map(struct.Struct(">cI").pack, itertools.repeat(b"K"), counters)
    messages = itertools.chain(_draw_table(), tail)
    if type(key).block is PrfKey.block:
        return sample_uniform(_keyed_blocks(key._keyed.copy, messages), domain.size, rounds)
    return sample_uniform(map(key.block, messages), domain.size, rounds)
