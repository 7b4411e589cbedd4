"""Independent oracles shared by the test suite.

The bound oracle uses the stdlib ``decimal`` module at 60 significant
digits, a different library and code path from the package's mpmath
evaluation.  The reference cipher materializes each round as an explicit
permutation table and composes them, instead of tracing a single element
through the loop.  The projected-shuffle oracle shuffles the whole deck,
one coin per pair, and follows the tracked cards through every outcome,
instead of compiling a transition on the tracked positions alone.  The
subkey oracle builds a fresh keyed BLAKE2b hasher for every draw and
rejects by the remainder 2^w mod N, instead of streaming copies of one
keyed state against a precomputed threshold; the sampler oracle applies
the same rule to a given block stream one block at a time, instead of
decoding chunks of blocks at once.
"""

import hashlib
import itertools
from decimal import Decimal, getcontext
from fractions import Fraction

ORACLE_DIGITS = 60


def _ctx():
    getcontext().prec = ORACLE_DIGITS


def _clamp(ln_value: Decimal) -> Decimal:
    if ln_value >= 0:
        return Decimal(1)
    return ln_value.exp()


def _ln_base(n: int, q: int) -> Decimal:
    return (Decimal(q) + Decimal(n)).ln() - (2 * Decimal(n)).ln()


def oracle_ncpa(n: int, rounds: int, q: int) -> Decimal:
    _ctx()
    ln_v = (
        Decimal(2).ln()
        + Decimal(3) / 2 * Decimal(n).ln()
        - Decimal(rounds + 2).ln()
        + (Decimal(rounds) / 2 + 1) * _ln_base(n, q)
    )
    return _clamp(ln_v)


def oracle_cca(n: int, rounds: int, q: int) -> Decimal:
    _ctx()
    ln_v = (
        Decimal(8).ln()
        + Decimal(3) / 2 * Decimal(n).ln()
        - Decimal(rounds + 4).ln()
        + (Decimal(rounds) / 4 + 1) * _ln_base(n, q)
    )
    return _clamp(ln_v)


def oracle_cca_tweak(n: int, rounds: int, q: int) -> Decimal:
    _ctx()
    ln_v = (
        Decimal(8).ln()
        + Decimal(3) / 4 * Decimal(n).ln()
        - Decimal(rounds + 4).ln() / 2
        + (Decimal(rounds + 4) / 8) * _ln_base(n, q)
    )
    return _clamp(ln_v)


def oracle_thorp(n: int, passes: int, q: int) -> Decimal:
    _ctx()
    if q == 0:
        return Decimal(0)
    lg_n = n.bit_length() - 1
    ln_v = (2 * Decimal(q) / passes + 1).ln() + passes * (
        Decimal(4 * lg_n * q).ln() - Decimal(n).ln()
    )
    return _clamp(ln_v)


def relative_error(value: float, expected: Decimal) -> float:
    return abs((Decimal(value) - expected) / expected)


def reference_subkeys(key_bytes: bytes, person: bytes, n: int, count: int):
    """Subkeys by the prf spec, and the number of draws they consumed.

    Draw counter c hashes ``b"K"`` + c as 4-byte big-endian; a candidate is
    the block's first 8 bytes when n <= 2^63, else all 16, and is kept when
    it lies below 2^w - (2^w mod n).
    """
    width = 8 if n <= 1 << 63 else 16
    limit = (1 << (8 * width)) - (1 << (8 * width)) % n
    out, counter = [], 0
    while len(out) < count:
        counter += 1
        h = hashlib.blake2b(digest_size=16, key=key_bytes, person=person)
        h.update(b"K" + counter.to_bytes(4, "big"))
        candidate = int.from_bytes(h.digest()[:width], "big")
        if candidate < limit:
            out.append(candidate % n)
    return tuple(out), counter


def reference_sample_uniform(blocks, size: int, count: int):
    """The ``count`` draws ``prf.sample_uniform`` keeps, one block at a time.

    ``blocks`` is an iterator.  A candidate is the block's first 8 bytes when
    size <= 2^63, else all 16, and is kept, reduced mod size, when it lies below
    2^w - (2^w mod size).  Reading stops at the last kept candidate; None means
    the stream ended first.
    """
    width = 8 if size <= 1 << 63 else 16
    limit = (1 << (8 * width)) - (1 << (8 * width)) % size
    out = []
    while len(out) < count:
        block = next(blocks, None)
        if block is None:
            return None
        candidate = int.from_bytes(block[:width], "big")
        if candidate < limit:
            out.append(candidate % size)
    return tuple(out)


def reference_encipher(n: int, law: str, subkeys, bit_fn, x: int) -> int:
    """Single-step reference: build each round's permutation table, compose.

    ``law`` is "add" or "xor"; ``bit_fn(round_index, x_hat)`` supplies the
    round bit.  Only usable for small n.
    """
    for i, k in enumerate(subkeys, start=1):
        table = []
        for v in range(n):
            w = (k - v) % n if law == "add" else k ^ v
            table.append(w if bit_fn(i, max(v, w)) else v)
        assert sorted(table) == list(range(n)), "round is not a permutation"
        assert all(table[table[v]] == v for v in range(n)), "round is not an involution"
        x = table[x]
    return x


def is_permutation(outputs, n: int) -> bool:
    return len(outputs) == n and sorted(outputs) == list(range(n))


def reference_shuffle_step(n: int, law: str, dist: dict) -> dict:
    """One exact round of the shuffle, enumerated over the whole deck.

    ``dist`` maps tuples of tracked cards' positions to Fractions.  Every
    subkey is drawn, then one fair coin for every pair {v, partner(v)} of
    the deck, fixed points included; each outcome is a permutation of all n
    positions, applied to every tracked tuple.  ``law`` is "add" or "xor".
    """
    out: dict = {}
    for k in range(n):
        partner = [(k - v) % n if law == "add" else k ^ v for v in range(n)]
        pairs = sorted({(min(v, w), max(v, w)) for v, w in enumerate(partner)})
        weight = Fraction(1, n * 2 ** len(pairs))
        for coins in itertools.product((0, 1), repeat=len(pairs)):
            moved = list(range(n))
            for (v, w), coin in zip(pairs, coins):
                if coin:
                    moved[v], moved[w] = w, v
            for positions, p in dist.items():
                new = tuple(moved[v] for v in positions)
                out[new] = out.get(new, 0) + p * weight
    return out
