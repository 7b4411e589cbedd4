"""The swap-or-not encipher/decipher loop, plain and tweakable.

Each round pairs the current value X with X' = partner(K_i, X), names the
pair by its larger member X_hat = max(X, X'), and swaps X for X' exactly
when a one-bit round function of (round, tweak, X_hat) is 1.  Because the
round function sees the *pair* rather than the point, every round is an
involution on [N] and the whole loop is a permutation; running the rounds
in reverse order inverts it.

The plain cipher is the tweakable cipher at the empty tweak: there is one
loop, and the tweak (digested once per call) is simply part of the round
function's input.  Round bits come from a pluggable :class:`BitSource`.
The production source is ``DerivedSource``, the keyed PRF backend; it runs
under one of two personalizations.  ``son.prf`` is the PRF proper, and
``son.ideal`` (``IdealSource``) is a seeded model of uniform random round
functions, kept separate so a seed never reproduces a PRF key's cipher.

The loop picks its path from the source's type.  With a ``DerivedSource``
(and no trace) it hashes every round bit inline, with no call per round,
from ``prf.round_states``: the key's keyed state already holding each round's
prefix.  The key's schedule memo keeps them for (N, R) once that schedule is
reused (``STATE_USES``), and they then serve any ``DerivedSource`` material
over the key with R rounds on [N]; other calls build their own.
``prf.round_bit`` stays the spec it must match, and an override of
``PrfKey.block`` does not see these round bits.  Every other source and
``encipher_traced`` go through ``BitSource.bit`` once per round.  Reversed
material only records its direction, so it takes the path of its ``decipher``.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Protocol, runtime_checkable

from . import prf
from .domain import MAX_ROUNDS, Domain, GroupLaw
from .errors import DomainError, check_int, check_kind, kind_error

# Subkey schedules one key object memoizes before it starts afresh.
SCHEDULE_MEMO_SIZE = 4
# Calls for one memoized schedule before it keeps its round states, ≈0.45 KB
# each: a key that encrypts and then decrypts once pins none.
STATE_USES = 3


@runtime_checkable
class BitSource(Protocol):
    """Supplier of round-function bits.

    ``context(tweak)`` is computed once per cipher call and handed back to
    every ``bit`` call, so sources that digest the tweak pay for it once.
    A source must be deterministic: equal (round_index, tweak, x_hat) must
    always yield the same bit, even across processes.
    """

    def context(self, tweak: bytes) -> Any: ...

    def bit(self, round_index: int, context: Any, x_hat: int) -> int: ...


@dataclass(frozen=True)
class DerivedSource:
    """Round bits from the keyed PRF backend (the production instantiation).

    ``encipher`` and ``decipher`` hash its round bits inline and never call
    ``bit``, which gives the same bits through ``prf.round_bit``.
    """

    key: prf.PrfKey

    def __post_init__(self) -> None:
        check_kind(self.key, prf.PrfKey, "key")

    def context(self, tweak: bytes) -> prf.TweakDigest:
        return prf.tweak_digest(self.key, tweak)

    def bit(self, round_index: int, context: prf.TweakDigest, x_hat: int) -> int:
        return prf.round_bit(self.key, round_index, context, x_hat)


class _IdealKey(prf.PrfKey):
    """A seed for the ideal model: the PRF's keyed BLAKE2b under its own personalization."""

    person = b"son.ideal"


def IdealSource(seed: bytes) -> DerivedSource:
    """Uniform random round functions, realized as a seeded deterministic stream.

    Each (round, tweak, x_hat) bit behaves as if sampled once globally: it is
    derived by the keyed-hash backend from a 32-byte seed, so repetition,
    reproducibility across machines, and thread safety are automatic rather
    than memoized.
    """
    return DerivedSource(_IdealKey(seed))


@dataclass(frozen=True)
class ConstantSource:
    """Test hook: every round bit is the same constant."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise DomainError("constant bit must be 0 or 1")

    def context(self, tweak: bytes) -> None:
        prf.check_tweak(tweak)

    def bit(self, round_index: int, context: None, x_hat: int) -> int:
        return self.value


@dataclass(frozen=True)
class CallableSource:
    """Round bits from a caller-supplied function of (round_index, x_hat).

    Used to replay recorded coins (shuffle transcripts, traces).  The tweak
    is ignored; replays are inherently single-permutation.
    """

    fn: Callable[[int, int], int]

    def __post_init__(self) -> None:
        check_kind(self.fn, Callable, "round-bit function")

    def context(self, tweak: bytes) -> None:
        prf.check_tweak(tweak)

    def bit(self, round_index: int, context: None, x_hat: int) -> int:
        return self.fn(round_index, x_hat)


@dataclass(frozen=True)
class RoundMaterial:
    """Per-round subkeys plus the round-bit source that drives the swaps."""

    subkeys: tuple[int, ...]
    source: BitSource
    # Set by ``reversed`` (a keyword, so ``dataclasses.replace`` keeps it): encipher
    # then runs the rounds from last to first.
    backward: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        check_kind(self.subkeys, Iterable, "subkeys")
        object.__setattr__(self, "subkeys", tuple(self.subkeys))
        check_int(len(self.subkeys), "round count", 0, MAX_ROUNDS)

    @property
    def rounds(self) -> int:
        return len(self.subkeys)

    @functools.cached_property
    def _top(self) -> int:
        """The greatest subkey (0 for none), taken once all are checked to be ints >= 0."""
        for k in self.subkeys:
            check_int(k, "subkey", 0, error=DomainError)
        return max(self.subkeys, default=0)

    @classmethod
    def ideal(cls, domain: Domain, rounds: int, seed: bytes) -> "RoundMaterial":
        """Material with ideal (seeded random) round functions and subkeys."""
        return cls.derived(domain, rounds, _IdealKey(seed))

    @classmethod
    def derived(
        cls, domain: Domain, rounds: int, key: prf.PrfKey, least: int = 0
    ) -> "RoundMaterial":
        """Material with subkeys and round bits derived from a keyed PRF.

        ``rounds`` must be an integer in [least, MAX_ROUNDS].  Subkeys depend only
        on (key, N, rounds), so the schedule, its greatest subkey and, once reused, its
        round states are memoized on the key object for later calls with the same key.
        """
        check_int(rounds, "rounds", least, MAX_ROUNDS)
        source = DerivedSource(key)  # checks the key before its memo is read
        check_kind(domain, Domain, "domain")
        # An entry is (subkeys, the greatest, calls so far, round states or None).
        # Threads sharing a key may race here; that can only recompute a schedule or
        # its states, or miss a call, since every entry is an immutable tuple.
        memo, shape = key._schedules, (domain.size, rounds)
        entry = memo.get(shape)
        if entry is None:
            subkeys = prf.derive_subkeys(key, domain, rounds) if rounds else ()
            if len(memo) >= SCHEDULE_MEMO_SIZE:
                memo.clear()
            memo[shape] = entry = (subkeys, max(subkeys, default=0), 1, None)
        elif entry[3] is None:
            subkeys, top, uses, _ = entry
            states = prf.round_states(key, rounds) if uses + 1 >= STATE_USES else None
            memo[shape] = entry = (subkeys, top, uses + 1, states)
        material = cls(entry[0], source)
        object.__setattr__(material, "_top", entry[1])
        return material

    def reversed(self) -> "RoundMaterial":
        """Material that runs this material's rounds in the opposite order.

        Enciphering with it undoes enciphering with the original.  The subkeys
        stay in schedule order, and the cached greatest subkey is shared; only
        ``backward`` flips, so reversing twice gives back an equal material.
        """
        material = object.__new__(type(self))
        vars(material).update(vars(self), backward=not self.backward)
        return material


class RoundStep(NamedTuple):
    """One round of a trace: state, its partner, the pair's name, the bit."""

    x: int
    partner: int
    canonical: int
    bit: int


def _run(
    domain: Domain,
    material: RoundMaterial,
    x: int,
    tweak: bytes,
    backward: bool,
    trace: list[RoundStep] | None = None,
) -> int:
    """The swap-or-not loop, from the first round to the last or, if ``backward``, back.

    Reversed material flips the direction.  Appends a :class:`RoundStep` per
    round to ``trace`` when one is passed.
    """
    check_kind(domain, Domain, "domain")
    check_kind(material, RoundMaterial, "material")
    domain.check_element(x)
    subkeys, top = material.subkeys, material._top
    if top >= domain.size:
        raise DomainError(f"subkey {top} not in [0, {domain.size})")
    source = material.source
    # Inputs are validated above; inline the group law for the hot loop.
    xor = domain.law is GroupLaw.XOR
    n = domain.size
    order = reversed if backward != material.backward else iter
    if type(source) is DerivedSource and trace is None:
        # prf.round_bit hashed inline, in the layout of prf.encode_round_bit, from
        # states that hold each round's prefix (MAX_ROUNDS < 2**32 fits its 4-byte
        # index): copies of those the key keeps for (N, R), or ones built for this call.
        td = source.context(tweak).digest
        entry = source.key._schedules.get((n, len(subkeys)))
        if entry and entry[3]:
            hashers = map(hashlib.blake2b.copy, order(entry[3]))
        else:
            hashers = order(prf.round_states(source.key, len(subkeys)))
        for h, k in zip(hashers, order(subkeys)):
            xp = k ^ x if xor else (k - x) % n
            h.update(td)
            h.update((xp if xp > x else x).to_bytes(16, "big"))
            if h.digest()[-1] & 1:
                x = xp
        return x
    # What isinstance(source, BitSource) checks, without the runtime protocol walk.
    if getattr(source, "context", None) is None or getattr(source, "bit", None) is None:
        raise kind_error(source, BitSource, "round-bit source")
    ctx, bit = source.context(tweak), source.bit
    for i, k in zip(order(range(1, len(subkeys) + 1)), order(subkeys)):
        xp = k ^ x if xor else (k - x) % n
        x_hat = xp if xp > x else x
        b = bit(i, ctx, x_hat)
        if trace is not None:
            trace.append(RoundStep(x, xp, x_hat, b))
        if b:
            x = xp
    return x


def encipher(domain: Domain, material: RoundMaterial, x: int, tweak: bytes = b"") -> int:
    """Encipher x in [N); with zero rounds this is the identity."""
    return _run(domain, material, x, tweak, False)


def decipher(domain: Domain, material: RoundMaterial, y: int, tweak: bytes = b"") -> int:
    """Invert encipher: the same loop with rounds taken from last to first."""
    return _run(domain, material, y, tweak, True)


def encipher_traced(
    domain: Domain, material: RoundMaterial, x: int, tweak: bytes = b""
) -> tuple[int, list[RoundStep]]:
    """Encipher and record (x, partner, canonical, bit) for every round."""
    trace: list[RoundStep] = []
    return _run(domain, material, x, tweak, False, trace), trace
