"""Exact mixing analysis of the shuffle view on small decks.

The cipher's round, read as a card shuffle, is: draw a subkey K uniformly,
pair every position X with partner(K, X), and swap each pair's cards on an
independent fair coin.  Tracking only q designated cards gives a Markov
chain on q-tuples of distinct positions whose stationary law is sampling
without replacement.  On desk-scale decks the chain's distribution can be
computed exactly, one round at a time, by averaging over all N subkeys and
enumerating the coins that matter; the total variation distance to
stationarity is then an exact number that the advantage bound must dominate.

Two cards sitting at partnered positions share one coin and swap together;
treating their coins as independent would silently break the permutation
property, so the transition names each coin by its pair's larger member, as
the cipher does, before enumerating coins.

The arithmetic is exact.  One round is compiled once per (domain, q) into
integer move counts out of N * 2^q equally likely (subkey, coins) outcomes.
The round commutes with translating every card (x -> x + c, or x ^ c under
XOR), so only one state per orbit of N translates is compiled, and a step
moves each orbit as one packed integer.  A distribution is integer weights
over one denominator, the start's times (N * 2^q)^r after r rounds, held after
a step as orbit-packed slots, widened in place as the denominator outgrows them.
``weights`` and ``probs`` are views built on first use.  Every TVD reads packed
slots as one int, flagging and summing those above D // S in whole-int operations.
Only ``ShuffleSample.material`` uses the cipher, and it imports it when called.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from numbers import Real
from operator import itemgetter, mul
from typing import Iterator, Mapping, NamedTuple

from . import bounds
from .domain import Domain, GroupLaw
from .errors import DomainError, ParameterError, check_int, check_kind

# Work guards, each on the product that sizes what it guards.  An exact round of q
# cards on N positions costs S * N * 2^min(q, N // 2), S = perm(N, q): the support, the
# compile's coin masks (at most N // 2 pairs) and the step's N translates of N slots per
# orbit, held one at a time.  Worst admitted at r = 64 on a 2-core host: N=17, q=4,
# N=38, q=3, N=161, q=2 and N=9, q=6 in 25-35 s at most 110 MB; q=1 at 27-28 MB in
# 56 s (N=2896) and 34-40 s (N=2048, XOR).  A shuffle keeps N coins per round.
MAX_ROUND_WORK = 1 << 24
MAX_EXACT_ROUNDS = 64
MAX_SHUFFLE_WORK = 1 << 20
# Compiled rounds kept; the full mixlab sweep (N <= 12, q <= 3) uses 36.
TRANSITION_CACHE_SIZE = 64


def _check_round_work(domain: Domain, tracked: int) -> None:
    check_kind(domain, Domain, "domain")
    check_int(tracked, "tracked cards", 1, domain.size)
    work = math.perm(domain.size, tracked) * domain.size << min(tracked, domain.size // 2)
    if work > MAX_ROUND_WORK:
        raise ParameterError(
            f"one exact round of N={domain.size}, q={tracked} costs perm(N, q) * N * "
            f"2^min(q, N // 2) = {work} outcomes, over guard {MAX_ROUND_WORK}"
        )


def _gray_translates(weights: int, swaps: list[tuple[int, int]]) -> Iterator[int]:
    """An orbit's XOR translates in Gray order, each the one before with one block swap."""
    yield weights
    for shift, low in swaps:  # slot x <-> x ^ j, j = shift // bits; low: the x & j == 0 slots
        weights = (weights & low) << shift | (weights >> shift) & low
        yield weights


def _above_floor(packed: bytes, size: int, floor: int) -> tuple[int, int]:
    """The count and the sum of the slots above ``floor``, in whole-int operations.

    Even and odd slots go into lanes of twice the slot width, so adding
    2^bits - 1 - floor to a lane carries into its bit ``bits`` exactly when its
    slot is above floor.  The slots sum to D < 2^bits, so the flagged lanes fold
    in halves to one lane with no carry between lanes.
    """
    bits, width = 8 * size, 16 * size
    one = (1 << bits) - 1
    unit = int.from_bytes((b"\x01" + bytes(2 * size - 1)) * -(-len(packed) // (2 * size)), "little")
    low, carry, lift = unit * one, unit << bits, unit * (one - floor)
    slots = int.from_bytes(packed, "little")
    even, odd = slots & low, slots >> bits & low
    flags_even, flags_odd = (even + lift) & carry, (odd + lift) & carry
    count = flags_even.bit_count() + flags_odd.bit_count()
    total = (even & flags_even - (flags_even >> bits)) + (odd & flags_odd - (flags_odd >> bits))
    while (k := -(-total.bit_length() // width)) > 1:
        half = k // 2 * width
        total = (total >> half) + (total & (1 << half) - 1)
    return count, total


def _stepped_weights(dist: "ProjectedDistribution") -> dict[tuple[int, ...], int]:
    states, (packed, size) = _transition(dist.domain, dist.tracked).states, dist._packed
    chunks = map(itemgetter(0), struct.iter_unpack(f"{size}s", packed))
    return dict(filter(itemgetter(1), zip(states, map(int.from_bytes, chunks, repeat("little")))))


@dataclass(frozen=True, init=False)
class ProjectedDistribution:
    """Exact distribution of q tracked cards' positions (ordered, distinct).

    Integer ``weights`` (state -> numerator) over one ``denominator``.  The
    constructor takes finite real probabilities >= 0 summing to exactly 1, as
    ``Fraction(p)``, and keeps their dict; ``step`` holds its result as packed
    slots.  ``weights`` (after a step, reached states only) and ``probs`` (lowest
    terms) are then views built on first use.
    """

    domain: Domain
    tracked: int
    # A field whose default is a descriptor: set by the constructor, or built on first use.
    weights: dict[tuple[int, ...], int] = functools.cached_property(_stepped_weights)
    denominator: int
    _packed = None  # (slots, bytes per slot) of a stepped distribution

    def __init__(self, domain: Domain, tracked: int, probs: Mapping[tuple[int, ...], Fraction]):
        check_kind(domain, Domain, "domain")
        check_int(tracked, "tracked cards", 1, domain.size)
        check_kind(probs, Mapping, "probs")
        for tup, p in probs.items():
            if not isinstance(tup, tuple) or len(tup) != tracked or len(set(tup)) != tracked:
                raise DomainError(f"support tuple {tup!r} is not {tracked} distinct positions")
            for x in tup:
                domain.check_element(x)
            if not (isinstance(p, Real) and 0 <= p < math.inf):
                raise DomainError(f"probability of {tup} must be a finite non-negative real: {p!r}")
        exact = {tup: Fraction(p) for tup, p in probs.items()}
        denominator = math.lcm(*(p.denominator for p in exact.values()))
        weights = {tup: p.numerator * (denominator // p.denominator) for tup, p in exact.items()}
        self._set(domain, tracked, denominator, sum(weights.values()), weights=weights)

    def _set(self, domain, tracked, denominator, total, **held) -> "ProjectedDistribution":
        if total != denominator:
            raise DomainError(f"probabilities sum to {Fraction(total, denominator)}, not 1")
        vars(self).update(domain=domain, tracked=tracked, denominator=denominator, **held)
        return self

    @functools.cached_property
    def probs(self) -> dict[tuple[int, ...], Fraction]:
        return {tup: Fraction(w, self.denominator) for tup, w in self.weights.items()}

    def support_size(self) -> int:
        return math.perm(self.domain.size, self.tracked)

    @classmethod
    def point_mass(cls, domain: Domain, start: tuple[int, ...]) -> "ProjectedDistribution":
        if not isinstance(start, tuple):
            raise DomainError(f"start must be a tuple of positions, got {start!r}")
        return cls(domain, len(start), {start: 1})

    @classmethod
    def stationary(cls, domain: Domain, tracked: int) -> "ProjectedDistribution":
        """Uniform over ordered distinct tuples: q draws without replacement."""
        _check_round_work(domain, tracked)
        weights = dict.fromkeys(itertools.permutations(range(domain.size), tracked), 1)
        return cls.__new__(cls)._set(domain, tracked, len(weights), len(weights), weights=weights)


class _Transition(NamedTuple):
    """One round of the projected chain, compiled for one (domain, q)."""

    states: tuple[tuple[int, ...], ...]  # the support; a*N + x is representative a + x
    # moves[a][i]: ((count, destination representatives), ...) for translation c = i,
    # or c = i ^ (i >> 1) under XOR: for every x, a + x moves to b + (x + c), or
    # b ^ (x ^ c), in ``count`` of the ``outcomes`` equally likely (subkey, coins) draws.
    moves: tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], ...], ...]
    outcomes: int


@functools.lru_cache(maxsize=TRANSITION_CACHE_SIZE)
def _transition(domain: Domain, tracked: int) -> _Transition:
    """Aggregate every (subkey, coin mask) of one round into integer move counts.

    A round draws one of N subkeys and one coin per pair, named by the pair's
    larger member; tracked partners share a coin, and a fixed point cannot move.
    With g coins, each of the 2^g masks stands for 2^(q-g) of the 2^q coin
    outcomes, so every count is out of N * 2^q.  A state's key reads its cards'
    positions as base-N digits, card i at N^i.  Heads on a coin add a fixed key
    change; doubling the keys once per coin puts mask m's destination at index m.

    Translating all cards by c commutes with the round: partner(k + 2c, x + c)
    = partner(k, x) + c, and k -> k + 2c only relabels the uniform subkey (under
    XOR, partner(k, x ^ c) = partner(k, x) ^ c); pairs translate, each with one
    fair coin.  The chain lumps by these orbits (Levin-Peres-Wilmer, *Markov
    Chains and Mixing Times*): one state per orbit, first card 0, is compiled.
    """
    _check_round_work(domain, tracked)
    n = domain.size
    places = [n**i for i in range(tracked)]
    reps = [(0, *rest) for rest in itertools.permutations(range(1, n), tracked - 1)]
    # The caller's distribution validated the domain; inline the group law.
    xor = domain.law is GroupLaw.XOR
    states = tuple(
        tuple(y ^ x if xor else (y + x) % n for y in rep) for rep in reps for x in range(n)
    )
    index = {sum(map(mul, tup, places)): i for i, tup in enumerate(states)}
    # Card 0 stays or moves to k under each subkey k, so every translation occurs.
    order = [i ^ i >> 1 for i in range(n)] if xor else range(n)
    moves = []
    for tup in reps:
        base, counts = sum(map(mul, tup, places)), {}
        for k in range(n):
            flips: dict[int, int] = {}  # coin -> the key change its heads make
            for x, place in zip(tup, places):
                if x != (xp := k ^ x if xor else (k - x) % n):
                    flips[max(x, xp)] = flips.get(max(x, xp), 0) + (xp - x) * place
            keys, weight = [base], 1 << tracked - len(flips)
            for flip in flips.values():
                keys += [key + flip for key in keys]
            for dest in map(index.__getitem__, keys):
                counts[dest] = counts.get(dest, 0) + weight
        by_c: dict[int, dict[int, list[int]]] = {}  # translation c -> count -> representatives
        for dest, count in counts.items():  # dest = b*N + c, the state b + c
            by_c.setdefault(dest % n, {}).setdefault(count, []).append(dest // n)
        moves.append(tuple(tuple((w, tuple(bs)) for w, bs in by_c[c].items()) for c in order))
    return _Transition(states, tuple(moves), n << tracked)


def step(dist: ProjectedDistribution) -> ProjectedDistribution:
    """Exact one-round transition of the projected shuffle.

    The result is held as little-endian slots in ``_transition`` states order,
    each wide enough for the new denominator so no sum carries; a stepped input's
    slots are widened in place.  Orbit a's N slots are one int, a + x in slot x.
    Moves translate the whole orbit one c at a time: a shift of c slots into a 2N-slot
    sum folded once per round, or under XOR the last translate with one block swap.
    """
    check_kind(dist, ProjectedDistribution, "distribution")
    t = _transition(dist.domain, dist.tracked)
    n, xor = dist.domain.size, dist.domain.law is GroupLaw.XOR
    denominator = dist.denominator * t.outcomes
    size = (denominator.bit_length() + 7) // 8  # bytes per slot
    bits, orbit = 8 * size, n * size
    if dist._packed is None:
        slots = map(dist.weights.get, t.states, repeat(0))
        packed = b"".join(map(int.to_bytes, slots, repeat(size), repeat("little")))
    else:
        packed, old = dist._packed
        if old < size:
            pad = bytes(size - old)
            packed = pad.join(map(itemgetter(0), struct.iter_unpack(f"{old}s", packed))) + pad
    one, full = (1 << bits) - 1, (1 << n * bits) - 1
    blocks = [i & -i for i in range(1, n)] if xor else []  # translate i swaps i & -i slots
    lows = {
        j: int.from_bytes((b"\xff" * (j * size) + bytes(j * size)) * (n // (2 * j)), "little")
        for j in set(blocks)
    }
    swaps = [(j * bits, lows[j]) for j in blocks]
    out = [0] * len(t.moves)
    for a, moves in enumerate(t.moves):
        weights = int.from_bytes(packed[a * orbit : (a + 1) * orbit], "little")
        if not weights:
            continue
        translates = _gray_translates(weights, swaps) if xor else None
        for c, groups in enumerate(moves):
            translate = next(translates) if xor else weights << c * bits
            for count, dests in groups:
                share = count * translate
                for b in dests:
                    out[b] += share
    if not xor:
        out = [(w & full) + (w >> n * bits) for w in out]
    # Every slot of sum(out) is <= denominator < 2^bits: times the repunit, its top slot sums them.
    total = (sum(out) * (full // one)) >> (n - 1) * bits & one
    packed = b"".join(map(int.to_bytes, out, repeat(orbit), repeat("little")))
    new = object.__new__(ProjectedDistribution)
    return new._set(dist.domain, dist.tracked, denominator, total, _packed=(packed, size))


def tvd_to_stationary(dist: ProjectedDistribution) -> Fraction:
    """Exact total variation distance (half the L1 distance) to sampling without replacement.

    With weights w over denominator D and support size S, the distance is
    sum(|w*S - D|) / (2*D*S), unreached states counting w = 0.  The weights sum
    to D, so that sum is 2*(S*A - a*D) for the a weights above D // S, summing to A.
    Both come from packed slots, a constructed input's weights packed in dict order.
    """
    check_kind(dist, ProjectedDistribution, "distribution")
    s, d = dist.support_size(), dist.denominator
    if (packed := dist._packed) is None:
        size = (d.bit_length() + 7) // 8
        packed = b"".join(w.to_bytes(size, "little") for w in dist.weights.values()), size
    count, total = _above_floor(*packed, d // s)
    return Fraction(s * total - count * d, d * s)


def _walk(dist: ProjectedDistribution) -> Iterator[ProjectedDistribution]:
    """The distributions after 0, 1, 2, ... rounds from ``dist``, say a point start."""
    while True:
        yield dist
        dist = step(dist)


def exact_tvd_after(
    domain: Domain, rounds: int, tracked: int, start: tuple[int, ...] | None = None
) -> Fraction:
    """Exact distance to stationarity after ``rounds`` rounds from a point start.

    ``start`` defaults to the canonical tuple (0, 1, ..., tracked-1).
    """
    check_int(rounds, "rounds", 0, MAX_EXACT_ROUNDS)
    check_kind(domain, Domain, "domain")
    check_int(tracked, "tracked cards", 1, domain.size)
    start = tuple(range(tracked)) if start is None else start
    dist = ProjectedDistribution.point_mass(domain, start)
    if dist.tracked != tracked:
        raise ParameterError(f"start tuple has {dist.tracked} entries, expected {tracked}")
    return tvd_to_stationary(next(itertools.islice(_walk(dist), rounds, None)))


@dataclass(frozen=True)
class ValidationRow:
    """One grid point of the bound-validation sweep.

    ``tvd`` is exact, so ``ok`` compares it with the float bound exactly.
    """

    law: GroupLaw
    domain_size: int
    tracked: int
    rounds: int
    tvd: Fraction
    bound: float

    @property
    def ok(self) -> bool:
        return self.tvd <= self.bound


def validation_grid(
    max_size: int = 8, max_tracked: int = 3, max_rounds: int = 12
) -> Iterator[ValidationRow]:
    """Sweep (law, N, q, r) and pair each exact TVD with its advantage bound.

    ModAdd covers N in 3..max_size; XOR covers the powers of two in range.
    Starting positions are the canonical tuple.  Every row must satisfy
    tvd <= bound; a violation means the cipher, the DP, or the bound
    arithmetic is wrong.  ``max_rounds`` is capped at ``MAX_EXACT_ROUNDS``, and
    a grid with any (N, q) chain over ``MAX_ROUND_WORK`` is refused before its
    first row.
    """
    check_int(max_size, "max_size", 2)
    check_int(max_tracked, "max_tracked", 1)
    check_int(max_rounds, "rounds", 0, MAX_EXACT_ROUNDS)
    domains = [Domain(n, GroupLaw.MOD_ADD) for n in range(3, max_size + 1)]
    domains += [Domain(n, GroupLaw.XOR) for n in range(4, max_size + 1) if n & (n - 1) == 0]
    chains = [(d, q) for d in domains for q in range(1, min(max_tracked, d.size) + 1)]
    for domain, q in chains:
        _check_round_work(domain, q)
    for domain, q in chains:
        walk = _walk(ProjectedDistribution.point_mass(domain, tuple(range(q))))
        for r, dist in enumerate(itertools.islice(walk, 1, max_rounds + 1), start=1):
            tvd, bound = tvd_to_stationary(dist), bounds.ncpa_bound(domain.size, r, q)
            yield ValidationRow(domain.law, domain.size, q, r, tvd, bound)


@dataclass(frozen=True)
class ShuffleSample:
    """One sampled realization of the r-round shuffle: keys, coins, permutation.

    ``permutation[x]`` is the final position of the card that started at x,
    which is exactly what enciphering x under the same subkeys and coins
    returns; ``material()`` packages the transcript for that replay.
    """

    domain: Domain
    subkeys: tuple[int, ...]
    coins: tuple[dict[int, int], ...]
    permutation: tuple[int, ...]

    def material(self) -> RoundMaterial:
        from .cipher import CallableSource, RoundMaterial  # the cipher loads on first replay

        coins = self.coins

        def replay(round_index: int, x_hat: int) -> int:
            return coins[round_index - 1][x_hat]

        return RoundMaterial(self.subkeys, CallableSource(replay))


def shuffle_sample(domain: Domain, rounds: int, seed: int) -> ShuffleSample:
    """Sample a full r-round shuffle of the deck [N] (N * rounds capped for memory)."""
    check_kind(domain, Domain, "domain")
    n, xor = domain.size, domain.law is GroupLaw.XOR
    check_int(rounds, "rounds", 0)
    check_int(seed, "seed", None)
    if n * max(rounds, 1) > MAX_SHUFFLE_WORK:
        raise ParameterError(f"shuffle sampling capped at N * rounds <= {MAX_SHUFFLE_WORK}")
    rng = random.Random(seed)
    deck = list(range(n))  # deck[position] = card
    subkeys = []
    all_coins = []
    for _ in range(rounds):
        k = rng.randrange(n)
        subkeys.append(k)
        coins: dict[int, int] = {}
        # One coin per pair {x, partner}, keyed by the pair's larger member;
        # fixed points also consume a coin, matching the cipher's bit usage.
        for x in range(n):
            xp = k ^ x if xor else (k - x) % n
            if x <= xp:
                coins[xp] = coin = rng.getrandbits(1)
                if coin and x < xp:
                    deck[x], deck[xp] = deck[xp], deck[x]
        all_coins.append(coins)
    positions = [0] * n
    for position, card in enumerate(deck):
        positions[card] = position
    return ShuffleSample(domain, tuple(subkeys), tuple(all_coins), tuple(positions))
