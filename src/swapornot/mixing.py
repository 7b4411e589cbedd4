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
``weights`` and ``probs`` are views built on first use; the TVD reads the slots.
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
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple

from . import bounds
from .cipher import CallableSource, RoundMaterial
from .domain import Domain, GroupLaw
from .errors import DomainError, ParameterError, check_int

# Work guards, each on the product that sizes what it guards.  An exact round
# of q cards on N positions costs S * N * 2^min(q, N // 2), S = perm(N, q): the
# support, the compile's coin masks (at most N // 2 pairs) and the step's N
# translates of N slots per orbit.  Worst admitted at r = 64 on a 2-core host:
# N=17, q=4, N=38, q=3, N=161, q=2 and N=9, q=6 in 25-35 s at most 110 MB; N=2896,
# q=1 in 56 s at 27 MB, one translate at a time.  A shuffle keeps N coins per round.
MAX_ROUND_WORK = 1 << 24
MAX_EXACT_ROUNDS = 64
MAX_SHUFFLE_WORK = 1 << 20
# Compiled rounds kept; the full mixlab sweep (N <= 12, q <= 3) uses 36.
TRANSITION_CACHE_SIZE = 64


def _check_round_work(domain: Domain, tracked: int) -> None:
    check_int(tracked, "tracked cards", 1, domain.size)
    work = math.perm(domain.size, tracked) * domain.size << min(tracked, domain.size // 2)
    if work > MAX_ROUND_WORK:
        raise ParameterError(
            f"one exact round of N={domain.size}, q={tracked} costs perm(N, q) * N * "
            f"2^min(q, N // 2) = {work} outcomes, over guard {MAX_ROUND_WORK}"
        )


def _slots(packed: bytes, size: int) -> Iterator[int]:
    chunks = map(itemgetter(0), struct.iter_unpack(f"{size}s", packed))
    return map(int.from_bytes, chunks, repeat("little"))


def _stepped_weights(dist: "ProjectedDistribution") -> dict[tuple[int, ...], int]:
    states = _transition(dist.domain, dist.tracked).states
    return dict(filter(itemgetter(1), zip(states, _slots(*dist._packed))))


@dataclass(frozen=True, init=False)
class ProjectedDistribution:
    """Exact distribution of q tracked cards' positions (ordered, distinct).

    Integer ``weights`` (state -> numerator) over one ``denominator``.  The
    constructor takes probabilities >= 0 summing to exactly 1, converted with
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
        check_int(tracked, "tracked cards", 1, domain.size)
        exact = {tup: Fraction(p) for tup, p in probs.items()}
        for tup, p in exact.items():
            if len(tup) != tracked or len(set(tup)) != tracked:
                raise DomainError(f"support tuple {tup} is not {tracked} distinct positions")
            for x in tup:
                domain.check_element(x)
            if p < 0:
                raise DomainError(f"probability of {tup} is negative: {p}")
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
        return cls(domain, len(start), {tuple(start): 1})

    @classmethod
    def stationary(cls, domain: Domain, tracked: int) -> "ProjectedDistribution":
        """Uniform over ordered distinct tuples: q draws without replacement."""
        _check_round_work(domain, tracked)
        weights = dict.fromkeys(itertools.permutations(range(domain.size), tracked), 1)
        return cls.__new__(cls)._set(domain, tracked, len(weights), len(weights), weights=weights)


class _Transition(NamedTuple):
    """One round of the projected chain, compiled for one (domain, q)."""

    states: tuple[tuple[int, ...], ...]  # the support; a*N + x is representative a + x
    # moves[a]: (c, ((count, destination representatives), ...)) per translation c.
    # For every x, a + x moves to b + (x + c), or b ^ (x ^ c) under XOR, in
    # ``count`` of the ``outcomes`` equally likely (subkey, coins) draws.
    moves: tuple[tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...], ...]
    outcomes: int


@functools.lru_cache(maxsize=TRANSITION_CACHE_SIZE)
def _transition(domain: Domain, tracked: int) -> _Transition:
    """Aggregate every (subkey, coin mask) of one round into integer move counts.

    A round draws one of N subkeys and one coin per pair, named by the pair's
    larger member; tracked partners share a coin, and a fixed point
    (x == partner) cannot move.  With g coins, each of the 2^g masks stands
    for 2^(q-g) of the 2^q coin outcomes, so every count is out of N * 2^q.

    Translating all cards by c commutes with the round: partner(k + 2c, x + c)
    = partner(k, x) + c, and k -> k + 2c only relabels the uniform subkey (under
    XOR, partner(k, x ^ c) = partner(k, x) ^ c); pairs translate, each with one
    fair coin.  The chain lumps by these orbits (Levin-Peres-Wilmer, *Markov
    Chains and Mixing Times*): only the perm(N-1, q-1) states with first card 0
    are enumerated.
    """
    _check_round_work(domain, tracked)
    n = domain.size
    all_coins = 1 << tracked
    reps = [(0, *rest) for rest in itertools.permutations(range(1, n), tracked - 1)]
    # The caller's distribution validated the domain; inline the group law.
    xor = domain.law is GroupLaw.XOR
    states = tuple(
        tuple(y ^ x if xor else (y + x) % n for y in rep) for rep in reps for x in range(n)
    )
    index = {tup: i for i, tup in enumerate(states)}
    moves = []
    for tup in reps:
        counts: dict[int, int] = {}
        for k in range(n):
            partners = [k ^ x if xor else (k + n - x) % n for x in tup]
            pairs: dict[int, list[int]] = {}
            for i, (x, xp) in enumerate(zip(tup, partners)):
                if x != xp:
                    pairs.setdefault(max(x, xp), []).append(i)
            groups = list(pairs.values())
            weight = all_coins >> len(groups)
            for mask in range(1 << len(groups)):
                new = list(tup)
                for g, grp in enumerate(groups):
                    if mask >> g & 1:
                        for i in grp:
                            new[i] = partners[i]
                dest = index[tuple(new)]
                counts[dest] = counts.get(dest, 0) + weight
        by_translation: dict[int, dict[int, list[int]]] = {}
        for dest, count in counts.items():  # dest = b*N + c, the state b + c
            by_translation.setdefault(dest % n, {}).setdefault(count, []).append(dest // n)
        moves.append(
            tuple(
                (c, tuple((count, tuple(bs)) for count, bs in groups.items()))
                for c, groups in by_translation.items()
            )
        )
    return _Transition(states, tuple(moves), n * all_coins)


def step(dist: ProjectedDistribution) -> ProjectedDistribution:
    """Exact one-round transition of the projected shuffle.

    The result is held as little-endian slots in ``_transition`` states order,
    each wide enough for the new denominator so no sum carries; a stepped input's
    slots are widened in place.  Orbit a's N slots are one int, a + x in slot x.
    Moves translate the whole orbit one c at a time: a shift of c slots into a 2N-slot
    sum folded once per round, or under XOR one of N translates built by block swaps.
    """
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
    blocks = [1 << i for i in range(n.bit_length() - 1)] if xor else []
    swaps = [(j * bits, sum(one << x * bits for x in range(n) if not x & j)) for j in blocks]
    out = [0] * len(t.moves)
    for a, moves in enumerate(t.moves):
        weights = int.from_bytes(packed[a * orbit : (a + 1) * orbit], "little")
        if not weights:
            continue
        moved = [weights]
        for shift, low in swaps:  # moved[c + j] is moved[c] with j-slot blocks swapped
            moved += [(w & low) << shift | (w >> shift) & low for w in moved]
        for c, groups in moves:
            translate = moved[c] if xor else weights << c * bits
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
    """
    s, d = dist.support_size(), dist.denominator
    floor = d // s
    values = dist.weights.values() if dist._packed is None else _slots(*dist._packed)
    above = [w for w in values if w > floor]
    return Fraction(s * sum(above) - len(above) * d, d * s)


def exact_tvd_after(
    domain: Domain, rounds: int, tracked: int, start: tuple[int, ...] | None = None
) -> Fraction:
    """Exact distance to stationarity after ``rounds`` rounds from a point start.

    ``start`` defaults to the canonical tuple (0, 1, ..., tracked-1).
    """
    check_int(rounds, "rounds", 0, MAX_EXACT_ROUNDS)
    check_int(tracked, "tracked cards", 1, domain.size)
    if start is None:
        start = tuple(range(tracked))
    dist = ProjectedDistribution.point_mass(domain, tuple(start))
    if dist.tracked != tracked:
        raise ParameterError(f"start tuple has {dist.tracked} entries, expected {tracked}")
    for _ in range(rounds):
        dist = step(dist)
    return tvd_to_stationary(dist)


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
        dist = ProjectedDistribution.point_mass(domain, tuple(range(q)))
        for r in range(1, max_rounds + 1):
            dist = step(dist)
            yield ValidationRow(
                law=domain.law,
                domain_size=domain.size,
                tracked=q,
                rounds=r,
                tvd=tvd_to_stationary(dist),
                bound=bounds.ncpa_bound(domain.size, r, q),
            )


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
        coins = self.coins

        def replay(round_index: int, x_hat: int) -> int:
            return coins[round_index - 1][x_hat]

        return RoundMaterial(self.subkeys, CallableSource(replay))


def shuffle_sample(domain: Domain, rounds: int, seed: int) -> ShuffleSample:
    """Sample a full r-round shuffle of the deck [N] (N * rounds capped for memory)."""
    n = domain.size
    check_int(rounds, "rounds", 0)
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
            xp = domain.partner(k, x)
            if x <= xp:
                coins[xp] = coin = rng.getrandbits(1)
                if coin and x < xp:
                    deck[x], deck[xp] = deck[xp], deck[x]
        all_coins.append(coins)
    positions = [0] * n
    for position, card in enumerate(deck):
        positions[card] = position
    return ShuffleSample(domain, tuple(subkeys), tuple(all_coins), tuple(positions))
