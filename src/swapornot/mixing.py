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
moves each orbit as one packed integer: under mod-add scaled once per distinct
move count and shifted into place per move group, under XOR translated one block
swap at a time and scaled per group.  Two more exact facts save work.
Under mod-add the round also commutes with the mirror x -> c - x taken with
the card order reversed, so a law it fixes stays fixed; it fixes the start
(0, 1, ..., q-1) at c = q - 1.  A step from such a law sums into about half
the orbits and fills the rest from their mirror images.  And the first q' cards
of the q-card chain are the q'-card chain, so the sweep steps one chain per
deck and reads each smaller q as a marginal.
A distribution is integer weights over one denominator, the start's times
(N * 2^q)^r after r rounds, held after a step as orbit-packed slots, widened
in place as the denominator outgrows them; a constructed one is packed by its
support, each tuple's weight written at its slot in the compile's slot map.
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
# orbit, held one at a time.  A shuffle keeps N coins per round.
MAX_ROUND_WORK = 1 << 24
MAX_EXACT_ROUNDS = 64
MAX_SHUFFLE_WORK = 1 << 20
# Compiled rounds kept: the full mixlab sweep compiles 12, one per deck, at q = 3.
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


def _ints(packed: bytes, width: int) -> Iterator[int]:
    """The little-endian ints of ``packed``, ``width`` bytes each, read at C level."""
    chunks = map(itemgetter(0), struct.iter_unpack(f"{width}s", packed))
    return map(int.from_bytes, chunks, repeat("little"))


def _stepped_weights(dist: "ProjectedDistribution") -> dict[tuple[int, ...], int]:
    slot_of, (packed, size) = _transition(dist.domain, dist.tracked).slot_of, dist._packed
    return dict(filter(itemgetter(1), zip(slot_of, _ints(packed, size))))


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
    _center = None  # c of a mod-add law that is fixed by its mirror image (see ``_transition``)

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
        dist = cls(domain, len(start), {start: 1})
        centers = {(x + y) % domain.size for x, y in zip(start, reversed(start))}
        if domain.law is GroupLaw.MOD_ADD and len(centers) == 1:  # s_i + s_(q-1-i) = c for all i
            vars(dist)["_center"] = centers.pop()
        return dist

    @classmethod
    def stationary(cls, domain: Domain, tracked: int) -> "ProjectedDistribution":
        """Uniform over ordered distinct tuples: q draws without replacement."""
        _check_round_work(domain, tracked)
        weights = dict.fromkeys(itertools.permutations(range(domain.size), tracked), 1)
        return cls.__new__(cls)._set(domain, tracked, len(weights), len(weights), weights=weights)


_Groups = tuple[tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...]]


class _Transition(NamedTuple):
    """One round of the projected chain, compiled for one (domain, q)."""

    # The support, state -> slot in slot order: slot a*N + x is representative a + x.
    slot_of: dict[tuple[int, ...], int]
    # moves[a] = (counts, ((i, j, dests), ...)): orbit a's distinct counts, then its move
    # groups in translate order j.  For every x and each b in dests, a + x moves to
    # b + (x + j), or b ^ (x ^ c) with c = j ^ (j >> 1) under XOR, in counts[i] of the
    # ``outcomes`` equally likely (subkey, coins) draws.
    moves: tuple[_Groups, ...]
    kept: tuple[_Groups, ...]  # ``moves`` cut to the orbits a <= mirror(a); under XOR, ``moves``
    fills: tuple[tuple[int, int, int], ...]  # (a, mirror(a), a's last card) per a > mirror(a)
    outcomes: int


def _by_count(groups) -> _Groups:
    """(distinct counts, (count index, j, dests) per group) of (count, j, dests) groups."""
    index: dict[int, int] = {}  # count -> its index, in order of first use
    indexed = tuple([(index.setdefault(count, len(index)), j, bs) for count, j, bs in groups])
    return tuple(index), indexed


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

    Under mod-add, x -> c - x commutes with the round too (the subkey k becomes
    2c - k), and so does reversing the card order.  Their product sends the state
    (0, y_1, ..., y_l) + x to (0, y_l - y_(l-1), ..., y_l - y_1, y_l) + (c - y_l - x),
    and a law it fixes (``point_mass`` records its c) stays fixed every round.  So
    ``step`` sums such a law into the ``kept`` orbits only, and fills orbit a >
    m = mirror(a) from m: its slot x is m's slot c - y_l - x.
    """
    _check_round_work(domain, tracked)
    n = domain.size
    places = [n**i for i in range(tracked)]
    reps = [(0, *rest) for rest in itertools.permutations(range(1, n), tracked - 1)]
    # The caller's distribution validated the domain; inline the group law.
    xor = domain.law is GroupLaw.XOR
    slot_of = {
        tuple(y ^ x if xor else (y + x) % n for y in rep): a * n + x
        for a, rep in enumerate(reps) for x in range(n)
    }
    index = {sum(map(mul, tup, places)): i for tup, i in slot_of.items()}
    # Card 0 stays or moves to k under each subkey k, so every translation occurs.
    order = [i ^ i >> 1 for i in range(n)] if xor else range(n)
    mirror = [slot_of[(0, *((rep[-1] - y) % n for y in reversed(rep[:-1])))] // n for rep in reps]
    keep = [a <= m for a, m in enumerate(mirror)].__getitem__
    fills = () if xor else tuple((a, m, reps[a][-1]) for a, m in enumerate(mirror) if m < a)
    moves, kept = [], []
    for tup in reps:
        base, reached = sum(map(mul, tup, places)), {}
        for k in range(n):
            flips: dict[int, int] = {}  # coin -> the key change its heads make
            for x, place in zip(tup, places):
                if x != (xp := k ^ x if xor else (k - x) % n):
                    flips[max(x, xp)] = flips.get(max(x, xp), 0) + (xp - x) * place
            keys, weight = [base], 1 << tracked - len(flips)
            for flip in flips.values():
                keys += [key + flip for key in keys]
            for dest in map(index.__getitem__, keys):
                reached[dest] = reached.get(dest, 0) + weight
        by_c: dict[int, dict[int, list[int]]] = {}  # translation c -> count -> representatives
        for dest, count in reached.items():  # dest = b*N + c, the state b + c
            by_c.setdefault(dest % n, {}).setdefault(count, []).append(dest // n)
        groups = [(w, j, tuple(bs)) for j, c in enumerate(order) for w, bs in by_c[c].items()]
        moves.append(_by_count(groups))
        if fills:
            cut = [(w, j, ks) for w, j, bs in groups if (ks := tuple(filter(keep, bs)))]
            kept.append(_by_count(cut))
    moves = tuple(moves)
    return _Transition(slot_of, moves, tuple(kept) if fills else moves, fills, n << tracked)


def _pack(weights: Mapping, slot_of: Mapping, size: int) -> bytes:
    """A constructed law's slots, each support tuple's weight written at ``slot_of[tuple]``."""
    packed = bytearray(len(slot_of) * size)
    for tup, w in weights.items():
        i = slot_of[tup] * size
        packed[i : i + size] = w.to_bytes(size, "little")
    return bytes(packed)


def step(dist: ProjectedDistribution) -> ProjectedDistribution:
    """Exact one-round transition of the projected shuffle.

    The result is held as little-endian slots in the compile's ``slot_of`` order,
    each wide enough for the new denominator so no sum carries; a stepped input's
    slots are widened in place, one strided copy per byte, and a constructed one
    is packed by its support.  Orbit a's N slots are one int, a + x in slot x.
    Under mod-add each orbit is scaled once per distinct count, and each move
    group adds its multiple shifted j slots into a 2N-slot sum folded once per
    round; under XOR each new j takes the next translate, the last one with one
    block swap in Gray order, and each group scales it.  A mirror-symmetric input
    sums into the ``kept`` orbits, and each other orbit is its mirror's slots
    reversed and rotated; the result keeps the input's center.
    """
    check_kind(dist, ProjectedDistribution, "distribution")
    t = _transition(dist.domain, dist.tracked)
    n, xor, center = dist.domain.size, dist.domain.law is GroupLaw.XOR, dist._center
    denominator = dist.denominator * t.outcomes
    size = (denominator.bit_length() + 7) // 8  # bytes per slot
    bits, orbit = 8 * size, n * size
    if dist._packed is None:
        packed = _pack(dist.weights, t.slot_of, size)
    else:
        packed, old = dist._packed
        if old < size:  # byte k of every slot moves in one strided copy
            packed, narrow = bytearray(len(packed) // old * size), packed
            for k in range(old):
                packed[k::size] = narrow[k::old]
    one, full = (1 << bits) - 1, (1 << n * bits) - 1
    out = [0] * len(t.moves)
    orbits = zip(t.moves if center is None else t.kept, _ints(packed, orbit))
    if xor:
        blocks = [i & -i for i in range(1, n)]  # translate i swaps i & -i slots
        lows = {
            j: int.from_bytes((b"\xff" * (j * size) + bytes(j * size)) * (n // (2 * j)), "little")
            for j in set(blocks)
        }
        swaps = [(j * bits, lows[j]) for j in blocks]
        for (counts, groups), weights in orbits:
            if weights:
                translates, at = _gray_translates(weights, swaps), -1
                for i, j, dests in groups:
                    if j != at:  # every translate has a group
                        translate, at = next(translates), j
                    share = counts[i] * translate
                    for b in dests:
                        out[b] += share
    else:
        top = n * bits
        shifts = list(range(0, top, bits))  # a list: reading a range item makes a new int
        for (counts, groups), weights in orbits:
            if weights:
                multiples = list(map(weights.__mul__, counts))
                for i, j, dests in groups:
                    share = multiples[i] << shifts[j]
                    for b in dests:
                        out[b] += share
        out = [(w & full) + (w >> top) for w in out]
    chunks = list(map(int.to_bytes, out, repeat(orbit), repeat("little")))
    if t.fills and center is not None:
        unpack = struct.Struct(f"{size}s" * n).unpack
        for a, m, y in t.fills:  # slot x of a is slot s - x of m
            slots, s = unpack(chunks[m]), (center - y) % n
            chunks[a] = b"".join(slots[s::-1] + slots[:s:-1])
            out[a] = out[m]  # the same slots, permuted
    # Every slot of sum(out) is <= denominator < 2^bits: times the repunit, its top slot sums them.
    total = (sum(out) * (full // one)) >> (n - 1) * bits & one
    new = object.__new__(ProjectedDistribution)
    packed = (b"".join(chunks), size)
    return new._set(dist.domain, dist.tracked, denominator, total, _packed=packed, _center=center)


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


def _marginals(dist: ProjectedDistribution) -> Iterator[ProjectedDistribution]:
    """A stepped ``dist`` of q cards, then the laws of its first q - 1, ..., 1 cards.

    Orbit representatives come in ``permutations`` order, so the N - t of t + 1
    cards that share their first t cards are adjacent, and a prefix translates
    with its tuple: their orbit ints sum, slot for slot, to the orbit of those t
    cards.  No slot carries, as each sum is at most D; every marginal keeps D.
    """
    yield dist
    (packed, size), n = dist._packed, dist.domain.size
    orbit = n * size
    orbits = list(_ints(packed, orbit))
    for t in range(dist.tracked - 1, 0, -1):
        orbits = [sum(orbits[i : i + n - t]) for i in range(0, len(orbits), n - t)]
        held = b"".join(map(int.to_bytes, orbits, repeat(orbit), repeat("little"))), size
        new = object.__new__(ProjectedDistribution)
        yield new._set(dist.domain, t, dist.denominator, dist.denominator, _packed=held)


@dataclass(frozen=True)
class ValidationRow:
    """One grid point of the bound-validation sweep.

    ``tvd`` is exact, so ``ok`` compares it with the float bound n/d exactly, in
    integers; an infinite bound passes every row, and a NaN none.
    """

    law: GroupLaw
    domain_size: int
    tracked: int
    rounds: int
    tvd: Fraction
    bound: float

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.bound):
            return self.bound > 0
        n, d = self.bound.as_integer_ratio()
        return self.tvd.numerator * d <= n * self.tvd.denominator


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

    Each deck walks one chain, of top = min(max_tracked, N) cards from
    (0, ..., top-1): max_rounds steps per deck.  Its first q cards are the q-card
    chain, so each q < top row reads the marginal of that round's distribution,
    with the same exact TVD; a deck's rows are buffered to keep their (q, r)
    order.  A mod-add start (0, ..., top-1) is its own mirror image (c = top - 1),
    so each of its steps sums into half the orbits (see ``_transition``).
    """
    check_int(max_size, "max_size", 2)
    check_int(max_tracked, "max_tracked", 1)
    check_int(max_rounds, "rounds", 0, MAX_EXACT_ROUNDS)
    domains = [Domain(n, GroupLaw.MOD_ADD) for n in range(3, max_size + 1)]
    domains += [Domain(n, GroupLaw.XOR) for n in range(4, max_size + 1) if n & (n - 1) == 0]
    for domain in domains:  # the work never falls as q grows, so the top chain covers all
        _check_round_work(domain, min(max_tracked, domain.size))
    for domain in domains:
        top = min(max_tracked, domain.size)
        rows: list[list[ValidationRow]] = [[] for _ in range(top)]  # by q - 1
        walk = _walk(ProjectedDistribution.point_mass(domain, tuple(range(top))))
        for r, dist in enumerate(itertools.islice(walk, 1, max_rounds + 1), start=1):
            for marginal in _marginals(dist):
                q = marginal.tracked
                tvd, bound = tvd_to_stationary(marginal), bounds.ncpa_bound(domain.size, r, q)
                rows[q - 1].append(ValidationRow(domain.law, domain.size, q, r, tvd, bound))
        yield from itertools.chain.from_iterable(rows)


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
