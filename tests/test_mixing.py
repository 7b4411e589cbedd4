import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import (
    BoundQuery,
    Domain,
    DomainError,
    GroupLaw,
    Model,
    ParameterError,
    ProjectedDistribution,
    RoundMaterial,
    encipher,
    exact_tvd_after,
    ncpa_bound,
    shuffle_sample,
    step,
    tvd_to_stationary,
    validation_grid,
)
from swapornot import mixing

from helpers import best_adaptive_advantage, best_forward_advantage, reference_shuffle_step


def test_single_card_step_example():
    # N=2, ModAdd, card at 0.  Only (K=1, heads) moves it.
    dist = step(ProjectedDistribution.point_mass(Domain(2), (0,)))
    assert dist.probs[(0,)] == pytest.approx(0.75, abs=1e-15)
    assert dist.probs[(1,)] == pytest.approx(0.25, abs=1e-15)


def test_partnered_cards_share_a_coin():
    # Two tracked cards on a 2-card deck can only swap, never collide.
    dist = step(ProjectedDistribution.point_mass(Domain(2), (0, 1)))
    assert set(dist.probs) == {(0, 1), (1, 0)}
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "domain,q",
    [
        (Domain(5), 2),
        (Domain(8), 3),
        (Domain.xor_bits(2), 2),
        (Domain.xor_bits(3), 1),
        (Domain.xor_bits(3), 3),
        (Domain(7), 2),
    ],
    ids=lambda v: str(v),
)
def test_stationary_is_fixed_point(domain, q):
    pi = ProjectedDistribution.stationary(domain, q)
    assert step(pi).probs == pi.probs


def test_point_mass_tvd():
    # Before any shuffling the distance to uniform is 1 - 1/N (q = 1).
    for n in (2, 5, 9):
        assert exact_tvd_after(Domain(n), 0, 1, (0,)) == pytest.approx(1 - 1 / n, abs=1e-15)


def test_two_round_example_value():
    assert exact_tvd_after(Domain(2), 1, 1, (0,)) == pytest.approx(0.25, abs=1e-15)


def test_bound_dominates_exact_tvd():
    # The exact DP is the oracle; the claim under test is the bound.
    d = Domain.xor_bits(2)
    tvd = exact_tvd_after(d, 6, 2, (0, 1))
    assert tvd <= ncpa_bound(4, 6, 2)


def test_tvd_decreases_with_rounds():
    d = Domain(6)
    values = [exact_tvd_after(d, r, 2, (0, 1)) for r in range(9)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


CCA_ROUNDS = (4, 8, 16, 32)
# The best adaptive E/E^-1 advantage over the best fixed forward one, per q, at each R above.
ADAPTIVITY_GAIN = {
    (GroupLaw.MOD_ADD, 4): {2: (1.0, 1.0, 1.0, 1.0)},
    (GroupLaw.XOR, 4): {2: (1.288, 1.125, 1.021, 1.001)},
    (GroupLaw.MOD_ADD, 5): {2: (1.367, 1.239, 1.058, 1.003), 3: (1.062, 1.088, 1.032, 1.002)},
}


@pytest.mark.parametrize(
    "law,n", [(GroupLaw.MOD_ADD, 3), (GroupLaw.MOD_ADD, 4), (GroupLaw.XOR, 4), (GroupLaw.MOD_ADD, 5)]
)
def test_cca_bound_dominates_the_best_adaptive_advantage(law, n):
    # The chain of all N cards from (0, ..., N-1) is the exact law of the whole permutation E.
    dist, gains = ProjectedDistribution.point_mass(Domain(n, law), tuple(range(n))), {}
    for r in range(1, max(CCA_ROUNDS) + 1):
        dist = step(dist)
        if r not in CCA_ROUNDS:
            continue
        for q in range(1, n + 1):
            adaptive = best_adaptive_advantage(dist.probs, n, q)
            forward = best_forward_advantage(dist.probs, n, q)
            assert 0 < forward <= adaptive <= BoundQuery(n, r, q, Model.CCA).advantage()
            gains.setdefault(q, []).append(round(float(adaptive / forward), 3))
    for q, want in ADAPTIVITY_GAIN.get((law, n), {}).items():
        assert tuple(gains[q]) == want


def test_all_starting_tuples_smallest_sizes():
    # Exhaustive over starts where that is cheap; the sweep uses a canonical
    # start for the rest.
    for n in (3, 4, 5):
        laws = [GroupLaw.MOD_ADD] + ([GroupLaw.XOR] if n & (n - 1) == 0 else [])
        for law in laws:
            d = Domain(n, law)
            for q in (1, 2):
                for start in itertools.permutations(range(n), q):
                    for r in (1, 3, 6):
                        assert exact_tvd_after(d, r, q, start) <= ncpa_bound(n, r, q)


def test_a_mod_add_start_can_sit_farther_than_the_canonical_one():
    # Cards at distance 2 on mod-add N=4 stay twice as far from uniform as (0, 1).
    canonical = exact_tvd_after(Domain(4), 8, 2)
    assert canonical == Fraction(390625, 50331648)
    assert exact_tvd_after(Domain(4), 8, 2, (0, 2)) == 2 * canonical == Fraction(390625, 25165824)


def test_every_xor_start_has_the_canonical_tvd():
    # The XOR round commutes with every affine bijection of GF(2)^3, since a linear
    # map L sends the pair {x, k ^ x} to {L(x), L(k) ^ L(x)} and L(k) is uniform
    # too; that group is 3-transitive on [8], so every start of q <= 3 cards is alike.
    d = Domain(8, GroupLaw.XOR)

    def tvds(start):  # exact TVD after rounds 1..4, stepping one distribution
        dist, out = ProjectedDistribution.point_mass(d, start), []
        for _ in range(4):
            dist = step(dist)
            out.append(tvd_to_stationary(dist))
        return out

    for q in (1, 2, 3):
        canonical = tvds(tuple(range(q)))
        for start in itertools.permutations(range(8), q):
            assert tvds(start) == canonical, start


def test_validation_grid_shape_and_pass():
    rows = list(validation_grid(8, 3, 12))
    # 6 ModAdd sizes + 2 XOR sizes, q in 1..3, r in 1..12
    assert len(rows) == (6 + 2) * 3 * 12
    assert all(row.ok for row in rows)


def test_sweep_validates_only_its_start_tuples(monkeypatch):
    # Steps carry exact weights forward without re-checking any tuple, and the
    # smaller q are read as marginals: the 8 decks of this grid each check one
    # start of 3 cards, 24 elements.
    calls = []
    check = Domain.check_element

    def counting(self, x):
        calls.append(x)
        return check(self, x)

    monkeypatch.setattr(Domain, "check_element", counting)
    assert len(list(validation_grid(8, 3, 12))) == 288
    assert len(calls) == 24


@pytest.mark.parametrize("grid", [(12, 3, 12), (9, 4, 8)], ids=str)
def test_grid_rows_equal_their_own_chains(grid):
    # The sweep walks one chain per deck and reads smaller q as its marginals;
    # each row must equal the exact TVD of its own q-card chain from (0, ..., q-1).
    max_size, max_tracked, max_rounds = grid
    rows = list(validation_grid(*grid))
    got = {(row.law, row.domain_size, row.tracked, row.rounds): row for row in rows}
    want = {}
    for law, n in {key[:2] for key in got}:
        for q in range(1, min(max_tracked, n) + 1):
            walk = mixing._walk(ProjectedDistribution.point_mass(Domain(n, law), tuple(range(q))))
            for r, dist in enumerate(itertools.islice(walk, 1, max_rounds + 1), start=1):
                want[law, n, q, r] = tvd_to_stationary(dist)
    assert {key: row.tvd for key, row in got.items()} == want
    for (_, n, q, r), row in got.items():
        assert type(row.tvd) is Fraction and row.bound == ncpa_bound(n, r, q)
    assert len(rows) == len(got) == len(want)


def test_sweep_steps_one_chain_per_deck(monkeypatch):
    # 10 mod-add decks and XOR N = 4, 8, each stepped 12 times for all q <= 3.
    calls = []
    real = mixing.step

    def counting(dist):
        calls.append(dist.tracked)
        return real(dist)

    monkeypatch.setattr(mixing, "step", counting)
    assert len(list(validation_grid(12, 3, 12))) == 432
    assert len(calls) == 12 * 12 and set(calls) == {3}


def test_mirrored_steps_equal_plain_ones():
    # A mod-add point mass with s_i + s_(q-1-i) = c for every i is fixed by the
    # mirror x -> c - x with the card order reversed, and is stepped through
    # half its orbits; the same start built by the constructor has no center
    # and steps every orbit.  Both give the same packed slots.
    for n in range(2, 10):
        for q in range(1, min(4, n) + 1):
            mirrored = [
                s
                for s in itertools.permutations(range(n), q)
                if len({(x + y) % n for x, y in zip(s, reversed(s))}) == 1
            ]
            for start in (tuple(range(q)), *mirrored[:: max(1, len(mirrored) // 3)]):
                center = (start[0] + start[-1]) % n
                dist = ProjectedDistribution.point_mass(Domain(n), start)
                plain = ProjectedDistribution(Domain(n), q, {start: 1})
                assert (dist._center, plain._center) == (center, None)
                for _ in range(6):
                    dist, plain = step(dist), step(plain)
                    assert dist._packed == plain._packed
                    assert dist.denominator == plain.denominator
                    assert dist._center == center
    # Starts that are not mirror images of themselves, and every XOR start, get none.
    assert ProjectedDistribution.point_mass(Domain(5), (0, 2, 1))._center is None
    assert ProjectedDistribution.point_mass(Domain(4, GroupLaw.XOR), (0, 3))._center is None


@pytest.mark.parametrize("n", range(9, 13))
def test_mirrored_sweep_chain_equals_the_plain_one_past_the_oracle(n):
    # The whole-deck oracle stops at N = 8.  Up to the sweep's N = 12 and over its
    # 12 rounds, the sweep's mirrored chain from (0, 1, 2) and the same start built
    # by the constructor, which steps every orbit, hold the same bytes.
    mirrored = ProjectedDistribution.point_mass(Domain(n), (0, 1, 2))
    plain = ProjectedDistribution(Domain(n), 3, {(0, 1, 2): 1})
    for _ in range(12):
        mirrored, plain = step(mirrored), step(plain)
        assert mirrored._packed == plain._packed


@pytest.mark.parametrize(
    "law,n", [*((GroupLaw.MOD_ADD, n) for n in range(9, 13)), (GroupLaw.XOR, 8), (GroupLaw.XOR, 16)]
)
def test_each_step_keeps_the_orbit_ints_its_bytes_hold(law, n):
    # ``_marginals`` sums the orbit ints ``step`` kept instead of parsing the slots
    # again.  After every step, of the sweep's chain from (0, 1, 2) and of the same
    # start built by the constructor, they are the ints of its bytes, N slots each;
    # so a mirror-filled orbit, read back from its own bytes, cannot drift from them.
    chains = [
        ProjectedDistribution.point_mass(Domain(n, law), (0, 1, 2)),
        ProjectedDistribution(Domain(n, law), 3, {(0, 1, 2): 1}),
    ]
    for _ in range(12):
        chains = list(map(step, chains))
        for dist in chains:
            packed, size = dist._packed
            assert dist._orbits == list(mixing._ints(packed, n * size))


@pytest.mark.parametrize(
    "law, n, rounds, size, digest",
    [
        (GroupLaw.MOD_ADD, 12, 12, 10,
         "307301390af0f2e6ae2898cdaf2532d7436c89b83c17c68e70d693f0475e72e9"),
        (GroupLaw.XOR, 16, 6, 6, "337cd115f25c30cdeeac150e794c22daba2647e1d96eec193f34d2f5aba4d0e8"),
    ],
)
def test_stepped_slots_are_pinned(law, n, rounds, size, digest):
    # Past the oracle, the slots themselves are pinned: sha256 of the packed bytes
    # after ``rounds`` steps from (0, 1, 2).  A faster step must keep every byte.
    dist = ProjectedDistribution.point_mass(Domain(n, law), (0, 1, 2))
    for _ in range(rounds):
        dist = step(dist)
    packed, width = dist._packed
    assert (width, hashlib.sha256(packed).hexdigest()) == (size, digest)


def test_kept_moves_are_the_moves_cut_to_the_mirror_orbits():
    # Each source orbit lists its distinct counts once, every one of them used,
    # then (count index, j, dests) per move group, in ``moves`` and in ``kept``.
    # Under mod-add ``kept`` is ``moves`` cut to the orbits a <= mirror(a) that a
    # mirror-symmetric step sums into, and ``fills`` is (a, mirror(a), a's last
    # card) for every other orbit; under XOR ``kept`` is ``moves`` itself.
    for n in range(2, 10):
        for q in range(1, min(4, n) + 1):
            t = mixing._transition(Domain(n), q)
            reps = list(t.slot_of)[::n]
            mirror = [reps.index((0, *((r[-1] - y) % n for y in reversed(r[:-1])))) for r in reps]
            kept = {a for a, m in enumerate(mirror) if a <= m}
            assert t.fills == tuple((a, m, reps[a][-1]) for a, m in enumerate(mirror) if m < a)
            assert len(t.kept) == len(t.moves) and (t.kept is t.moves) == (not t.fills)
            for (counts, groups), (kept_counts, kept_groups) in zip(t.moves, t.kept):
                for cs, gs in ((counts, groups), (kept_counts, kept_groups)):
                    assert len(set(cs)) == len(cs)
                    assert {i for i, _, _ in gs} == set(range(len(cs)))
                want = [
                    (counts[i], j, bs)
                    for i, j, dests in groups
                    if (bs := tuple(b for b in dests if b in kept))
                ]
                assert [(kept_counts[i], j, bs) for i, j, bs in kept_groups] == want
    for n, q in itertools.product((2, 4, 8), (1, 2, 3)):
        if q <= n:
            t = mixing._transition(Domain(n, GroupLaw.XOR), q)
            assert t.kept is t.moves and t.fills == ()


def test_the_sweep_builds_no_views(monkeypatch):
    # The sweep reads packed slots only: no stepped distribution (each row's
    # top-q law) or marginal ever builds its ``weights`` dict or ``Fraction`` probs.
    seen = []
    real_tvd = mixing.tvd_to_stationary
    monkeypatch.setattr(mixing, "tvd_to_stationary", lambda dist: seen.append(dist) or real_tvd(dist))
    assert len(list(validation_grid(8, 3, 6))) == len(seen) == 8 * 3 * 6
    assert not [d for d in seen if "weights" in vars(d) or "probs" in vars(d)]


def test_row_ok_compares_like_the_fraction():
    # ``ok`` compares in integers; the exact Fraction-vs-float comparison is the
    # reference, at exact ties, one ulp either side, and the non-finite bounds.
    tvds = [Fraction(0), Fraction(1, 3), Fraction(0.1), Fraction(1), Fraction(5e-324)]
    tvds += [v + Fraction(1, 10**40) for v in tvds]
    floats = [0.0, 1.0, 0.1, 1 / 3, 5e-324, 0.999]
    bounds = [b for f in floats for b in (math.nextafter(f, -1), f, math.nextafter(f, 2))]
    bounds += [math.inf, -math.inf, math.nan]
    for tvd, bound in itertools.product(tvds, bounds):
        row = mixing.ValidationRow(GroupLaw.MOD_ADD, 4, 1, 1, tvd, bound)
        assert row.ok is (tvd <= bound), (tvd, bound)


def test_oversized_grid_is_refused_before_its_first_row(monkeypatch):
    # N=9, q=7 is over MAX_ROUND_WORK.  The chains N=3..8 come first in the
    # sweep, but every chain is checked before any is stepped.
    def no_step(dist):
        raise AssertionError("a chain was stepped before the grid was checked")

    monkeypatch.setattr(mixing, "step", no_step)
    with pytest.raises(ParameterError, match="outcomes"):
        list(validation_grid(9, 7, 1))


def test_support_guard():
    with pytest.raises(ParameterError):
        exact_tvd_after(Domain(1000), 1, 3, (0, 1, 2))  # ~1e9 tuples


def test_compiled_round_guard():
    # 742,560 states: MAX_ROUND_WORK (2^24) refuses them, as one round costs
    # perm(N, q) * N * 2^q = 742,560 * 17 * 2^5, about 404M outcomes.  Its
    # compile alone would enumerate 43,680 representatives * 17 subkeys * 2^5
    # coins, about 23.8M (representative, subkey, coins) outcomes.
    with pytest.raises(ParameterError, match="outcomes"):
        exact_tvd_after(Domain(17), 1, 5)
    assert exact_tvd_after(Domain(1000), 0, 2) == Fraction(998999, 999000)
    # A constructed law's TVD packs only its support, here one of perm(N, 3) ~ 10^18 states.
    assert exact_tvd_after(Domain(10**6), 0, 3) == Fraction(999997000001999999, 999997000002000000)


@pytest.mark.parametrize(
    "n, tracked",
    [(1000, 2), (20_000, 1)],  # 999,000 states; 20,000 translates of a 20,000-slot orbit
)
def test_round_work_guard(n, tracked):
    # perm(N, q) * N * 2^q bounds the support, the compile and the step, each
    # of which may be large while the others are small.
    with pytest.raises(ParameterError, match="outcomes"):
        exact_tvd_after(Domain(n), 1, tracked)
    with pytest.raises(ParameterError, match="outcomes"):
        ProjectedDistribution.stationary(Domain(n), tracked)


def test_round_work_guard_runs_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated states past the guard")

    monkeypatch.setattr(mixing.itertools, "permutations", refuse)
    with pytest.raises(ParameterError):
        exact_tvd_after(Domain(17), 1, 5)
    with pytest.raises(ParameterError):
        ProjectedDistribution.stationary(Domain(17), 5)


def test_round_work_guard_admits_large_decks_at_small_q():
    assert exact_tvd_after(Domain(100), 1, 2) == Fraction(1921, 1980)


def test_round_guard():
    with pytest.raises(ParameterError):
        exact_tvd_after(Domain(4), 65, 1, (0,))


def test_bad_start_tuples():
    with pytest.raises(DomainError):
        ProjectedDistribution.point_mass(Domain(4), (1, 1))
    with pytest.raises(DomainError):
        ProjectedDistribution.point_mass(Domain(4), (0, 4))
    with pytest.raises(ParameterError, match="^start tuple has 3 entries, expected 2$"):
        exact_tvd_after(Domain(4), 1, 2, (0, 1, 2))


def test_probability_sum_validated():
    with pytest.raises(DomainError):
        ProjectedDistribution(Domain(4), 1, {(0,): 0.5, (1,): 0.4})
    # The sum is 1, but no probability may be negative.
    with pytest.raises(DomainError, match="negative"):
        ProjectedDistribution(Domain(4), 1, {(0,): -0.5, (1,): 1.5})


def test_stationary_probabilities():
    pi = ProjectedDistribution.stationary(Domain(5), 2)
    assert len(pi.probs) == 20
    assert pi.support_size() == math.perm(5, 2)
    assert all(p == pytest.approx(1 / 20) for p in pi.probs.values())


def test_shuffle_sample_zero_rounds_is_identity():
    sample = shuffle_sample(Domain(16), 0, seed=5)
    assert sample.permutation == tuple(range(16))


def test_shuffle_sample_is_permutation():
    d = Domain(24)
    for seed in range(100):
        sample = shuffle_sample(d, 5, seed)
        assert sorted(sample.permutation) == list(range(24))


def test_shuffle_sample_deterministic_per_seed():
    a = shuffle_sample(Domain(32), 4, seed=9)
    b = shuffle_sample(Domain(32), 4, seed=9)
    assert a == b
    c = shuffle_sample(Domain(32), 4, seed=10)
    assert a != c


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_shuffle_agrees_with_cipher(law):
    # Tracing one card through the shuffle is the same process as
    # enciphering it with the recorded subkeys and coins.
    d = Domain(8, law)
    for seed in range(100):
        sample = shuffle_sample(d, 3, seed)
        material = sample.material()
        for x in range(8):
            assert encipher(d, material, x) == sample.permutation[x]


def test_shuffle_size_guard():
    with pytest.raises(ParameterError):
        shuffle_sample(Domain((1 << 20) + 2), 1, seed=0)


def test_shuffle_work_guard():
    # One coin per pair per round is kept, so the guard counts N * rounds.
    with pytest.raises(ParameterError, match="rounds"):
        shuffle_sample(Domain(1 << 16), 40, seed=0)
    assert len(shuffle_sample(Domain(1 << 16), 0, seed=0).permutation) == 1 << 16


def test_tvd_to_stationary_of_stationary_is_zero():
    pi = ProjectedDistribution.stationary(Domain(6), 2)
    assert tvd_to_stationary(pi) == 0


def _domains_up_to(max_n):
    for n in range(2, max_n + 1):
        yield Domain(n)
        if n & (n - 1) == 0:
            yield Domain(n, GroupLaw.XOR)


@pytest.mark.parametrize("domain", list(_domains_up_to(8)), ids=repr)
def test_step_equals_whole_deck_oracle(domain):
    # Exact equality, no tolerance: both sides are Fractions.  XOR N = 8
    # translates orbits by block swaps for all three bits.
    n = domain.size
    for q in range(1, min(3, n) + 1):
        # Three point masses (the reversed tuple is mirror-symmetric under
        # mod-add, the middle one mostly not), a two-point start, a mix of a
        # float and Fractions, which starts over a denominator of 6 (3 when
        # N = 2) rather than 1, and the stationary law.
        states = list(itertools.permutations(range(n), q))
        mix = (Fraction(1, 3), 0.5, Fraction(1, 6))
        if len(states) == 2:  # N = 2
            mix = (Fraction(1, 3), Fraction(2, 3))
        starts = [
            ProjectedDistribution.point_mass(domain, tuple(range(q))),
            ProjectedDistribution.point_mass(domain, tuple(range(n - 1, n - 1 - q, -1))),
            ProjectedDistribution.point_mass(domain, states[len(states) // 2]),
            ProjectedDistribution(domain, q, {states[0]: Fraction(3, 4), states[-1]: 0.25}),
            ProjectedDistribution(domain, q, dict(zip(states[-3:], mix))),
            ProjectedDistribution.stationary(domain, q),
        ]
        for start in starts:
            # A constructed start is packed by its support; its first step equals
            # that of a twin packed densely, every compiled state's weight in turn.
            d = start.denominator
            size = (d.bit_length() + 7) // 8
            slots = mixing._transition(domain, q).slot_of
            dense = b"".join(start.weights.get(s, 0).to_bytes(size, "little") for s in slots)
            twin = object.__new__(ProjectedDistribution)._set(domain, q, d, d, _packed=(dense, size))
            assert step(start)._packed == step(twin)._packed
            dist, expected = start, dict(start.probs)
            for r in range(1, 4):
                dist = step(dist)
                expected = reference_shuffle_step(n, domain.law.value, expected)
                assert dist.probs == expected
                assert dist.denominator == start.denominator * (n << q) ** r
                # The weights view of the packed slots keeps reached states only.
                assert dist.weights == {t: p * dist.denominator for t, p in expected.items()}


@pytest.mark.parametrize(
    "n,q,r,exact",
    [(4, 3, 2, Fraction(43, 128)), (5, 1, 12, Fraction(1, 5120)), (10, 1, 8, Fraction(9, 2560))],
)
def test_exact_tvd_on_rounding_ties(n, q, r, exact):
    # Each value sits on a tie at 6 significant digits, where a float DP's
    # last-bit error decides which way the printed digit rounds.
    tvd = exact_tvd_after(Domain(n), r, q)
    assert type(tvd) is Fraction
    assert tvd == exact


def test_probabilities_are_exact_fractions():
    dist = ProjectedDistribution(Domain(4), 1, {(0,): 0.5, (1,): 0.25, (3,): Fraction(1, 4)})
    assert dist.probs == {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (3,): Fraction(1, 4)}
    assert all(type(p) is Fraction for p in dist.probs.values())
    # One common denominator, the least: lcm(2, 6, 15) = 30 is none of the inputs'.
    probs = {(0,): 0.5, (1,): Fraction(1, 6), (2,): Fraction(1, 15), (3,): Fraction(4, 15)}
    dist = ProjectedDistribution(Domain(4), 1, probs)
    assert (dist.weights, dist.denominator) == ({(0,): 15, (1,): 5, (2,): 2, (3,): 8}, 30)
    # 0.1 is not exactly a tenth, so ten of them do not sum to exactly 1.
    with pytest.raises(DomainError):
        ProjectedDistribution(Domain(10), 1, {(x,): 0.1 for x in range(10)})


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_bound_dominates_beyond_the_sweep(law):
    # Reach: N=16, q=3 (3,360 states) for 16 rounds.
    assert exact_tvd_after(Domain(16, law), 16, 3) <= ncpa_bound(16, 16, 3)
    # And N=16, q=4 (43,680 states), at every round of one chain up to 16.
    dist = ProjectedDistribution.point_mass(Domain(16, law), (0, 1, 2, 3))
    for r in range(1, 17):
        dist = step(dist)
        assert tvd_to_stationary(dist) <= ncpa_bound(16, r, 4)


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_packed_tvd_equals_the_fraction_sum(law):
    # The packed TVD flags and sums slots in whole-int operations; the oracle sums
    # |p - 1/S| / 2 over every state.  It covers odd slot counts and denominators
    # that fill their slots: N=3, q=1, r=3 is 216 in one byte, XOR N=4, q=1, r=5
    # is 2^15 in two, and the sweep's widest, N=12, q=3, r=12, is 96^12 in ten.
    filled = set()
    full = {(3, 1, 3), (12, 3, 12)} if law is GroupLaw.MOD_ADD else {(4, 1, 5)}
    chains = [(n, q) for n in range(2, 9) for q in range(1, min(3, n) + 1)]
    chains += [(12, 3)] if law is GroupLaw.MOD_ADD else []
    for n, q in chains:
        if law is GroupLaw.XOR and n & (n - 1):
            continue
        dist = ProjectedDistribution.point_mass(Domain(n, law), tuple(range(q)))
        states = list(itertools.permutations(range(n), q))
        for r in range(1, 13):
            dist = step(dist)
            tvd = tvd_to_stationary(dist)
            assert "weights" not in vars(dist) and "probs" not in vars(dist)
            if dist.denominator.bit_length() == 8 * dist._packed[1]:
                filled.add((n, q, r))
            uniform = Fraction(1, len(states))
            assert tvd == sum(abs(dist.probs.get(t, 0) - uniform) for t in states) / 2
    assert full <= filled


RISING = dict(zip(itertools.permutations(range(3), 2), (Fraction(i, 21) for i in range(1, 7))))


@pytest.mark.parametrize(
    "domain,q,probs,denominator",
    [
        # Zero weights beside nonzero ones, and an odd count of three slots.
        (Domain(4), 1, {(0,): Fraction(1, 2), (1,): 0, (2,): Fraction(1, 2), (3,): 0}, 2),
        (Domain(5), 1, {(0,): Fraction(1, 3), (2,): Fraction(1, 3), (4,): Fraction(1, 3)}, 3),
        # Point masses: D = 1 in one byte.
        (Domain(4), 1, {(3,): 1}, 1),
        (Domain(5), 2, {(4, 0): 1}, 1),
        # Denominators that fill their slot bytes exactly: 255 in one, 2^16 - 1 in two.
        (Domain(4), 1, {(0,): Fraction(1, 255), (1,): Fraction(254, 255)}, 255),
        (Domain(3), 2, {(0, 1): Fraction(65534, 65535), (2, 1): Fraction(1, 65535)}, 65535),
        # Weights 1..6 over 21: three above the floor 21 // 6, one on it.
        (Domain(3), 2, RISING, 21),
    ],
)
def test_constructed_tvd_equals_the_fraction_sum(domain, q, probs, denominator):
    # A constructed distribution's weights are packed in dict order, at the
    # denominator's slot width, and read by the same whole-int count as a stepped one's.
    dist = ProjectedDistribution(domain, q, probs)
    assert dist._packed is None and dist.denominator == denominator
    states = list(itertools.permutations(range(domain.size), q))
    uniform = Fraction(1, len(states))
    assert tvd_to_stationary(dist) == sum(abs(dist.probs.get(t, 0) - uniform) for t in states) / 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_above_floor_counts_and_sums_the_slots_over_it(data):
    # Any slots whose sum fits one slot (so a lone slot may hold 2^bits - 1),
    # against a floor from 0 to that sum.
    size = data.draw(st.integers(1, 3))
    total = data.draw(st.integers(0, (1 << 8 * size) - 1))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=0, max_size=8)))
    slots = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    floor = data.draw(st.integers(0, total))
    packed = b"".join(w.to_bytes(size, "little") for w in slots)
    above = [w for w in slots if w > floor]
    assert mixing._above_floor(packed, size, floor) == (len(above), sum(above))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_above_floor_reads_the_top_bit_of_each_slot(size):
    # Slots at and above h = 2^(bits-1) set the top bit the kernel keeps as read;
    # floors sit just below, at and above h.  Each list sums to at most 2^bits - 1.
    h = 1 << 8 * size - 1
    lists = [[1, h, h - 2], [h - 3, 0, h + 1, 1], [0, 2 * h - 1, 0], [h - 1, h], [h], [h - 1, 1, h - 1]]
    for slots, floor in itertools.product(lists, (0, 1, h - 2, h - 1, h, h + 1, 2 * h - 2)):
        packed = b"".join(w.to_bytes(size, "little") for w in slots)
        above = [w for w in slots if w > floor]
        assert mixing._above_floor(packed, size, floor) == (len(above), sum(above)), (slots, floor)


@pytest.mark.parametrize(
    "domain,q,rounds,minimal",
    [(Domain(5), 2, 3, True), (Domain(8, GroupLaw.XOR), 3, 3, True), (Domain(6), 1, 3, False)],
    ids=repr,
)
def test_stepped_distribution_and_its_dict_built_twin(domain, q, rounds, minimal):
    # A stepped distribution is held packed, its twin as the constructor's
    # dict.  They have one tvd, and step to equal results; == compares weights
    # and denominators, so the twin is equal only while the stepped
    # denominator (N * 2^q)^r is the least one.
    dist = ProjectedDistribution.point_mass(domain, tuple(range(q)))
    for r in range(1, rounds + 1):
        dist = step(dist)
        twin = ProjectedDistribution(domain, q, dist.probs)
        assert tvd_to_stationary(dist) == tvd_to_stationary(twin)
        assert step(dist).probs == step(twin).probs
        if minimal or r == 1:
            assert dist == twin
        else:
            assert dist != twin and dist.denominator > twin.denominator


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_compiled_orbits_list_every_translation(law):
    # ``step`` takes each orbit's move groups in translate order j, translation
    # c = j, or the Gray code c = j ^ (j >> 1) under XOR.  Every translation occurs,
    # and for N <= 8 each orbit's groups are its representative's exact round.
    sizes = [n for n in range(2, 17) if law is GroupLaw.MOD_ADD or n & (n - 1) == 0]
    for n, q in itertools.product(sizes, range(1, 4)):
        if q > n:
            continue
        t = mixing._transition(Domain(n, law), q)
        states = list(t.slot_of)
        order = [i ^ i >> 1 if law is GroupLaw.XOR else i for i in range(n)]
        for a, (counts, groups) in enumerate(t.moves):
            js = [j for _, j, _ in groups]
            assert js == sorted(js) and set(js) == set(range(n)) and all(d for _, _, d in groups)
            if n > 8:
                continue
            got: dict = {}
            for i, j, dests in groups:
                for b in dests:
                    dest = states[b * n + order[j]]
                    got[dest] = got.get(dest, 0) + Fraction(counts[i], t.outcomes)
            assert got == reference_shuffle_step(n, law.value, {states[a * n]: 1})


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_slot_map_is_the_layout_step_reads(law):
    # ``step``, ``_pack`` and the weights view all read the compile's ``slot_of``:
    # its values are 0 .. S-1 in key order, its keys are the whole support, and
    # slot a*N + x holds slot a*N's state (first card 0) translated by x.
    sizes = [n for n in range(2, 9) if law is GroupLaw.MOD_ADD or n & (n - 1) == 0]
    for n, q in itertools.product(sizes, range(1, 4)):
        if q > n:
            continue
        slot_of = mixing._transition(Domain(n, law), q).slot_of
        assert list(slot_of.values()) == list(range(len(slot_of)))
        assert set(slot_of) == set(itertools.permutations(range(n), q))
        states = list(slot_of)
        for slot, state in enumerate(states):
            a, x = divmod(slot, n)
            rep = states[a * n]
            assert rep[0] == 0
            assert state == tuple(y ^ x if law is GroupLaw.XOR else (y + x) % n for y in rep)


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
@pytest.mark.parametrize("rounds", [2, 3, 5])
def test_keyed_pipeline_follows_the_exact_chain(law, rounds):
    # The keyed pipeline as a whole (subkey derivation, round-bit hashing, the
    # fused loop) against ``step``'s exact law: 20,000 ideal seeds, seed s as 32
    # big-endian bytes, each encipher 0 and 1 on N = 8, and their images fill one
    # of the 56 cells (E(0), E(1)).  Every cell is reached after two rounds, so the
    # chi-square statistic has 55 degrees of freedom, and 119.90 is its p = 1e-6
    # tail: the regularized upper gamma Q(55/2, 119.90/2) = 1.0007e-6 in mpmath
    # (``gammainc(27.5, 59.95, inf, regularized=True)``).  Fixed seeds make the
    # test deterministic; it read 46.7-60.6 over these six cases.  Two mutants of
    # the pipeline fail it: every round hashing round 1's header (the round index
    # dropped), and one subkey reused in every round.
    domain, seeds = Domain(8, law), 20_000
    dist = ProjectedDistribution.point_mass(domain, (0, 1))
    for _ in range(rounds):
        dist = step(dist)
    assert len(dist.probs) == 8 * 7
    seen: dict = {}
    for s in range(seeds):
        material = RoundMaterial.ideal(domain, rounds, s.to_bytes(32, "big"))
        cell = encipher(domain, material, 0), encipher(domain, material, 1)
        seen[cell] = seen.get(cell, 0) + 1
    chi2 = sum((seen.get(cell, 0) - seeds * p) ** 2 / (seeds * p) for cell, p in dist.probs.items())
    assert chi2 <= Fraction("119.90"), float(chi2)


@pytest.mark.parametrize(
    "law, n, q, digest",
    [
        (GroupLaw.MOD_ADD, 12, 3,
         "65eb5c1982c07fa14990ab4290b6fa208e774bdff90bbce31cfc23e481fd3c90"),
        (GroupLaw.XOR, 16, 3, "b706c99e63e53cd2239c7484b2e0099d119dfe0f06d845db2d6246a4ccd27459"),
        (GroupLaw.MOD_ADD, 38, 2,
         "2cc05683b1c228c49e4be263a8f8c802b086930275c7a083678cc13aa4a155c2"),
    ],
)
def test_compiled_rounds_are_pinned(law, n, q, digest):
    # Past the whole-deck reference's N <= 8 reach, the compile's exact output is
    # pinned by its digest: the states, then per orbit and per translate j its
    # (count, dests) groups in order, and the outcomes.
    t = mixing._transition(Domain(n, law), q)
    moves = tuple(
        tuple(tuple((counts[i], bs) for i, j, bs in groups if j == c) for c in range(n))
        for counts, groups in t.moves
    )
    pinned = f"_Transition(states={tuple(t.slot_of)!r}, moves={moves!r}, outcomes={t.outcomes!r})"
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


@pytest.mark.parametrize("rounds_before", [0, 1, 2])
def test_step_checks_the_packed_sum(monkeypatch, rounds_before):
    # Dropping one move group from the view the step reads loses probability; the
    # step's sum check sees it without unpacking, whether its input is a dict or
    # packed slots.  The mirror-symmetric point mass reads ``kept``; the same start
    # built by the constructor (no center) and an XOR start read ``moves``.
    starts = [
        (ProjectedDistribution.point_mass(Domain(6), (0, 1)), "kept"),
        (ProjectedDistribution(Domain(6), 2, {(0, 1): 1}), "moves"),
        (ProjectedDistribution.point_mass(Domain(8, GroupLaw.XOR), (0, 1)), "moves"),
    ]
    for dist, view in starts:
        assert (dist._center is None) == (view == "moves")
        for _ in range(rounds_before):
            dist = step(dist)
        real = mixing._transition(dist.domain, 2)
        (counts, groups), *rest = getattr(real, view)
        cut = real._replace(**{view: ((counts, groups[1:]), *rest)})
        with monkeypatch.context() as patch:
            patch.setattr(mixing, "_transition", lambda d, q: cut)
            with pytest.raises(DomainError, match="sum to"):
                step(dist)


@pytest.mark.parametrize("law", [GroupLaw.MOD_ADD, GroupLaw.XOR])
def test_bound_dominates_at_q_near_n(law):
    # The paper's regime: 7 of 8 cards tracked.  Up to two rounds agree with
    # the whole-deck oracle exactly; every round up to 32 is under the bound.
    domain = Domain(8, law)
    dist = ProjectedDistribution.point_mass(domain, tuple(range(7)))
    expected = dict(dist.probs)
    for r in range(1, 33):
        dist = step(dist)
        if r <= 2:
            expected = reference_shuffle_step(8, law.value, expected)
            assert dist.probs == expected
        assert tvd_to_stationary(dist) <= ncpa_bound(8, r, 7)


def test_round_work_guard_counts_coins_that_exist():
    # A (state, subkey) has at most N // 2 coin groups, so N=8 at q=7 and 8
    # costs 40,320 * 8 * 2^4 outcomes, not 2^7 or 2^8; N=9, q=8 is refused.
    for q in (7, 8):
        assert ProjectedDistribution.stationary(Domain(8), q).support_size() == 40_320
    with pytest.raises(ParameterError, match="outcomes"):
        exact_tvd_after(Domain(9), 1, 8)
    with pytest.raises(ParameterError, match="outcomes"):
        ProjectedDistribution.stationary(Domain(9), 8)


@pytest.mark.parametrize(
    "n,law,rounds",
    [
        (2, GroupLaw.MOD_ADD, 1),
        (3, GroupLaw.MOD_ADD, 5),
        (12, GroupLaw.MOD_ADD, 3),
        (8, GroupLaw.XOR, 7),
        (64, GroupLaw.XOR, 9),
        (2048, GroupLaw.XOR, 2),
        (2896, GroupLaw.MOD_ADD, 2),
    ],
)
def test_one_card_closed_form(n, law, rounds):
    # Under either law exactly one subkey pairs x with each y != x, so a round
    # moves the card to each other position with probability 1/(2N): the
    # distance to uniform halves every round.
    assert exact_tvd_after(Domain(n, law), rounds, 1) == Fraction(n - 1, n) / 2**rounds


def test_one_card_step_holds_one_translate_at_a_time():
    # At q=1 the one orbit is N slots wide; holding all N of its translates at
    # once peaks near 90 MiB (mod-add, N=2896) and 30 MiB (XOR, N=2048) at these
    # sizes, one translate at a time under 3 MiB.  The walk is cold, so its
    # compile is traced too, and the mod-add start (0,) has a center.
    for domain in (Domain(2896), Domain(2048, GroupLaw.XOR)):
        mixing._transition.cache_clear()
        tracemalloc.start()
        try:
            exact_tvd_after(domain, 4, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, domain
