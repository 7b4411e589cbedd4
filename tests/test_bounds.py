import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapornot import (
    BoundQuery,
    FormatSpec,
    Model,
    ParameterError,
    RoundCapExceeded,
    cca_bound,
    cca_tweak_bound,
    min_rounds,
    ncpa_bound,
    ncpa_tweak_bound,
    plan_rounds,
    thorp_bound,
)
from swapornot import bounds

from helpers import oracle_cca, oracle_cca_tweak, oracle_ncpa, oracle_thorp, relative_error

# Frozen from the 60-digit decimal oracle in helpers.py.
EXPECTED_CCA_SSN = 2.2395192370016512e-11       # N=2^30, R=340, q=1e8
EXPECTED_CCA_CCN = 9.200989845292898e-11        # N=2^53, R=500, q=1e15
EXPECTED_CCA_64BIT = 1.3025168933637653e-11     # N=2^64, R=1200, q=2^63
EXPECTED_NCPA_HALF = 1.1197596185008256e-11     # N=2^30, r=170, q=1e8
EXPECTED_TWEAK = 6.717210053531895e-17          # N=2^30, R=680, q=1e8
EXPECTED_THORP = 5.271119079262095e-82          # N=2^64, 8 passes, q=2^20


def test_ncpa_clamps_to_one():
    # raw value ~1.2247 at the smallest parameters
    assert ncpa_bound(2, 1, 1) == 1.0


def test_ncpa_at_full_query_budget():
    # q = N makes the exponential factor exactly 1
    assert ncpa_bound(4, 20, 4) == pytest.approx(2 * 4**1.5 / 22, rel=1e-12)


def test_ncpa_half_round_value():
    value = ncpa_bound(2**30, 170, 10**8)
    assert value == pytest.approx(EXPECTED_NCPA_HALF, rel=1e-9)
    assert relative_error(value, oracle_ncpa(2**30, 170, 10**8)) < 1e-3
    # twice this is the doubled-rounds CCA bound
    assert 2 * value == pytest.approx(cca_bound(2**30, 340, 10**8), rel=1e-9)


@pytest.mark.parametrize(
    "n,rounds,q,expected",
    [
        (2**30, 340, 10**8, EXPECTED_CCA_SSN),
        (2**53, 500, 10**15, EXPECTED_CCA_CCN),
        (2**64, 1200, 2**63, EXPECTED_CCA_64BIT),
    ],
)
def test_cca_recipes(n, rounds, q, expected):
    value = cca_bound(n, rounds, q)
    assert value < 1e-10
    assert value == pytest.approx(expected, rel=1e-9)
    assert relative_error(value, oracle_cca(n, rounds, q)) < 1e-3


def test_cca_tweak_value_and_identity():
    value = cca_tweak_bound(2**30, 680, 10**8)
    assert value == pytest.approx(EXPECTED_TWEAK, rel=1e-9)
    assert relative_error(value, oracle_cca_tweak(2**30, 680, 10**8)) < 1e-3
    assert value == pytest.approx(4 * math.sqrt(ncpa_bound(2**30, 340, 10**8)), rel=1e-3)


def test_tweak_ncpa_matches_plain():
    assert ncpa_tweak_bound(2**20, 100, 10**5) == ncpa_bound(2**20, 100, 10**5)


def test_cca_tweak_at_full_query_budget():
    # base = 1: bound is 8 N^{3/4} / sqrt(R+4), clamped for small R
    assert cca_tweak_bound(16, 2, 16) == 1.0
    n, big_r = 16, 4096
    expected = 8 * n**0.75 / math.sqrt(big_r + 4)
    assert cca_tweak_bound(n, big_r, n) == pytest.approx(expected, rel=1e-9)


IDENTITY_GRID = [
    (n, r, q)
    for n in (2**16, 2**30, 10**9 + 7, 2**53, 2**64)
    for r in (48, 96, 170, 340, 500)
    for q in ("hundredth", "tenth", "half", "all-but-one")
]


def _quantize(n, label):
    return {
        "hundredth": max(1, n // 100),
        "tenth": max(1, n // 10),
        "half": max(1, n // 2),
        "all-but-one": n - 1,
    }[label]


@pytest.mark.parametrize("n,r,q_label", IDENTITY_GRID)
def test_composition_identities(n, r, q_label):
    q = _quantize(n, q_label)
    rounds = 2 * r
    plain = cca_bound(n, rounds, q)
    ncpa_half = ncpa_bound(n, r, q)
    tweak = cca_tweak_bound(n, rounds, q)
    if ncpa_half < 0.5:
        assert plain == pytest.approx(2 * ncpa_half, rel=1e-6)
    if 4 * math.sqrt(ncpa_half) < 1:
        assert tweak == pytest.approx(4 * math.sqrt(ncpa_half), rel=1e-6)


def test_thorp_examples():
    assert thorp_bound(2**64, 8, 2**20) == pytest.approx(EXPECTED_THORP, rel=1e-9)
    assert relative_error(thorp_bound(2**64, 8, 2**20), oracle_thorp(2**64, 8, 2**20)) < 1e-3
    # vacuous by q >= N / (4 lg N)
    assert thorp_bound(2**10, 4, 26) == 1.0
    # q -> 0 limit
    assert thorp_bound(2**10, 4, 0) == 0.0


def test_thorp_needs_power_of_two():
    with pytest.raises(ParameterError):
        thorp_bound(1000, 4, 10)


def test_query_budget_validation():
    with pytest.raises(ParameterError):
        ncpa_bound(100, 10, 101)
    with pytest.raises(ParameterError):
        cca_bound(100, 10, 0)
    with pytest.raises(ParameterError):
        ncpa_bound(100, 0, 10)
    with pytest.raises(ParameterError):
        ncpa_tweak_bound(100, 0, 10)


def test_odd_cca_rounds_rejected():
    with pytest.raises(ParameterError, match="even"):
        cca_bound(100, 7, 10)
    with pytest.raises(ParameterError, match="even"):
        cca_tweak_bound(100, 7, 10)


def test_all_bounds_clamped_to_unit_interval():
    for n, r, q in [(2, 1, 1), (10, 2, 9), (2**20, 2, 1), (2**20, 2000, 2**19)]:
        assert 0.0 <= ncpa_bound(n, r, q) <= 1.0
        rr = r + (r % 2)
        if rr >= 2:
            assert 0.0 <= cca_bound(n, rr, q) <= 1.0
            assert 0.0 <= cca_tweak_bound(n, rr, q) <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 2**40),
    st.integers(1, 120),
    st.data(),
)
def test_monotone_in_rounds_and_queries(n, r, data):
    q = data.draw(st.integers(1, n - 1))
    assert ncpa_bound(n, r + 1, q) <= ncpa_bound(n, r, q) + 1e-15
    rr = 2 * ((r + 2) // 2)
    assert cca_bound(n, rr + 2, q) <= cca_bound(n, rr, q) + 1e-15
    q2 = data.draw(st.integers(q, n))
    assert ncpa_bound(n, r, q2) >= ncpa_bound(n, r, q) - 1e-15


def test_min_rounds_deployment_examples():
    assert min_rounds(2**30, 10**8, 1e-10, Model.CCA) <= 340
    assert min_rounds(2**53, 10**15, 1e-10, Model.CCA) <= 500


# (N, q, target) per model; the answers run from one step to about 10^4 rounds.
PLANNER_CASES = {
    Model.NCPA: [
        (2**30, 10**8, 1e-10), (10**6, 10**3, 1e-6), (4, 1, 0.95), (1000, 999, 0.5),
        (2**128, 2**100, 1e-30),
    ],
    Model.NCPA_TWEAK: [(2**20, 10**5, 1e-8), (37, 36, 0.1), (10**12, 1, 1e-20)],
    Model.CCA: [
        (2**30, 10**8, 1e-10), (2**53, 10**15, 1e-10), (10**6, 10**3, 1e-6),
        (36**12, 10**12, 1e-10), (5, 5, 0.9),
    ],
    Model.CCA_TWEAK: [(2**30, 10**8, 1e-10), (10**9 + 7, 10**6, 1e-12), (64, 32, 0.25)],
    Model.THORP: [(2**64, 2**20, 1e-10), (2**64, 1, 1e-10), (2**32, 2**10, 1e-6), (2**16, 2**8, 0.5)],
}


def test_min_rounds_definitional():
    # The planner's answer meets the target, and one step fewer does not.
    for model, cases in PLANNER_CASES.items():
        step = bounds._MODELS[model].step
        for n, q, target in cases:
            r = min_rounds(n, q, target, model)
            assert r % step == 0
            assert BoundQuery(n, r, q, model).advantage() <= target
            assert r == step or BoundQuery(n, r - step, q, model).advantage() > target


def test_min_rounds_ncpa_start():
    assert min_rounds(4, 1, 0.95, Model.NCPA) == 4
    assert ncpa_bound(4, 4, 1) <= 0.95 < ncpa_bound(4, 3, 1)


def test_min_rounds_thorp():
    passes = min_rounds(2**64, 2**20, 1e-10, Model.THORP)
    assert thorp_bound(2**64, passes, 2**20) <= 1e-10
    if passes > 1:
        assert thorp_bound(2**64, passes - 1, 2**20) > 1e-10
    with pytest.raises(RoundCapExceeded):
        min_rounds(2**10, 2**7, 1e-10, Model.THORP)


def test_min_rounds_cap_exceeded():
    # Guarding against q = N-1 queries needs ~8N rounds; far past the cap.
    with pytest.raises(RoundCapExceeded):
        min_rounds(10**9, 10**9 - 1, 1e-10, Model.CCA)


def test_unreachable_target_costs_one_evaluation(monkeypatch):
    # An explicit q = N-1 budget, which no count within the cap reaches: the
    # planner should see that at once, and never quietly weaken the target.
    row = bounds._MODELS[Model.CCA]
    calls = []

    def counting_ln(*args):
        calls.append(args)
        return row.ln(*args)

    monkeypatch.setitem(bounds._MODELS, Model.CCA, row._replace(ln=counting_ln))
    with pytest.raises(RoundCapExceeded, match="no round count <= 65536"):
        plan_rounds(FormatSpec(10, 9), 10**9 - 1)
    assert len(calls) == 1


def test_min_rounds_memo_keeps_models_apart_and_errors_live():
    args = (2**30, 10**8, 1e-10)
    cca, ncpa = min_rounds(*args, Model.CCA), min_rounds(*args, Model.NCPA)
    assert cca != ncpa
    assert (min_rounds(*args, Model.NCPA), min_rounds(*args, Model.CCA)) == (ncpa, cca)
    # Failures are not memoized: each call raises again.
    for _ in range(2):
        with pytest.raises(RoundCapExceeded):
            min_rounds(10**9, 10**9 - 1, 1e-10, Model.CCA)
        with pytest.raises(ParameterError):
            min_rounds(100, 10, 1.0, Model.CCA)


def test_min_rounds_target_validation():
    with pytest.raises(ParameterError):
        min_rounds(100, 10, 0.0, Model.CCA)
    with pytest.raises(ParameterError):
        min_rounds(100, 10, 1.0, Model.CCA)
    with pytest.raises(ParameterError):
        min_rounds(100, 101, 1e-6, Model.CCA)
    with pytest.raises(ParameterError):
        min_rounds(2**64, 0, 1e-10, Model.THORP)


def test_bound_query_dispatch():
    assert BoundQuery(2**30, 340, 10**8, Model.CCA).advantage() == cca_bound(
        2**30, 340, 10**8
    )
    assert BoundQuery(2**30, 170, 10**8, Model.NCPA).advantage() == ncpa_bound(
        2**30, 170, 10**8
    )
    assert BoundQuery(2**64, 8, 2**20, Model.THORP).advantage() == thorp_bound(
        2**64, 8, 2**20
    )


def _exp_grid():
    rng = random.Random(2012)
    sizes = [*range(2, 300, 4), 10**9, 36**12, 2**64, 2**128]
    for n in sizes:
        for q in sorted({1, 2, 3, n // 2, n} - {0}):
            for r in range(1, 65):
                yield n, r, min(q, n)
    for _ in range(2000):
        n = rng.randrange(2, 2 ** rng.randrange(2, 129))
        yield n, rng.randrange(1, 65), rng.randrange(1, n + 1)


def test_bounds_exponentiate_as_the_power_of_e():
    # ctx.exp replaced ctx.e ** ln in _bound; the old expression is the
    # oracle, and every float must come out the same, not merely close.
    ctx = bounds._context()

    def power_of_e(model, n, r, q):
        ln_value = bounds._MODELS[model].ln(ctx, n, r, q)
        return 1.0 if ln_value >= 0 else float(ctx.e**ln_value)

    points = 0
    for n, r, q in _exp_grid():
        assert ncpa_bound(n, r, q) == power_of_e(Model.NCPA, n, r, q)
        even = r + r % 2
        assert cca_bound(n, even, q) == power_of_e(Model.CCA, n, even, q)
        assert cca_tweak_bound(n, even, q) == power_of_e(Model.CCA_TWEAK, n, even, q)
        points += 1
    assert points > 20_000


def test_round_term_memo_is_bit_identical():
    # _ln_ncpa reads ln(r + 2) and r/2 + 1 from a per-round memo; the whole
    # expression written out in the same context and order is the oracle.
    ctx = bounds._context()

    def ln_ncpa(n, r, q):
        head = ctx.log(2) + ctx.mpf(3) / 2 * ctx.log(n)
        return head - ctx.log(r + 2) + (ctx.mpf(r) / 2 + 1) * (ctx.log(q + n) - ctx.log(2 * n))

    def clamped(ln_value):
        return 1.0 if ln_value >= 0 else float(ctx.exp(ln_value))

    for n, q in [(12, 3), (2**30, 10**8), (36**12, 10**12), (1000, 999)]:
        for r in range(1, 201):
            assert ncpa_bound(n, r, q) == clamped(ln_ncpa(n, r, q))
            if r % 2 == 0:
                assert cca_bound(n, r, q) == clamped(ctx.log(2) + ln_ncpa(n, r // 2, q))
                assert cca_tweak_bound(n, r, q) == clamped(ctx.log(4) + ln_ncpa(n, r // 2, q) / 2)
    assert min_rounds(36**12, 10**12, 1e-10, Model.CCA) == 478


def test_bounds_ignore_global_mpmath_precision(monkeypatch):
    # The bounds keep their 60 digits while another thread lowers mpmath's
    # global precision in the middle of an evaluation, and concurrent calls
    # leave that global precision as they found it.
    args = (2**64, 1200, 2**63)
    expected = cca_bound(*args)
    row = bounds._MODELS[Model.CCA]
    inside, resume = threading.Event(), threading.Event()

    def paused_ln(*ln_args):
        inside.set()
        resume.wait(timeout=60)
        return row.ln(*ln_args)

    monkeypatch.setitem(bounds._MODELS, Model.CCA, row._replace(ln=paused_ln))
    results = []
    worker = threading.Thread(target=lambda: results.append(cca_bound(*args)))
    dps = mpmath.mp.dps
    try:
        worker.start()
        assert inside.wait(timeout=60)
        mpmath.mp.dps = 15
        resume.set()
        worker.join(timeout=60)
    finally:
        resume.set()
        mpmath.mp.dps = dps
    assert not worker.is_alive()
    assert mpmath.mp.dps == dps
    assert results == [expected]
    monkeypatch.undo()

    prec = mpmath.mp.prec
    wrong = []

    def work(i: int) -> None:
        for j in range(40):
            if cca_bound(*args) != expected:
                wrong.append(i)
            min_rounds(2**40 + i, 10**6 + j, 1e-10, Model.CCA)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert mpmath.mp.prec == prec


def test_mpmath_loads_at_the_first_evaluation_not_on_import():
    # A fresh interpreter: importing the package and its CLI leaves mpmath
    # unloaded, and the first bound evaluation loads it and returns the value
    # the package gave when mpmath loaded on import.
    script = (
        "import sys, swapornot, swapornot.cli\n"
        "print('mpmath' in sys.modules)\n"
        "value = swapornot.bounds.cca_bound(2**30, 340, 10**8)\n"
        "print(repr(value), 'mpmath' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "2.2395192370016514e-11", "True"]
