"""Provable-security advantage bounds and round-count planning.

All bounds share the shape  prefactor(N, R) * ((q + N) / 2N)^exponent(R)
and are evaluated in log space with 60-digit arithmetic before clamping to
[0, 1].  Doubles with log1p plan the same round counts but move most bounds
in their last bits, by up to about 2e-12 relative; a 60-digit ``decimal``
evaluation gives the same doubles as mpmath at about four times the cost.
The arithmetic runs in a private mpmath context fixed at ``PRECISION_DPS``
digits, never in mpmath's process-global ``mp``, so other mpmath users and
other threads cannot change a result.  The context, and mpmath with it, is
loaded on the first evaluation, not on import.

Models:

* ``ncpa``        - nonadaptive chosen-plaintext adversaries, r >= 1 rounds:
                    min(1, (2 N^{3/2} / (r+2)) * ((q+N)/2N)^{r/2+1})
* ``cca``         - adaptive chosen-ciphertext adversaries, even R rounds:
                    min(1, (8 N^{3/2} / (R+4)) * ((q+N)/2N)^{R/4+1}),
                    which is exactly twice the ncpa bound at R/2 rounds
* ``ncpa-tweak``  - tweakable variant; same expression as ``ncpa``
* ``cca-tweak``   - tweakable CCA, even R:
                    min(1, (8 N^{3/4} / sqrt(R+4)) * ((q+N)/2N)^{(R+4)/8}),
                    equal to 4 * sqrt(ncpa bound at R/2 rounds)
* ``thorp``       - comparison curve for the Thorp shuffle at r passes over
                    N = 2^n points: min(1, (2q/r + 1) * (4nq/N)^r)

Each model is one row of a single table: its log-space bound, the step its
round counts come in (2 for the CCA models, which are stated for even R),
the smallest query budget it is stated for, whether it needs N to be a
power of two, and whether q is capped at N (all but Thorp).  One validator
reads that row, so the bound functions, ``BoundQuery`` and the ``min_rounds``
planner accept the same inputs, except that planning always needs q >= 1.

As a rule of thumb the non-Thorp bounds only become nontrivial once the
round count passes roughly 6*lg(N) (for q a constant fraction of N), and
they decay exponentially from there.  Guarding against q close to N is
expensive: at q = N-1 the decay rate is ~1/(8N) per round, so realistic
targets need an explicit, smaller query budget.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .errors import ParameterError, RoundCapExceeded, check_int
from .prf import MAX_ROUNDS as ROUND_CAP

# Significant decimal digits for internal evaluation.
PRECISION_DPS = 60


@functools.cache
def _context():
    from mpmath import MPContext

    ctx = MPContext()
    ctx.dps = PRECISION_DPS
    return ctx


class Model(Enum):
    NCPA = "ncpa"
    CCA = "cca"
    NCPA_TWEAK = "ncpa-tweak"
    CCA_TWEAK = "cca-tweak"
    THORP = "thorp"


@dataclass(frozen=True)
class BoundQuery:
    """One bound evaluation: domain size, total rounds, query budget, model.

    For the ``thorp`` model ``rounds`` counts passes, not individual rounds.
    """

    domain_size: int
    rounds: int
    queries: int
    model: Model

    def advantage(self) -> float:
        return _bound(self.model, self.domain_size, self.rounds, self.queries)


def _ln_base(ctx, n: int, q: int):
    # ln((q + N) / 2N); <= 0 whenever q <= N.
    return ctx.log(q + n) - ctx.log(2 * n)


@functools.lru_cache(maxsize=256)
def _ncpa_terms(ctx, n: int, q: int):
    # The round-independent terms of _ln_ncpa: ln(2 N^{3/2}) and ln((q + N) / 2N).
    return ctx.log(2) + ctx.mpf(3) / 2 * ctx.log(n), _ln_base(ctx, n, q)


def _ln_ncpa(ctx, n: int, rounds: int, q: int):
    head, ln_base = _ncpa_terms(ctx, n, q)
    return head - ctx.log(rounds + 2) + (ctx.mpf(rounds) / 2 + 1) * ln_base


def _ln_cca(ctx, n: int, rounds: int, q: int):
    return ctx.log(2) + _ln_ncpa(ctx, n, rounds // 2, q)


def _ln_cca_tweak(ctx, n: int, rounds: int, q: int):
    return ctx.log(4) + _ln_ncpa(ctx, n, rounds // 2, q) / 2


def _ln_thorp(ctx, n: int, passes: int, q: int):
    lg_n = n.bit_length() - 1
    if q == 0:
        return ctx.ninf
    return ctx.log(ctx.mpf(2 * q) / passes + 1) + passes * (ctx.log(4 * lg_n * q) - ctx.log(n))


class _ModelRow(NamedTuple):
    ln: Callable  # ln of the unclamped bound at (context, N, rounds, q)
    step: int  # round counts are positive multiples of this
    min_q: int  # smallest query budget the bound is stated for
    pow2: bool  # N must be a power of two
    q_le_n: bool  # q may not exceed N


_MODELS = {
    Model.NCPA: _ModelRow(_ln_ncpa, 1, 1, False, True),
    Model.NCPA_TWEAK: _ModelRow(_ln_ncpa, 1, 1, False, True),
    Model.CCA: _ModelRow(_ln_cca, 2, 1, False, True),
    Model.CCA_TWEAK: _ModelRow(_ln_cca_tweak, 2, 1, False, True),
    Model.THORP: _ModelRow(_ln_thorp, 1, 0, True, False),
}


def _checked(model: Model, n: int, q: int, rounds: int | None) -> _ModelRow:
    """The model's row, once N, q and ``rounds`` are valid for it.

    ``rounds=None`` is the planner's call: rounds are not checked, and the
    query budget must then be at least 1 for every model.
    """
    row = _MODELS[model]
    check_int(n, "domain size", 2)
    if row.pow2 and n & (n - 1):
        raise ParameterError(f"{model.value} model needs a power-of-two domain, got {n}")
    check_int(q, "query budget", row.min_q if rounds is not None else 1, n if row.q_le_n else None)
    if rounds is not None:
        check_int(rounds, f"{model.value} rounds", row.step)
        if rounds % row.step:
            raise ParameterError(
                f"{model.value} model is stated for even round counts; "
                f"round {rounds} up to {rounds + 1}"
            )
    return row


def _bound(model: Model, n: int, rounds: int, q: int) -> float:
    row, ctx = _checked(model, n, q, rounds), _context()
    ln_value = row.ln(ctx, n, rounds, q)
    return 1.0 if ln_value >= 0 else float(ctx.exp(ln_value))


def ncpa_bound(domain_size: int, rounds: int, queries: int) -> float:
    """Advantage bound against nonadaptive chosen-plaintext adversaries.

    Also the exact total-variation bound for the projected shuffle after
    ``rounds`` rounds with ``queries`` tracked cards, which is what the
    mixing verifier checks against.
    """
    return _bound(Model.NCPA, domain_size, rounds, queries)


def ncpa_tweak_bound(domain_size: int, rounds: int, queries: int) -> float:
    """Tweakable NCPA bound; the expression matches the plain NCPA bound."""
    return _bound(Model.NCPA_TWEAK, domain_size, rounds, queries)


def cca_bound(domain_size: int, rounds: int, queries: int) -> float:
    """Adaptive CCA bound for an even total round count."""
    return _bound(Model.CCA, domain_size, rounds, queries)


def cca_tweak_bound(domain_size: int, rounds: int, queries: int) -> float:
    """Tweakable CCA bound for an even total round count."""
    return _bound(Model.CCA_TWEAK, domain_size, rounds, queries)


def thorp_bound(domain_size: int, passes: int, queries: int) -> float:
    """Thorp-shuffle CCA comparison bound at ``passes`` passes, N = 2^n.

    Kept for comparison tables only; it is vacuous once q >= N / (4 lg N).
    Unlike the other models, q = 0 is allowed (the bound is then 0).
    """
    return _bound(Model.THORP, domain_size, passes, queries)


def min_rounds(domain_size: int, queries: int, target: float, model: Model) -> int:
    """Smallest round count whose bound is <= target under the given model.

    Returns an even total for the CCA models, any r >= 1 for the NCPA models,
    and a pass count for ``thorp``.  The bounds are nonincreasing in the round
    count, so the cap is checked first and the minimum is then found by one
    bisection over the allowed counts.  Raises :class:`RoundCapExceeded`,
    after that one bound evaluation, if no count within the cap reaches the
    target.  Results are memoized per (N, q, target, model); errors are not,
    so every call with bad inputs raises afresh.
    """
    _checked(model, domain_size, queries, None)
    if not 0 < target < 1:
        raise ParameterError(f"target advantage must be in (0, 1), got {target!r}")
    if model is Model.THORP and 4 * (domain_size.bit_length() - 1) * queries >= domain_size:
        raise RoundCapExceeded("thorp bound does not decrease with passes once 4*lg(N)*q >= N")
    return _search_rounds(domain_size, queries, target, model)


@functools.lru_cache(maxsize=256)
def _search_rounds(domain_size: int, queries: int, target: float, model: Model) -> int:
    row, ctx = _MODELS[model], _context()
    ln_target = ctx.log(target)

    def meets(rounds: int) -> bool:
        return row.ln(ctx, domain_size, rounds, queries) <= ln_target

    # The bound falls as rounds grow, so an unreachable target shows at the
    # largest allowed count: one evaluation instead of a search.
    counts = range(row.step, ROUND_CAP + 1, row.step)
    if not meets(counts[-1]):
        raise RoundCapExceeded(
            f"no round count <= {ROUND_CAP} reaches advantage {target} "
            f"for N={domain_size}, q={queries}, model={model.value}"
        )
    return counts[bisect.bisect_left(counts, True, key=meets)]
