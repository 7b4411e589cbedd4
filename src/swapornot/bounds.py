"""Provable-security advantage bounds and round-count planning.

Models, with the power k that makes each bound a ratio of integer powers:

* ``ncpa``        - nonadaptive chosen-plaintext adversaries, r >= 1 rounds, k = 2:
                    min(1, (2 N^{3/2} / (r+2)) * ((q+N)/2N)^{r/2+1})
* ``cca``         - adaptive chosen-ciphertext adversaries, even R rounds, k = 2:
                    min(1, (8 N^{3/2} / (R+4)) * ((q+N)/2N)^{R/4+1}),
                    which is exactly twice the ncpa bound at R/2 rounds
* ``ncpa-tweak``  - tweakable variant; same expression as ``ncpa``
* ``cca-tweak``   - tweakable CCA, even R, k = 4:
                    min(1, (8 N^{3/4} / sqrt(R+4)) * ((q+N)/2N)^{(R+4)/8}),
                    equal to 4 * sqrt(ncpa bound at R/2 rounds)
* ``thorp``       - comparison curve for the Thorp shuffle at r passes over
                    N = 2^n points, k = 1: min(1, (2q/r + 1) * (4nq/N)^r)

The bounds are exact.  Each power in bound^k is cut to a number of mantissa
bits, with the cuts counted, so bound^k lies in a known interval; the bits
double until the interval settles the answer (Ziv's strategy).  For a bound
that is the correctly rounded double of the clamped k-th root, subnormals
included; for the planner, the comparison with target^k.  A power that fits
in the bits is exact, as every ratio of the small-deck sweep is.

Each model is one row of a table: its factors and k, the step of its round
counts (2 for the CCA models, stated for even R), its least query budget,
and whether N must be a power of two and q at most N.  One validator reads
the row, so the bounds, ``BoundQuery`` and ``min_rounds`` accept the same
inputs, except that planning always needs q >= 1.

As a rule of thumb the non-Thorp bounds only become nontrivial once the
round count passes roughly 6*lg(N) (for q a constant fraction of N), and
they decay exponentially from there.  Guarding against q close to N is
expensive: at q = N-1 the decay rate is ~1/(8N) per round, so realistic
targets need an explicit, smaller query budget.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .domain import MAX_ROUNDS as ROUND_CAP
from .errors import ParameterError, RoundCapExceeded, check_int


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


def _ncpa_factors(n: int, rounds: int, q: int, scale: int = 4):
    # scale N^3 / (r+2)^2 * ((q + N) / 2N)^(r+2), which is ncpa^2 at scale 4.
    e, g = rounds + 2, math.gcd(q + n, 2 * n)
    return (scale * n**3, e * e, 1), ((q + n) // g, 2 * n // g, e)


def _thorp_factors(n: int, passes: int, q: int):
    lg_n = n.bit_length() - 1
    return (2 * q + passes, passes, 1), (4 * lg_n * q, n, passes)


class _ModelRow(NamedTuple):
    factors: Callable  # (a, b, e) triples: prod (a/b)^e is bound^root at (N, rounds // step, q)
    root: int  # k: the bound is the k-th root of that product
    step: int  # round counts are positive multiples of this
    min_q: int  # smallest query budget the bound is stated for
    pow2: bool  # N must be a power of two
    q_le_n: bool  # q may not exceed N


_MODELS = {
    Model.NCPA: _ModelRow(_ncpa_factors, 2, 1, 1, False, True),
    Model.NCPA_TWEAK: _ModelRow(_ncpa_factors, 2, 1, 1, False, True),
    # The CCA models are twice, and 4 times the square root of, ncpa at R/2 rounds.
    Model.CCA: _ModelRow(functools.partial(_ncpa_factors, scale=16), 2, 2, 1, False, True),
    Model.CCA_TWEAK: _ModelRow(functools.partial(_ncpa_factors, scale=1024), 4, 2, 1, False, True),
    Model.THORP: _ModelRow(_thorp_factors, 1, 1, 0, True, False),
}


def _checked(model: Model, n: int, q: int, rounds: int | None) -> _ModelRow:
    """The model's row, once N, q and ``rounds`` are valid for it.

    ``rounds=None`` is the planner's call: rounds are not checked, and the
    query budget must then be at least 1 for every model.
    """
    if not isinstance(model, Model):
        raise ParameterError(f"model must be a Model, got {model!r}")
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


def _power(a: int, b: int, exp: int, bits: int) -> tuple[int, int, int, int]:
    """(a / b)^exp as (num, den, shift, cuts): num / den * 2^shift, low by at most ``cuts`` cuts.

    It is exact if exp is 1, or if a^exp and b^exp fit in ``bits`` bits once
    their factors of 2 go to ``shift``.  Otherwise m, the power so far, is cut
    back to ``bits`` bits after each squaring step.  A cut lowers m by under
    2^(1-bits) of it, and raising m to a power multiplies its cuts.
    """
    if exp == 1 or not a:
        return a, b, 0, 0
    za, zb = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
    a, b, shift = a >> za, b >> zb, (za - zb) * exp
    if max(a, b).bit_length() * exp <= bits:
        return a**exp, b**exp, shift, 0
    # a / b as a fixed-point base of ``bits`` bits: one cut, raised to the exp-th power.
    lift = bits + b.bit_length() - a.bit_length() if b > 1 else 0
    base = (a << lift) // b if lift >= 0 else a // (b << -lift)
    m, s, c = 1, 0, 0
    for digit in bin(exp)[2:]:
        m *= m
        if digit == "1":
            m *= base
        cut, s, c = m.bit_length() - bits, 2 * s, 2 * c
        if cut > 0:
            m, s, c = m >> cut, s + cut, c + 1
    return m, 1, shift + s - lift * exp, c + (b > 1) * exp


def _settle(factors, judge, *args):
    """judge(num, den, shift, *args), monotone in num / den * 2^shift, of the factors' product.

    Each pass, at 128, 256, ... bits per power, brackets the product by two
    such ratios; the answer stands once judge gives both the same.
    """
    bits = 128
    while True:
        num = den = 1
        shift = cuts = 0
        for a, b, exp in factors:
            pn, pd, ps, pc = _power(a, b, exp, bits)
            num, den, shift, cuts = num * pn, den * pd, shift + ps, cuts + pc
        answer = judge(num, den, shift, *args)
        # The product is at most (1 + 2^(1-bits))^cuts <= 1 + cuts / unit times
        # the ratio; a False at that low end already holds for the product.
        unit = 1 << bits - 2
        if not cuts or answer is False or (
            cuts < unit and answer == judge(num * (unit + cuts), den * unit, shift, *args)
        ):
            return answer
        bits *= 2


def _nearest_root(num: int, den: int, shift: int, k: int) -> float:
    """min(1, x) to the nearest double, for x = (num / den * 2^shift)^(1/k).

    m = floor(x * 2^t) has at least 54 bits, or t >= 1075 below 2^-1022, so
    every double near x, and every midpoint between two, is a multiple of
    2^-t.  (2m + sticky) / 2^(t+1) is then x, or lies strictly between the
    same two of those as x, and CPython rounds int / int correctly.
    """
    top = num.bit_length() - den.bit_length() + shift  # 2^(top-1) < x^k < 2^(top+1)
    if not num or top < -1075 * k:
        return 0.0
    if top > 1:
        return 1.0
    t = min(53 - (top - 1) // k, 1076)
    lift = shift + k * t
    num, den = (num << lift, den) if lift > 0 else (num, den << -lift)
    whole, rest = divmod(num, den)
    m = whole if k == 1 else math.isqrt(whole) if k == 2 else math.isqrt(math.isqrt(whole))
    return min(1.0, (2 * m + (rest > 0 or m**k != whole)) / (2 << t))


def _at_most(num: int, den: int, shift: int, a: int, b: int) -> bool:
    """Whether num / den * 2^shift <= a / b, all positive."""
    num, den = num * b, den * a
    top = num.bit_length() - den.bit_length() + shift  # as in _nearest_root
    if top < 0 or top > 1:
        return top < 0
    return num << max(shift, 0) <= den << max(-shift, 0)


def _bound(model: Model, n: int, rounds: int, q: int) -> float:
    row = _checked(model, n, q, rounds)
    return _settle(row.factors(n, rounds // row.step, q), _nearest_root, row.root)


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
    if not (isinstance(target, float) and 0 < target < 1):
        raise ParameterError(f"target advantage must be a float in (0, 1), got {target!r}")
    if model is Model.THORP and 4 * (domain_size.bit_length() - 1) * queries >= domain_size:
        raise RoundCapExceeded("thorp bound does not decrease with passes once 4*lg(N)*q >= N")
    return _search_rounds(domain_size, queries, target, model)


@functools.lru_cache(maxsize=256)
def _search_rounds(domain_size: int, queries: int, target: float, model: Model) -> int:
    row = _MODELS[model]
    # bound <= target exactly: bound^k <= target^k, both as integer ratios.
    a, b = (part**row.root for part in target.as_integer_ratio())

    def meets(rounds: int) -> bool:
        return _settle(row.factors(domain_size, rounds // row.step, queries), _at_most, a, b)

    # The bound falls as rounds grow, so an unreachable target shows at the
    # largest allowed count: one evaluation instead of a search.
    counts = range(row.step, ROUND_CAP + 1, row.step)
    if not meets(counts[-1]):
        raise RoundCapExceeded(
            f"no round count <= {ROUND_CAP} reaches advantage {target} "
            f"for N={domain_size}, q={queries}, model={model.value}"
        )
    return counts[bisect.bisect_left(counts, True, key=meets)]
