"""Design-coefficient selection: analytic on integer grids, maximin else.

For tuples with A = B (the case where the coefficient matters most) the
determinant magnitude collapses to |det|^2 = 2*(A*t - dt)^2 with
t = u - v, so the best t maximizes

    f(t) = min over attainable rows (A, dt) of |A*t - dt|

on t in [-sqrt(2), sqrt(2)].  The rows are one flat table sorted by
(A, dt), and _f_at evaluates f at any array of t with one binary search
per distinct A for the dt nearest A*t; it is the only evaluator of f.
f is a pointwise minimum of V-shaped functions, so its maximum
sits at a crossing of two branches with opposite slopes,
t = (dt1 + dt2)/(A1 + A2), at a same-slope switch (dt1 - dt2)/(A1 - A2),
at a kink dt/A, or at an interval endpoint.  The search is the decision
version of parametric search (Megiddo, J. ACM 30(4), 1983): f(t) >= lam
exactly when t lies outside every interval ((dt - lam)/A, (dt + lam)/A),
so one sort finds the gaps where a level lam is reached.  Bisecting lam
shrinks those gaps around the maximum and drops every row that can no
longer bind; the breakpoints of the few rows left in each gap are then
scored against the complete row table in one _f_at call.

Constellations with integer coordinates take the closed form instead
of the search: the maximin solution there is t = +-1/2, giving the four
coefficients u = (+-1 +- sqrt(7))/4 with v = u - t, and the exact gain
sweep scores it.  optimize is the one entry point for both branches.

vanishing_probe runs optimize over growing sizes of one family at
min-dist-1, which shows the gain shrinking for PSK and pinned at 1/2
on integer grids.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codes import DesignCoefficient
from .constellations import (NORM_MIN_DIST, Constellation, _first_of_runs,
                             _tol_keys, constellation_by_id, difference_set)
from .gain import GainReport, coding_gain, _expand, _projected_triples

SQRT2 = math.sqrt(2.0)
_TIE_TOL = 1e-12


def analytic_integer_optimum() -> tuple[DesignCoefficient, ...]:
    """The four optimal coefficients for integer-coordinate constellations.

    u = (+-1 +- sqrt(7))/4 with v = u - t, t = +-1/2; all four reach the
    same gain, the principal one (both signs +) is listed first.
    """
    return (_coefficients_at(0.5, "analytic", Fraction(1, 2))
            + _coefficients_at(-0.5, "analytic", Fraction(-1, 2)))


def _coefficients_at(t: float, provenance: str, t_exact=None) -> tuple:
    """Both unit-modulus r = u + jv with u - v = t, larger u first.

    u = (t +- sqrt(2 - t^2))/2 and v = u - t.
    """
    root = math.sqrt(max(2.0 - t * t, 0.0))
    return tuple(DesignCoefficient(u=u, v=u - t, provenance=provenance,
                                   t_exact=t_exact)
                 for u in ((t + root) / 2.0, (t - root) / 2.0))


@dataclass(frozen=True, eq=False)
class CaseOneInvariantTable:
    """Attainable (A, dt) rows over tuples with A = B, as flat arrays.

    a, e: one row per distinct (A, dt) pair (DEDUP_TOL keys), sorted by
    (A, dt); rows that share an A key carry the same A value bit for
    bit.  scale_sq: for exact int64 rows in grid units, the grid scale
    squared, which converts squared grid quantities back to
    constellation units; None for float rows in constellation units.
    triples: the projected triples the rows came from.
    """

    a: np.ndarray
    e: np.ndarray
    scale_sq: Fraction | None
    triples: tuple

    @property
    def n_rows(self) -> int:
        return self.e.size


@dataclass(frozen=True)
class OptimizationResult:
    """Step 1's maximin t, its two coefficients and its A = B gain, and
    its table's triples for step 2's sweep (None if in grid units)."""

    t: float
    r_candidates: tuple
    case1_gain: float
    breakpoints_examined: int
    triples: tuple | None = field(default=None, repr=False, compare=False)


class Optimum(NamedTuple):
    """optimize's answer: the coefficient, its gain report, its A = B gain.

    case1_gain is step 1's own value off the integer grid and the
    sweep's case1_min on it.
    """

    r: DesignCoefficient
    report: GainReport
    case1_gain: float

    @property
    def case2_dominates(self) -> bool:
        return self.report.case2_min >= self.case1_gain - _TIE_TOL


def build_case1_table(c: Constellation) -> CaseOneInvariantTable:
    """Enumerate every attainable (A, dt) with A = B.

    Pairs of projected triples satisfy A = B exactly when the first
    triple's a - b cancels the second's, so the enumeration only visits
    products of opposite-key groups instead of all pairs.
    """
    triples = _projected_triples(difference_set(c), c.scale_sq)
    a, b, g = triples[:3]
    keys = _tol_keys(a - b)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    size = np.diff(np.r_[start, keys.size])
    gk = keys[start]
    # group pairs (k, -k), k >= 0 ascending, stream row-major, cut into
    # blocks of about _BLOCK_PAIRS products across pairs: row n of the
    # stream pairs triple row_at[n] with the cn[n] from col0[n] on
    opp = np.minimum(gk.searchsorted(-gk), gk.size - 1)
    paired = (gk >= 0) & (gk[opp] == -gk)
    row_at = np.flatnonzero(np.repeat(paired, size))
    col0, cn = (np.repeat(x[opp], size)[row_at] for x in (start, size))
    a, g = a[order], g[order]
    ra, rg = a[row_at], g[row_at]

    def products():
        for n, j in _expand(col0, cn):
            yield ra[n] + a[j], rg[n] + g[j]

    A, E = _first_of_runs(products(), 2)
    ka = _tol_keys(A)
    keep = ka != 0  # A = 0 forces B = 0: the all-zero tuple
    A, E, ka = A[keep], E[keep], ka[keep]
    # Float sums can share a 1e-9 key yet differ in the last bits
    # ((2-sqrt(2)) + (2+sqrt(2)) vs 2 + 2); every row takes the first A
    # of its key, so rows group by exact value.
    first = np.flatnonzero(np.r_[True, ka[1:] != ka[:-1]])
    A = A[first].repeat(np.diff(np.r_[first, A.size]))
    return CaseOneInvariantTable(a=A, e=E, scale_sq=c.scale_sq,
                                 triples=triples)


def _f_at(a, e, ts) -> np.ndarray:
    """f at every t of ts, in float, from rows sorted by (a, e).

    For each distinct A a binary search finds the dt values on either
    side of A*t.  Rounding is monotone, so no other row of that A comes
    out nearer, and the result equals np.abs(a*t - e).min() bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    f = np.full(ts.shape, np.inf)
    bounds = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1],
                                            [True])))
    for s, stop in zip(bounds[:-1], bounds[1:]):
        es = e[s:stop]
        x = a[s] * ts
        idx = np.searchsorted(es, x)
        lo = es[np.maximum(idx - 1, 0)]
        hi = es[np.minimum(idx, es.size - 1)]
        f = np.minimum(f, np.minimum(np.abs(x - lo), np.abs(x - hi)))
    return f


def _gaps(a, e, lam, glo, ghi):
    """The parts of the gaps (glo, ghi) where every |a*t - e| >= lam.

    Rows and the space between old gaps rule out intervals; one sort by
    left end and a running maximum of right ends leave the new gaps.
    """
    left = np.concatenate(((e - lam) / a, [-np.inf], ghi))
    right = np.concatenate(((e + lam) / a, glo, [np.inf]))
    # a gap opens only at a strict step left[k+1] > reach[k], and reach[k]
    # spans every interval with left <= left[k]: ties may sort any way
    order = np.argsort(left)
    left, reach = left[order], np.maximum.accumulate(right[order])
    open_ = left[1:] > reach[:-1]
    return reach[:-1][open_], left[1:][open_]


def optimize_step1(c: Constellation) -> OptimizationResult:
    """Maximize the worst-case |A*t - dt| over t in [-sqrt(2), sqrt(2)].

    Bisects the level between a coarse grid's best (lo) and the row
    ceiling (hi); lo's gaps hold the maximum, rows missing them go.
    """
    table = build_case1_table(c)
    if table.n_rows == 0:
        raise ValueError("empty A = B table; nothing to optimize")
    a_all, e_all = af, ef = table.a.astype(float), table.e.astype(float)
    hi = float(np.min(af * SQRT2 + np.abs(ef)))
    for lo in (float(_f_at(af, ef, np.linspace(-SQRT2, SQRT2, 33)).max()),
               0.0):
        glo, ghi = _gaps(af, ef, lo, [-SQRT2], [SQRT2])
        if glo.size:
            break
    while True:
        left, right = (ef - hi) / af, (ef + hi) / af
        k = np.minimum(np.searchsorted(ghi, left), ghi.size - 1)
        keep = (left <= ghi[k]) & (right >= glo[k])
        af, ef, left, right = af[keep], ef[keep], left[keep], right[keep]
        if hi - lo <= 1e-9 * hi:
            break
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
        g = _gaps(af, ef, mid, glo, ghi)
        if g[0].size:
            lo, (glo, ghi) = mid, g
        else:
            hi = mid

    # breakpoints of the rows active in each gap, as num/den:
    # crossings (dt1+dt2)/(A1+A2), switches (dt1-dt2)/(A1-A2), kinks dt/A
    ts = [np.array([-SQRT2, SQRT2])]
    for g0, g1 in zip(glo.tolist(), ghi.tolist()):
        sel = (left <= g1) & (right >= g0)
        aw, ew = af[sel], ef[sel]
        A1, A2 = aw[:, None], aw[None, :]
        E1, E2 = ew[:, None], ew[None, :]
        num = np.concatenate([(E1 + E2).ravel(), (E1 - E2).ravel(), ew])
        den = np.concatenate([(A1 + A2).ravel(), (A1 - A2).ravel(), aw])
        ts.append(num[den != 0] / den[den != 0])
    ts = np.concatenate(ts)
    ts = np.sort(ts[(ts >= -SQRT2) & (ts <= SQRT2)])
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]

    fs = _f_at(a_all, e_all, ts)
    near = fs >= fs.max() - _TIE_TOL
    # smallest |t| wins; positive breaks the remaining +-t tie
    t_star, f_val = min(zip(ts[near].tolist(), fs[near].tolist()),
                        key=lambda s: (round(abs(s[0]), 12), -s[0]))

    return OptimizationResult(
        t=t_star, r_candidates=_coefficients_at(t_star, "maximin"),
        case1_gain=2.0 * f_val * f_val * float(table.scale_sq or 1) ** 2,
        breakpoints_examined=ts.size,
        triples=table.triples if table.scale_sq is None else None)


def verify_step2(c: Constellation, result: OptimizationResult) -> Optimum:
    """Exact gain sweep under the step-1 coefficient.

    Also cross-checks the step-1 gain against the sweep's independent
    A = B minimum; disagreement means one of the two enumerations is
    broken, so it raises rather than reporting either number.
    """
    r = result.r_candidates[0]
    rep = coding_gain(c, r, triples=result.triples)
    if not math.isclose(rep.case1_min, result.case1_gain,
                        rel_tol=1e-9, abs_tol=1e-12):
        raise RuntimeError(
            f"Step-1 gain {result.case1_gain} disagrees with the sweep's "
            f"A = B minimum {rep.case1_min}")
    return Optimum(r, rep, result.case1_gain)


def optimize(c: Constellation) -> Optimum:
    """Best coefficient for c: analytic on integer grids, maximin else."""
    if c.integer_grid:
        r = analytic_integer_optimum()[0]
        rep = coding_gain(c, r)
        return Optimum(r, rep, rep.case1_min)
    return verify_step2(c, optimize_step1(c))


# family -> (default sizes, constellation id pattern)
_PROBE_FAMILIES = {
    "qam": ((4, 16, 64), "qam{}"),
    "psk": ((4, 8), "psk{}"),
    "apsk-grid": ((8, 16), "apsk{}-grid"),
}


def vanishing_probe(family: str, sizes=None):
    """Gain at min-dist-1 across sizes of one family; probes for gain decay.

    Each size takes optimize's coefficient: the analytic one on integer
    grids, a maximin re-optimization elsewhere (PSK).
    """
    try:
        default, pattern = _PROBE_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    sizes = default if sizes is None else tuple(sizes)
    if not sizes:
        raise ValueError("sizes must not be empty")
    return [(m, optimize(constellation_by_id(pattern.format(m),
                                             NORM_MIN_DIST)).report.gain)
            for m in sizes]
