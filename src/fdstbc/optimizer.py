"""Design-coefficient selection: analytic on integer grids, maximin else.

For tuples with A = B (the case where the coefficient matters most) the
determinant magnitude collapses to |det|^2 = 2*(A*t - dt)^2 with
t = u - v, so the best t maximizes

    f(t) = min over attainable rows (A, dt) of |A*t - dt|

on t in [-sqrt(2), sqrt(2)].  f is a pointwise minimum of V-shaped
functions, so its maximum sits at a crossing of two branches with
opposite slopes, t = (dt1 + dt2)/(A1 + A2), at a same-slope switch
(dt1 - dt2)/(A1 - A2), at a kink dt/A, or at an interval endpoint.
The search brackets the maximum with a coarse scan (rigorous because f
is Lipschitz with constant max A), keeps only the windows that can
still contain the maximum, enumerates the candidate breakpoints of the
rows active inside those windows, and scores every candidate against
the complete row table.  On integer grids the rows are exact integers
in grid units, candidate t values are exact rationals, and the whole
pipeline stays in integer arithmetic, which is how t* = 1/2 and the
gain 1/2 come out exact.

Constellations with integer coordinates skip the search: the maximin
solution there is t = +-1/2, giving the four coefficients
u = (+-1 +- sqrt(7))/4 with v = u - t.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .codes import DesignCoefficient
from .constellations import (Constellation, _first_of_runs, _tol_keys,
                             difference_set)
from .gain import GainReport, coding_gain, _projected_triples

SQRT2 = math.sqrt(2.0)
_SCAN_POINTS = 40001
_TIE_TOL = 1e-12


def analytic_integer_optimum() -> tuple[DesignCoefficient, ...]:
    """The four optimal coefficients for integer-coordinate constellations.

    u = (+-1 +- sqrt(7))/4 with v = u - t, t = +-1/2; all four reach the
    same gain, the principal one (both signs +) is listed first.
    """
    s7 = math.sqrt(7.0)
    out = []
    for t in (0.5, -0.5):
        for sgn in (1.0, -1.0):
            u = (2.0 * t + sgn * s7) / 4.0
            out.append(DesignCoefficient(
                u=u, v=u - t, provenance="analytic",
                t_exact=Fraction(1, 2) if t > 0 else Fraction(-1, 2)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CaseOneInvariantTable:
    """Attainable (A, dt) rows over tuples with A = B.

    a_values: distinct A values ascending; d2_values[i]: sorted dt values
    attainable at a_values[i]; witnesses[i][k]: one concrete tuple
    (ds1, ds2, ds3, ds4) in constellation units realizing d2_values[i][k].
    grid_units: rows are exact int64 in grid units (scale_sq converts
    squared grid quantities back to constellation units).
    """

    a_values: np.ndarray
    d2_values: tuple
    witnesses: tuple
    grid_units: bool
    scale_sq: Fraction | None = None

    @property
    def n_rows(self) -> int:
        return sum(e.size for e in self.d2_values)

    def flat_rows(self):
        sizes = [e.size for e in self.d2_values]
        a = np.repeat(self.a_values, sizes)
        e = np.concatenate(self.d2_values)
        return a, e


@dataclass(frozen=True)
class OptimizationResult:
    t: float
    r_candidates: tuple
    case1_gain: float
    case2_min: float
    case2_dominates: bool
    breakpoints_examined: int
    case1_gain_exact: Fraction | None = None
    t_exact: Fraction | None = None
    gain_report: GainReport | None = None


def build_case1_table(c: Constellation) -> CaseOneInvariantTable:
    """Enumerate every attainable (A, dt) with A = B, with witnesses.

    Pairs of projected triples satisfy A = B exactly when the first
    triple's a - b cancels the second's, so the enumeration only visits
    products of opposite-key groups instead of all pairs.
    """
    exact = c.grid is not None and c.grid.scale_sq is not None
    dvals = difference_set(c).values
    a, b, g, wx, wy, _ = _projected_triples(
        dvals, exact, c.grid.scale if exact else 1.0)
    keys = _tol_keys(a - b)
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    bounds = np.r_[starts, ks.size]
    groups = {int(ks[s]): order[s:e] for s, e in zip(bounds[:-1], bounds[1:])}

    rows_a, rows_e, rows_i, rows_j = [], [], [], []
    for k in sorted(groups):
        if k < 0 or -k not in groups:
            continue
        gi, gj = groups[k], groups[-k]
        step = max(1, int(8_000_000 // max(gj.size, 1)))
        for s in range(0, gi.size, step):
            ii = gi[s:s + step]
            A = a[ii][:, None] + a[gj][None, :]
            E = g[ii][:, None] + g[gj][None, :]
            wi = np.broadcast_to(ii[:, None], A.shape)
            wj = np.broadcast_to(gj[None, :], A.shape)
            A, E = A.ravel(), E.ravel()
            wi, wj = wi.ravel(), wj.ravel()
            keep = _first_of_runs((A, E), ties=(wi, wj))
            rows_a.append(A[keep])
            rows_e.append(E[keep])
            rows_i.append(wi[keep])
            rows_j.append(wj[keep])
    A = np.concatenate(rows_a)
    E = np.concatenate(rows_e)
    ka = _tol_keys(A)
    keep = _first_of_runs((ka, E))
    keep = keep[ka[keep] != 0]  # A = 0 forces B = 0: the all-zero tuple
    A, E, ka = A[keep], E[keep], ka[keep]
    WI = np.concatenate(rows_i)[keep]
    WJ = np.concatenate(rows_j)[keep]

    # Group rows by the sort key, not the raw value: on the float path
    # two sums can land in the same 1e-9 bucket while differing in the
    # last bits (e.g. (2-sqrt(2)) + (2+sqrt(2)) vs 2 + 2), and np.unique
    # on the raw floats would split them and misalign the slices.
    a_starts = np.flatnonzero(np.r_[True, ka[1:] != ka[:-1]])
    a_vals = A[a_starts]
    a_bounds = np.r_[a_starts, A.size]
    d2s, wits = [], []
    for s, e in zip(a_bounds[:-1], a_bounds[1:]):
        d2s.append(E[s:e].copy())
        wit = np.stack([wx[WI[s:e]], wx[WJ[s:e]],
                        wy[WI[s:e]], wy[WJ[s:e]]], axis=1)
        wits.append(wit)
    return CaseOneInvariantTable(
        a_values=a_vals, d2_values=tuple(d2s), witnesses=tuple(wits),
        grid_units=exact,
        scale_sq=c.grid.scale_sq if exact else None)


def _prune_rows(a_flat, e_flat):
    """Drop rows whose V never dips below some other row's ceiling."""
    af = a_flat.astype(np.float64)
    ef = e_flat.astype(np.float64)
    ceiling = float(np.min(af * SQRT2 + np.abs(ef)))
    keep = (np.abs(ef) - af * SQRT2) <= ceiling + 1e-9
    return a_flat[keep], e_flat[keep]


def _scan_f(a_flat, e_flat):
    """Evaluate f on a uniform grid via per-A nearest-dt lookups."""
    af = a_flat.astype(np.float64)
    ef = e_flat.astype(np.float64)
    tg = np.linspace(-SQRT2, SQRT2, _SCAN_POINTS)
    fg = np.full(tg.size, np.inf)
    a_vals, starts = np.unique(af, return_index=True)
    bounds = np.r_[starts, af.size]  # rows arrive sorted by (A, e)
    for av, s, e in zip(a_vals, bounds[:-1], bounds[1:]):
        es = np.sort(ef[s:e])
        x = av * tg
        idx = np.searchsorted(es, x)
        lo = es[np.clip(idx - 1, 0, es.size - 1)]
        hi = es[np.clip(idx, 0, es.size - 1)]
        fg = np.minimum(fg, np.minimum(np.abs(x - lo), np.abs(x - hi)))
    return tg, fg


def _eval_f_float(a_flat, e_flat, t):
    return float(np.min(np.abs(a_flat * t - e_flat)))


def _eval_f_exact(a_flat, e_flat, t: Fraction) -> Fraction:
    p, q = t.numerator, t.denominator
    vals = np.abs(a_flat * np.int64(p) - e_flat * np.int64(q))
    return Fraction(int(vals.min()), q)


def optimize_step1(c: Constellation,
                   table: CaseOneInvariantTable | None = None
                   ) -> OptimizationResult:
    """Maximize the worst-case |A*t - dt| over t in [-sqrt(2), sqrt(2)]."""
    if table is None:
        table = build_case1_table(c)
    if table.n_rows == 0:
        raise ValueError("empty A = B table; nothing to optimize")
    a_flat, e_flat = table.flat_rows()
    a_flat, e_flat = _prune_rows(a_flat, e_flat)
    exact = table.grid_units
    af = a_flat.astype(np.float64)
    ef = e_flat.astype(np.float64)
    a_max = float(af.max())

    tg, fg = _scan_f(a_flat, e_flat)
    h = tg[1] - tg[0]
    level = float(fg.max())
    slack = a_max * h

    # windows of grid cells that can still contain the true maximum
    cell_ok = np.maximum(fg[:-1], fg[1:]) >= level - slack
    idx = np.flatnonzero(cell_ok)
    windows = []
    for i in idx:
        lo, hi = tg[i], tg[i + 1]
        if windows and lo <= windows[-1][1] + h * 0.5:
            windows[-1] = (windows[-1][0], hi)
        else:
            windows.append((lo, hi))

    margin = level + slack
    cands_f = {-SQRT2, SQRT2}
    cands_x = set()
    for lo, hi in windows:
        sel = (ef >= af * lo - margin) & (ef <= af * hi + margin)
        aw = a_flat[sel]
        ew = e_flat[sel]
        if aw.size == 0:
            continue
        if aw.size > 4000:
            raise RuntimeError(
                f"{aw.size} active rows in one window; scan resolution "
                "too coarse for this constellation")
        A1, A2 = aw[:, None], aw[None, :]
        E1, E2 = ew[:, None], ew[None, :]
        if exact:
            num_s, den_s = (E1 + E2).ravel(), (A1 + A2).ravel()
            num_d, den_d = (E1 - E2).ravel(), (A1 - A2).ravel()
            for num, den in ((num_s, den_s), (num_d, den_d)):
                ok = den != 0
                for n_, d_ in zip(num[ok].tolist(), den[ok].tolist()):
                    cands_x.add(Fraction(n_, d_))
            for n_, d_ in zip(ew.tolist(), aw.tolist()):
                cands_x.add(Fraction(n_, d_))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ts = (E1 + E2) / (A1 + A2)
                td = np.where(A1 != A2, (E1 - E2) / (A1 - A2 + (A1 == A2)),
                              np.nan)
            for arr in (ts.ravel(), td.ravel(), ew / aw):
                arr = arr[np.isfinite(arr)]
                cands_f.update(arr[(arr >= -SQRT2) & (arr <= SQRT2)].tolist())
        cands_f.update((lo, hi))

    examined = 0
    scored = []  # (f, t_float, t_exact)
    for t in sorted(cands_x):
        if not (-SQRT2 <= float(t) <= SQRT2):
            continue
        examined += 1
        scored.append((float(_eval_f_exact(a_flat, e_flat, t)), float(t), t))
    for t in sorted(cands_f):
        if not (-SQRT2 <= t <= SQRT2):
            continue
        examined += 1
        scored.append((_eval_f_float(af, ef, t), float(t), None))
    best_f = max(s[0] for s in scored)
    tied = [s for s in scored if s[0] >= best_f - _TIE_TOL]
    # smallest |t| wins; positive breaks the remaining +-t tie
    tied.sort(key=lambda s: (round(abs(s[1]), 12), -s[1]))
    _, t_star, t_exact = tied[0]

    if exact and t_exact is not None:
        f_exact = _eval_f_exact(a_flat, e_flat, t_exact)
        gain_exact = 2 * f_exact * f_exact * table.scale_sq ** 2
        case1_gain = float(gain_exact)
    else:
        gain_exact = None
        f_val = _eval_f_float(af, ef, t_star)
        s4 = float(table.scale_sq) ** 2 if table.scale_sq is not None else 1.0
        case1_gain = 2.0 * f_val * f_val * s4

    root = math.sqrt(max(2.0 - t_star * t_star, 0.0))
    rc = tuple(
        DesignCoefficient(u=(t_star + s * root) / 2.0,
                          v=(t_star + s * root) / 2.0 - t_star,
                          provenance="maximin", t_exact=t_exact)
        for s in (1.0, -1.0))
    return OptimizationResult(
        t=t_star, r_candidates=rc, case1_gain=case1_gain,
        case2_min=math.nan, case2_dominates=False,
        breakpoints_examined=examined,
        case1_gain_exact=gain_exact, t_exact=t_exact)


def verify_step2(c: Constellation,
                 result: OptimizationResult) -> OptimizationResult:
    """Exact A != B minimum under the Step-1 coefficient; sets dominance.

    Also cross-checks the Step-1 gain against the sweep's independent
    A = B minimum; disagreement means one of the two enumerations is
    broken, so it raises rather than reporting either number.
    """
    r = result.r_candidates[0]
    rep = coding_gain(c, r)
    if not math.isclose(rep.case1_min, result.case1_gain,
                        rel_tol=1e-9, abs_tol=1e-12):
        raise RuntimeError(
            f"Step-1 gain {result.case1_gain} disagrees with the sweep's "
            f"A = B minimum {rep.case1_min}")
    dominates = rep.case2_min >= result.case1_gain - _TIE_TOL
    return replace(result, case2_min=rep.case2_min,
                   case2_dominates=dominates, gain_report=rep)


def optimize(c: Constellation) -> tuple[DesignCoefficient, GainReport]:
    """Best coefficient for c: analytic on integer grids, maximin else."""
    if c.integer_grid:
        r = analytic_integer_optimum()[0]
        return r, coding_gain(c, r)
    res = verify_step2(c, optimize_step1(c))
    return res.r_candidates[0], res.gain_report
