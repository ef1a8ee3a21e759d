"""Exact coding-gain search over codeword difference tuples.

The gain of the code is min |det(dX)|^2 over all nonzero difference
tuples (ds1, ds2, ds3, ds4) in D^4, D the symbol difference set.  Two
routes are implemented and must agree:

* ``exhaustive``   covers all |D|^4 tuples through the plain determinant
  of the difference codeword, det = F(ds1, ds3) + F(ds2, ds4) with
  F(x, y) = (x + r*y) * (-j*conj(r)*conj(x) + conj(y)) over D x D; it
  uses no reduction of det.  Equal terms (F, |x|^2, |y|^2) give equal
  values, so it scores each pair of distinct terms once.

* ``aggregated``   notes that with r = u + j*v on the unit circle and
  t = u - v,

      |det|^2 = (A-B)^2 + 2*t^2*A*B + 2*dt^2 - 2*(A+B)*t*dt

  where dt = Im(C) - Re(C), so the sweep only needs the per-pair
  triples (|x|^2, |y|^2, Im(x*conj(y)) - Re(x*conj(y))) deduplicated
  over D x D, then all pairs of triples.

Completing the square in dt gives
    |det|^2 = (A-B)^2*(2-t^2)/2 + 2*(dt - (A+B)*t/2)^2
so |det|^2 >= (B-A)^2*(u+v)^2/2 for every tuple (the case II floor),
which is asserted for every pair of triples.

Every route lists index pairs i <= j in blocks to one fold, _least,
which keeps each case's minimum and every pair in the tie band, so the
tie set and the reported argmin do not depend on the blocking; the
route's score gives each pair's value and case and runs its floor
check.  The exhaustive route lists all pairs of distinct terms in row
blocks of about _TILE_PAIRS pairs, masking only each block's leading
triangle.  A pair's A - B, and with it its case and floor threshold,
depends only on its two exact (|x|^2, |y|^2) classes, so these come
from L x L class tables; each tied pair of terms then expands to every
index pair i <= j of its members' (x, y), as a sweep of all |D|^2
terms would list them.

Both aggregated routes list, through one kernel _pair_window, only the
pairs of triples that can reach a minimum, its tie band or the floor
check.  With s = a - b and w = g - (a + b)*t/2 per triple (g its dt), a
pair is worth c*S^2 + 2*W^2, c = 1 - t^2/2, S and W its sums.  The
kernel groups triples by s, sorts each group by w, and lists the pairs
in the window that the zero triple's pairs set.  _window_pairs pads
each edge by a forward error bound and scores with the expanded form
above, bit for bit.  On integer grids with a rational t = p/q,
_search_pairs is exact with no padding: w = 2q*g - p*(a + b) and
q^2*|det|^2 = (c*S^2 + W^2)/2, c = 2q^2 - p^2, in int64 (ValueError up
front if a value could reach 2^62).  Where c*S^2/2 alone cannot clear
the floor check at a sum S, it widens the window there to decide it.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .codes import DesignCoefficient, DifferenceTuple
from .constellations import (Constellation, _first_of_runs, _ranks, _runs,
                             _tol_keys, difference_set)

CASE_TOL = 1e-9  # |A - B| at or below it is case I
EXHAUSTIVE_LIMIT = 1e10
AGG_DEFAULT_ABOVE = 8
_FLOAT_TIE = 1e-12
_INT_LIMIT = np.int64(2) ** 62  # exact values stay below it
_FLOOR_MSG = ("case II lower bound violated; "
              "determinant reduction is inconsistent")
_TILE_PAIRS = 2 ** 14  # pairs per dense row block: temporaries fit L2
_BLOCK_PAIRS = 2 ** 18  # difference pairs expanded per dedup block
# Expansion holds one block at a time, so this bounds time, not memory:
# psk55's 8,826,841 pairs take 1.1 s and its case-I table 7 s (2-core
# Xeon VM)
TRIPLE_PAIR_LIMIT = 2 ** 23


@dataclass(frozen=True)
class GainReport:
    gain: float
    argmin: DifferenceTuple
    case_of_argmin: str
    case1_min: float
    case2_min: float
    case2_bound_min: float
    method: str
    gain_exact: Fraction | None = None


def _projected_triples(dvals: np.ndarray, scale_sq=None):
    """Dedup (a, b, g) with g = Im(x*conj(y)) - Re(x*conj(y)).

    Returns (a, b, g, wit_x, wit_y, zero_index), sorted by (a, b, g).
    dvals must be sorted by distinct (re, im) DEDUP_TOL keys, as
    difference_set returns them: D x D then streams through
    _first_of_runs row-major, so each triple's witness, its first (x, y)
    in the stream, is its smallest (x, y) by keys.  Given the grid's
    scale_sq the triples are exact int64 in grid units (dvals divided by
    its square root must be Gaussian integers); witnesses stay in
    constellation units either way.
    ValueError up front if |D|^2 exceeds TRIPLE_PAIR_LIMIT, and if a
    nonzero difference shares the zero triple's 1e-9 keys.
    """
    d = np.asarray(dvals)
    n = d.size
    if n ** 2 > TRIPLE_PAIR_LIMIT:
        raise ValueError(f"|D|^2 = {n ** 2} difference pairs exceed the "
                         f"limit of {TRIPLE_PAIR_LIMIT}")
    u, sq = d, np.abs(d) ** 2
    if scale_sq is not None:
        ds = d / math.sqrt(scale_sq)
        u = np.round(ds.real) + 1j * np.round(ds.imag)
        if np.max(np.abs(ds - u)) > 1e-9:
            raise ValueError("differences are not on the integer grid")
        sq = (u.real ** 2 + u.imag ** 2).astype(np.int64)
    # numpy's fused complex product rounds by operand order, and elision
    # runs x * conj(y) as conj(y) * x from 256 KiB up: use whole D x D's
    swap = 16 * n * n >= 2 ** 18
    # (a, b) keys as one column: the pair of |x|^2, |y|^2 key ranks
    rk, nr = _ranks(_tol_keys(sq))

    ids, cu = np.arange(n, dtype=np.int32), np.conj(u)
    step = max(1, _BLOCK_PAIRS // max(n, 1))

    def blocks():
        # D x D row-major in blocks of about _BLOCK_PAIRS pairs: each
        # column repeats a row table or tiles a column table rather than
        # gather through (i, j), and no column outlives its block
        for r in range(0, n, step):
            rows = slice(r, r + step)
            m = ids[rows].size
            g = _dt(u[rows].repeat(n), np.tile(cu, m), swap, sq.dtype)
            yield ((rk[rows] * nr).repeat(n) + np.tile(rk, m), g,
                   ids[rows].repeat(n), np.tile(ids, m))

    _, g, i, j = _first_of_runs(blocks(), 2)
    a, b = sq[i], sq[j]
    zero = np.flatnonzero((a == 0) & (b == 0) & (g == 0))
    if zero.size != 1:
        tiny = float(sq[sq > 0].min())
        raise ValueError(f"a nonzero difference with |x|^2 = {tiny:.3g} "
                         f"keys to 0 on the 1e-9 dedup grid: scale the "
                         f"constellation up")
    return a, b, g, d[i], d[j], int(zero[0])


def _dt(x, cy, swap, dtype):
    """Im(x*conj(y)) - Re(x*conj(y)) given cy = conj(y), in dtype; its
    complex temporaries die before the caller's dedup sees the block."""
    cc = cy * x if swap else x * cy
    return (cc.imag - cc.real).astype(dtype, copy=False)


def _sweep_terms(fr, fi, cls, am_b, *, bound_coef):
    """_least over every pair p <= q of distinct terms but the zero
    term's (0, 0), in row blocks of about _TILE_PAIRS pairs against the
    columns from their first row on, each scored (fr_p + fr_q)^2 +
    (fi_p + fi_q)^2: det.real^2 + det.imag^2 of det = F_p + F_q.

    cls gives each term's (a, b) class and am_b[P, Q] the pair's A - B,
    so the case, the floor check's threshold and the least case-II floor
    come from L x L tables.  Returns (case1_min, case2_min, bound_min,
    pp, qq).
    """
    n, nc = fr.size, am_b.shape[0]
    case1 = np.abs(am_b) <= CASE_TOL
    bnd = am_b ** 2 * bound_coef
    bound_min = float(np.where(case1, np.inf, bnd).min())
    thr = np.where(case1, -np.inf, _floor_threshold(bnd)).ravel()
    case1 = case1.ravel()

    def blocks():
        i0 = 0
        while i0 < n:
            i1 = min(n, i0 + max(1, _TILE_PAIRS // (n - i0)))
            yield np.arange(i0, i1)[:, None], np.arange(i0, n)
            i0 = i1

    def score(i, j):
        i0, rows = int(j[0]), i.shape[0]
        p, q = slice(i0, i0 + rows), slice(i0, n)
        val = (fr[p, None] + fr[None, q]) ** 2 \
            + (fi[p, None] + fi[None, q]) ** 2
        val[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
        if i0 == 0:
            val[0, 0] = np.inf
        k = cls[p, None] * nc + cls[None, q]
        if (val < thr[k]).any():
            raise RuntimeError(_FLOOR_MSG)
        return val, case1[k]

    c1, c2, pp, qq = _least(blocks(), score, _tie_limit)
    return c1, c2, bound_min, pp, qq


def _floor_threshold(bnd):
    """The float routes' case-II check: a value below its floor bnd by
    more than 1e-9*max(bnd, 1) violates it."""
    return bnd - 1e-9 * np.maximum(bnd, 1.0)


def _least(blocks, score, tie):
    """(case1_min, case2_min, ii, jj) over blocks of index pairs (i, j)
    that broadcast, (ii, jj) the pairs within tie(minimum).  score(i, j)
    gives (value, case1) and runs the floor check; a case's minimum
    moves only on a block that holds pairs of that case."""
    c1 = c2 = np.inf
    hits = []
    for i, j in blocks:
        val, case1 = score(i, j)
        if case1.any():
            c1 = min(c1, val[case1].min())
        if not case1.all():
            c2 = min(c2, val[~case1].min())
        k = np.nonzero(val <= tie(min(c1, c2)))
        hits.append([x[k] for x in np.broadcast_arrays(i, j, val)])
    ii, jj, vals = (np.concatenate(h) for h in zip(*hits))
    keep = vals <= tie(min(c1, c2))
    return c1, c2, ii[keep], jj[keep]


def _tie_limit(x):
    return x + _FLOAT_TIE * max(1.0, abs(x))


def _expand(starts, counts):
    """(k, starts[k] + m) for every m < counts[k], in blocks of about
    _BLOCK_PAIRS items however wide a single range is.  A block repeats
    each range it meets by its share of the block: no per-item search."""
    ends, total = np.cumsum(counts), int(np.sum(counts))
    for lo in range(0, total, _BLOCK_PAIRS):
        hi = min(lo + _BLOCK_PAIRS, total)
        first, last = ends.searchsorted([lo, hi - 1], side="right")
        k = np.arange(first, last + 1)
        n = np.minimum(ends[k], hi) - np.maximum(ends[k] - counts[k], lo)
        yield (k.repeat(n),
               (starts[k] - ends[k] + counts[k]).repeat(n) + np.arange(lo, hi))


def _window_pairs(a, b, g, zero_idx, *, t, bound_coef):
    """(case1_min, case2_min, bound_min, ii, jj) bit for bit as a sweep
    of every pair i <= j of triples gives them, by a pair-sum window.

    Pairs scored are scored by the same expanded form.  A pair left out
    has c*S^2 + 2*W^2 - err, a lower bound on its value, above its case's
    bound from the zero triple's pairs and clear of the floor check; the
    check's doubt window of small |W| opens wide if bound_coef exceeds c.
    """
    k2, k4 = 2.0 * t * t, 2.0 * t
    c = (2.0 - t * t) / 2.0 - 2.0 ** -51  # below the exact 1 - t^2/2
    pm, qm = 2.0 * float((a + b).max()), 2.0 * float(np.abs(g).max())
    err = 2.0 ** -46 * (pm * pm + qm * qm)  # forward error of one value
    pad = 2.0 ** -44 * (pm + qm)  # rounding of s, w, A - B and their sums

    def score(i, j):
        A, B, D = a[i] + a[j], b[i] + b[j], g[i] + g[j]
        am_b = A - B
        val = am_b * am_b + k2 * (A * B) + 2.0 * (D * D) \
            - k4 * ((A + B) * D)
        case1 = np.abs(am_b) <= CASE_TOL
        if (~case1 & (val < _floor_threshold(am_b ** 2 * bound_coef))).any():
            raise RuntimeError(_FLOOR_MSG)
        return val, case1

    # the floor check can fail only where 2*W^2 < d2, and d2 < 0 for all
    # |S| past xd once the relative slack outgrows the doubt
    hi_c, lo_c = bound_coef * (1 + 2.0 ** -40), bound_coef * (1 - 2.0 ** -40)
    r9 = 1e-9 * (1 - 2.0 ** -40)
    kap = r9 * lo_c + c - hi_c

    def reach(lim, width):
        dlt = 2.0 * width + 3.0 * pad
        xd = math.inf
        if kap > 0 and lo_c > 0:
            beta = 2.0 * (hi_c * dlt + r9 * lo_c * pad)
            xd = max(beta / kap + math.sqrt((err + hi_c * dlt * dlt) / kap),
                     pad + 1.0 / math.sqrt(lo_c)) * (1 + 1e-6)
        return max(math.sqrt((lim + err) / c) if c > 0 else math.inf, xd)

    def half(lim, s_lo, s_hi):
        near = np.maximum(np.maximum(s_lo, -s_hi), 0.0)
        far = np.maximum(-s_lo, s_hi) + pad
        d2 = err + hi_c * far * far - c * near * near - r9 * np.maximum(
            lo_c * np.maximum(near - pad, 0.0) ** 2, 1.0)
        w2 = np.maximum(lim + err - c * near * near, d2)
        return np.where(w2 >= 0, np.sqrt(np.maximum(w2, 0.0) / 2.0)
                        + 2.0 * pad, -1.0)

    s = a - b
    c1, c2, ii, jj = _pair_window(
        s, g - (a + b) * (t / 2.0), _tol_keys(s), zero_idx,
        reach=reach, pad=pad, half=half, score=score, tie=_tie_limit)
    return c1, c2, _bound_min(a, b, pad, bound_coef), ii, jj


def _pair_window(s, w, key, zero_idx, *, reach, pad, half, score, tie):
    """_least over the pairs i <= j of triples that a window on the pair
    sums S = s_i + s_j and W = w_i + w_j holds.

    lim, the zero triple's larger best pair per case widened by tie,
    bounds both minima.  Triples are grouped by key and sorted by w.
    Group pairs whose S range, widened by pad, meets [-x, x], x =
    reach(lim, widest group's s span), get a W half-width from half(lim,
    s_lo, s_hi) (negative: none); each triple of the first lists its
    partners in the second in blocks of about _BLOCK_PAIRS.
    """
    n = s.size
    others = np.delete(np.arange(n), zero_idx)
    z1, z2, _, _ = _least([(np.array([zero_idx]), others)], score, tie)
    lim = tie(max(z1, z2))
    order = np.lexsort((w, key))
    key, s, w = key[order], s[order], w[order]
    start = _runs([key])
    size = np.diff(np.append(start, n))
    smin, smax = np.minimum.reduceat(s, start), np.maximum.reduceat(s, start)
    wo = np.sort(w)
    # gk ranks (group, w), so one searchsorted finds a w in a group
    gk = np.repeat(np.arange(start.size), size) * (n + 1) + wo.searchsorted(w)
    x = reach(lim, float((smax - smin).max()))
    # group pairs g1 <= g2 whose S range meets [-x, x]
    lo = np.maximum(smax.searchsorted(-x - pad - smax), np.arange(start.size))
    hi = smin.searchsorted(x + pad - smin, side="right")

    def pairs():
        for g1, g2 in _expand(lo, np.maximum(hi - lo, 0)):
            width = half(lim, smin[g1] + smin[g2] - pad,
                         smax[g1] + smax[g2] + pad)
            ok = width >= 0
            g1, base, width = g1[ok], g2[ok] * (n + 1), width[ok]
            for m, p in _expand(start[g1], size[g1]):
                jlo = gk.searchsorted(
                    base[m] + wo.searchsorted(-w[p] - width[m]))
                jhi = gk.searchsorted(
                    base[m] + wo.searchsorted(-w[p] + width[m], "right"))
                for r, q in _expand(jlo, jhi - jlo):
                    # g1 <= g2 and groups sit in order: p <= q lists once
                    keep = (p[r] < q) | ((p[r] == q) & (order[q] != zero_idx))
                    yield np.sort((order[p[r][keep]], order[q[keep]]), axis=0)
    return _least(pairs(), score, tie)


def _bound_min(a, b, pad, bound_coef):
    """Least case-II floor (A - B)^2*bound_coef over pairs of triples.

    A - B, as a sweep computes it, depends only on the pair's two exact
    (a, b) rows.  Only row sums from the case-I band up to the nearest
    sum past it, on either side, can reach the least |A - B|.
    """
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    rs = a - b
    o = np.lexsort((b, rs))
    a, b, rs = a[o], b[o], rs[o]
    new = _runs([rs, b])
    a, b, rs = a[new], b[new], rs[new]
    edge = (rs.searchsorted(CASE_TOL + 2 * pad - rs),
            rs.searchsorted(-CASE_TOL - 2 * pad - rs, "right") - 1)
    top = min(np.abs(rs + rs[e % rs.size])[(e >= 0) & (e < rs.size)]
              .min(initial=np.inf) for e in edge) + 2 * pad
    lo = rs.searchsorted(np.concatenate((CASE_TOL - 2 * pad - rs, -top - rs)))
    hi = rs.searchsorted(np.concatenate((top - rs, 2 * pad - CASE_TOL - rs)),
                         "right")
    bmin = np.inf
    for k, j in _expand(lo, np.maximum(hi - lo, 0)):
        i = k % rs.size
        am_b = (a[i] + a[j]) - (b[i] + b[j])
        bnd = (am_b ** 2 * bound_coef)[np.abs(am_b) > CASE_TOL]
        bmin = min(bmin, float(bnd.min(initial=np.inf)))
    return bmin


def _search_pairs(a, b, g, zero_idx, p, q, *, bound_coef):
    """Exact min of q^2*|det|^2 = (c*S^2 + W^2)/2 over pairs of triples.

    a, b, g are int64 triples and t = p/q; c = 2q^2 - p^2, and S, W are
    the pair sums of s = a - b and w = 2q*g - p*(a + b).  Returns
    (case1_min, case2_min, bound_min, ii, jj) like _window_pairs, with
    int minima and (ii, jj), ii <= jj, exactly the pairs equal to the
    minimum.  It is _pair_window with no padding: each group is one
    exact s, and at each sum S it scores W^2 <= 2*lim - c*S^2 and the
    least |W| that could fail the case-II check.  Raises ValueError up
    front when a value could reach 2^62.
    """
    am, bm, gm = (2 * int(np.abs(x).max()) for x in (a, b, g))
    worst = q * q * max(am, bm) ** 2 + 2 * p * p * am * bm \
        + 2 * q * q * gm * gm + 2 * abs(p) * q * (am + bm) * gm
    if worst >= _INT_LIMIT:
        raise ValueError(
            f"exact gain sweep would overflow int64: |q^2 det^2| can "
            f"reach {float(worst):.3g} with t = {p}/{q} on this grid")
    if p * p >= 2 * q * q:
        raise ValueError(f"exact gain search needs |t| < sqrt(2), "
                         f"got t = {p}/{q}")
    c = np.int64(2 * q * q - p * p)
    q2 = float(q) ** 2
    s, w = a - b, 2 * q * g - p * (a + b)

    def score(i, j):
        S, W = s[i] + s[j], w[i] + w[j]
        val = (c * S * S + W * W) // 2
        bnd = S.astype(np.float64) ** 2 * bound_coef
        # absolute 1e-9 in grid units, not _floor_threshold: val is exact
        # here, so only bnd's rounding is in doubt, and half's doubt
        # window below is built on this same threshold
        if ((S != 0) & (val.astype(np.float64) / q2 < bnd - 1e-9)).any():
            raise RuntimeError(_FLOOR_MSG)
        return val, S == 0

    def half(lim, S, _):
        # past 2*lim - c*S^2, a W can only matter to the floor check, and
        # only where c*S^2/2 rounded up, the least value at S, fails it
        Sf = S.astype(np.float64)
        bnd = Sf ** 2 * bound_coef
        doubt = (S != 0) & (((c * S * S + 1) // 2) / q2 < bnd - 1e-9)
        w2 = np.maximum(2 * lim - c * S * S, np.where(
            doubt, 2 * q2 * bnd * (1 + 2.0 ** -40) - c * Sf ** 2 + 2, -1))
        return np.where(w2 >= 0, np.sqrt(np.maximum(w2, 0)).astype(np.int64)
                        + 1, -1)

    c1, c2, ii, jj = _pair_window(
        s, w, s, zero_idx, reach=lambda *_: math.inf, pad=0, half=half,
        score=score, tie=lambda v: v)
    return int(c1), int(c2), _bound_min(a, b, 0.0, bound_coef), ii, jj


def _argmin_tuple(ii, jj, wx, wy, a, b):
    """Pick the reported argmin deterministically among tied candidates:
    the key's eight columns narrow them in bulk, within a safety band of
    its rounding, and the exact key decides among the rows left."""
    def key(c):
        i, j = c
        t = (wx[i], wx[j], wy[i], wy[j])
        return tuple(round(abs(z) ** 2, 12) for z in t) + \
            tuple(round(float(np.angle(z)), 12) for z in t)
    z = np.stack([wx[ii], wx[jj], wy[ii], wy[jj]])
    rows = np.arange(ii.size)
    for v in np.vstack([z.real ** 2 + z.imag ** 2, np.angle(z)]):
        rows = rows[v[rows] <= v[rows].min() + 1e-13 * abs(v).max() + 2e-12]
        s = v[rows] * 1e12
        if (np.abs(s - np.floor(s) - 0.5) <= 1e-14 * np.abs(s) + 1e-6).any():
            break
        k = np.rint(s) / 1e12
        rows = rows[k == k.min()]
    i, j = min(zip(ii[rows].tolist(), jj[rows].tolist()), key=key)
    tup = DifferenceTuple(ds1=complex(wx[i]), ds2=complex(wx[j]),
                          ds3=complex(wy[i]), ds4=complex(wy[j]))
    case = "I" if abs((a[i] + a[j]) - (b[i] + b[j])) <= CASE_TOL else "II"
    return tup, case


def _report(c1, c2, bmin, ii, jj, wx, wy, a, b, method, gain_exact=None):
    """A route's GainReport from its case minima, least case-II floor
    and tie list (ii, jj), whose argmin _argmin_tuple picks."""
    tup, case = _argmin_tuple(ii, jj, wx, wy, a, b)
    return GainReport(gain=float(min(c1, c2)), argmin=tup,
                      case_of_argmin=case, case1_min=float(c1),
                      case2_min=float(c2), case2_bound_min=bmin,
                      method=method, gain_exact=gain_exact)


def _aggregated_gain(c: Constellation, r: DesignCoefficient,
                     triples=None) -> GainReport:
    exact = c.integer_grid and r.t_exact is not None
    bound_coef = (2.0 - r.t ** 2) / 2.0
    a, b, g, wx, wy, z = triples or _projected_triples(
        difference_set(c), c.scale_sq if exact else None)
    if not exact:
        c1, c2, bmin, ii, jj = _window_pairs(a, b, g, z, t=r.t,
                                             bound_coef=bound_coef)
        return _report(c1, c2, bmin, ii, jj, wx, wy, a, b, "aggregated")
    p, q = r.t_exact.numerator, r.t_exact.denominator
    c1, c2, bmin, ii, jj = _search_pairs(a, b, g, z, p, q,
                                         bound_coef=bound_coef)
    unit = c.scale_sq ** 2 / q ** 2  # grid-unit q^2*|det|^2 -> |det|^2
    c1, c2 = c1 * unit, c2 * unit
    return _report(c1, c2, bmin * float(c.scale_sq ** 2), ii, jj, wx, wy,
                   a, b, "aggregated", gain_exact=min(c1, c2))


def exhaustive_guard(c: Constellation) -> np.ndarray:
    """c's difference set D; ValueError if the |D|^4 tuples of the
    exhaustive route exceed EXHAUSTIVE_LIMIT."""
    dvals = difference_set(c)
    if float(dvals.size) ** 4 > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"|D|^4 = {float(dvals.size) ** 4:.3g} exceeds the "
            f"exhaustive-search guard ({EXHAUSTIVE_LIMIT:.0e}); the "
            "aggregated method has no such guard")
    return dvals


def _exhaustive_gain(c: Constellation, r: DesignCoefficient) -> GainReport:
    dvals = exhaustive_guard(c)
    nd = dvals.size
    x = np.repeat(dvals, nd)
    y = np.tile(dvals, nd)
    rr = r.r
    F = (x + rr * y) * (-1j * np.conj(rr) * np.conj(x) + np.conj(y))
    a = np.abs(x) ** 2
    b = np.abs(y) ** 2
    # distinct terms (a, b, F) by exact value, sorted: equal terms give
    # equal pair values, so each pair of terms is scored once.  -0.0 and
    # 0.0 merge, which no square of a sum of F parts can tell apart.
    order = np.lexsort((F.imag, F.real, b, a))  # stable: members ascend
    cols = [v[order] for v in (a, b, F.real, F.imag)]
    first = _runs(cols)
    count = np.diff(np.append(first, F.size))
    ta, tb, fr, fi = (v[first] for v in cols)
    # (a, b) classes: A - B of a pair of terms is the classes' A - B
    cfirst = _runs([ta, tb])
    cls = cfirst.searchsorted(np.arange(ta.size), "right") - 1
    ca, cb = ta[cfirst], tb[cfirst]
    am_b = (ca[:, None] + ca[None, :]) - (cb[:, None] + cb[None, :])
    # term 0 is the zero term, the only one with a = b = 0: a nonzero
    # difference's |x|^2 is at least about 1e-18 on the 1e-9 key grid
    c1, c2, bmin, pp, qq = _sweep_terms(fr, fi, cls, am_b,
                                        bound_coef=(r.u + r.v) ** 2 / 2.0)
    # every index pair i <= j of the tied terms' members, in index order
    k, m = map(np.concatenate, zip(*_expand(np.zeros_like(pp),
                                            count[pp] * count[qq])))
    cq = count[qq[k]]
    i, j = order[first[pp[k]] + m // cq], order[first[qq[k]] + m % cq]
    keep = (pp[k] != qq[k]) | (i <= j)
    ii, jj = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    s = np.lexsort((jj, ii))
    return _report(c1, c2, bmin, ii[s], jj[s], x, y, a, b, "exhaustive")


# coding_gain's method names
METHODS = ("auto", "aggregated", "exhaustive")


def coding_gain(c: Constellation, r: DesignCoefficient,
                method: str = "auto", triples=None) -> GainReport:
    """Minimum |det|^2 over all nonzero difference tuples of c under r.

    method "auto" picks exhaustive for small constellations (<= 8
    points) and the aggregated triple-pair search otherwise, which uses
    triples (the _projected_triples of c's difference set it needs) if
    given.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "exhaustive" if len(c) <= AGG_DEFAULT_ABOVE else "aggregated"
    if method == "aggregated":
        return _aggregated_gain(c, r, triples)
    return _exhaustive_gain(c, r)


def coding_gain_scaled(c: Constellation, r: DesignCoefficient,
                       alpha: float, method: str = "auto") -> GainReport:
    """Gain of the constellation scaled by alpha (quartic in alpha)."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    scaled = Constellation(name=c.name, points=c.points * alpha,
                           normalization="scaled")
    return coding_gain(scaled, r, method=method)


def golden_coding_gain(c: Constellation) -> float:
    """Coding gain of the reference Golden code over constellation c.

    det factors through q(x, y) = x^2 + x*y - y^2 on the two symbol
    pairs: det = (2/5)*(2+j)*(q(ds1, ds2) - j*q(ds3, ds4)), so the
    search only needs the q values over D x D, deduplicated by
    DEDUP_TOL keys, and their pairs in row blocks of about _BLOCK_PAIRS.
    """
    d = difference_set(c)
    x = np.repeat(d, d.size)
    y = np.tile(d, d.size)
    nz = ~((x == 0) & (y == 0))
    qv = (x * x + x * y - y * y)[nz]
    qnz = _first_of_runs([(qv.real, qv.imag, qv)], 2)[-1]
    step = max(1, _BLOCK_PAIRS // qnz.size)
    best = min(float((np.abs(qnz[k:k + step, None] - 1j * qnz[None, :]) ** 2)
                     .min()) for k in range(0, qnz.size, step))
    # tuples where one symbol pair is identically zero
    best = min(best, float(np.min(np.abs(qnz) ** 2)))
    return (4.0 / 5.0) * best
