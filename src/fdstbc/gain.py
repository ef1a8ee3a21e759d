"""Exact coding-gain search over codeword difference tuples.

The gain of the code is min |det(dX)|^2 over all nonzero difference
tuples (ds1, ds2, ds3, ds4) in D^4, D the symbol difference set.  Two
routes are implemented and must agree:

* ``exhaustive``   walks all |D|^4 tuples through the plain determinant
  of the difference codeword, det = F(ds1, ds3) + F(ds2, ds4) with
  F(x, y) = (x + r*y) * (-j*conj(r)*conj(x) + conj(y)); pure oracle.

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

The exhaustive route supplies a value function to a sweep over index
pairs i <= j in square tiles of about _TILE_PAIRS pairs, whose
temporaries stay in cache; only diagonal tiles mask the triangle and
the zero pair.  Every pair tying the running minimum is kept, so the
tie set and the reported argmin do not depend on the tiling.

The float aggregated route scores only the pairs of triples that can
reach a minimum, its tie band or the floor check: with s = a - b and
w = g - (a + b)*t/2 per triple (g its dt), a pair is worth
c*S^2 + 2*W^2, c = 1 - t^2/2, S and W its sums.  _window_pairs lists
the pairs in the window that the zero triple's pairs set, by s groups
sorted by w, and scores them with the expanded form above, bit for bit.

On integer grids with a rational t = p/q the aggregated route is exact
and sweeps no pairs.  With s = a - b and w = 2q*dt - p*(a + b) per
triple, q^2*|det|^2 = (c*S^2 + W^2)/2, c = 2q^2 - p^2, where S and W
are the pair sums of s and w.  _search_pairs sorts the triples by
(s, w), takes only the sums S whose floor c*S^2/2 can reach the
minimum, and finds the least |W| at each by a nearest-neighbour lookup;
the floor check is decided per S.  It raises ValueError up front if its
int64 values could reach 2^62.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .codes import CASE_TOL, DesignCoefficient, DifferenceTuple
from .constellations import Constellation, _first_of_runs, difference_set

EXHAUSTIVE_LIMIT = 1e10
AGG_DEFAULT_ABOVE = 8
_FLOAT_TIE = 1e-12
_INT_LIMIT = np.int64(2) ** 62  # exact values stay below it
_FLOOR_MSG = ("case II lower bound violated; "
              "determinant reduction is inconsistent")
_TILE_PAIRS = 2 ** 14  # pairs per tile: the temporaries stay in L2
_BLOCK_PAIRS = 2 ** 18  # difference pairs expanded per dedup block
# Expansion holds one block at a time, so this bounds time, not memory:
# psk55's 8,826,841 pairs take 6.5 s and its case-I table 24 s
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


def _row_blocks(rows, cols):
    """(rows[i], cols[j]) over rows x cols in row-major order, in blocks
    of about _BLOCK_PAIRS pairs."""
    step = max(1, _BLOCK_PAIRS // max(cols.size, 1))
    for i0 in range(0, rows.size, step):
        r = rows[i0:i0 + step]
        yield r.repeat(cols.size), np.tile(cols, r.size)


def _projected_triples(dvals: np.ndarray, as_int: bool, scale: float = 1.0):
    """Dedup (a, b, g) with g = Im(x*conj(y)) - Re(x*conj(y)).

    Returns (a, b, g, wit_x, wit_y, zero_index), sorted by (a, b, g).
    dvals must be sorted by distinct (re, im) DEDUP_TOL keys, as
    difference_set returns them: D x D then streams through
    _first_of_runs row-major, so each triple's witness, its first (x, y)
    in the stream, is its smallest (x, y) by keys.  With as_int the
    triples are exact int64 in grid units (dvals/scale must be Gaussian
    integers); witnesses stay in constellation units either way.
    ValueError up front if |D|^2 exceeds TRIPLE_PAIR_LIMIT, and if a
    nonzero difference shares the zero triple's 1e-9 keys.
    """
    d = np.asarray(dvals)
    n = d.size
    if n ** 2 > TRIPLE_PAIR_LIMIT:
        raise ValueError(f"|D|^2 = {n ** 2} difference pairs exceed the "
                         f"limit of {TRIPLE_PAIR_LIMIT}")
    u, sq = d, np.abs(d) ** 2
    if as_int:
        ds = d / scale
        u = np.round(ds.real) + 1j * np.round(ds.imag)
        if np.max(np.abs(ds - u)) > 1e-9:
            raise ValueError("differences are not on the integer grid")
        sq = (u.real ** 2 + u.imag ** 2).astype(np.int64)
    # numpy's fused complex product rounds by operand order, and elision
    # runs x * conj(y) as conj(y) * x from 256 KiB up: use whole D x D's
    swap = 16 * n * n >= 2 ** 18

    def blocks():
        ids = np.arange(n, dtype=np.int32)
        for i, j in _row_blocks(ids, ids):
            g = _dt(u[i], np.conj(u[j]), swap, sq.dtype)
            yield sq[i], sq[j], g, i, j

    a, b, g, i, j = _first_of_runs(blocks(), 3)
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


def _sweep_upper(n, zero_idx, tile, *, bound_coef):
    """The exhaustive route's tiled sweep over pairs (i, j), i <= j.

    tile(rows, cols) gives (val, A - B) on one block, val the float
    |det|^2; the zero pair is excluded.  Returns (case1_min, case2_min,
    bound_min, ii, jj) where (ii, jj) are exactly the pairs with val
    within the tie tolerance of the minimum, whatever the tiling.
    """
    c1_min = c2_min = run = bound_min = np.inf
    hits = []
    side = max(1, math.isqrt(_TILE_PAIRS))
    for i0 in range(0, n, side):
        i1 = min(i0 + side, n)
        for j0 in range(i0, n, side):
            j1 = min(j0 + side, n)
            val, am_b = tile(slice(i0, i1), slice(j0, j1))
            case1 = np.abs(am_b) <= CASE_TOL
            if j0 == i0:  # diagonal tile: drop (j, i) copies and zero
                lower = np.tri(i1 - i0, k=-1, dtype=bool)
                val = np.where(lower, np.inf, val)
                if i0 <= zero_idx < i1:
                    val[zero_idx - i0, zero_idx - i0] = np.inf
                upper = ~lower
                case1 &= upper
                case2 = ~case1 & upper
            else:
                case2 = ~case1
            if case2.any():
                bnd = am_b ** 2 * bound_coef
                slack = 1e-9 * np.maximum(bnd, 1.0)  # relative above 1
                if (case2 & (val < bnd - slack)).any():
                    raise RuntimeError(_FLOOR_MSG)
                bound_min = min(bound_min, float(bnd[case2].min()))
                c2_min = min(c2_min, val[case2].min())
            c1_min = min(c1_min, np.where(case1, val, np.inf).min())
            m = val.min()
            if m < np.inf and m <= _tie_limit(run):
                run = min(run, m)
                ii, jj = np.nonzero(val <= _tie_limit(run))
                hits.append((ii + i0, jj + j0, val[ii, jj]))
    best = min(c1_min, c2_min)
    ii, jj, vals = (np.concatenate(h) for h in zip(*hits))
    keep = vals <= _tie_limit(best)
    return c1_min, c2_min, bound_min, ii[keep], jj[keep]


def _tie_limit(x):
    return x + _FLOAT_TIE * max(1.0, abs(x))


def _expand(starts, counts):
    """(k, starts[k] + m) for every m < counts[k], in blocks of about
    _BLOCK_PAIRS items however wide a single range is."""
    ends, total = np.cumsum(counts), int(np.sum(counts))
    for lo in range(0, total, _BLOCK_PAIRS):
        at = np.arange(lo, min(lo + _BLOCK_PAIRS, total))
        k = ends.searchsorted(at, side="right")
        yield k, starts[k] + (at - ends[k] + counts[k])


def _window_pairs(a, b, g, zero_idx, *, t, bound_coef):
    """(case1_min, case2_min, bound_min, ii, jj) bit for bit as a sweep
    of every pair i <= j of triples gives them, by a pair-sum window.

    Pairs scored are scored by the same expanded form.  A pair left out
    has c*S^2 + 2*W^2 - err, a lower bound on its value, above its case's
    bound from the zero triple's pairs and clear of the floor check; the
    check's doubt window of small |W| opens wide if bound_coef exceeds c.
    """
    n = a.size
    k2, k4 = 2.0 * t * t, 2.0 * t
    c = (2.0 - t * t) / 2.0 - 2.0 ** -51  # below the exact 1 - t^2/2
    pm, qm = 2.0 * float((a + b).max()), 2.0 * float(np.abs(g).max())
    err = 2.0 ** -46 * (pm * pm + qm * qm)  # forward error of one value
    pad = 2.0 ** -44 * (pm + qm)  # rounding of s, w, A - B and their sums

    def score(i, j):
        A, B, D = a[i] + a[j], b[i] + b[j], g[i] + g[j]
        am_b = A - B
        return am_b * am_b + k2 * (A * B) + 2.0 * (D * D) \
            - k4 * ((A + B) * D), am_b

    v0, m0 = score(zero_idx, np.delete(np.arange(n), zero_idx))
    one = np.abs(m0) <= CASE_TOL  # zero pairs bound both minima
    lim = _tie_limit(max(v0[one].min(initial=np.inf),
                         v0[~one].min(initial=np.inf)))

    # groups by the 1e-9 key of s, each sorted by w; gk ranks (group, w)
    s, w = a - b, g - (a + b) * (t / 2.0)
    key = np.round(s * 1e9)
    order = np.lexsort((w, key))
    key, s, w = key[order], s[order], w[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    size = np.diff(np.append(start, n))
    smin, smax = np.minimum.reduceat(s, start), np.maximum.reduceat(s, start)
    wo = np.sort(w)
    gk = np.repeat(np.arange(start.size), size) * (n + 1) + wo.searchsorted(w)

    # the floor check can fail only where 2*W^2 < d2, and d2 < 0 for all
    # |S| past xd once the relative slack outgrows the doubt
    hi_c, lo_c = bound_coef * (1 + 2.0 ** -40), bound_coef * (1 - 2.0 ** -40)
    r9 = 1e-9 * (1 - 2.0 ** -40)
    kap = r9 * lo_c + c - hi_c
    dlt = 2.0 * float((smax - smin).max()) + 3.0 * pad
    xd = math.inf
    if kap > 0 and lo_c > 0:
        beta = 2.0 * (hi_c * dlt + r9 * lo_c * pad)
        xd = max(beta / kap + math.sqrt((err + hi_c * dlt * dlt) / kap),
                 pad + 1.0 / math.sqrt(lo_c)) * (1 + 1e-6)
    x = max(math.sqrt((lim + err) / c) if c > 0 else math.inf, xd)
    # group pairs g1 <= g2 whose S range meets [-x, x]
    lo = np.maximum(smax.searchsorted(-x - pad - smax), np.arange(start.size))
    hi = smin.searchsorted(x + pad - smin, side="right")

    c1 = c2 = run = np.inf
    hits = []
    for g1, g2 in _expand(lo, np.maximum(hi - lo, 0)):
        s_lo, s_hi = smin[g1] + smin[g2] - pad, smax[g1] + smax[g2] + pad
        near = np.maximum(np.maximum(s_lo, -s_hi), 0.0)
        far = np.maximum(-s_lo, s_hi) + pad
        d2 = err + hi_c * far * far - c * near * near - r9 * np.maximum(
            lo_c * np.maximum(near - pad, 0.0) ** 2, 1.0)
        w2 = np.maximum(lim + err - c * near * near, d2)
        ok = w2 >= 0
        half = np.sqrt(w2[ok] / 2.0) + 2.0 * pad
        g1, base = g1[ok], g2[ok] * (n + 1)
        for m, p in _expand(start[g1], size[g1]):
            jlo = gk.searchsorted(base[m] + wo.searchsorted(-w[p] - half[m]))
            jhi = gk.searchsorted(
                base[m] + wo.searchsorted(-w[p] + half[m], "right"))
            for r, q in _expand(jlo, jhi - jlo):
                # g1 <= g2 and groups sit in order: p <= q lists each once
                keep = (p[r] < q) | ((p[r] == q) & (order[q] != zero_idx))
                i, j = np.sort((order[p[r][keep]], order[q[keep]]), axis=0)
                val, am_b = score(i, j)
                case1 = np.abs(am_b) <= CASE_TOL
                bnd = am_b ** 2 * bound_coef  # slack: relative above 1
                if (~case1 & (val < bnd - 1e-9 * np.maximum(bnd, 1.0))).any():
                    raise RuntimeError(_FLOOR_MSG)
                c1 = min(c1, val[case1].min(initial=np.inf))
                c2 = min(c2, val[~case1].min(initial=np.inf))
                run = min(run, val.min(initial=np.inf))
                k = val <= _tie_limit(run)
                hits.append((i[k], j[k], val[k]))
    ii, jj, vals = (np.concatenate(h) for h in zip(*hits))
    keep = vals <= _tie_limit(min(c1, c2))
    return c1, c2, _bound_min(a, b, pad, bound_coef), ii[keep], jj[keep]


def _bound_min(a, b, pad, bound_coef):
    """Least case-II floor (A - B)^2*bound_coef over pairs of triples.

    A - B, as a sweep computes it, depends only on the pair's two exact
    (a, b) rows.  Only row sums from the case-I band up to the nearest
    sum past it, on either side, can reach the least |A - B|.
    """
    ab = np.unique(a + 1j * b)
    ab = ab[(ab.real - ab.imag).argsort()]
    rs = ab.real - ab.imag
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
        am_b = (ab.real[i] + ab.real[j]) - (ab.imag[i] + ab.imag[j])
        bnd = (am_b ** 2 * bound_coef)[np.abs(am_b) > CASE_TOL]
        bmin = min(bmin, float(bnd.min(initial=np.inf)))
    return bmin


def _distinct(x):
    """Sorted distinct values of an int array, by one sort (np.unique
    hashes first, several times slower on these sizes)."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _search_pairs(a, b, g, zero_idx, p, q, *, bound_coef):
    """Exact min of q^2*|det|^2 = (c*S^2 + W^2)/2 over pairs of triples.

    a, b, g are int64 triples and t = p/q; c = 2q^2 - p^2, and S, W are
    the pair sums of s = a - b and w = 2q*g - p*(a + b).  Returns
    (case1_min, case2_min, bound_min, ii, jj) like _sweep_upper, with
    int minima and (ii, jj), ii <= jj, exactly the pairs equal to the
    minimum.  Only sums S whose floor c*S^2/2 is within the best pair
    with the zero triple are searched; at each S the least |W| is a
    nearest-neighbour lookup over the triples sorted by (s, w).  The
    case-II floor check is decided for every S: the value at a fixed S
    grows with |W|, so a pair fails it exactly when the least |W| at
    its S fails, and the W = 0 bound clears nearly every S unsearched.
    Raises ValueError up front when a value could reach 2^62.
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
    s, w = a - b, 2 * q * g - p * (a + b)
    # key = (rank of s) * wr + w - min(w) stays below 2^23 * 2^33: there
    # are at most TRIPLE_PAIR_LIMIT triples, and w_i^2 is at most twice
    # the value of the pair (zero triple, i), below 2^62
    sig, wmin = _distinct(s), w.min()
    wr = w.max() - wmin + 2
    key = sig.searchsorted(s) * wr + (w - wmin)
    order = key.argsort()
    key, s, w = key[order], s[order], w[order]
    n = s.size
    zpos = int((order == zero_idx).argmax())
    lo = key.searchsorted(np.arange(sig.size) * wr)
    hi = np.concatenate((lo[1:], [n]))
    # where -w_i falls in a group, clamped to the group's own key range
    near = np.minimum(np.maximum(-w - wmin, 0), wr - 1)

    def least(S):
        """Exact minimum value at each sum in S (every one present), and
        for each (S, triple i) the neighbours j and their |W|."""
        part = S[:, None] - s
        grp = np.minimum(sig.searchsorted(part), sig.size - 1)
        # the nearest w to -w_i on either side in the partner group.  The
        # zero triple asks no query: (z, j) is found from j, and (z, z)
        # is no pair
        j = key.searchsorted(grp * wr + near)[..., None] + np.arange(-1, 1)
        ok = (sig[grp] == part)[..., None] & (j >= lo[grp][..., None]) \
            & (j < hi[grp][..., None])
        ok[:, zpos] = False
        j = np.minimum(j, n - 1)
        aw = np.where(ok, np.abs(w[:, None] + w[j]), _INT_LIMIT)
        least_w = aw.min(axis=(1, 2))
        return (c * S * S + least_w * least_w) // 2, j, aw

    def floor_fails(S):
        step = max(1, _BLOCK_PAIRS // n)
        return any((least(x)[0].astype(np.float64) / q2
                    < x.astype(np.float64) ** 2 * bound_coef - 1e-9).any()
                   for x in (S[k:k + step] for k in range(0, S.size, step)))

    step = max(1, _BLOCK_PAIRS // sig.size)
    present = _distinct(np.concatenate(
        [_distinct(sig[k:k + step, None] + sig)
         for k in range(0, sig.size, step)]))
    nz = present[present != 0]
    # case II is at most its best pair with the zero triple, so only
    # sums whose floor c*S^2/2 is below that can reach or tie it
    top = ((c * s * s + w * w) // 2)[s != 0].min()
    S = np.concatenate(([0], nz[c * nz * nz // 2 <= top]))
    val, j, aw = least(S)
    c1, c2 = int(val[0]), int(val[1:].min())
    bnd = nz.astype(np.float64) ** 2 * bound_coef
    q2 = float(q) ** 2
    doubt = ((c * nz * nz + 1) // 2).astype(np.float64) / q2 < bnd - 1e-9
    if doubt.any() and floor_fails(nz[doubt]):
        raise RuntimeError(_FLOOR_MSG)
    # the tie set: each neighbour at the least |W| of a sum worth the
    # minimum, widened to every triple sharing its exact (s, w) key
    tie_w = np.where(val == min(c1, c2), aw.min(axis=(1, 2)), -1)
    m, i, col = np.nonzero(aw == tie_w[:, None, None])
    k = key[j[m, i, col]]
    left = key.searchsorted(k)
    cnt = key.searchsorted(k + 1) - left
    i = order[i.repeat(cnt)]
    j = order[np.arange(cnt.sum()) + (left - cnt.cumsum() + cnt).repeat(cnt)]
    pair = _distinct(np.minimum(i, j) * n + np.maximum(i, j))
    ii, jj = np.divmod(pair, n)
    return c1, c2, float(bnd.min()), ii, jj


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


def _aggregated_gain(c: Constellation, r: DesignCoefficient,
                     triples=None) -> GainReport:
    exact = c.grid is not None and r.t_exact is not None
    bound_coef = (2.0 - r.t ** 2) / 2.0
    a, b, g, wx, wy, z = triples or _projected_triples(
        difference_set(c), exact, c.grid.scale if exact else 1.0)
    if exact:
        p, q = r.t_exact.numerator, r.t_exact.denominator
        c1, c2, bmin, ii, jj = _search_pairs(a, b, g, z, p, q,
                                             bound_coef=bound_coef)
        scale4 = c.grid.scale_sq ** 2
        qq = q * q
        gain_exact = Fraction(int(min(c1, c2)), qq) * scale4
        tup, case = _argmin_tuple(ii, jj, wx, wy, a, b)
        f4 = float(scale4)
        return GainReport(
            gain=float(gain_exact), argmin=tup, case_of_argmin=case,
            case1_min=float(Fraction(int(c1), qq) * scale4),
            case2_min=float(Fraction(int(c2), qq) * scale4),
            case2_bound_min=bmin * f4,
            method="aggregated", gain_exact=gain_exact)
    c1, c2, bmin, ii, jj = _window_pairs(a, b, g, z, t=r.t,
                                         bound_coef=bound_coef)
    tup, case = _argmin_tuple(ii, jj, wx, wy, a, b)
    return GainReport(gain=float(min(c1, c2)), argmin=tup,
                      case_of_argmin=case, case1_min=float(c1),
                      case2_min=float(c2), case2_bound_min=bmin,
                      method="aggregated")


def _exhaustive_gain(c: Constellation, r: DesignCoefficient) -> GainReport:
    dvals = difference_set(c)
    nd = dvals.size
    if float(nd) ** 4 > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"|D|^4 = {float(nd) ** 4:.3g} exceeds the exhaustive-search "
            f"guard ({EXHAUSTIVE_LIMIT:.0e}); use method='aggregated'")
    x = np.repeat(dvals, nd)
    y = np.tile(dvals, nd)
    rr = r.r
    F = (x + rr * y) * (-1j * np.conj(rr) * np.conj(x) + np.conj(y))
    a = np.abs(x) ** 2
    b = np.abs(y) ** 2
    zero = int(np.flatnonzero((x == 0) & (y == 0))[0])

    def tile(rows, cols):
        det = F[rows, None] + F[None, cols]
        val = det.real ** 2 + det.imag ** 2
        return val, (a[rows, None] + a[None, cols]) \
            - (b[rows, None] + b[None, cols])

    c1, c2, bmin, ii, jj = _sweep_upper(F.size, zero, tile,
                                        bound_coef=(r.u + r.v) ** 2 / 2.0)
    tup, case = _argmin_tuple(ii, jj, x, y, a, b)
    return GainReport(gain=float(min(c1, c2)), argmin=tup,
                      case_of_argmin=case, case1_min=float(c1),
                      case2_min=float(c2), case2_bound_min=bmin,
                      method="exhaustive")


def coding_gain(c: Constellation, r: DesignCoefficient,
                method: str | None = None, triples=None) -> GainReport:
    """Minimum |det|^2 over all nonzero difference tuples of c under r.

    method None picks exhaustive for small constellations (<= 8 points)
    and the aggregated triple-pair search otherwise, which uses triples
    (the _projected_triples of c's difference set it needs) if given.
    """
    if method is None:
        method = "exhaustive" if len(c) <= AGG_DEFAULT_ABOVE else "aggregated"
    if method == "aggregated":
        return _aggregated_gain(c, r, triples)
    if method == "exhaustive":
        return _exhaustive_gain(c, r)
    raise ValueError(f"unknown method {method!r}")


def coding_gain_scaled(c: Constellation, r: DesignCoefficient,
                       alpha: float, method: str | None = None) -> GainReport:
    """Gain of the constellation scaled by alpha (quartic in alpha)."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    scaled = Constellation(name=c.name, points=c.points * alpha,
                           normalization="scaled", grid=None)
    return coding_gain(scaled, r, method=method)


def golden_coding_gain(c: Constellation) -> float:
    """Coding gain of the reference Golden code over constellation c.

    det factors through q(x, y) = x^2 + x*y - y^2 on the two symbol
    pairs: det = (2/5)*(2+j)*(q(ds1, ds2) - j*q(ds3, ds4)), so the
    search only needs the q values over D x D, deduplicated by
    DEDUP_TOL keys.
    """
    d = difference_set(c)
    x = np.repeat(d, d.size)
    y = np.tile(d, d.size)
    nz = ~((x == 0) & (y == 0))
    qv = (x * x + x * y - y * y)[nz]
    qnz = _first_of_runs([(qv.real, qv.imag, qv)], 2)[-1]
    m = np.abs(qnz[:, None] - 1j * qnz[None, :]) ** 2
    best = float(m.min())
    # tuples where one symbol pair is identically zero
    best = min(best, float(np.min(np.abs(qnz) ** 2)))
    return (4.0 / 5.0) * best
