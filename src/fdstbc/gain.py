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
  over D x D, then all pairs of triples.  On integer grids with a
  rational t every quantity is an integer and the minimum is exact.

Completing the square in dt gives
    |det|^2 = (A-B)^2*(2-t^2)/2 + 2*(dt - (A+B)*t/2)^2
so |det|^2 >= (B-A)^2*(u+v)^2/2 for every tuple (the case II floor);
the sweep asserts this on every enumerated pair.

Both routes supply only a value function to one sweep over index pairs
i <= j in square tiles of about _TILE_PAIRS pairs, whose temporaries
stay in cache; only diagonal tiles mask the triangle and the zero pair.
Every pair tying the running minimum is kept, tiles above the tie limit
are skipped, so the tie set and the reported argmin do not depend on
the tiling.  The int64 path raises ValueError up front if its values
could reach the 2^62 sentinel.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .codes import CASE_TOL, DesignCoefficient, DifferenceTuple
from .constellations import (Constellation, _first_of_runs, _tol_keys,
                             difference_set)

EXHAUSTIVE_LIMIT = 1e10
AGG_DEFAULT_ABOVE = 8
_FLOAT_TIE = 1e-12
_INT_SENTINEL = np.int64(2) ** 62
_TILE_PAIRS = 2 ** 14  # pairs per tile: the temporaries stay in L2
_BLOCK_PAIRS = 2 ** 18  # difference pairs expanded per dedup block
# Expansion holds one block at a time, so this bounds time, not memory:
# psk55's 8,826,841 pairs take 6.5 s and give a 3.2e9-pair sweep
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

    Returns (a, b, g, wit_x, wit_y, zero_index), sorted by (a, b, g); the
    witness of each triple is its smallest (x, y) by DEDUP_TOL keys.  With
    as_int the triples are exact int64 in grid units (dvals/scale must be
    Gaussian integers); witnesses stay in constellation units either way.
    D x D streams through _first_of_runs in row blocks; ValueError up
    front if |D|^2 exceeds TRIPLE_PAIR_LIMIT.
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
    kre, kim = _tol_keys(d.real), _tol_keys(d.imag)

    def blocks():
        for i, j in _row_blocks(np.arange(n), np.arange(n)):
            x, cy = u[i], np.conj(u[j])
            cc = cy * x if swap else x * cy
            g = (cc.imag - cc.real).astype(sq.dtype, copy=False)
            yield sq[i], sq[j], g, kre[i], kim[i], kre[j], kim[j], i, j

    a, b, g, *_, i, j = _first_of_runs(blocks(), 3, 4)
    zero = np.flatnonzero((a == 0) & (b == 0) & (g == 0))
    if zero.size != 1:
        raise AssertionError("difference set must contain exactly one zero")
    return a, b, g, d[i], d[j], int(zero[0])


def _sweep_upper(n, zero_idx, tile, *, q2, bound_coef):
    """Shared tiled sweep over pairs (i, j), i <= j, of n indices.

    tile(rows, cols) gives (val, A - B) on one block; the zero pair is
    excluded.  q2 is q^2 when val is the int64 q^2*|det|^2, None when
    val is a float |det|^2.  Returns (case1_min, case2_min, bound_min, ii, jj) where
    (ii, jj) are exactly the pairs with val within the tie tolerance of
    the minimum (val == min on the int path), whatever the tiling.
    """
    is_int = q2 is not None
    big = _INT_SENTINEL if is_int else np.inf
    c1_min = c2_min = run = big
    bound_min = np.inf
    hits = []
    side = max(1, math.isqrt(_TILE_PAIRS))
    for i0 in range(0, n, side):
        i1 = min(i0 + side, n)
        for j0 in range(i0, n, side):
            j1 = min(j0 + side, n)
            val, am_b = tile(slice(i0, i1), slice(j0, j1))
            case1 = am_b == 0 if is_int else np.abs(am_b) <= CASE_TOL
            if j0 == i0:  # diagonal tile: drop (j, i) copies and zero
                lower = np.tri(i1 - i0, k=-1, dtype=bool)
                val = np.where(lower, big, val)
                if i0 <= zero_idx < i1:
                    val[zero_idx - i0, zero_idx - i0] = big
                upper = ~lower
                case1 &= upper
                case2 = ~case1 & upper
            else:
                case2 = ~case1
            if case2.any():
                vf = val.astype(np.float64)
                if is_int:
                    vf /= q2
                bnd = am_b.astype(np.float64) ** 2 * bound_coef
                if (case2 & (vf < bnd - 1e-9)).any():
                    raise RuntimeError("case II lower bound violated; "
                                       "determinant reduction is inconsistent")
                bound_min = min(bound_min, float(bnd[case2].min()))
                c2_min = min(c2_min, val[case2].min())
            c1_min = min(c1_min, np.where(case1, val, big).min())
            m = val.min()
            if m < big and m <= _tie_limit(run, is_int):
                run = min(run, m)
                ii, jj = np.nonzero(val <= _tie_limit(run, is_int))
                hits.append((ii + i0, jj + j0, val[ii, jj]))
    best = min(c1_min, c2_min)
    ii, jj, vals = (np.concatenate(h) for h in zip(*hits))
    keep = vals <= _tie_limit(best, is_int)
    return c1_min, c2_min, bound_min, ii[keep], jj[keep]


def _tie_limit(x, is_int):
    return x if is_int else x + _FLOAT_TIE * max(1.0, abs(x))


def _sweep_pairs(a, b, g, zero_idx, *, t=None, pq=None, bound_coef):
    """Min |det|^2 over all pairs of triples (upper triangle, i <= j).

    Returns (case1_min, case2_min, bound_min, ii, jj) where (ii, jj) are
    the pairs tying the overall minimum.  Values are q^2 * |det|^2 as
    int64 when pq is given, plain float64 otherwise; bound_min is always
    float in the same units.  Raises ValueError when the int64 values
    could reach the 2^62 sentinel.
    """
    if pq is not None:
        p, q = pq
        am, bm, gm = (2 * int(np.abs(x).max()) for x in (a, b, g))
        worst = q * q * max(am, bm) ** 2 + 2 * p * p * am * bm \
            + 2 * q * q * gm * gm + 2 * abs(p) * q * (am + bm) * gm
        if worst >= _INT_SENTINEL:
            raise ValueError(
                f"exact gain sweep would overflow int64: |q^2 det^2| can "
                f"reach {float(worst):.3g} with t = {p}/{q} on this grid")
        p, q = np.int64(p), np.int64(q)
        k1, k2, k3, k4 = q * q, 2 * p * p, 2 * q * q, 2 * p * q
    else:
        k2, k4 = 2.0 * t * t, 2.0 * t

    def tile(rows, cols):
        A = a[rows, None] + a[None, cols]
        B = b[rows, None] + b[None, cols]
        D = g[rows, None] + g[None, cols]
        am_b = A - B
        if pq is not None:
            val = k1 * (am_b * am_b) + k2 * (A * B) + k3 * (D * D) \
                - k4 * ((A + B) * D)
        else:
            val = am_b * am_b + k2 * (A * B) + 2.0 * (D * D) \
                - k4 * ((A + B) * D)
        return val, am_b

    return _sweep_upper(a.size, zero_idx, tile,
                        q2=None if pq is None else float(pq[1]) ** 2,
                        bound_coef=bound_coef)


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
        c1, c2, bmin, ii, jj = _sweep_pairs(a, b, g, z, pq=(p, q),
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
    c1, c2, bmin, ii, jj = _sweep_pairs(a, b, g, z, t=r.t,
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

    c1, c2, bmin, ii, jj = _sweep_upper(F.size, zero, tile, q2=None,
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
    and the aggregated triple-pair sweep otherwise, which uses triples
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
    search only needs the deduplicated q values over D x D.
    """
    d = difference_set(c)
    x = np.repeat(d, d.size)
    y = np.tile(d, d.size)
    nz = ~((x == 0) & (y == 0))
    qv = x * x + x * y - y * y
    qnz = np.unique(qv[nz])
    m = np.abs(qnz[:, None] - 1j * qnz[None, :]) ** 2
    best = float(m.min())
    # tuples where one symbol pair is identically zero
    best = min(best, float(np.min(np.abs(qnz) ** 2)))
    return (4.0 / 5.0) * best
