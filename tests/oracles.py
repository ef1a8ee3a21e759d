"""Reference code that only the tests call.

The package keeps what its command line, the paper's claims and the
benchmark run; the second codeword builder, the determinant split, the
per-tuple case classifier, the equivalent-channel columns, the CSV
reader, the stable-sort dedup and the dense exhaustive gain sweep the
tests compare against live here.
Test modules import this file as ``oracles``: pytest puts ``tests/``
on ``sys.path``.
"""

from dataclasses import dataclass
import math

import numpy as np

from fdstbc import gain
from fdstbc.codes import DesignCoefficient, DifferenceTuple, build_codeword
from fdstbc.constellations import _tol_keys
from fdstbc.gain import CASE_TOL


# Golden code constants.  The leading factor sqrt(2/5) (instead of the
# customary 1/sqrt(5)) calibrates both codes to the same per-antenna
# average transmit power of 2 per channel use for unit-power symbols,
# which is the power the unnormalized main code radiates; coding gains
# of the two constructions are then directly comparable.
_GOLDEN_THETA = (1.0 + math.sqrt(5.0)) / 2.0
_GOLDEN_THETA_BAR = 1.0 - _GOLDEN_THETA
_GOLDEN_ALPHA = 1.0 + 1j * (1.0 - _GOLDEN_THETA)
_GOLDEN_ALPHA_BAR = 1.0 + 1j * (1.0 - _GOLDEN_THETA_BAR)
_GOLDEN_SCALE = math.sqrt(2.0 / 5.0)


def build_codeword_golden(s1, s2, s3, s4) -> np.ndarray:
    th, tb = _GOLDEN_THETA, _GOLDEN_THETA_BAR
    al, ab = _GOLDEN_ALPHA, _GOLDEN_ALPHA_BAR
    return _GOLDEN_SCALE * np.array([
        [al * (s1 + th * s2), al * (s3 + th * s4)],
        [1j * ab * (s3 + tb * s4), ab * (s1 + tb * s2)],
    ], dtype=np.complex128)


def A(t: DifferenceTuple) -> float:
    return abs(t.ds1) ** 2 + abs(t.ds2) ** 2


def B(t: DifferenceTuple) -> float:
    return abs(t.ds3) ** 2 + abs(t.ds4) ** 2


def C(t: DifferenceTuple) -> complex:
    return t.ds1 * t.ds3.conjugate() + t.ds2 * t.ds4.conjugate()


def d2_tilde(t: DifferenceTuple) -> float:
    c = C(t)
    return c.imag - c.real


def case(t: DifferenceTuple) -> str:
    return "I" if abs(A(t) - B(t)) <= CASE_TOL else "II"


@dataclass(frozen=True)
class DetSplit:
    det: complex
    A: float
    B: float
    C: complex
    d1: complex
    d2: complex
    d2_tilde: float
    case: str


def det_closed_form(t: DifferenceTuple, r: DesignCoefficient) -> DetSplit:
    """Determinant of the difference codeword via the A/B/C reduction.

    For a difference tuple (ds1, ds2, ds3, ds4) the determinant reduces to

        det = r*B - j*conj(r)*A + C - j*conj(C)

    with A = |ds1|^2 + |ds2|^2, B = |ds3|^2 + |ds4|^2 and
    C = ds1*conj(ds3) + ds2*conj(ds4).  Writing d2_tilde = Im(C) - Re(C),
    the C part equals -d2_tilde*(1 - j), a point on the line x + y = 0.
    When A == B (case I) the r part collapses to A*(u - v)*(1 - j) as
    well, so |det|^2 = 2*(A*(u - v) - d2_tilde)^2.
    """
    rr = r.r
    a, b, c = A(t), B(t), C(t)
    d1 = rr * b - 1j * rr.conjugate() * a
    d2t = c.imag - c.real
    d2 = d2t * (1 - 1j)
    return DetSplit(det=d1 - d2, A=a, B=b, C=c, d1=d1, d2=d2,
                    d2_tilde=d2t, case=case(t))


def det_direct(t: DifferenceTuple, r: DesignCoefficient) -> complex:
    """Plain 2x2 determinant of the difference codeword (oracle path)."""
    x = build_codeword(t.ds1, t.ds2, t.ds3, t.ds4, r)
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


def equivalent_columns(h: np.ndarray, r: complex):
    """Orthogonal (s1, s2) channel columns for batch h (n, 2, 2).

    After conditioning on (s3, s4) and conjugating the second-time
    observations, the residual obeys w = g1*s1 + g2*s2 + noise with
    g1 . conj(g2) = 0 and |g1|^2 = |g2|^2 = ||h||_F^2.
    """
    jr = 1j * r
    g1 = np.stack([h[:, 0, 0], h[:, 0, 1],
                   jr * np.conj(h[:, 1, 0]), jr * np.conj(h[:, 1, 1])],
                  axis=1)
    g2 = np.stack([h[:, 1, 0], h[:, 1, 1],
                   -jr * np.conj(h[:, 0, 0]), -jr * np.conj(h[:, 0, 1])],
                  axis=1)
    return g1, g2


def parse_csv(text: str):
    """Split CSV text into (comments, header, rows).

    Comment lines start with '#' and may appear anywhere; the first
    non-comment line is the header.
    """
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def first_of_runs_oracle(cols, n_keys) -> list:
    """One row per distinct key tuple of one block of columns, by a
    stable lexsort: n_keys keys, most significant first, compared by
    _tol_keys, then payload.  A key keeps its earliest row; rows come
    back sorted by key, as fdstbc's streaming _first_of_runs gives them.
    """
    ks = [_tol_keys(c) for c in cols[:n_keys]]
    order = np.lexsort(ks[::-1])  # stable: the earliest row leads
    keep = np.zeros(order.size, dtype=bool)
    keep[:1] = True
    for k in ks:
        k = k[order]
        keep[1:] |= k[1:] != k[:-1]
    return [c[order[keep]] for c in cols]


def sweep_upper(n, zero_idx, tile, *, bound_coef):
    """gain._least over every pair (i, j), i <= j, but the zero pair, in
    row blocks of about gain._TILE_PAIRS pairs against the columns from
    their first row on.  tile(rows, cols) gives (val, A - B) on two
    slices, val the float |det|^2.  Returns (case1_min, case2_min,
    bound_min, ii, jj)."""
    bound_min = np.inf

    def blocks():
        i0 = 0
        while i0 < n:
            i1 = min(n, i0 + max(1, gain._TILE_PAIRS // (n - i0)))
            yield np.arange(i0, i1)[:, None], np.arange(i0, n)
            i0 = i1

    def score(i, j):
        nonlocal bound_min
        i0, rows = int(j[0]), i.shape[0]
        val, am_b = tile(slice(i0, i0 + rows), slice(i0, n))
        val[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
        if 0 <= zero_idx - i0 < rows:
            val[zero_idx - i0, zero_idx - i0] = np.inf
        case1 = np.abs(am_b) <= CASE_TOL
        # a masked (j, i) has the A - B of its (i, j), listed unmasked
        bnd = gain._floor_check(val, am_b, case1, bound_coef)
        bound_min = min(bound_min, float(np.where(case1, np.inf, bnd).min()))
        return val, case1

    c1, c2, ii, jj = gain._least(blocks(), score, gain._tie_limit)
    return c1, c2, bound_min, ii, jj


def exhaustive_gain_oracle(c, r) -> "gain.GainReport":
    """gain's exhaustive route as a dense sweep: every pair of the |D|^2
    terms F(x, y), x = repeat(D) and y = tile(D), through sweep_upper,
    with no deduplication of equal terms."""
    dvals = gain.exhaustive_guard(c)
    nd = dvals.size
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

    c1, c2, bmin, ii, jj = sweep_upper(F.size, zero, tile,
                                       bound_coef=(r.u + r.v) ** 2 / 2.0)
    tup, case = gain._argmin_tuple(ii, jj, x, y, a, b)
    return gain.GainReport(gain=float(min(c1, c2)), argmin=tup,
                           case_of_argmin=case, case1_min=float(c1),
                           case2_min=float(c2), case2_bound_min=bmin,
                           method="exhaustive")
