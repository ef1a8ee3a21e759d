"""Signal constellations and their difference sets.

Generators produce QAM, PSK and two flavours of APSK (ring-based and
square-grid) under one of three normalizations:

* ``integer-grid``       raw integer coordinates
* ``unit-average-power`` mean |p|^2 == 1
* ``min-dist-1``         minimum Euclidean distance == 1

A square-grid APSK is its set of ring norms |z|^2 = m^2 + n^2: every
Gaussian integer z whose norm is in the set is a point, so each ring is
whole.

A constellation on a scaled integer grid carries ``scale_sq``, the
square of its grid scale as an exact Fraction (None off the grid), so
downstream coding-gain code can switch to exact integer arithmetic.
The grid scale is the spacing of the *difference* lattice: point
differences divided by it are exactly Gaussian integers (the points
themselves may sit on a common half-step translation, as centred QAM
does).  Keeping it exact is what makes gains like 1/2 come out exact
instead of 0.4999999999999999.
"""

from dataclasses import dataclass
from fractions import Fraction
import math
import re

import numpy as np

NORM_INTEGER = "integer-grid"
NORM_UNIT_POWER = "unit-average-power"
NORM_MIN_DIST = "min-dist-1"
NORMALIZATIONS = (NORM_INTEGER, NORM_UNIT_POWER, NORM_MIN_DIST)

DEDUP_TOL = 1e-9


def _tol_keys(x) -> np.ndarray:
    """int64 keys of x on the DEDUP_TOL grid; integer arrays are their own.

    ValueError on a non-finite value or a key past int64 (|x| >= about
    9.2e9), which the cast would otherwise wrap into a wrong key.
    """
    x = np.asarray(x)
    if x.dtype.kind == "i":
        return x
    k = np.round(x / DEDUP_TOL)
    if k.size and not np.abs(k).max() < 2.0 ** 63:
        raise ValueError("values must be finite and below 9.2e9 in "
                         "magnitude to key them on the 1e-9 grid")
    return k.astype(np.int64)


def _runs(cols):
    """Start of each run of equal rows in sorted columns."""
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for x in cols:
        new[1:] |= x[1:] != x[:-1]
    return np.flatnonzero(new)


def _ranks(k):
    """(dense rank of each value of k, number of distinct values)."""
    s = np.sort(k)
    distinct = s[_runs([s])]
    return distinct.searchsorted(k), distinct.size


def _packed_key(ks) -> np.ndarray:
    """One int64 per row that orders and compares rows as the tuple of
    int64 columns ks, most significant first, does.

    Each column packs as its offset from its least value times the spans
    of the columns after it.  Where the spans' product would reach 2^62,
    the columns packed so far give way to their dense ranks, and so does
    the next column if it is still too wide; ranks stay below the row
    count, so the product then fits.
    """
    key, span = None, 1
    for k in ks:
        lo = int(k.min())
        width = int(k.max()) - lo + 1
        if key is not None and span * width >= 2 ** 62:
            key, span = _ranks(key)
        if span * width >= 2 ** 62:
            (k, width), lo = _ranks(k), 0
        key = k - lo if key is None else key * width + (k - lo)
        span *= width
    return key


def _first_of_runs(blocks, n_keys) -> list:
    """One row per distinct key tuple of a stream of column blocks.

    A block holds equal-length columns: n_keys keys, most significant
    first, compared by _tol_keys, then payload.  A key keeps its earliest
    row in the stream; rows come back as columns sorted by key.  Each
    block packs its key tuple into one int64 (_packed_key) and sorts it
    once, unstably; the earliest row of each run of equal keys is then
    the least position in the run, a min-reduce over the sort order.  A
    block is deduplicated on arrival and its survivors merge into the
    kept rows once they outnumber them.  Each key appears at most once
    per part, and parts sit in stream order, so every split of the
    stream gives the same rows, in about one block plus twice the output.
    """
    def dedup(cols):
        if not len(cols[0]):
            return list(cols)
        key = _packed_key([_tol_keys(c) for c in cols[:n_keys]])
        order = np.argsort(key)
        first = np.minimum.reduceat(order, _runs([key[order]]))
        return [c[first] for c in cols]

    def merged(parts):
        return parts[0] if len(parts) == 1 else dedup(
            [np.concatenate(c) for c in zip(*parts)])

    parts = []  # the kept rows, then the survivors not merged yet
    for block in blocks:
        parts.append(dedup(block))
        if sum(p[0].size for p in parts) > 2 * parts[0][0].size:
            parts = [merged(parts)]
    return merged(parts)


@dataclass(frozen=True, eq=False)
class Constellation:
    name: str
    points: np.ndarray
    normalization: str
    scale_sq: Fraction | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.complex128)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("constellation needs at least 2 points")
        if not np.isfinite(pts).all():
            raise ValueError("constellation points must be finite")
        if _min_pairwise_distance(pts) <= DEDUP_TOL:
            raise ValueError("constellation points are not pairwise distinct")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.size

    @property
    def integer_grid(self) -> bool:
        return self.scale_sq is not None


def _min_pairwise_distance(pts: np.ndarray) -> float:
    d = np.abs(pts[:, None] - pts[None, :])
    d[np.diag_indices_from(d)] = np.inf
    return float(d.min())


def min_distance(c: Constellation) -> float:
    return _min_pairwise_distance(c.points)


def avg_power(c: Constellation) -> float:
    return float(np.mean(np.abs(c.points) ** 2))


def papr(c: Constellation) -> float:
    p = np.abs(c.points) ** 2
    return float(p.max() / p.mean())


def difference_set(c: Constellation) -> np.ndarray:
    """Distinct differences p - q (DEDUP_TOL keys), sorted by (re, im),
    as a read-only complex128 array."""
    diffs = (c.points[:, None] - c.points[None, :]).ravel()
    vals = _first_of_runs([(diffs.real, diffs.imag, diffs)], 2)[-1]
    vals.flags.writeable = False
    return vals


def _grid_constellation(name, coords, norm):
    """Build a Constellation from exact integer coordinates.

    coords: complex integer array.  The stored grid scale refers to the
    coord difference lattice, whose step is the gcd of the integer
    coordinate differences (2 for odd-level QAM and BPSK, 1 for psk4
    and the grid APSKs), not to the raw coords.
    """
    coords = np.asarray(coords, dtype=np.complex128)
    xy = np.stack([coords.real, coords.imag]).round().astype(np.int64)
    step = int(np.gcd.reduce(xy - xy[:, :1], axis=None))
    sq = (xy ** 2).sum(0)
    if norm == NORM_INTEGER:
        point_sq = Fraction(1)
    elif norm == NORM_UNIT_POWER:
        point_sq = Fraction(len(coords), int(sq.sum()))
    elif norm == NORM_MIN_DIST:
        d = coords[:, None] - coords[None, :]
        dsq = (d.real ** 2 + d.imag ** 2).round().astype(np.int64)
        point_sq = Fraction(1, int(dsq[dsq > 0].min()))
    else:
        raise ValueError(f"unknown normalization {norm!r}")
    return Constellation(name=name, points=coords * math.sqrt(point_sq),
                         normalization=norm, scale_sq=point_sq * step ** 2)


def make_qam(m: int, norm: str = NORM_UNIT_POWER) -> Constellation:
    """Square QAM on odd integer levels {+-1, +-3, ...} before scaling."""
    if m not in (4, 16, 64):
        raise ValueError("supported QAM sizes: 4, 16, 64")
    side = int(round(math.sqrt(m)))
    levels = np.arange(-(side - 1), side, 2)
    re, im = np.meshgrid(levels, levels)
    coords = (re + 1j * im).ravel()
    return _grid_constellation(f"qam{m}", coords, norm)


def make_psk(m: int, norm: str = NORM_UNIT_POWER) -> Constellation:
    """M-ary PSK, points exp(j*2*pi*k/M).  Integer grid only for M in {2, 4}."""
    if not 2 <= m <= 2048:  # Constellation checks an M x M distance matrix
        raise ValueError(f"PSK needs 2 <= M <= 2048, got {m}")
    name = f"psk{m}"
    if m in (2, 4):
        coords = np.exp(2j * np.pi * np.arange(m) / m).round()
        return _grid_constellation(name, coords, norm)
    if norm == NORM_INTEGER:
        raise ValueError(f"psk{m} does not live on an integer grid")
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    if norm == NORM_MIN_DIST:
        pts = pts / (2.0 * math.sin(math.pi / m))
    return Constellation(name=name, points=pts, normalization=norm)


def make_apsk8_conventional(norm: str = NORM_UNIT_POWER) -> Constellation:
    """8-APSK with 4 points at (+-b, +-b) and 4 at radius b(1+sqrt(3)) on the axes.

    b = 1/sqrt(3 + sqrt(3)) makes the average power exactly 1; the inner-inner
    and inner-outer nearest distances are then both 2b.
    """
    if norm == NORM_INTEGER:
        raise ValueError("conventional 8-APSK does not live on an integer grid")
    b = 1.0 / math.sqrt(3.0 + math.sqrt(3.0))
    inner = b * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    outer = b * (1.0 + math.sqrt(3.0)) * np.array([1, 1j, -1, -1j])
    pts = np.concatenate([inner, outer])
    if norm == NORM_MIN_DIST:
        pts = pts * (1.0 / (2.0 * b))
    return Constellation(name="apsk8", points=pts, normalization=norm)


def make_apsk16_dvbs2(norm: str = NORM_UNIT_POWER) -> Constellation:
    """DVB-S2 style 4+12 APSK with ring ratio 1 + sqrt(3).

    r1 = 2/sqrt(13 + 6*sqrt(3)), r2 = 2*sqrt(2)/sqrt(8 - sqrt(3)); the inner
    ring sits at pi/4 + k*pi/2 and the outer at pi/12 + k*pi/6.  With these
    radii the average power is exactly 1 and the inner-chord and outer-chord
    minimum distances coincide.
    """
    if norm == NORM_INTEGER:
        raise ValueError("16-APSK does not live on an integer grid")
    r1 = 2.0 / math.sqrt(13.0 + 6.0 * math.sqrt(3.0))
    r2 = 2.0 * math.sqrt(2.0) / math.sqrt(8.0 - math.sqrt(3.0))
    inner = r1 * np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
    outer = r2 * np.exp(1j * (np.pi / 12 + np.pi / 6 * np.arange(12)))
    pts = np.concatenate([inner, outer])
    if norm == NORM_MIN_DIST:
        pts = pts * (1.0 / _min_pairwise_distance(pts))
    return Constellation(name="apsk16", points=pts, normalization=norm)


# Square-grid APSK presets.  A grid APSK is its ring norms |z|^2 =
# m^2 + n^2, whole rings of Gaussian integers: 8 points on radii
# {sqrt(2), 2}, 16 on {1, sqrt(2), 2, 3}; both give coding gain 1/2 once
# rescaled to min-dist-1.
_GRID_RINGS = {"apsk8-grid": (2, 4), "apsk16-grid": (1, 2, 4, 9)}


def make_apsk_grid(ring_norms, norm: str = NORM_UNIT_POWER,
                   name: str = "apsk-grid") -> Constellation:
    """APSK of every Gaussian integer z with |z|^2 in ring_norms."""
    norms = tuple(ring_norms)
    if (not norms or not all(type(k) is int and k > 0 for k in norms)
            or len(set(norms)) != len(norms)):
        raise ValueError("ring norms must be distinct positive ints, "
                         f"got {ring_norms!r}")
    side = math.isqrt(max(norms))
    x = np.arange(-side, side + 1)
    on_ring = (x[:, None] ** 2 + x ** 2)[..., None] == np.array(norms)
    if not on_ring.any((0, 1)).all():
        raise ValueError(f"some ring norm in {norms} is not m^2 + n^2")
    re_idx, im_idx = np.nonzero(on_ring.any(-1))
    arr = x[re_idx] + 1j * x[im_idx]
    # points sorted ring by ring, by angle inside a ring
    order = np.lexsort((np.round(np.mod(np.angle(arr), 2 * np.pi), 12),
                        np.round(np.abs(arr), 12)))
    return _grid_constellation(name, arr[order], norm)


def constellation_by_id(ident: str, norm: str = NORM_UNIT_POWER) -> Constellation:
    """Resolve CLI-style constellation ids like qam16, psk8, apsk8-grid."""
    # non-ASCII ids match nothing: lower() maps the Kelvin sign to k
    ident = ident.lower() if ident.isascii() else ident
    if ident in _GRID_RINGS:
        return make_apsk_grid(_GRID_RINGS[ident], norm, name=ident)
    if ident == "apsk8":
        return make_apsk8_conventional(norm)
    if ident == "apsk16":
        return make_apsk16_dvbs2(norm)
    sized = re.fullmatch(r"(qam|psk)([1-9][0-9]*)", ident)
    if sized:
        make = make_qam if sized[1] == "qam" else make_psk
        return make(int(sized[2]), norm)
    raise ValueError(f"unknown constellation id {ident!r}")
