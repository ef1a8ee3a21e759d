"""Monte Carlo 2x2 link simulation with exhaustive-ML and fast decoders.

Channel model: quasi-static Rayleigh, H constant over one codeword
(two channel uses), entries i.i.d. CN(0, 1), perfectly known at the
receiver.  Receive equation y_tj = sum_i h_ij * x_it + noise with
noise CN(0, N0) per complex entry.

Power convention: codeword entries are scaled by 1/sqrt(2) at
transmit so each antenna radiates average power 1 for unit-power
symbols (every entry superposes two symbols).  SNR is defined as
2/N0: total received signal power per receive antenna per channel
use over the noise variance.  The scaling is folded into an
effective channel before decoding, so both decoders see the plain
Y = X^T H + W model.

There is one codeword builder and one channel model: each chunk builds
its codewords with codes.build_codeword and receives them through
transmit, both batched over the chunk, and the exhaustive-ML decoder
builds its hypotheses with the same builder.  It scores the expanded
metric ||Y - X^T H||^2 - ||Y||^2 = -2 Re sum_it X_it Z_it + e0 G00 +
e1 G11 + 2 Re(c G01), with Z = H Y^H, G = H H^H per codeword and row
energies e0, e1 and c = sum_t X_0t conj(X_1t) per hypothesis: a real
length-12 inner product per pair, by einsum; BLAS is erratic at this size.

The fast decoder is exact ML over at most M^2 hypotheses instead of
M^4: condition on (s3, s4), cancel their contribution, and the residual
w = y' - c3*s3 - c4*s4 is an Alamouti-type system in (s1, s2) whose
equivalent channel columns g1, g2 are exactly orthogonal with
|g1|^2 = |g2|^2 = ||H||^2.  Everything (s3, s4)-dependent is therefore
complex-linear and is reduced once per codeword, in closed form from
the four channel entries, to a few scalars:

* the projections p_i = g_i^H w / ||H||^2 = a_i - b_i3*s3 - b_i4*s4;
* the part of w outside span(g1, g2), e - f3*s3 - f4*s4, whose squared
  norm is a quadratic form in (s3, s4) given by six Gram scalars.

The metric of hypothesis (s1, s2, s3, s4) is that form plus
||H||^2 (|p1 - s1|^2 + |p2 - s2|^2), so s1 and s2 are sliced
independently.  The decoder works on one s3 value at a time and scores
every s4 at once on (n, M) arrays, in two passes.  The first gives each
(codeword, s3) a lower bound: the metric without its two slicer terms,
minimised over s4.  The second visits each codeword's s3 values in
increasing bound and stops once the bound can no longer beat the best
metric found, so at high SNR most codewords slice one or two s3 values
instead of M.  Decisions equal those of scoring every s3: among exact
metric ties the smallest (k3, k4) wins, whatever the visit order.  The
slicer is picked from the geometry of the points: a full rectangular
lattice is sliced by per-axis rounding, constellations whose rings are
each evenly spaced in angle (PSK, the APSKs) by per-ring angle
rounding, and anything else by a full scan.

run_ber runs its chunks on one fork pool per process: the first call
with more than one worker starts it, later calls reuse it, a call with
another worker count replaces it, a call that finds it broken runs again
on a fresh one, and its workers exit with the interpreter.  Workers run
the modules as they were when forked, so a monkeypatch made after the
first parallel call does not reach them.
"""

from dataclasses import dataclass
import math
import os

import numpy as np

from .codes import DesignCoefficient, build_codeword
from .constellations import Constellation, _ranks, _tol_keys

TX_SCALE = 1.0 / math.sqrt(2.0)
CHUNK = 4096
ML_TUPLE_GUARD = 10 ** 8
_ML_BLOCK = 2 ** 20  # metric entries per exhaustive-ML hypothesis block

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def bit_labels(c: Constellation) -> np.ndarray:
    """Per-point bit labels (Gray coded), aligned with c.points.

    Points filling a full n x n lattice, as square QAM's do, get the
    per-axis Gray map.  Everything else is Gray coded along the (radius,
    angle) point ordering, the natural tour for PSK and ring-based APSK.
    """
    m = len(c)
    nbits = m.bit_length() - 1
    if (1 << nbits) != m:
        raise ValueError(f"bit mapping needs a power-of-two size, got {m}")
    pts = c.points
    grid = _lattice(pts)
    if grid is not None:
        (_, _, nx, kx), (_, _, ny, ky), _ = grid
        if nx == ny:
            return ((kx ^ (kx >> 1)) << (nbits // 2)) | (ky ^ (ky >> 1))
    r2 = np.round(np.abs(pts), 9)
    ang = np.round(np.mod(np.angle(pts), 2.0 * np.pi), 9)
    order = np.lexsort((ang, r2))
    labels = np.empty(m, dtype=np.int64)
    k = np.arange(m)
    labels[order] = k ^ (k >> 1)
    return labels


@dataclass(frozen=True)
class SimConfig:
    constellation: Constellation
    r: DesignCoefficient
    decoder: str
    snr_grid_db: tuple
    codewords_per_point: int
    seed: int

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.codewords_per_point < 1:
            raise ValueError("codewords_per_point must be >= 1")
        grid = tuple(float(s) for s in self.snr_grid_db)
        if not grid:
            raise ValueError("snr grid is empty")
        if not all(math.isfinite(s) for s in grid):
            raise ValueError(f"snr values must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr grid must be strictly increasing")
        for s in grid:
            noise_variance(s)
        if self.decoder == "ml":
            _check_ml_size(len(self.constellation))
        object.__setattr__(self, "snr_grid_db", grid)


@dataclass(frozen=True)
class SimPoint:
    snr_db: float
    codewords: int
    bits: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits


@dataclass(frozen=True)
class SimResult:
    points: tuple


def noise_variance(snr_db: float) -> float:
    """N0 for a given SNR in dB under the SNR = 2/N0 convention.

    ValueError unless N0 is a finite positive float: 10^(snr/10)
    overflows above about 3,082 dB, and N0 below about -3,079 dB.
    """
    try:
        n0 = 2.0 / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"snr {snr_db!r} dB is out of range: N0 = "
                         "2/10^(snr/10) is not a finite positive float")
    return n0


def transmit(x: np.ndarray, h: np.ndarray, n0: float, rng) -> np.ndarray:
    """Noisy receptions Y[t, j] = sum_i h[i, j] x[i, t] + CN(0, n0).

    x and h are one (2, 2) codeword and channel or stacks (..., 2, 2) of
    them.  The noise has the shape of x; its real part is drawn first,
    and it is drawn even for n0 = 0, so the random stream that follows
    does not depend on the noise level.
    """
    if not (math.isfinite(n0) and n0 >= 0):
        raise ValueError(f"n0 must be finite and >= 0, got {n0}")
    w = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    return np.einsum("...it,...ij->...tj", x, h) + math.sqrt(n0 / 2.0) * w


def _check_ml_size(m: int) -> None:
    """ValueError if exhaustive ML over m points scores more than
    ML_TUPLE_GUARD tuples; SimConfig refuses such a run before any work."""
    if m ** 4 > ML_TUPLE_GUARD:
        raise ValueError(f"{m}^4 = {m ** 4} exceeds the exhaustive-ML guard")


def _ml_decode_batch(y: np.ndarray, h: np.ndarray, r: complex,
                     pts: np.ndarray) -> np.ndarray:
    """Exhaustive ML over all tuples for a batch: (n, 2, 2) -> (n, 4).

    The expanded metric is scored in blocks of max(256, _ML_BLOCK //
    max(n, 16)) hypotheses, scanned in lexicographic index order; ties
    keep the first minimum (strict < across blocks), so the tie-break is
    lexicographic by constellation index.
    """
    m = pts.size
    _check_ml_size(m)
    total = m ** 4
    n = y.shape[0]
    coef = DesignCoefficient.from_complex(r)
    z = np.einsum("nij,ntj->nit", h, np.conj(y)).reshape(n, 4)
    g = np.einsum("nij,nkj->nik", h, np.conj(h))
    per_cw = np.column_stack([-2.0 * z.real, 2.0 * z.imag, g[:, 0, 0].real,
                              g[:, 1, 1].real, 2.0 * g[:, 0, 1].real,
                              -2.0 * g[:, 0, 1].imag])
    best = np.full(n, np.inf)
    best_code = np.zeros(n, dtype=np.int64)
    block = max(256, _ML_BLOCK // max(n, 16))
    for lo in range(0, total, block):
        codes = np.arange(lo, min(lo + block, total))
        syms = pts[np.array(np.unravel_index(codes, (m,) * 4))]
        x = build_codeword(*syms, coef).reshape(-1, 4).T
        e = x.real ** 2 + x.imag ** 2
        c = x[0] * np.conj(x[2]) + x[1] * np.conj(x[3])
        per_hyp = np.vstack([x.real, x.imag, e[0] + e[1], e[2] + e[3],
                             c.real, c.imag])
        metric = np.einsum("nq,qk->nk", per_cw, per_hyp)
        kbest = metric.argmin(axis=1)
        mbest = metric[np.arange(n), kbest]
        upd = mbest < best
        best[upd] = mbest[upd]
        best_code[upd] = codes[kbest[upd]]
    return np.stack(np.unravel_index(best_code, (m,) * 4), axis=1)


def _nearest_point(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Indices of the closest constellation point, full scan."""
    d = np.abs(vals[:, None] - pts[None, :])
    return d.argmin(axis=1)


_GEOM_TOL = 1e-9


def _lattice(pts: np.ndarray):
    """((x0, dx, nx, kx), (y0, dy, ny, ky), table) if pts fill a full
    nx x ny lattice, point i at (x0 + kx[i]*dx, y0 + ky[i]*dy) and
    table[kx, ky] = i; else None."""
    axes = []
    for v in (pts.real, pts.imag):
        lo, hi = v.min(), v.max()
        count = _ranks(_tol_keys(v))[1]
        step = (hi - lo) / (count - 1) if count > 1 else 1.0
        k = np.rint((v - lo) / step).astype(np.intp)
        if np.abs(v - (lo + k * step)).max() > _GEOM_TOL * max(step, 1.0):
            return None
        axes.append((lo, step, count, k))
    (_, _, nx, kx), (_, _, ny, ky) = axes
    if nx * ny != pts.size:
        return None
    table = np.full((nx, ny), -1, dtype=np.intp)
    table[kx, ky] = np.arange(pts.size)
    if (table < 0).any():
        return None
    return (*axes, table)


def _lattice_slicer(pts: np.ndarray):
    """Per-axis rounding if pts fill a rectangular lattice, else None."""
    grid = _lattice(pts)
    if grid is None:
        return None
    (x0, dx, nx, _), (y0, dy, ny, _), table = grid

    def slice_(vals):
        vr, vi = vals.real, vals.imag
        ix = np.clip(np.rint((vr - x0) / dx), 0, nx - 1).astype(np.intp)
        iy = np.clip(np.rint((vi - y0) / dy), 0, ny - 1).astype(np.intp)
        k = table[ix, iy]
        dr = vr - pts.real[k]
        di = vi - pts.imag[k]
        return k, dr * dr + di * di
    return slice_


def _ring_slicer(pts: np.ndarray):
    """Per-ring angle rounding if every ring holds >= 2 points evenly
    spaced in angle, else None.

    On one ring the nearest point is the one nearest in angle, so the
    nearest of the per-ring candidates is the nearest point overall;
    equal distances go to the lower index, as in the full scan.
    """
    rad = np.abs(pts)
    order = np.argsort(rad, kind="stable")
    cuts = np.flatnonzero(np.diff(rad[order]) > _GEOM_TOL) + 1
    rings = []
    for members in np.split(order, cuts):
        size = members.size
        ang = np.angle(pts[members])
        pos = (ang - ang[0]) * (size / (2.0 * np.pi))
        k = np.rint(pos)
        if size < 2 or np.abs(pos - k).max() > _GEOM_TOL:
            return None
        k = np.mod(k.astype(np.intp), size)
        table = np.full(size, -1, dtype=np.intp)
        table[k] = members
        if (table < 0).any():
            return None
        rings.append((ang[0], size / (2.0 * np.pi), size, np.tile(table, 3)))

    def slice_(vals):
        vr, vi = vals.real, vals.imag
        ang = np.arctan2(vi, vr)
        best_k = best_d = None
        for th0, per_rad, size, table in rings:
            # (ang - th0) * per_rad lies in [-size, size]: no wrap needed
            k = table[np.rint((ang - th0) * per_rad).astype(np.intp) + size]
            dr = vr - pts.real[k]
            di = vi - pts.imag[k]
            d = dr * dr + di * di
            if best_k is None:
                best_k, best_d = k, d
                continue
            upd = d <= best_d
            upd &= (d < best_d) | (k < best_k)
            np.copyto(best_k, k, where=upd)
            np.copyto(best_d, d, where=upd)
        return best_k, best_d
    return slice_


def _full_scan_slicer(pts: np.ndarray):
    def slice_(vals):
        # column by column keeps the distance array at (n, M)
        k = np.stack([_nearest_point(col, pts) for col in vals.T], axis=1)
        d = vals - pts[k]
        return k, d.real ** 2 + d.imag ** 2
    return slice_


def _slicer(pts: np.ndarray):
    """Nearest-point function, chosen by geometry, for values of shape
    (n, M): -> (indices, squared distances)."""
    return (_lattice_slicer(pts) or _ring_slicer(pts)
            or _full_scan_slicer(pts))


def _fast_decode_batch(y: np.ndarray, h: np.ndarray, r: complex,
                       pts: np.ndarray):
    """Exact ML via (s3, s4) conditioning for a batch: -> (n, 4) indices.

    A row is one (codeword, s3), scored for every s4 at once.  Pass 1
    bounds every row by its metric without the two slicer terms,
    minimised over s4; pass 2 scores each codeword's rows in increasing
    bound (stable, so equal bounds go by k3) and skips the rest once the
    bound can no longer beat the best (metric, k3) found.  Within a row
    argmin keeps the first minimum and rows compare by (metric, k3), so
    among exact metric ties the smallest (k3, k4) wins, as in exhaustive
    ML.  Every temporary is (n, M) or smaller.
    """
    n = y.shape[0]
    h00, h01, h10, h11 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1]
    y00, y01, y10, y11 = y[:, 0, 0], y[:, 0, 1], y[:, 1, 0], y[:, 1, 1]
    p0 = h00.real ** 2 + h00.imag ** 2 + h01.real ** 2 + h01.imag ** 2
    q0 = h10.real ** 2 + h10.imag ** 2 + h11.real ** 2 + h11.imag ** 2
    hnorm = p0 + q0
    # an all-zero channel makes every hypothesis equally likely; any
    # positive norm keeps its (zero) projections finite for the slicers
    hnorm[hnorm == 0.0] = 1.0
    # the energies of the two rows of h and their inner product, over ||H||^2
    p0 = p0 / hnorm
    q0 = q0 / hnorm
    x = (np.conj(h00) * h10 + np.conj(h01) * h11) / hnorm
    # With yc = (y00, y01, conj y10, conj y11), w = yc - c3*s3 - c4*s4,
    #   c3 = (r h00, r h01, conj h10, conj h11),
    #   c4 = (r h10, r h11, -conj h00, -conj h01),
    # and g1, g2 the orthogonal columns of equivalent_columns in
    # tests/oracles.py, every inner product over ||H||^2 is a short
    # polynomial in the h entries.  Projections:
    jr = 1j * np.conj(r)
    b13 = r * p0 - jr * q0
    b23 = (r + jr) * np.conj(x)
    b14 = (r + jr) * x
    b24 = r * q0 - jr * p0
    a1 = (np.conj(h00) * y00 + np.conj(h01) * y01
          - jr * (h10 * np.conj(y10) + h11 * np.conj(y11))) / hnorm
    a2 = (np.conj(h10) * y00 + np.conj(h11) * y01
          + jr * (h00 * np.conj(y10) + h01 * np.conj(y11))) / hnorm
    # Gram scalars over ||H||^2 of e, f3, f4, the parts of yc, c3, c4
    # outside span(g1, g2): with P the projection onto that span,
    # <u - Pu, v - Pv> = <u, v> - sum_i conj(<g_i, u>) <g_i, v> / ||H||^2
    rr = abs(r) ** 2
    f33 = (rr * p0 + q0) - np.abs(b13) ** 2 - np.abs(b23) ** 2
    f44 = (rr * q0 + p0) - np.abs(b14) ** 2 - np.abs(b24) ** 2
    f34 = (rr - 1.0) * x - np.conj(b13) * b14 - np.conj(b23) * b24
    ee = ((y.real ** 2 + y.imag ** 2).reshape(n, 4).sum(axis=1) / hnorm
          - np.abs(a1) ** 2 - np.abs(a2) ** 2)
    e3 = ((r * (np.conj(y00) * h00 + np.conj(y01) * h01)
           + y10 * np.conj(h10) + y11 * np.conj(h11)) / hnorm
          - np.conj(a1) * b13 - np.conj(a2) * b23)
    e4 = ((r * (np.conj(y00) * h10 + np.conj(y01) * h11)
           - y10 * np.conj(h00) - y11 * np.conj(h01)) / hnorm
          - np.conj(a1) * b14 - np.conj(a2) * b24)
    # |e - f3*s3 - f4*s4|^2 / ||H||^2: the s4-only terms for every s4,
    # the s3-only terms for every s3, and the cross term's coefficients
    energy = pts.real ** 2 + pts.imag ** 2
    quad4 = (f44[:, None] * energy - 2.0 * (e4[:, None] * pts).real
             + ee[:, None])
    lin3 = f33[:, None] * energy - 2.0 * (e3[:, None] * pts).real
    cross = 2.0 * f34[:, None] * pts
    cross_re, cross_im = cross.real.copy(), cross.imag.copy()
    bp14 = b14[:, None] * pts
    bp24 = b24[:, None] * pts
    slice_ = _slicer(pts)
    m = pts.size
    # Pass 1: the bound lb[:, k3], the metric without its slicer terms
    # minimised over s4.  It is built with the float operations the
    # metric applies before adding d1, d2 >= 0, and rounding is
    # monotone, so metric >= lb holds bit for bit.
    lb = np.empty((n, m))
    part = np.empty((n, m))
    for k3, s3 in enumerate(pts):
        np.add(quad4, lin3[:, k3, None], out=part)
        part += s3.real * cross_re
        part += s3.imag * cross_im
        part.min(axis=1, out=lb[:, k3])
    del part
    # Pass 2: every codeword steps through its s3 values in increasing
    # lb while lb can still beat its best (metric, k3); lb only grows
    # along the order, so a codeword that stops could beat nothing later.
    order = np.argsort(lb, axis=1, kind="stable")
    best = np.full(n, np.inf)
    best_k3 = np.full(n, m)
    out = np.zeros((n, 4), dtype=np.int64)

    def beats(val, k3, live):
        held = best[live]
        return (val < held) | ((val == held) & (k3 < best_k3[live]))

    live = np.arange(n)
    for step in range(m):
        k3 = order[live, step]
        go = beats(lb[live, k3], k3, live)
        live, k3 = live[go], k3[go]
        if live.size == 0:
            break
        s3 = pts[k3]
        # the metric over ||H||^2; 2 Re(conj(s3) f3^H f4 s4) is the cross term
        metric = quad4[live] + lin3[live, k3][:, None]
        metric += s3.real[:, None] * cross_re[live]
        metric += s3.imag[:, None] * cross_im[live]
        k1, d1 = slice_((a1[live] - b13[live] * s3)[:, None] - bp14[live])
        k2, d2 = slice_((a2[live] - b23[live] * s3)[:, None] - bp24[live])
        metric += d1
        metric += d2
        k4 = metric.argmin(axis=1)
        at = np.arange(live.size)
        mbest = metric[at, k4]
        upd = beats(mbest, k3, live)
        rows, at, k3, k4 = live[upd], at[upd], k3[upd], k4[upd]
        best[rows] = mbest[upd]
        best_k3[rows] = k3
        out[rows] = np.stack([k1[at, k4], k2[at, k4], k3, k4], axis=1)
    return out


# SimConfig.decoder -> batch decoder: (y, h, r, points) -> (n, 4) indices
DECODERS = {"ml": _ml_decode_batch, "fast": _fast_decode_batch}


def ml_decode_exhaustive(y, h, r: DesignCoefficient, c: Constellation):
    """Brute-force ML decision (s1, s2, s3, s4) for one reception."""
    idx = _ml_decode_batch(np.asarray(y)[None], np.asarray(h)[None],
                           r.r, c.points)[0]
    return tuple(c.points[k] for k in idx)


def fast_decode(y, h, r: DesignCoefficient, c: Constellation):
    """Conditional exact-ML decision for one reception."""
    idx = _fast_decode_batch(np.asarray(y)[None], np.asarray(h)[None],
                             r.r, c.points)[0]
    return tuple(c.points[k] for k in idx)


def _chunk_counts(total: int):
    sizes = [CHUNK] * (total // CHUNK)
    if total % CHUNK:
        sizes.append(total % CHUNK)
    return sizes


def _run_chunk(args):
    pts, r, decoder, n0, seed, point_idx, chunk_idx, n, labels = args
    rng = np.random.default_rng([seed, point_idx, chunk_idx])
    tx = rng.integers(0, pts.size, size=(n, 4))
    h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    h *= math.sqrt(0.5)
    heff = TX_SCALE * h
    y = transmit(build_codeword(*pts[tx].T, r), heff, n0, rng)
    rx = DECODERS[decoder](y, heff, r.r, pts)
    return _bit_count(labels[tx] ^ labels[rx])


def _bit_count(v: np.ndarray) -> int:
    """Total number of set bits in non-negative integers, a byte at a time."""
    total = 0
    while v.any():
        total += int(_POPCOUNT[v & 0xFF].sum())
        v = v >> 8
    return total


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None  # (workers, ProcessPoolExecutor): the process's one pool


def _pool_map(tasks, workers: int, chunksize: int) -> list:
    """_run_chunk over tasks on the process's kept pool.

    A pool of another size is shut down before the new one forks, so no
    manager thread is alive at the fork.  The pool modules (and with them
    multiprocessing) load here, on the first parallel call.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _pool
    while True:
        reused = _pool is not None and _pool[0] == workers
        if not reused:
            if _pool is not None:
                _pool[1].shutdown(wait=True)
            _pool = (workers, ProcessPoolExecutor(max_workers=workers))
        try:
            return list(_pool[1].map(_run_chunk, tasks, chunksize=chunksize))
        except BrokenProcessPool:
            _pool[1].shutdown(wait=True)
            _pool = None
            if not reused:
                raise


def run_ber(cfg: SimConfig, workers=None) -> SimResult:
    """BER over the SNR grid; bit-exact for fixed (cfg, seed).

    Every chunk derives its random stream from (seed, point index,
    chunk index), so the outcome does not depend on scheduling or on
    the worker count.  The pool gets min(workers, chunks, usable CPUs)
    processes, since a fork pool starts all of them up front; when that
    is 1 (or workers is None) the chunks run serially.  Chunks go out
    in batches of up to 4, but never so large that a worker is left
    without one.
    """
    c = cfg.constellation
    m = len(c)
    labels = bit_labels(c)
    nbits = m.bit_length() - 1
    tasks = []
    for pi, snr in enumerate(cfg.snr_grid_db):
        n0 = noise_variance(snr)
        for ci, n in enumerate(_chunk_counts(cfg.codewords_per_point)):
            tasks.append((c.points, cfg.r, cfg.decoder, n0, cfg.seed,
                          pi, ci, n, labels))
    workers = min(workers or 1, len(tasks), _usable_cpus())
    if workers > 1:
        errs = _pool_map(tasks, workers,
                         min(4, math.ceil(len(tasks) / workers)))
    else:
        errs = [_run_chunk(t) for t in tasks]
    per_point = {}
    for task, e in zip(tasks, errs):
        per_point[task[5]] = per_point.get(task[5], 0) + e
    points = tuple(
        SimPoint(snr_db=snr, codewords=cfg.codewords_per_point,
                 bits=cfg.codewords_per_point * 4 * nbits,
                 bit_errors=per_point[pi])
        for pi, snr in enumerate(cfg.snr_grid_db))
    return SimResult(points)


def diversity_slope(res: SimResult, window) -> float:
    """Diversity-order estimate over window = (lo_db, hi_db).

    Least-squares slope of log10(BER) against SNR_dB/10, negated so a
    faster BER decay gives a larger value.  Needs at least two window
    points with errors.
    """
    lo, hi = window
    xs, ys = [], []
    for p in res.points:
        if lo <= p.snr_db <= hi and p.bit_errors > 0:
            xs.append(p.snr_db / 10.0)
            ys.append(math.log10(p.ber))
    if len(xs) < 2:
        raise ValueError("need >= 2 points with errors in the window")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(-slope)
