"""The vectorised decoders against their references.

Five oracles: the per-(k3, k4) hypothesis loop the fast decoder
replaced (kept here verbatim in behaviour), the loop that scored every
s3 from stacked (n, 4) projections, which the bounded search and the
closed-form set-up replaced (kept here verbatim in behaviour), the
full-scan nearest-point search for each slicer, exhaustive ML on random
constellations that no geometric slicer accepts, and, for exhaustive
ML itself, the direct ||Y - X^T H||^2 loop its expanded metric replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fdstbc import constellations as cs
from fdstbc import simulate as sim
from fdstbc.codes import DesignCoefficient, build_codeword

import oracles

UNIT = cs.NORM_UNIT_POWER
R_ANALYTIC = complex((1.0 + math.sqrt(7.0)) / 4.0,
                     (-1.0 + math.sqrt(7.0)) / 4.0)

LATTICE = ("qam4", "qam16", "qam64", "psk2")
RINGS = ("psk4", "psk8", "psk16", "apsk8", "apsk16", "apsk8-grid",
         "apsk16-grid")


def reference_fast_decode(y, h, r, pts):
    """One (k3, k4) hypothesis per iteration: cancel, project, full scan.

    Lexicographic (k3, k4) order with a strict-< running minimum, so
    among exact metric ties the smallest (k3, k4) wins.
    """
    m = pts.size
    n = y.shape[0]
    g1, g2 = oracles.equivalent_columns(h, r)
    hnorm = (np.abs(h) ** 2).reshape(n, 4).sum(axis=1)
    best = np.full(n, np.inf)
    out = np.zeros((n, 4), dtype=np.int64)
    w = np.empty((n, 4), dtype=np.complex128)
    for k3 in range(m):
        s3 = pts[k3]
        for k4 in range(m):
            s4 = pts[k4]
            # cancel X_B = [[r*s3, -conj(s4)], [r*s4, conj(s3)]]
            b00 = r * s3
            b10 = r * s4
            b01 = -np.conj(s4)
            b11 = np.conj(s3)
            w[:, 0] = y[:, 0, 0] - (b00 * h[:, 0, 0] + b10 * h[:, 1, 0])
            w[:, 1] = y[:, 0, 1] - (b00 * h[:, 0, 1] + b10 * h[:, 1, 1])
            w[:, 2] = np.conj(
                y[:, 1, 0] - (b01 * h[:, 0, 0] + b11 * h[:, 1, 0]))
            w[:, 3] = np.conj(
                y[:, 1, 1] - (b01 * h[:, 0, 1] + b11 * h[:, 1, 1]))
            p1 = (np.conj(g1) * w).sum(axis=1) / hnorm
            p2 = (np.conj(g2) * w).sum(axis=1) / hnorm
            k1 = sim._nearest_point(p1, pts)
            k2 = sim._nearest_point(p2, pts)
            res = w - g1 * pts[k1][:, None] - g2 * pts[k2][:, None]
            metric = (np.abs(res) ** 2).sum(axis=1)
            upd = metric < best
            if upd.any():
                best[upd] = metric[upd]
                out[upd, 0] = k1[upd]
                out[upd, 1] = k2[upd]
                out[upd, 2] = k3
                out[upd, 3] = k4
    return out


def unpruned_fast_decode(y, h, r, pts):
    """Every s3 row scored for all s4 at once, in increasing k3, with
    the projections and Gram scalars taken from stacked (n, 4) columns.

    argmin keeps the first minimum in a row and a strict < keeps the
    earlier row, so among exact metric ties the smallest (k3, k4) wins.
    """
    n = y.shape[0]
    g1, g2 = oracles.equivalent_columns(h, r)
    hnorm = (np.abs(h) ** 2).reshape(n, 4).sum(axis=1)
    hnorm[hnorm == 0.0] = 1.0
    yc = np.stack([y[:, 0, 0], y[:, 0, 1],
                   np.conj(y[:, 1, 0]), np.conj(y[:, 1, 1])], axis=1)
    c3 = np.stack([r * h[:, 0, 0], r * h[:, 0, 1],
                   np.conj(h[:, 1, 0]), np.conj(h[:, 1, 1])], axis=1)
    c4 = np.stack([r * h[:, 1, 0], r * h[:, 1, 1],
                   -np.conj(h[:, 0, 0]), -np.conj(h[:, 0, 1])], axis=1)

    def gram(u, v):
        return (np.conj(u) * v).sum(axis=1) / hnorm

    def project(v):
        q1, q2 = gram(g1, v), gram(g2, v)
        return q1, q2, v - g1 * q1[:, None] - g2 * q2[:, None]

    a1, a2, e = project(yc)
    b13, b23, f3 = project(c3)
    b14, b24, f4 = project(c4)
    quad4 = (gram(f4, f4).real[:, None] * (pts.real ** 2 + pts.imag ** 2)
             - 2.0 * (gram(e, f4)[:, None] * pts).real
             + gram(e, e).real[:, None])
    f33 = gram(f3, f3).real
    e3 = gram(e, f3)
    cross = 2.0 * gram(f3, f4)[:, None] * pts
    cross_re, cross_im = cross.real.copy(), cross.imag.copy()
    bp14 = b14[:, None] * pts
    bp24 = b24[:, None] * pts
    slice_ = sim._slicer(pts)
    rows = np.arange(n)
    best = np.full(n, np.inf)
    out = np.zeros((n, 4), dtype=np.int64)
    for k3, s3 in enumerate(pts):
        p1 = (a1 - b13 * s3)[:, None] - bp14
        p2 = (a2 - b23 * s3)[:, None] - bp24
        k1, d1 = slice_(p1)
        k2, d2 = slice_(p2)
        metric = quad4 + (f33 * abs(s3) ** 2 - 2.0 * (e3 * s3).real)[:, None]
        metric += s3.real * cross_re
        metric += s3.imag * cross_im
        metric += d1
        metric += d2
        k4 = metric.argmin(axis=1)
        mbest = metric[rows, k4]
        upd = mbest < best
        if upd.any():
            best[upd] = mbest[upd]
            out[upd, 0] = k1[upd, k4[upd]]
            out[upd, 1] = k2[upd, k4[upd]]
            out[upd, 2] = k3
            out[upd, 3] = k4[upd]
    return out


def receptions(pts, r, n, snr_db, rng):
    """n noisy receptions (y, h) of random codewords, as _run_chunk draws;
    snr_db None means no noise."""
    idx = rng.integers(0, pts.size, size=(n, 4))
    x = build_codeword(*pts[idx].T, DesignCoefficient.from_complex(r))
    h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    h *= math.sqrt(0.5)
    n0 = 0.0 if snr_db is None else sim.noise_variance(snr_db)
    return sim.transmit(x, h, n0, rng), h


def direct_ml_decode(y, h, r, pts):
    """Exhaustive ML by the direct difference Y - X^T H, 256 hypotheses
    at a time, in lexicographic index order with a strict-< running
    minimum across blocks, so ties keep the first minimum.
    """
    m = pts.size
    total = m ** 4
    n = y.shape[0]
    coef = DesignCoefficient.from_complex(r)
    best = np.full(n, np.inf)
    best_idx = np.zeros((n, 4), dtype=np.int64)
    for lo in range(0, total, 256):
        hi = min(lo + 256, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        idx = np.empty((hi - lo, 4), dtype=np.int64)
        idx[:, 3] = codes % m
        idx[:, 2] = (codes // m) % m
        idx[:, 1] = (codes // (m * m)) % m
        idx[:, 0] = codes // (m * m * m)
        x = build_codeword(*pts[idx].T, coef)
        rec = np.einsum("kit,nij->kntj", x, h)
        diff = y[None, :, :, :] - rec
        metric = np.abs(diff).reshape(hi - lo, n, 4)
        metric = (metric * metric).sum(axis=2)
        kbest = metric.argmin(axis=0)
        mbest = metric[kbest, np.arange(n)]
        upd = mbest < best
        best[upd] = mbest[upd]
        best_idx[upd] = idx[kbest[upd]]
    return best_idx


# the batch sizes the BER benchmark decodes, per constellation
BENCH_BATCHES = (("qam16", 1024), ("apsk16", 1024), ("psk8", 2048),
                 ("qam64", 256), ("qam4", 4096))


@pytest.mark.parametrize("snr_db", tuple(range(0, 22, 3)) + (30, None))
@pytest.mark.parametrize("ident, n", BENCH_BATCHES)
def test_bounded_search_matches_unpruned_loop(ident, n, snr_db):
    c = cs.constellation_by_id(ident, UNIT)
    rng = np.random.default_rng([len(c), 99 if snr_db is None else snr_db])
    y, h = receptions(c.points, R_ANALYTIC, n, snr_db, rng)
    fast = sim._fast_decode_batch(y, h, R_ANALYTIC, c.points)
    assert np.array_equal(fast, unpruned_fast_decode(y, h, R_ANALYTIC,
                                                      c.points))


def test_bounded_search_skips_rows(monkeypatch):
    # each visited (codeword, s3) row is sliced twice, for s1 and s2;
    # with no noise the search should stop after about one row per
    # codeword, where the unpruned loop slices all 16
    inner = sim._slicer
    sliced = []

    def counting_slicer(pts):
        slice_ = inner(pts)

        def counted(vals):
            sliced.append(vals.shape[0])
            return slice_(vals)
        return counted
    monkeypatch.setattr(sim, "_slicer", counting_slicer)
    c = cs.constellation_by_id("qam16", UNIT)
    n = 1024
    y, h = receptions(c.points, R_ANALYTIC, n, None,
                      np.random.default_rng(16))
    out = sim._fast_decode_batch(y, h, R_ANALYTIC, c.points)
    visits = sum(sliced) / 2
    assert n <= visits <= 2 * n
    assert np.array_equal(out, unpruned_fast_decode(y, h, R_ANALYTIC,
                                                    c.points))


@pytest.mark.parametrize("ident", ("qam4", "qam16", "qam64", "psk8",
                                   "psk16", "apsk8", "apsk16", "apsk8-grid",
                                   "apsk16-grid"))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_fast_decoder_matches_reference_loop(ident, seed):
    c = cs.constellation_by_id(ident, UNIT)
    n = 48 if len(c) == 64 else 256
    rng = np.random.default_rng([seed, len(c)])
    y, h = receptions(c.points, R_ANALYTIC, n, 3.0 + 6.0 * seed, rng)
    fast = sim._fast_decode_batch(y, h, R_ANALYTIC, c.points)
    ref = reference_fast_decode(y, h, R_ANALYTIC, c.points)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("ident", LATTICE + RINGS)
def test_slicer_matches_full_scan(ident):
    c = cs.constellation_by_id(ident, UNIT)
    pts = c.points
    if ident in LATTICE:
        assert sim._lattice_slicer(pts) is not None
    else:
        assert sim._lattice_slicer(pts) is None
        assert sim._ring_slicer(pts) is not None
    rng = np.random.default_rng(len(pts))
    # columns at growing scale: inside, around and far outside (clip path)
    scale = np.array([0.3, 1.0, 2.0, 10.0, 1e3, 1e6])
    vals = (rng.normal(size=(500, scale.size))
            + 1j * rng.normal(size=(500, scale.size))) * scale
    got, _ = sim._slicer(pts)(vals)
    want = np.stack([sim._nearest_point(col, pts) for col in vals.T], axis=1)
    assert np.array_equal(got, want)


def test_ring_slicer_ties_go_to_lower_index():
    # 2, 2j, -2, -2j are exactly as far from the outer ring (indices
    # 0-3) as from the inner one (4-7); the full scan keeps the lower index
    pts = np.array([3, 3j, -3, -3j, 1, 1j, -1, -1j])
    vals = np.array([[2.0, 2j, -2.0, -2j]])
    want = np.stack([sim._nearest_point(col, pts) for col in vals.T], axis=1)
    assert np.array_equal(want, [[0, 1, 2, 3]])
    assert np.array_equal(sim._ring_slicer(pts)(vals)[0], want)
    assert np.array_equal(sim._ring_slicer(pts[::-1])(vals)[0],
                          [[3, 2, 1, 0]])


def test_slicer_falls_back_to_full_scan():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=7) + 1j * rng.normal(size=7)
    assert sim._lattice_slicer(pts) is None
    assert sim._ring_slicer(pts) is None
    vals = rng.normal(size=(50, 7)) + 1j * rng.normal(size=(50, 7))
    want = np.stack([sim._nearest_point(col, pts) for col in vals.T], axis=1)
    assert np.array_equal(sim._slicer(pts)(vals)[0], want)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_fast_equals_ml_on_random_constellations(seed, m, angle):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    pts /= math.sqrt(np.mean(np.abs(pts) ** 2))
    c = cs.Constellation(name="random", points=pts, normalization=UNIT)
    assert sim._lattice_slicer(c.points) is None
    assert sim._ring_slicer(c.points) is None
    r = complex(math.cos(angle), math.sin(angle))
    y, h = receptions(c.points, r, 16, 9.0, rng)
    fast = sim._fast_decode_batch(y, h, r, c.points)
    ml = sim._ml_decode_batch(y, h, r, c.points)
    assert np.array_equal(fast, ml)


@pytest.mark.parametrize("ident", ("qam16", "psk8", "apsk16"))
def test_zero_channel_still_decides(ident):
    # with H = 0 every hypothesis has the same metric; any tuple is ML
    pts = cs.constellation_by_id(ident, UNIT).points
    y = np.ones((3, 2, 2), dtype=complex)
    y[1] = 0.0
    y[2] = 1e3j
    h = np.zeros((3, 2, 2), dtype=complex)
    out = sim._fast_decode_batch(y, h, R_ANALYTIC, pts)
    assert np.array_equal(out, unpruned_fast_decode(y, h, R_ANALYTIC, pts))


ML_SNRS = st.one_of(st.none(), st.floats(0.0, 40.0))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1),
       pts=st.one_of(st.integers(2, 8),
                     st.sampled_from(("qam4", "psk8", "apsk8"))),
       angle=st.floats(0.0, 2.0 * math.pi), n=st.integers(1, 40),
       block=st.sampled_from((2 ** 20, 2 ** 12, 1)), snr_db=ML_SNRS)
def test_ml_equals_direct_difference(seed, pts, angle, n, block, snr_db):
    # a block bound below 2^20 splits the hypotheses into 256-row blocks
    rng = np.random.default_rng(seed)
    if isinstance(pts, str):
        pts = cs.constellation_by_id(pts, UNIT).points
    else:
        pts = rng.normal(size=pts) + 1j * rng.normal(size=pts)
        pts /= math.sqrt(np.mean(np.abs(pts) ** 2))
    r = complex(math.cos(angle), math.sin(angle))
    y, h = receptions(pts, r, n, snr_db, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_ML_BLOCK", block)
        ml = sim._ml_decode_batch(y, h, r, pts)
    assert np.array_equal(ml, direct_ml_decode(y, h, r, pts))


@pytest.mark.parametrize("snr_db", (0, 12, 40, None))
@pytest.mark.parametrize("ident", ("psk8", "apsk8"))
def test_ml_equals_direct_difference_across_blocks(ident, snr_db):
    # 4096 hypotheses against 300 codewords: blocks of 3495 rows
    c = cs.constellation_by_id(ident, UNIT)
    rng = np.random.default_rng([len(c), 7 if snr_db is None else snr_db])
    y, h = receptions(c.points, R_ANALYTIC, 300, snr_db, rng)
    assert np.array_equal(sim._ml_decode_batch(y, h, R_ANALYTIC, c.points),
                          direct_ml_decode(y, h, R_ANALYTIC, c.points))


@pytest.mark.parametrize("block", (2 ** 20, 1))
@pytest.mark.parametrize("ident", ("qam4", "psk8", "apsk8"))
def test_ml_zero_channel_ties_go_to_index_zero(monkeypatch, ident, block):
    # with H = 0 every hypothesis scores the same: the first one wins,
    # also when later 256-row blocks tie with it
    monkeypatch.setattr(sim, "_ML_BLOCK", block)
    pts = cs.constellation_by_id(ident, UNIT).points
    y = np.ones((3, 2, 2), dtype=complex)
    y[1] = 0.0
    y[2] = 1e3j
    h = np.zeros((3, 2, 2), dtype=complex)
    for decode in (sim._ml_decode_batch, direct_ml_decode):
        assert not decode(y, h, R_ANALYTIC, pts).any()
