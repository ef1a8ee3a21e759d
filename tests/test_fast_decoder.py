"""The vectorised fast decoder against its references.

Three oracles: the per-(k3, k4) hypothesis loop the decoder replaced
(kept here verbatim in behaviour), the full-scan nearest-point search
for each slicer, and exhaustive ML on random constellations that no
geometric slicer accepts.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fdstbc import constellations as cs
from fdstbc import simulate as sim
from fdstbc.codes import DesignCoefficient, build_codeword

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
    g1, g2 = sim._equivalent_columns(h, r)
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


def receptions(pts, r, n, snr_db, rng):
    """n noisy receptions (y, h) of random codewords, as _run_chunk draws."""
    idx = rng.integers(0, pts.size, size=(n, 4))
    x = build_codeword(*pts[idx].T, DesignCoefficient.from_complex(r))
    h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    h *= math.sqrt(0.5)
    return sim.transmit(x, h, sim.noise_variance(snr_db), rng), h


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
    out = sim._fast_decode_batch(y, np.zeros((3, 2, 2), dtype=complex),
                                 R_ANALYTIC, pts)
    assert out.shape == (3, 4)
    assert ((out >= 0) & (out < pts.size)).all()
