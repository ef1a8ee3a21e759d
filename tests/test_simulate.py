import math
import multiprocessing
import os
from pathlib import Path
import signal
import subprocess
import sys

import numpy as np
import pytest

from fdstbc import constellations as cs
from fdstbc import optimizer as opt
from fdstbc import simulate as sim
from fdstbc.codes import DesignCoefficient, build_codeword

import oracles

UNIT = cs.NORM_UNIT_POWER

R_ANALYTIC = DesignCoefficient(
    u=(1.0 + math.sqrt(7.0)) / 4.0,
    v=(-1.0 + math.sqrt(7.0)) / 4.0,
)


def test_noise_variance_convention():
    assert sim.noise_variance(0.0) == 2.0
    assert math.isclose(sim.noise_variance(10.0), 0.2)
    assert math.isclose(sim.noise_variance(3.0), 2.0 / 10.0 ** 0.3)


def test_transmit_noiseless_is_linear_model():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = sim.transmit(x, h, 0.0, rng)
    assert np.allclose(y, x.T @ h)


def test_bit_count_any_width():
    rng = np.random.default_rng(5)
    v = np.concatenate([[0, 1, 255, 256, 511, 2 ** 62 - 1],
                        rng.integers(0, 2 ** 40, size=500)])
    want = sum(bin(int(x)).count("1") for x in v)
    assert sim._bit_count(v) == want
    assert sim._bit_count(v.reshape(-1, 2)) == want
    assert sim._bit_count(np.zeros((3, 4), dtype=np.int64)) == 0


def test_transmit_rejects_negative_noise():
    rng = np.random.default_rng(0)
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        sim.transmit(x, x, -0.1, rng)


@pytest.mark.parametrize("n0", (math.nan, math.inf))
def test_transmit_rejects_non_finite_noise(n0):
    rng = np.random.default_rng(0)
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="n0 must be finite"):
        sim.transmit(x, x, n0, rng)


def test_transmit_noise_power():
    rng = np.random.default_rng(1)
    x = np.zeros((2, 2), dtype=complex)
    h = np.zeros((2, 2), dtype=complex)
    n0 = 0.8
    pows = [np.mean(np.abs(sim.transmit(x, h, n0, rng)) ** 2)
            for _ in range(4000)]
    assert abs(np.mean(pows) - n0) < 0.05 * n0


def test_transmit_single_codeword_draws_2x2_noise():
    draw = np.random.default_rng(12)
    x = draw.normal(size=(2, 2)) + 1j * draw.normal(size=(2, 2))
    h = draw.normal(size=(2, 2)) + 1j * draw.normal(size=(2, 2))
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    n0 = 0.3
    y = sim.transmit(x, h, n0, rng)
    w = twin.normal(size=(2, 2)) + 1j * twin.normal(size=(2, 2))
    assert y.shape == (2, 2)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert np.allclose(y, x.T @ h + math.sqrt(n0 / 2.0) * w,
                       rtol=0.0, atol=1e-14)


def inline_channel(x, h, n0, rng):
    """The channel _run_chunk wrote out before it called transmit."""
    w = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    return np.einsum("nit,nij->ntj", x, h) + math.sqrt(n0 / 2.0) * w


@pytest.mark.parametrize("n", (1, 7, 4096))
def test_batched_transmit_matches_inline_channel(n):
    rng = np.random.default_rng([13, n])
    c = cs.make_qam(16, UNIT)
    x = build_codeword(*c.points[rng.integers(0, 16, size=(4, n))],
                       R_ANALYTIC)
    h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    h *= sim.TX_SCALE * math.sqrt(0.5)
    for n0 in (0.0, sim.noise_variance(6.0)):
        seed = [14, n]
        got = sim.transmit(x, h, n0, np.random.default_rng(seed))
        want = inline_channel(x, h, n0, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def test_codeword_batch_matches_scalar():
    c = cs.make_qam(16, UNIT)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 16, size=(40, 4))
    batch = build_codeword(*c.points[idx].T, R_ANALYTIC)
    assert batch.shape == (40, 2, 2)
    for row, x in zip(idx, batch):
        s = [c.points[k] for k in row]
        assert np.array_equal(x, build_codeword(*s, R_ANALYTIC))


def test_equivalent_channel_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        g1, g2 = (g[0] for g in oracles.equivalent_columns(h[None],
                                                           R_ANALYTIC.r))
        assert abs(np.vdot(g1, g2)) < 1e-12
        hn = np.sum(np.abs(h) ** 2)
        assert math.isclose(np.sum(np.abs(g1) ** 2), hn, rel_tol=1e-12)
        assert math.isclose(np.sum(np.abs(g2) ** 2), hn, rel_tol=1e-12)


def test_noiseless_recovery_both_decoders():
    c = cs.make_qam(4, UNIT)
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = tuple(c.points[k] for k in rng.integers(0, 4, size=4))
        x = build_codeword(*s, R_ANALYTIC)
        h = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        y = sim.transmit(x, h, 0.0, rng)
        assert sim.fast_decode(y, h, R_ANALYTIC, c) == pytest.approx(s)
        assert sim.ml_decode_exhaustive(y, h, R_ANALYTIC, c) \
            == pytest.approx(s)


def test_fast_decoder_matches_exhaustive_ml_noisy():
    c = cs.make_qam(4, UNIT)
    rng = np.random.default_rng(5)
    n = 200
    idx = rng.integers(0, 4, size=(n, 4))
    x = build_codeword(*c.points[idx].T, R_ANALYTIC)
    h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    h *= math.sqrt(0.5)
    y = sim.transmit(x, h, sim.noise_variance(9.0), rng)
    a = sim._fast_decode_batch(y, h, R_ANALYTIC.r, c.points)
    b = sim._ml_decode_batch(y, h, R_ANALYTIC.r, c.points)
    assert np.array_equal(a, b)


def test_exhaustive_ml_guard():
    c = cs.make_psk(128, UNIT)
    y = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        sim.ml_decode_exhaustive(y, y, R_ANALYTIC, c)
    # a run is refused when it is configured, before any chunk is drawn
    with pytest.raises(ValueError, match="exhaustive-ML guard"):
        sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="ml",
                      snr_grid_db=(0.0,), codewords_per_point=1, seed=0)


def test_run_ber_deterministic_and_worker_independent():
    c = cs.make_qam(4, UNIT)
    cfg = sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="fast",
                        snr_grid_db=(0.0, 10.0), codewords_per_point=5000,
                        seed=5)
    r1 = sim.run_ber(cfg)
    r2 = sim.run_ber(cfg)
    r3 = sim.run_ber(cfg, workers=2)
    assert r1.points == r2.points == r3.points
    assert all(p.bit_errors > 0 for p in r1.points)


def test_pool_is_capped_by_chunks_and_cpus(monkeypatch):
    """A fork pool starts all its workers up front, so run_ber never asks
    for more than there are chunks or usable CPUs, and its batches leave
    no worker idle."""
    sizes = []
    batches = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor; maps in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def map(self, fn, tasks, chunksize=1):
            # per call, so a kept pool is counted by every call it serves
            sizes.append(self.max_workers)
            batches.append(chunksize)
            return map(fn, tasks)

        def shutdown(self, wait=True):
            pass

    # no real pool from an earlier test is used, and no stand-in is kept
    monkeypatch.setattr(sim, "_pool", None)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    c = cs.make_qam(4, UNIT)
    one, three = (sim.SimConfig(constellation=c, r=R_ANALYTIC,
                                decoder="fast", snr_grid_db=grid,
                                codewords_per_point=1, seed=3)
                  for grid in ((0.0,), (0.0, 1.0, 2.0)))
    serial = sim.run_ber(three).points
    assert sim.run_ber(one, workers=10 ** 6).points == \
        sim.run_ber(one).points
    assert sizes == []
    assert sim.run_ber(three, workers=10 ** 6).points == serial
    assert len(sizes) <= 1 and all(2 <= n <= min(3, sim._usable_cpus())
                                   for n in sizes)
    for cpus, want, batch in ((64, [3], [1]), (2, [2], [2]), (1, [], [])):
        sizes.clear()
        batches.clear()
        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        assert sim.run_ber(three, workers=10 ** 6).points == serial
        assert (sizes, batches) == (want, batch)
    # 4 chunks at 2 workers: a batch of 4 would send every chunk to one
    four = sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="fast",
                         snr_grid_db=(0.0, 1.0, 2.0, 3.0),
                         codewords_per_point=1, seed=3)
    sizes.clear()
    batches.clear()
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    assert sim.run_ber(four, workers=2).points == sim.run_ber(four).points
    assert (sizes, batches) == ([2], [2])


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _three_chunks(c, decoder="fast"):
    return sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder=decoder,
                         snr_grid_db=(4.0, 8.0, 12.0),
                         codewords_per_point=300, seed=11)


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool before the test or after it; two usable CPUs."""
    def drop():
        if sim._pool is not None:
            sim._pool[1].shutdown(wait=True)
            sim._pool = None

    drop()
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    yield
    drop()


def test_pool_is_reused_across_calls(fresh_pool):
    qam4, psk8 = cs.make_qam(4, UNIT), cs.make_psk(8, UNIT)
    pids = []
    for cfg in (_three_chunks(qam4), _three_chunks(psk8),
                _three_chunks(qam4, "ml")):
        assert sim.run_ber(cfg, workers=2).points == sim.run_ber(cfg).points
        pids.append(_worker_pids())
    assert len(pids[0]) == 2
    assert pids == [pids[0]] * 3


def test_pool_is_replaced_when_the_worker_count_changes(fresh_pool,
                                                        monkeypatch):
    cfg = _three_chunks(cs.make_qam(4, UNIT))
    serial = sim.run_ber(cfg).points
    assert sim.run_ber(cfg, workers=2).points == serial
    old = multiprocessing.active_children()
    assert len(old) == 2
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    assert sim.run_ber(cfg, workers=3).points == serial
    assert not any(p.is_alive() for p in old)
    new = _worker_pids()
    assert len(new) == 3 and not set(new) & {p.pid for p in old}


def test_broken_pool_is_replaced(fresh_pool):
    cfg = _three_chunks(cs.make_psk(8, UNIT))
    serial = sim.run_ber(cfg).points
    assert sim.run_ber(cfg, workers=2).points == serial
    old = _worker_pids()
    os.kill(old[0], signal.SIGKILL)  # an idle worker dies between calls
    assert sim.run_ber(cfg, workers=2).points == serial
    new = _worker_pids()
    assert len(new) == 2 and not set(new) & set(old)


def test_pool_workers_exit_with_the_interpreter():
    code = (
        "import multiprocessing\n"
        "from fdstbc import constellations as cs, simulate as sim\n"
        "from fdstbc.codes import DesignCoefficient\n"
        "sim._usable_cpus = lambda: 2\n"
        "cfg = sim.SimConfig(cs.make_qam(4, 'unit-average-power'),\n"
        "                    DesignCoefficient(u=0.6, v=0.8), 'fast',\n"
        "                    (0.0, 6.0), 100, 1)\n"
        "sim.run_ber(cfg, workers=2)\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sim.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_run_ber_ml_equals_fast():
    c = cs.make_qam(4, UNIT)
    base = dict(constellation=c, r=R_ANALYTIC,
                snr_grid_db=(6.0,), codewords_per_point=500, seed=6)
    rf = sim.run_ber(sim.SimConfig(decoder="fast", **base))
    rm = sim.run_ber(sim.SimConfig(decoder="ml", **base))
    assert rf.points[0].bit_errors == rm.points[0].bit_errors


def test_zero_noise_gives_zero_ber(monkeypatch):
    monkeypatch.setattr(sim, "noise_variance", lambda snr_db: 0.0)
    c = cs.make_qam(16, UNIT)
    cfg = sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="fast",
                        snr_grid_db=(0.0,), codewords_per_point=2000, seed=7)
    res = sim.run_ber(cfg)
    assert res.points[0].bit_errors == 0
    assert res.points[0].ber == 0.0


def test_transmit_power_calibration():
    # with the 1/sqrt(2) transmit scale each antenna radiates average
    # power 1 per channel use for a unit-power constellation
    c = cs.make_qam(4, UNIT)
    rng = np.random.default_rng(8)
    idx = rng.integers(0, 4, size=(100_000, 4))
    x = sim.TX_SCALE * build_codeword(*c.points[idx].T, R_ANALYTIC)
    p = np.mean(np.abs(x) ** 2)
    assert abs(p - 1.0) < 0.02


def test_bit_labels_qam16_gray_per_axis():
    c = cs.make_qam(16, UNIT)
    labels = sim.bit_labels(c)
    pts = c.points
    step = np.min(np.abs(np.diff(np.unique(np.round(pts.real, 9)))))
    for i in range(16):
        for k in range(16):
            d = pts[i] - pts[k]
            if (abs(abs(d.real) - step) < 1e-9 and abs(d.imag) < 1e-9) or \
               (abs(abs(d.imag) - step) < 1e-9 and abs(d.real) < 1e-9):
                assert bin(labels[i] ^ labels[k]).count("1") == 1


def test_bit_labels_psk8_cyclic_gray():
    c = cs.make_psk(8, UNIT)
    labels = sim.bit_labels(c)
    order = np.argsort(np.mod(np.angle(c.points), 2.0 * np.pi))
    ring = labels[order]
    for i in range(8):
        x = ring[i] ^ ring[(i + 1) % 8]
        assert bin(int(x)).count("1") == 1


def test_bit_labels_of_random_points_named_qam16_are_a_permutation():
    # per-axis Gray keyed on the name alone gave 16 random points 15
    # distinct labels, from 7 to 61: the points must fill the lattice
    rng = np.random.default_rng(16)
    pts = rng.normal(size=16) + 1j * rng.normal(size=16)
    c = cs.Constellation(name="qam16", points=pts, normalization="scaled")
    assert sorted(sim.bit_labels(c).tolist()) == list(range(16))


def test_bit_labels_of_a_4x4_lattice_under_another_name_are_qam16s():
    qam16 = cs.make_qam(16, UNIT)
    c = cs.Constellation(name="grid", points=2.0 * qam16.points + (1 + 1j),
                         normalization="scaled")
    assert np.array_equal(sim.bit_labels(c), sim.bit_labels(qam16))


def test_bit_labels_need_power_of_two():
    with pytest.raises(ValueError):
        sim.bit_labels(cs.make_psk(6, UNIT))


def test_sim_config_validation():
    c = cs.make_qam(4, UNIT)
    with pytest.raises(ValueError):
        sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="sphere",
                      snr_grid_db=(0.0,), codewords_per_point=1, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="fast",
                      snr_grid_db=(0.0,), codewords_per_point=0, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(constellation=c, r=R_ANALYTIC, decoder="fast",
                      snr_grid_db=(3.0, 3.0), codewords_per_point=1, seed=0)


@pytest.mark.parametrize("grid,match", [
    ((), "empty"),
    ((math.nan,), "finite"),
    ((0.0, math.nan), "finite"),
    ((0.0, math.inf), "finite"),
    ((-math.inf, 0.0), "finite"),
])
def test_sim_config_rejects_empty_or_non_finite_snr_grid(grid, match):
    # qam4 at 8 codewords once "measured" 36 of 64 bit errors from NaN
    # receptions, and an empty grid returned no points
    with pytest.raises(ValueError, match=match):
        sim.SimConfig(constellation=cs.make_qam(4, UNIT), r=R_ANALYTIC,
                      decoder="fast", snr_grid_db=grid,
                      codewords_per_point=8, seed=0)


def test_diversity_slope_synthetic():
    pts = []
    bits = 10 ** 12
    for snr in (10.0, 13.0, 16.0, 19.0):
        ber = 0.1 * 10.0 ** (-4.0 * snr / 10.0)
        pts.append(sim.SimPoint(snr_db=snr, codewords=1, bits=bits,
                                bit_errors=round(ber * bits)))
    res = sim.SimResult(points=tuple(pts))
    assert abs(sim.diversity_slope(res, (10.0, 19.0)) - 4.0) < 1e-3


def test_diversity_slope_needs_errors():
    pts = (sim.SimPoint(snr_db=10.0, codewords=1, bits=100, bit_errors=0),
           sim.SimPoint(snr_db=13.0, codewords=1, bits=100, bit_errors=0))
    res = sim.SimResult(points=pts)
    with pytest.raises(ValueError):
        sim.diversity_slope(res, (10.0, 13.0))


def test_optimized_r_no_worse_than_random_paired():
    c = cs.make_qam(4, UNIT)
    r_opt = opt.optimize(c).r

    def bit_errors(r):
        cfg = sim.SimConfig(constellation=c, r=r, decoder="fast",
                            snr_grid_db=(12.0,), codewords_per_point=20_000,
                            seed=11)
        return sim.run_ber(cfg).points[0].bit_errors

    e_opt = bit_errors(r_opt)
    rng = np.random.default_rng(42)
    wins = 0
    for _ in range(10):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rr = DesignCoefficient(u=float(np.cos(ang)), v=float(np.sin(ang)))
        wins += e_opt <= bit_errors(rr)
    assert wins >= 8
