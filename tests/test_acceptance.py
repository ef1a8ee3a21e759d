"""End-to-end acceptance gate.

Each test checks one numbered claim at its stated tolerance and prints
a single ACCEPTANCE <n> PASS line (visible with pytest -s); a failed
assert is the corresponding FAIL.  Budgets are asserted where a claim
carries one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fdstbc import constellations as cs
from fdstbc import number_theory as nt
from fdstbc import optimizer as opt
from fdstbc import simulate as sim
from fdstbc.cli import main
from fdstbc.codes import DesignCoefficient, build_codeword
from fdstbc.gain import coding_gain, coding_gain_scaled, golden_coding_gain
from fdstbc.optimizer import vanishing_probe

import oracles

UNIT = cs.NORM_UNIT_POWER
MIND = cs.NORM_MIN_DIST

R_ANALYTIC = opt.analytic_integer_optimum()[0]

# unit-power 8-PSK optimum in closed form
T_PSK8 = (11.0 + 6.0 * math.sqrt(2.0)) / 49.0
U_PSK8 = (T_PSK8 + math.sqrt(2.0 - T_PSK8 ** 2)) / 2.0
V_PSK8 = U_PSK8 - T_PSK8
GAIN_PSK8 = (22572.0 - 15912.0 * math.sqrt(2.0)) / 2401.0


def _announce(n, msg, t0):
    print(f"ACCEPTANCE {n} PASS {msg} ({time.perf_counter() - t0:.2f}s)")


def test_01_integer_grid_gain_is_half():
    t0 = time.perf_counter()
    for ident in ("qam4", "qam16", "qam64", "apsk8-grid", "apsk16-grid"):
        t1 = time.perf_counter()
        c = cs.constellation_by_id(ident, MIND)
        rep = coding_gain(c, R_ANALYTIC, method="aggregated")
        assert rep.gain_exact == Fraction(1, 2), ident
        assert abs(rep.gain - 0.5) <= 1e-12, ident
        assert time.perf_counter() - t1 <= 10.0, ident
    _announce(1, "min-dist-1 integer-grid presets all have gain 1/2", t0)


def test_02_proposed_code_gain_table():
    t0 = time.perf_counter()
    for ident, want in (("qam4", 2.0), ("qam16", 0.08)):
        rep = opt.optimize(cs.constellation_by_id(ident, UNIT)).report
        assert abs(rep.gain - want) <= 1e-9, ident
    r8 = DesignCoefficient(u=U_PSK8, v=V_PSK8)
    rep8 = coding_gain(cs.make_psk(8, UNIT), r8)
    assert abs(rep8.gain - GAIN_PSK8) <= 1e-9
    assert f"{rep8.gain:.3g}" == "0.0288"
    _announce(2, "proposed-code gains 2 / 0.08 / 0.0288", t0)


def test_03_golden_code_gain_table():
    t0 = time.perf_counter()
    assert abs(golden_coding_gain(cs.make_qam(4, UNIT)) - 3.2) <= 1e-6
    assert abs(golden_coding_gain(cs.make_qam(16, UNIT)) - 0.128) <= 1e-6
    _announce(3, "Golden-code gains 3.2 / 0.128", t0)


def test_04_psk8_optimizer_recovers_closed_form():
    t0 = time.perf_counter()
    c = cs.make_psk(8, UNIT)
    res = opt.verify_step2(c, opt.optimize_step1(c))
    r = res.r
    assert abs(r.u - U_PSK8) <= 1e-9
    assert abs(r.v - V_PSK8) <= 1e-9
    assert res.case2_dominates
    assert time.perf_counter() - t0 <= 60.0
    _announce(4, "8-PSK optimizer hits the closed-form coefficient", t0)


def test_05_apsk_gain_table():
    t0 = time.perf_counter()
    mind_expect = {"apsk8": 0.9194, "apsk8-grid": 0.8165,
                   "apsk16": 0.5848, "apsk16-grid": 0.5}
    for ident, want in mind_expect.items():
        c = cs.constellation_by_id(ident, UNIT)
        assert abs(cs.min_distance(c) - want) <= 1e-3, ident

    rep8g = coding_gain(cs.constellation_by_id("apsk8-grid", UNIT),
                        R_ANALYTIC)
    assert abs(rep8g.gain - 0.2222) <= 1e-3
    rep16g = coding_gain(cs.constellation_by_id("apsk16-grid", UNIT),
                         R_ANALYTIC, method="aggregated")
    assert abs(rep16g.gain - 0.03125) <= 1e-9

    c8 = cs.constellation_by_id("apsk8", UNIT)
    res8 = opt.verify_step2(c8, opt.optimize_step1(c8))
    r8 = res8.r
    assert abs(r8.u - 0.9454) <= 1e-3
    assert abs(r8.v - 0.3258) <= 1e-3
    assert abs(res8.report.gain - 0.0230) <= 1e-3

    c16 = cs.constellation_by_id("apsk16", UNIT)
    res16 = opt.verify_step2(c16, opt.optimize_step1(c16))
    r16 = res16.r
    assert abs(r16.u - 0.8294) <= 1e-3
    assert abs(r16.v - 0.5587) <= 1e-3
    assert abs(res16.report.gain - 0.0004) / 0.0004 <= 0.25
    assert time.perf_counter() - t0 <= 300.0
    _announce(5, "APSK gain table (grid and conventional)", t0)


def test_06_case2_floor_on_qam_grids():
    t0 = time.perf_counter()
    for ident in ("qam4", "qam16"):
        c = cs.constellation_by_id(ident, MIND)
        # the exhaustive scan re-checks bound <= |det|^2 on every
        # case-II tuple internally and trips a RuntimeError otherwise
        rep = coding_gain(c, R_ANALYTIC, method="exhaustive")
        assert rep.case2_min >= 7.0 / 8.0 - 1e-9, ident
        assert rep.case2_bound_min >= 7.0 / 8.0 - 1e-9, ident
        assert rep.case2_bound_min <= rep.case2_min + 1e-9, ident
    _announce(6, "case-II floor >= 7/8 on min-dist-1 QAM", t0)


def test_07_integer_identity_sweeps():
    t0 = time.perf_counter()
    results = nt.run_sweeps("full")
    for r in results:
        assert r.ok, r.label
    by_label = {r.label: r for r in results}
    assert by_label["product identity (random)"].checked == 10_000
    assert by_label["cross-term divisibility (random)"].checked == 100_000
    assert time.perf_counter() - t0 <= 60.0
    _announce(7, "integer-identity sweeps, zero failures", t0)


def test_08_decoder_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    for ident in ("qam4", "psk8"):
        c = cs.constellation_by_id(ident, UNIT)
        n = 1000
        idx = rng.integers(0, len(c), size=(n, 4))
        x = build_codeword(*c.points[idx].T, R_ANALYTIC)
        h = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        h *= math.sqrt(0.5)
        y = sim.transmit(x, h, sim.noise_variance(9.0), rng)
        fast = sim._fast_decode_batch(y, h, R_ANALYTIC.r, c.points)
        ml = sim._ml_decode_batch(y, h, R_ANALYTIC.r, c.points)
        assert np.array_equal(fast, ml), ident

    hs = (rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2)))
    g1, g2 = oracles.equivalent_columns(hs, R_ANALYTIC.r)
    dots = np.abs((np.conj(g1) * g2).sum(axis=1))
    assert dots.max() <= 1e-12
    assert time.perf_counter() - t0 <= 120.0
    _announce(8, "fast decoder == exhaustive ML, columns orthogonal", t0)


def test_09_gain_decay_probe():
    t0 = time.perf_counter()
    psk = dict(vanishing_probe("psk"))
    assert psk[8] < psk[4]
    qam = dict(vanishing_probe("qam"))
    assert set(qam) == {4, 16, 64}
    for m, g in qam.items():
        assert abs(g - 0.5) <= 1e-12, m
    _announce(9, "PSK gain decays, QAM gain pinned at 1/2", t0)


def _ber_curve(r, grid=None, codewords=1_000_000, seed=1):
    c = cs.make_qam(4, UNIT)
    grid = grid or tuple(float(s) for s in range(0, 22, 3))
    cfg = sim.SimConfig(constellation=c, r=r, decoder="fast",
                        snr_grid_db=grid, codewords_per_point=codewords,
                        seed=seed)
    # run_ber is bit-exact across worker counts: one per usable CPU
    return sim.run_ber(cfg, workers=sim._usable_cpus())


def _top_error_window(res, min_errors=100, span=9.0):
    snrs = [p.snr_db for p in res.points]
    for hi in sorted(snrs, reverse=True):
        pts = [p for p in res.points if hi - span <= p.snr_db <= hi]
        if len(pts) >= 2 and all(p.bit_errors >= min_errors for p in pts):
            return (hi - span, hi)
    raise AssertionError("no SNR window with enough errors")


def test_10_ber_slope_and_monotonicity():
    t0 = time.perf_counter()
    c = cs.make_qam(4, UNIT)
    r_opt = opt.optimize(c).r
    r_deg = DesignCoefficient(u=math.sqrt(0.5), v=math.sqrt(0.5))
    assert coding_gain(c, r_deg).gain <= 1e-12

    res_opt = _ber_curve(r_opt)
    res_deg = _ber_curve(r_deg)

    # monotone up to one inversion, and that inversion within 2 sigma
    inversions = 0
    for p, q in zip(res_opt.points, res_opt.points[1:]):
        if q.ber > p.ber:
            inversions += 1
            var = (p.ber * (1 - p.ber) + q.ber * (1 - q.ber)) / p.bits
            assert q.ber - p.ber <= 2.0 * math.sqrt(var)
    assert inversions <= 1

    # the fitted slope keeps rising toward its limit as SNR grows, so
    # measure it on a dedicated high-SNR run, sampled heavily enough
    # that the top decade keeps >= 100 errors per point
    res_top = _ber_curve(r_opt, grid=(18.0, 21.0, 24.0),
                         codewords=8_000_000)
    slope_opt = sim.diversity_slope(res_top, _top_error_window(res_top))
    slope_deg = sim.diversity_slope(res_deg, _top_error_window(res_deg))
    assert slope_opt >= 3.0
    assert slope_deg <= slope_opt - 0.5
    assert time.perf_counter() - t0 <= 900.0
    _announce(10, f"BER slope {slope_opt:.2f} (optimized) vs "
                  f"{slope_deg:.2f} (degenerate r)", t0)


def test_11_scaling_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for ident in ("qam4", "apsk8-grid"):
        c = cs.constellation_by_id(ident, UNIT)
        base = coding_gain(c, R_ANALYTIC).gain
        for alpha in rng.uniform(0.3, 3.0, size=10):
            scaled = coding_gain_scaled(c, R_ANALYTIC, float(alpha)).gain
            assert abs(scaled - alpha ** 4 * base) <= 1e-9 * alpha ** 4 * base
    _announce(11, "gain scales as alpha^4", t0)


def test_12_csv_determinism(capsys, tmp_path):
    t0 = time.perf_counter()

    def grab(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    assert grab("table1") == grab("table1")
    assert grab("table2") == grab("table2")
    sim_argv = ("simulate", "--constellation", "qam4", "--snr", "0:6:12",
                "--codewords", "2000", "--seed", "7")
    base = grab(*sim_argv)
    assert grab(*sim_argv) == base
    assert grab(*sim_argv, "--workers", "2") == base
    assert grab(*sim_argv, "--workers", "3") == base
    comments, header, rows = oracles.parse_csv(base)
    assert len(rows) == 3
    _announce(12, "table and simulate CSV bytes are reproducible", t0)


@pytest.mark.parametrize("ident, norm", [("psk17", UNIT), ("psk19", UNIT),
                                         ("psk19", MIND), ("psk21", UNIT),
                                         ("psk21", MIND)])
def test_13_optimize_answers_larger_odd_psk(capsys, monkeypatch, ident, norm):
    t0 = time.perf_counter()
    steps = []
    real = opt.optimize_step1

    def keep(c):
        steps.append((c, real(c)))
        return steps[-1][1]

    monkeypatch.setattr(opt, "optimize_step1", keep)
    assert main(["optimize", "--constellation", ident, "--norm", norm]) == 0
    report = dict(line.split(" = ", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert report["case2_dominates"] == "True"
    assert float(report["gain"]) > 0.0

    # maximin: no random t beats step 1's t on the A = B rows
    (c, res), = steps
    tab = opt.build_case1_table(c)
    f_star = opt._f_at(tab.a, tab.e, [res.t])[0]
    ts = np.random.default_rng(130).uniform(-math.sqrt(2.0), math.sqrt(2.0),
                                            2000)
    assert f_star >= opt._f_at(tab.a, tab.e, ts).max() - opt._TIE_TOL
    assert time.perf_counter() - t0 <= 2.0  # five rows, under 10 s
    _announce(13, f"optimize answers {ident} at {norm}", t0)
