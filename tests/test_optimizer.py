import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from fdstbc import constellations as cs
from fdstbc import gain
from fdstbc import optimizer as opt

import oracles

UNIT = cs.NORM_UNIT_POWER
MIND = cs.NORM_MIN_DIST

SQRT2 = math.sqrt(2.0)
T8 = (11.0 + 6.0 * math.sqrt(2.0)) / 49.0
U8 = (11.0 + 6.0 * math.sqrt(2.0)
      + math.sqrt(4609.0 - 132.0 * math.sqrt(2.0))) / 98.0


def test_analytic_candidates():
    cands = opt.analytic_integer_optimum()
    assert len(cands) == 4
    s7 = math.sqrt(7.0)
    assert math.isclose(cands[0].u, (1 + s7) / 4, rel_tol=1e-15)
    assert math.isclose(cands[0].v, (-1 + s7) / 4, rel_tol=1e-15)
    for r in cands:
        assert abs(r.u ** 2 + r.v ** 2 - 1.0) < 1e-12
        assert r.t_exact in (Fraction(1, 2), Fraction(-1, 2))
        assert r.u - r.v == float(r.t_exact)
        assert r.provenance == "analytic"


def test_analytic_candidates_share_the_gain():
    c = cs.make_qam(4, MIND)
    gains = [gain.coding_gain(c, r).gain
             for r in opt.analytic_integer_optimum()]
    assert all(abs(g - 0.5) < 1e-12 for g in gains)


def as_dict(tab):
    """{A: attainable dt values} of a case-I table."""
    key = int if tab.scale_sq is not None else float
    out = {}
    for a, e in zip(tab.a.tolist(), tab.e.tolist()):
        out.setdefault(key(a), []).append(e)
    return {a: np.array(e) for a, e in out.items()}


def brute_force_case1_rows(c):
    """(A, dt) of every nonzero tuple in D^4 with A = B, by enumeration."""
    d = cs.difference_set(c)
    x2, x3, x4 = (m.ravel() for m in np.meshgrid(d, d, d, indexing="ij"))
    rows_a, rows_e = [], []
    for x1 in d:
        A = abs(x1) ** 2 + np.abs(x2) ** 2
        B = np.abs(x3) ** 2 + np.abs(x4) ** 2
        C = x1 * np.conj(x3) + x2 * np.conj(x4)
        hit = (np.abs(A - B) <= 1e-9) & (A > 1e-9)  # A = B = 0: zero tuple
        rows_a.append(A[hit])
        rows_e.append((C.imag - C.real)[hit])
    return np.concatenate(rows_a), np.concatenate(rows_e)


def test_case1_table_qam4_integer_grid():
    c = cs.constellation_by_id("qam4", cs.NORM_INTEGER)
    tab = opt.build_case1_table(c)
    assert tab.scale_sq is not None
    d = as_dict(tab)
    assert sorted(d) == [1, 2, 3, 4]
    assert sorted(d[1].tolist()) == [-1, 0, 1]
    # every attainable value at row A = 2^k * m (m odd) divides by 2^k
    for a_val, evals in d.items():
        k = (a_val & -a_val).bit_length() - 1
        assert all(int(e) % (1 << k) == 0 for e in evals.tolist())
    # rows are symmetric under negation
    for evals in d.values():
        assert sorted(evals.tolist()) == sorted((-evals).tolist())


@pytest.mark.parametrize("ident, norm", [("qam4", cs.NORM_INTEGER),
                                         ("psk8", UNIT)],
                         ids=["qam4", "psk8"])
def test_case1_table_equals_brute_force_enumeration(ident, norm):
    c = cs.constellation_by_id(ident, norm)
    tab = opt.build_case1_table(c)
    assert (tab.scale_sq is not None) == (ident == "qam4")
    a, e = brute_force_case1_rows(c)
    if tab.scale_sq is not None:
        # rows are exact integers in grid units: constellation units / scale^2
        a, e = a / float(tab.scale_sq), e / float(tab.scale_sq)
        ai, ei = np.round(a).astype(np.int64), np.round(e).astype(np.int64)
        assert np.allclose(a, ai, rtol=0, atol=1e-9)
        assert np.allclose(e, ei, rtol=0, atol=1e-9)
        want = set(zip(ai.tolist(), ei.tolist()))
        assert set(zip(tab.a.tolist(), tab.e.tolist())) == want
        assert tab.n_rows == len(want)
    else:
        assert tab.scale_sq is None
        key = lambda x: np.round(x / 1e-9).astype(np.int64)
        want = np.unique(np.stack([key(a), key(e)], axis=1), axis=0)
        # distinct rows, sorted by (A, dt), one per brute-force pair
        got = np.stack([key(tab.a), key(tab.e)], axis=1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block_pairs", (2 ** 10, 2 ** 14, 2 ** 18))
def test_psk22_case1_products_match_the_stable_sort_oracle(monkeypatch,
                                                           block_pairs):
    # the real stream: products of opposite a - b key groups, group
    # pairs by ascending key >= 0, each row-major
    c = cs.constellation_by_id("psk22", UNIT)
    a, b, g = gain._projected_triples(cs.difference_set(c))[:3]
    keys = cs._tol_keys(a - b)
    groups = {k: np.flatnonzero(keys == k) for k in set(keys.tolist())}
    ij = [(rows.repeat(groups[-k].size), np.tile(groups[-k], rows.size))
          for k, rows in sorted(groups.items()) if k >= 0 and -k in groups]
    i, j = (np.concatenate(x) for x in zip(*ij))
    stream = (a[i] + a[j], g[i] + g[j])
    seen = []

    def spy(blocks, n_keys):
        blocks = list(blocks)
        seen.append((blocks, cs._first_of_runs(iter(blocks), n_keys)))
        return seen[-1][1]

    monkeypatch.setattr(gain, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(opt, "_first_of_runs", spy)
    opt.build_case1_table(c)
    (blocks, got), = seen
    assert max(x[0].size for x in blocks) <= block_pairs
    for w, x in zip(stream, zip(*blocks), strict=True):
        assert np.array_equal(w, np.concatenate(x))
    for w, x in zip(oracles.first_of_runs_oracle(stream, 2), got,
                    strict=True):
        assert np.array_equal(w, x)


@functools.cache
def case1_rows(ident):
    tab = opt.build_case1_table(cs.constellation_by_id(ident, UNIT))
    return tab.a, tab.e


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ident=st.sampled_from(["psk8", "apsk16", "psk22"]),
       ts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=16))
def test_f_at_equals_the_brute_force_minimum(ident, ts):
    a, e = case1_rows(ident)
    want = np.array([np.abs(a * t - e).min() for t in ts])
    got = opt._f_at(a, e, np.array(ts))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bits


@pytest.mark.parametrize("norm", (MIND, UNIT))
@pytest.mark.parametrize("ident", ("qam4", "qam16", "psk4", "apsk8-grid",
                                   "apsk16-grid"))
def test_step1_float_search_finds_the_grid_closed_form(ident, norm):
    # optimize takes the closed form on integer grids; the search, run
    # anyway, must land on the same t = 1/2 and the sweep's A = B gain
    c = cs.constellation_by_id(ident, norm)
    res = opt.optimize_step1(c)
    assert res.t == 0.5
    assert res.breakpoints_examined > 0
    assert math.isclose(res.case1_gain, opt.optimize(c).report.case1_min,
                        rel_tol=1e-12)
    if norm == MIND:
        assert math.isclose(res.case1_gain, 0.5, rel_tol=1e-12)


def test_step1_is_maximin_certificate():
    c = cs.make_psk(8, UNIT)
    res = opt.optimize_step1(c)
    tab = opt.build_case1_table(c)
    a, e = tab.a, tab.e

    def f(t):
        return np.abs(a * t - e).min()

    f_star = f(res.t)
    rng = np.random.default_rng(77)
    for t in rng.uniform(-SQRT2, SQRT2, size=1000):
        assert f(t) <= f_star + 1e-12



@st.composite
def non_grid_points(draw):
    """4-10 random points, or a random-phase subset of a PSK."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m = draw(st.integers(4, 10))
        pts = rng.normal(size=m) + 1j * rng.normal(size=m)
        return pts / math.sqrt(np.mean(np.abs(pts) ** 2))
    m = draw(st.integers(5, 24))
    k = draw(st.integers(4, min(m, 10)))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    idx = rng.choice(m, size=k, replace=False)
    return np.exp(1j * (phase + 2.0 * math.pi * idx / m))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pts=non_grid_points())
def test_step1_is_maximin_on_random_constellations(pts):
    c = cs.Constellation(name="random", points=pts, normalization=UNIT)
    scored = []
    real_f_at = opt._f_at

    def spy(a, e, ts):
        scored.append((np.asarray(ts), real_f_at(a, e, ts)))
        return scored[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_f_at", spy)
        res = opt.optimize_step1(c)
    ts, fs = scored[-1]  # the last call scores the candidates
    tab = opt.build_case1_table(c)
    f_star = opt._f_at(tab.a, tab.e, [res.t])[0]
    assert res.case1_gain == 2.0 * f_star * f_star

    rng = np.random.default_rng(5)
    probe = opt._f_at(tab.a, tab.e, rng.uniform(-SQRT2, SQRT2, 2000))
    assert f_star >= probe.max() - opt._TIE_TOL

    # t* is a candidate with the best score, and wins the tie rule:
    # smallest |t| first, then positive
    assert res.t in ts.tolist()
    assert f_star == fs[ts == res.t][0]
    assert f_star >= fs.max() - opt._TIE_TOL
    near = ts[fs >= fs.max() - opt._TIE_TOL].tolist()
    key = lambda t: (round(abs(t), 12), -t)
    assert key(res.t) == min(map(key, near))


PRESETS = ("qam4", "qam16", "qam64", "psk3", "psk8", "psk16", "apsk8",
           "apsk16", "apsk8-grid", "apsk16-grid")


def assert_rows_within_the_sqrt2_cone(c, slack=0.0):
    # |dt| = |Im C - Re C| <= sqrt(2)|C| <= sqrt(2)(A + B)/2 = sqrt(2) A
    # on every A = B row, so each row's V reaches 0 on [-sqrt 2, sqrt 2]
    # and no ceiling min(A sqrt 2 + |dt|) can rule a row out
    tab = opt.build_case1_table(c)
    a, e = tab.a.astype(float), tab.e.astype(float)
    assert tab.n_rows and (a > 0).all()
    assert (np.abs(e) <= SQRT2 * (a + slack) * (1 + 1e-12)).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 8),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(seed=1467, m=8, scale=1e-3)
@example(seed=2796, m=8, scale=1e-3)
@example(seed=2940, m=8, scale=1e-3)
@example(seed=3460, m=8, scale=1e-3)
@example(seed=5762, m=8, scale=1e-3)
def test_case1_rows_lie_within_sqrt2_a_on_random_constellations(seed, m,
                                                                 scale):
    # The table pairs triples whose a - b keys are opposite on the 1e-9
    # grid, so A - B of a row's pair is at most one key width tol, and
    # |e| <= sqrt(2)(A + B)/2 <= sqrt(2)(A + tol/2).  Each row then takes
    # the first A of its key, at most tol from its own A, so only
    # |e| <= sqrt(2)(a + 1.5 tol) holds: at scale 1e-3 the seeds above
    # put |e| past sqrt(2) a by up to 3.4e-10.  Rows of the presets keep
    # the strict bound.
    rng = np.random.default_rng(seed)
    pts = scale * (rng.normal(size=m) + 1j * rng.normal(size=m))
    c = cs.Constellation(name="random", points=pts, normalization="scaled")
    d = cs.difference_set(c)
    # a nonzero difference whose |x|^2 keys to 0 on the 1e-9 grid shares
    # the zero triple's key; one of x, -x sorts before 0, so its triple
    # leads the run and the triple expansion refuses the set
    slack = 1.5 * cs.DEDUP_TOL
    if (np.round(np.abs(d[d != 0]) ** 2 / cs.DEDUP_TOL) == 0).any():
        with pytest.raises(ValueError, match="keys to 0 on the 1e-9"):
            assert_rows_within_the_sqrt2_cone(c, slack)
    else:
        assert_rows_within_the_sqrt2_cone(c, slack)


@pytest.mark.parametrize("norm", (UNIT, MIND))
@pytest.mark.parametrize("ident", PRESETS)
def test_case1_rows_lie_within_sqrt2_a_on_presets(ident, norm):
    assert_rows_within_the_sqrt2_cone(cs.constellation_by_id(ident, norm))


def test_step1_psk8_closed_form():
    res = opt.optimize_step1(cs.make_psk(8, UNIT))
    assert abs(res.t - T8) < 1e-12
    r = res.r_candidates[0]
    assert abs(r.u - U8) < 1e-12
    assert abs(r.v - (U8 - T8)) < 1e-12
    # both candidates satisfy (u + v)^2 = 2 - t^2 and u - v = t
    for cand in res.r_candidates:
        assert abs((cand.u + cand.v) ** 2 - (2.0 - res.t ** 2)) < 1e-12
        assert abs((cand.u - cand.v) - res.t) < 1e-12


def test_step2_certifies_case2_dominance():
    c = cs.make_psk(8, UNIT)
    res = opt.verify_step2(c, opt.optimize_step1(c))
    assert res.case2_dominates
    assert res.report.case2_min > res.case1_gain
    assert math.isclose(res.report.gain, res.case1_gain,
                        rel_tol=1e-12)


def test_optimize_dispatch():
    r, rep, _ = opt.optimize(cs.make_qam(16, UNIT))
    assert r.provenance == "analytic"
    assert rep.gain_exact == Fraction(2, 25)
    r, rep, _ = opt.optimize(cs.make_psk(8, UNIT))
    assert r.provenance == "maximin"
    assert abs(rep.gain - (22572.0 - 15912.0 * SQRT2) / 2401.0) < 1e-12


def test_optimize_grid_apsk():
    for c, size, expected in (
        (cs.constellation_by_id("apsk16-grid", UNIT), 16, Fraction(1, 32)),
        # every Gaussian integer with |z|^2 <= 10 but 9: 32 points
        (cs.make_apsk_grid((1, 2, 4, 5, 8, 10), MIND), 32, Fraction(1, 2)),
    ):
        assert len(c) == size
        assert opt.optimize(c).report.gain_exact == expected


def test_step1_rejects_empty_case1():
    # a 2-point constellation whose only case-I rows come from the
    # all-zero tuple cannot happen: two distinct points always give a
    # (d, 0, 0, d) tuple; instead check step1 works on the smallest set
    res = opt.optimize_step1(cs.make_psk(2, MIND))
    assert res.case1_gain > 0


@pytest.mark.xfail(strict=True, reason="verify_step2's abs_tol=1e-12 "
                   "hides a 3.2e-7 relative gap from the expanded sweep's "
                   "cancellation; the completed-square sweep closes it")
def test_step2_agrees_with_step1_to_1e9_relative_on_psk29():
    c = cs.constellation_by_id("psk29", UNIT)
    res = opt.optimize_step1(c)
    rep = gain.coding_gain(c, res.r_candidates[0], triples=res.triples)
    assert math.isclose(rep.case1_min, res.case1_gain, rel_tol=1e-9)


def test_optimize_expands_the_triples_once(monkeypatch):
    # step 1's table and step 2's float sweep share one expansion
    calls = []
    inner = gain._projected_triples

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return inner(*args, **kwargs)
    monkeypatch.setattr(gain, "_projected_triples", counted)
    monkeypatch.setattr(opt, "_projected_triples", counted)
    best = opt.optimize(cs.constellation_by_id("psk22", UNIT))
    assert calls == [(None,)]
    assert best.report.method == "aggregated"
    assert best.report.case1_min == pytest.approx(best.case1_gain,
                                                  rel=1e-9)
