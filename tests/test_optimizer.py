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
    # pairs by ascending key >= 0, each row-major, and group 0 with
    # itself as i <= j only
    c = cs.constellation_by_id("psk22", UNIT)
    a, b, g = gain._projected_triples(cs.difference_set(c))[:3]
    keys = cs._tol_keys(a - b)
    groups = {k: np.flatnonzero(keys == k) for k in set(keys.tolist())}
    pairs = sorted((k, rows, groups[-k]) for k, rows in groups.items()
                   if k >= 0 and -k in groups)
    ordered = [(rows.repeat(cols.size), np.tile(cols, rows.size))
               for _, rows, cols in pairs]
    ij = [(i[i <= j], j[i <= j]) if k == 0 else (i, j)
          for (k, _, _), (i, j) in zip(pairs, ordered)]
    i, j = (np.concatenate(x) for x in zip(*ij))
    stream = (a[i] + a[j], g[i] + g[j])
    i, j = (np.concatenate(x) for x in zip(*ordered))
    full = (a[i] + a[j], g[i] + g[j])
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
    # the halved stream keeps every row of every ordered pair's stream
    for part in (stream, full):
        for w, x in zip(oracles.first_of_runs_oracle(part, 2), got,
                        strict=True):
            assert np.array_equal(w, x)


# float.hex of optimize_step1's (t, case1_gain), recorded before group 0
# was halved and the starting grid refined: both leave every answer as
# it was, bit for bit
STEP1_PINNED = [
    ("psk3", UNIT, "0x1.2ed9eba16132bp-1", "0x1.34ad6ea72a6f0p-1"),
    ("psk3", MIND, "0x1.2ed9eba16132bp-1", "0x1.126145e9ecd5bp-4"),
    ("psk4", UNIT, "0x1.0000000000000p-1", "0x1.0000000000000p+1"),
    ("psk4", MIND, "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ("psk5", UNIT, "0x1.bebd6e882f8e0p-1", "0x1.8879114246a38p-6"),
    ("psk5", MIND, "0x1.bebd6e882f8dfp-1", "0x1.9b00c31e4f25ap-7"),
    ("psk6", UNIT, "0x1.f3bf26b9621e8p-4", "0x1.e7c95fd8c1680p-6"),
    ("psk6", MIND, "0x1.f3bf26b9621ebp-4", "0x1.e7c95fd8c169fp-6"),
    ("psk7", UNIT, "0x1.48f7005516ec5p+0", "0x1.3e84d106dc848p-10"),
    ("psk7", MIND, "0x1.48f7005516ec5p+0", "0x1.18dc7208f9c15p-9"),
    ("psk8", UNIT, "0x1.9733de90f4c4ep-2", "0x1.d7130dd3b41f4p-6"),
    ("psk8", MIND, "0x1.9733de90f4c51p-2", "0x1.5733ef7c33b9fp-4"),
    ("psk9", UNIT, "0x1.555001a51b734p-1", "0x1.3c8c1b9a79f33p-13"),
    ("psk9", MIND, "0x1.555001a51b733p-1", "0x1.6973fb31cde0bp-11"),
    ("psk10", UNIT, "0x1.2cbbb7628fee5p+0", "0x1.569d230a0d86cp-11"),
    ("psk10", MIND, "0x1.2cbbb7628fee5p+0", "0x1.2589ebc28190dp-8"),
    ("psk11", UNIT, "0x1.0e74ba7675dd8p+0", "0x1.c4e20f374eb69p-15"),
    ("psk11", MIND, "0x1.0e74ba7675dd8p+0", "0x1.18ccf0a6977b6p-11"),
    ("psk12", UNIT, "0x1.7b0510af293fap-1", "0x1.edad24af72713p-10"),
    ("psk12", MIND, "0x1.7b0510af293fap-1", "0x1.adc063f963fa8p-6"),
    ("psk13", UNIT, "0x1.ce1b181325cdep-2", "0x1.ab6a31e02fe17p-17"),
    ("psk13", MIND, "0x1.ce1b181325ce0p-2", "0x1.fd0232e29f808p-13"),
    ("psk14", UNIT, "0x1.3ba7948c7cc7ap+0", "0x1.ff1b465fc7371p-15"),
    ("psk14", MIND, "0x1.3ba7948c7cc7ap+0", "0x1.972740232a3d1p-10"),
    ("psk15", UNIT, "0x1.5956bd1ee18ebp+0", "0x1.dabf9ee9d24a6p-19"),
    ("psk15", MIND, "0x1.5956bd1ee18eap+0", "0x1.f0396ada81305p-14"),
    ("psk16", UNIT, "0x1.657766e303942p-2", "0x1.8d40cb9280978p-13"),
    ("psk16", MIND, "0x1.657766e303942p-2", "0x1.0bcefd5352d09p-7"),
    ("psk17", UNIT, "0x1.0f11cb8f45b8fp+0", "0x1.5c2da7acf4cb8p-20"),
    ("psk17", MIND, "0x1.0f11cb8f45b8ep+0", "0x1.2a42e703682acp-14"),
    ("psk18", UNIT, "0x1.4d8d38aac2121p-1", "0x1.81b6b765991e0p-18"),
    ("psk18", MIND, "0x1.4d8d38aac2121p-1", "0x1.9e454d3c4a7dfp-12"),
    ("psk19", UNIT, "0x1.3cef99492e90ep+0", "0x1.1dd312b377cfbp-21"),
    ("psk19", MIND, "0x1.3cef99492e90cp+0", "0x1.7c4f41163e517p-15"),
    ("psk20", UNIT, "0x1.2c927aed3cc78p+0", "0x1.3fe5ad662c1b9p-15"),
    ("psk20", MIND, "0x1.2c927aed3cc77p+0", "0x1.04d36d368c9a1p-8"),
    ("psk21", UNIT, "0x1.543ec2f1d93fbp-1", "0x1.d62eecf562093p-23"),
    ("psk21", MIND, "0x1.543ec2f1d93fdp-1", "0x1.d14396d499626p-16"),
    ("psk22", UNIT, "0x1.68fb4d56e960cp-1", "0x1.6b337f0ab6763p-19"),
    ("psk22", MIND, "0x1.68fb4d56e960bp-1", "0x1.b054c6d21d58fp-12"),
    ("psk23", UNIT, "0x1.4f0b5d38a249ep+0", "0x1.2a7c0f1ef7bddp-23"),
    ("psk23", MIND, "0x1.4f0b5d38a249ep+0", "0x1.a7f1c96d9eba8p-16"),
    ("psk24", UNIT, "0x1.1c7807a241016p-1", "0x1.0f9d81d057108p-17"),
    ("psk24", MIND, "0x1.1c7807a241015p-1", "0x1.c8e9bc418dff7p-10"),
    ("psk25", UNIT, "0x1.0b7c449ae13c3p+0", "0x1.25a6562fb686fp-24"),
    ("psk25", MIND, "0x1.0b7c449ae13c2p+0", "0x1.228a080055251p-16"),
    ("psk26", UNIT, "0x1.6075dc939801bp+0", "0x1.bb1089c2af76dp-22"),
    ("psk26", MIND, "0x1.6075dc939801bp+0", "0x1.00366234166a5p-13"),
    ("psk27", UNIT, "0x1.55b975dc81850p+0", "0x1.b70aeb4d2d65ep-26"),
    ("psk27", MIND, "0x1.55b975dc81850p+0", "0x1.270c811b481f0p-17"),
    ("psk28", UNIT, "0x1.487b9f77bf492p+0", "0x1.f1e303900d46dp-19"),
    ("psk28", MIND, "0x1.487b9f77bf493p+0", "0x1.82bd90567c910p-10"),
    ("psk29", UNIT, "0x1.3f2c933debb32p+0", "0x1.29f29635f2754p-26"),
    ("psk29", MIND, "0x1.3f2c933debb32p+0", "0x1.0a28c52608734p-17"),
    ("psk30", UNIT, "0x1.60c150f4fd2bdp+0", "0x1.23a0b4582e96cp-23"),
    ("psk30", MIND, "0x1.60c150f4fd2bep+0", "0x1.2a31f86a8de3fp-14"),
    ("psk31", UNIT, "0x1.6c70f3ab424b4p-1", "0x1.ac2e3bd5a40e5p-27"),
    ("psk31", MIND, "0x1.6c70f3ab424b5p-1", "0x1.f2f3bcf35cae9p-18"),
    ("psk32", UNIT, "0x1.42d457ffcd5fdp+0", "0x1.0e3206eeb20b9p-20"),
    ("psk32", MIND, "0x1.42d457ffcd5fcp+0", "0x1.6556ae2e34acfp-11"),
    ("apsk8", UNIT, "0x1.3d3e35834faccp-1", "0x1.786bfe3be81cbp-6"),
    ("apsk8", MIND, "0x1.3d3e35834facdp-1", "0x1.07679f46f7d68p-5"),
    ("apsk16", UNIT, "0x1.152523dfe8a95p-2", "0x1.be274677f76adp-12"),
    ("apsk16", MIND, "0x1.152523dfe8a94p-2", "0x1.dcd38f1615fe1p-9"),
]


def test_step1_answers_are_pinned_bit_for_bit():
    for ident, norm, t, gain_ in STEP1_PINNED:
        res = opt.optimize_step1(cs.constellation_by_id(ident, norm))
        assert (res.t.hex(), res.case1_gain.hex()) == (t, gain_), \
            (ident, norm)


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
