from dataclasses import dataclass
import functools
import math
from fractions import Fraction
from types import SimpleNamespace
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fdstbc import codes
from fdstbc import constellations as cs
from fdstbc import gain
from fdstbc import optimizer as opt
from fdstbc.optimizer import (analytic_integer_optimum, optimize,
                              vanishing_probe)

import oracles

UNIT = cs.NORM_UNIT_POWER
MIND = cs.NORM_MIN_DIST

R_GRID = analytic_integer_optimum()[0]

# closed-form optimum for unit-power 8-PSK
T8 = (11.0 + 6.0 * math.sqrt(2.0)) / 49.0
U8 = (11.0 + 6.0 * math.sqrt(2.0)
      + math.sqrt(4609.0 - 132.0 * math.sqrt(2.0))) / 98.0
G8 = (22572.0 - 15912.0 * math.sqrt(2.0)) / 2401.0
R8 = codes.DesignCoefficient(u=U8, v=U8 - T8, provenance="closed-form")


@dataclass(frozen=True)
class PairTriple:
    """(|x|^2, |y|^2, x*conj(y)) for one (x, y) in D x D, and that (x, y)."""

    a: float
    b: float
    c: complex
    x: complex
    y: complex


def pair_triples(diffs):
    """Deduplicated pair triples over D x D (tolerance 1e-9 per component),
    each with its first (x, y) in row-major order, listed in that order.

    Oracle for gain._projected_triples, which keeps only
    g = Im(c) - Re(c) of c.
    """
    d = np.asarray(diffs)
    x = np.repeat(d, d.size)
    y = np.tile(d, d.size)
    a = np.abs(x) ** 2
    b = np.abs(y) ** 2
    c = x * np.conj(y)
    tol = 1e-9
    keys = np.stack([np.round(a / tol), np.round(b / tol),
                     np.round(c.real / tol), np.round(c.imag / tol)], axis=1)
    keys = keys.astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    idx.sort()
    return [PairTriple(a=float(a[i]), b=float(b[i]), c=complex(c[i]),
                       x=complex(x[i]), y=complex(y[i])) for i in idx]


def test_pair_triples_tiny_set():
    d = np.array([0.0, 1.0, -1.0], dtype=complex)
    trips = pair_triples(d)
    got = {(t.a, t.b, complex(t.c)) for t in trips}
    want = {(0.0, 0.0, 0j), (0.0, 1.0, 0j), (1.0, 0.0, 0j),
            (1.0, 1.0, 1 + 0j), (1.0, 1.0, -1 + 0j)}
    assert got == want


@pytest.mark.parametrize("ident", ("qam16", "psk8", "apsk16",
                                   "apsk8-grid"))
def test_projected_triples_match_pair_triples(monkeypatch, ident):
    d = cs.difference_set(cs.constellation_by_id(ident, UNIT))
    # each (a, b, g) key's witness: its first (x, y) in row-major order
    want = {}
    for t in pair_triples(d):
        key = (round(t.a / 1e-9), round(t.b / 1e-9),
               round((t.c.imag - t.c.real) / 1e-9))
        want.setdefault(key, (t.x, t.y))
    # one default block, then 40 pairs per block: many blocks and merges
    for block_pairs in (gain._BLOCK_PAIRS, 40):
        monkeypatch.setattr(gain, "_BLOCK_PAIRS", block_pairs)
        a, b, g, wx, wy, z = gain._projected_triples(d)
        got = [(round(p / 1e-9), round(q / 1e-9), round(e / 1e-9))
               for p, q, e in zip(a.tolist(), b.tolist(), g.tolist())]
        assert len(got) == len(set(got))
        assert set(got) == set(want)
        assert got == sorted(got)
        assert list(zip(wx.tolist(), wy.tolist())) == [want[k] for k in got]
        assert np.array_equal(a, np.abs(wx) ** 2)
        assert np.array_equal(b, np.abs(wy) ** 2)
        assert got[z] == (0, 0, 0)


@pytest.mark.parametrize("ident,norm,expected", [
    ("qam4", MIND, Fraction(1, 2)),
    ("qam4", UNIT, Fraction(2)),
    ("qam16", UNIT, Fraction(2, 25)),
    ("qam64", UNIT, Fraction(2, 441)),
    ("qam64", MIND, Fraction(1, 2)),
    ("psk4", UNIT, Fraction(2)),
    ("apsk8-grid", UNIT, Fraction(2, 9)),
    ("apsk8-grid", MIND, Fraction(1, 2)),
    ("apsk16-grid", UNIT, Fraction(1, 32)),
    ("apsk16-grid", MIND, Fraction(1, 2)),
])
def test_frozen_gains_aggregated_exact(ident, norm, expected):
    c = cs.constellation_by_id(ident, norm)
    rep = gain.coding_gain(c, R_GRID, method="aggregated")
    assert rep.gain_exact == expected
    assert math.isclose(rep.gain, float(expected), rel_tol=1e-12)


@pytest.mark.parametrize("ident,norm,expected", [
    ("qam4", MIND, 0.5),
    ("qam4", UNIT, 2.0),
    ("qam16", UNIT, 0.08),
    ("psk4", UNIT, 2.0),
    ("apsk8-grid", UNIT, 2.0 / 9.0),
])
def test_frozen_gains_exhaustive_float(ident, norm, expected):
    c = cs.constellation_by_id(ident, norm)
    rep = gain.coding_gain(c, R_GRID, method="exhaustive")
    assert abs(rep.gain - expected) < 1e-12


def test_psk8_gain_closed_form_both_methods():
    c = cs.make_psk(8, UNIT)
    agg = gain.coding_gain(c, R8, method="aggregated")
    exh = gain.coding_gain(c, R8, method="exhaustive")
    assert abs(agg.gain - G8) < 1e-12
    assert abs(exh.gain - G8) < 1e-12
    assert abs(agg.gain - exh.gain) < 1e-14


def test_methods_agree_for_random_coefficients():
    rng = np.random.default_rng(23)
    for ident, norm in (("qam4", UNIT), ("psk8", UNIT), ("apsk8", MIND)):
        c = cs.constellation_by_id(ident, norm)
        for _ in range(5):
            ang = rng.uniform(0, 2 * math.pi)
            r = codes.DesignCoefficient(u=math.cos(ang), v=math.sin(ang))
            agg = gain.coding_gain(c, r, method="aggregated")
            exh = gain.coding_gain(c, r, method="exhaustive")
            assert math.isclose(agg.gain, exh.gain,
                                rel_tol=1e-12, abs_tol=1e-13)


def test_argmin_reproduces_reported_gain():
    for ident, norm, r in (("qam4", MIND, R_GRID), ("psk8", UNIT, R8),
                           ("qam16", UNIT, R_GRID)):
        c = cs.constellation_by_id(ident, norm)
        rep = gain.coding_gain(c, r)
        det = oracles.det_direct(rep.argmin, r)
        assert math.isclose(abs(det) ** 2, rep.gain,
                            rel_tol=1e-9, abs_tol=1e-12)
        assert oracles.case(rep.argmin) == rep.case_of_argmin


def test_case2_floor_on_qam_grids():
    for ident in ("qam4", "qam16"):
        c = cs.constellation_by_id(ident, cs.NORM_INTEGER)
        rep = gain.coding_gain(c, R_GRID, method="aggregated")
        assert rep.case2_min >= 7.0 / 8.0 - 1e-12
        assert rep.case2_bound_min >= 7.0 / 8.0 - 1e-12


def test_degenerate_coefficient_kills_gain():
    r = codes.DesignCoefficient(u=1 / math.sqrt(2), v=1 / math.sqrt(2))
    c = cs.make_qam(4, UNIT)
    assert gain.coding_gain(c, r).gain == 0.0


def test_exhaustive_guard_on_large_sets():
    c = cs.make_psk(32, UNIT)
    with pytest.raises(ValueError, match="aggregated method has no such"):
        gain.coding_gain(c, R8, method="exhaustive")


def test_golden_gains_match_brute_force():
    c4 = cs.make_qam(4, UNIT)
    g4 = gain.golden_coding_gain(c4)
    assert abs(g4 - 3.2) < 1e-6
    g16 = gain.golden_coding_gain(cs.make_qam(16, UNIT))
    assert abs(g16 - 0.128) < 1e-6
    # brute force over the full difference-tuple space for 4-QAM
    d = cs.difference_set(c4)
    best = math.inf
    for a in d:
        for b in d:
            for c in d:
                for e in d:
                    if a == 0 and b == 0 and c == 0 and e == 0:
                        continue
                    x = oracles.build_codeword_golden(a, b, c, e)
                    det = x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
                    best = min(best, abs(det) ** 2)
    assert math.isclose(g4, best, rel_tol=1e-9)


def test_golden_gain_takes_its_minimum_in_row_blocks(monkeypatch):
    # qam64's 4,997 distinct q values made a 4,997 x 4,997 complex
    # matrix at once: a 574 MiB peak.  Blocks keep every value's bits
    c = cs.make_qam(64, UNIT)
    tracemalloc.start()
    try:
        assert gain.golden_coding_gain(c) == 0.007256235827664078
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    c16 = cs.make_qam(16, UNIT)
    want = gain.golden_coding_gain(c16)
    monkeypatch.setattr(gain, "_BLOCK_PAIRS", 40)
    assert gain.golden_coding_gain(c16) == want


@functools.cache
def _optimized(ident):
    """(constellation, optimize's r, its gain) at unit power.

    psk8 takes its maximin r: under the integer-grid r its gain is 0,
    which would make the scaling law vacuous.
    """
    c = cs.constellation_by_id(ident, UNIT)
    r, rep, _ = optimize(c)
    return c, r, rep.gain


@settings(max_examples=30, deadline=None)
@given(ident=st.sampled_from(("qam4", "apsk8-grid", "psk8")),
       alpha=st.floats(0.1, 10.0))
def test_scaling_law_fourth_power(ident, alpha):
    c, r, base = _optimized(ident)
    assert base > 0
    scaled = gain.coding_gain_scaled(c, r, alpha)
    assert math.isclose(scaled.gain, alpha ** 4 * base, rel_tol=1e-9)


@pytest.mark.parametrize("alpha", (0.0, -1.0, math.nan, math.inf))
def test_scaling_rejects_non_finite_or_non_positive_alpha(alpha):
    c = cs.constellation_by_id("qam4", UNIT)
    with pytest.raises(ValueError, match="alpha"):
        gain.coding_gain_scaled(c, R_GRID, alpha)


def test_vanishing_probe_psk_shrinks_qam_does_not():
    psk = dict(vanishing_probe("psk"))
    assert psk[4] > psk[8]
    qam = dict(vanishing_probe("qam"))
    for m in (4, 16, 64):
        assert abs(qam[m] - 0.5) < 1e-12


@pytest.mark.parametrize("sizes", ([], ()))
def test_vanishing_probe_refuses_an_empty_size_list(sizes):
    # an empty list once ran the family's default sizes
    with pytest.raises(ValueError, match="empty"):
        vanishing_probe("psk", sizes)


def test_gain_report_fields_consistent():
    c = cs.constellation_by_id("qam16", MIND)
    rep = gain.coding_gain(c, R_GRID, method="aggregated")
    assert rep.gain == min(rep.case1_min, rep.case2_min)
    assert rep.method == "aggregated"
    assert rep.case2_min >= rep.case2_bound_min - 1e-12


def reports_and_ties(monkeypatch, c, r, method, knob, sizes):
    """coding_gain's report and its sorted tie set at each size of the
    gain module's blocking constant knob."""
    ties = []
    pick = gain._argmin_tuple

    def spy(ii, jj, *args):
        ties.append(sorted(zip(ii.tolist(), jj.tolist())))
        return pick(ii, jj, *args)
    monkeypatch.setattr(gain, "_argmin_tuple", spy)
    reports = []
    for size in sizes:
        monkeypatch.setattr(gain, knob, size)
        reports.append(gain.coding_gain(c, r, method=method))
    return reports, ties


@pytest.mark.parametrize("ident,norm,r", [
    ("qam64", MIND, R_GRID),
    ("psk22", UNIT, codes.DesignCoefficient(u=math.cos(0.3),
                                            v=math.sin(0.3))),
    ("apsk16-grid", UNIT, R_GRID),
    # u = v: the gain is 0 and over 6,000 pairs tie for it
    ("qam64", UNIT, codes.DesignCoefficient(u=1 / math.sqrt(2),
                                            v=1 / math.sqrt(2))),
])
def test_report_and_ties_do_not_depend_on_tiling(monkeypatch, ident, norm, r):
    c = cs.constellation_by_id(ident, norm)
    reports, ties = reports_and_ties(
        monkeypatch, c, r, "aggregated", "_BLOCK_PAIRS",
        (2 ** 10, gain._BLOCK_PAIRS))
    assert reports[0] == reports[1]
    assert ties[0] == ties[1]


@pytest.mark.parametrize("ident,r", [
    ("qam4", R_GRID), ("psk8", R8), ("apsk8-grid", R_GRID),
    # u = v: the gain is 0 and 320 pairs tie for it
    ("qam4", codes.DesignCoefficient(u=1 / math.sqrt(2),
                                     v=1 / math.sqrt(2)))])
def test_exhaustive_report_and_ties_do_not_depend_on_row_blocks(
        monkeypatch, ident, r):
    c = cs.constellation_by_id(ident, UNIT)
    n = cs.difference_set(c).size ** 2
    assert n % 7
    # one row per block; 7 rows in the first block, which no n here is a
    # multiple of; one block for the whole sweep
    reports, ties = reports_and_ties(monkeypatch, c, r, "exhaustive",
                                     "_TILE_PAIRS", (1, 7 * n, n * n))
    assert reports[0] == reports[1] == reports[2]
    assert ties[0] == ties[1] == ties[2]


def exhaustive_and_oracle(c, r):
    """(report, tie list) of the exhaustive route and of the dense
    oracles.exhaustive_gain_oracle, or the message of the RuntimeError
    each raised; a tie list is the (ii, jj) handed to _argmin_tuple, in
    its order."""
    pick, out = gain._argmin_tuple, []
    for run in (functools.partial(gain.coding_gain, method="exhaustive"),
                oracles.exhaustive_gain_oracle):
        ties = []

        def spy(ii, jj, *args):
            ties.append(list(zip(ii.tolist(), jj.tolist())))
            return pick(ii, jj, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gain, "_argmin_tuple", spy)
            try:
                out.append((run(c, r), ties))
            except RuntimeError as exc:
                out.append(str(exc))
    return out


def _step1_r(c):
    if c.integer_grid:
        return R_GRID
    return opt.optimize_step1(c).r_candidates[0]


@pytest.mark.parametrize("ident,norm", [
    (ident, norm)
    for ident in ["qam4", "apsk8", "apsk8-grid"]
    + [f"psk{m}" for m in range(2, 9)]
    for norm in cs.NORMALIZATIONS
    if norm != cs.NORM_INTEGER or ident in ("qam4", "psk2", "psk4",
                                             "apsk8-grid")])
def test_exhaustive_route_equals_the_dense_sweep_on_presets(ident, norm):
    c = cs.constellation_by_id(ident, norm)
    for r in (_step1_r(c), R8):
        got, want = exhaustive_and_oracle(c, r)
        assert not isinstance(want, str)
        assert got == want


def test_exhaustive_route_equals_the_dense_sweep_at_u_equal_v():
    # the gain is 0 and 320 pairs tie for it, across repeated terms
    s = 1 / math.sqrt(2)
    c = cs.constellation_by_id("qam4", UNIT)
    got, want = exhaustive_and_oracle(c, codes.DesignCoefficient(u=s, v=s))
    assert want[0].gain == 0.0 and len(want[1][0]) == 320
    assert got == want


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       shape=st.sampled_from(("free", "symmetric", "grid")),
       scale=st.sampled_from((1e-3, 1.0, 1e3)),
       angle=st.floats(0.0, 2.0 * math.pi),
       nudge=st.sampled_from((0.0, 0.0, 1e-6, 1e-3)))
def test_exhaustive_route_equals_the_dense_sweep_on_random_constellations(
        seed, m, shape, scale, angle, nudge):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    if shape != "free":
        # closed under negation, so F(-x, -y) = F(x, y) repeats terms;
        # on the half-integer grid, many |x|^2 and F values repeat
        pts = np.concatenate((pts[:(m + 1) // 2], -pts[:m // 2]))
    if shape == "grid":
        pts = np.round(2.0 * pts) / 2.0
        pts = np.unique(pts)
        assume(pts.size >= 2)
    c = cs.Constellation(name="random", points=pts * scale,
                         normalization="scaled")
    r = codes.DesignCoefficient(u=math.cos(angle), v=math.sin(angle))
    # a raised floor coefficient (u + v)^2/2 makes some pairs fail the
    # case-II check: both raise, or neither does and they agree bit for bit
    k = 1.0 + nudge
    got, want = exhaustive_and_oracle(
        c, SimpleNamespace(r=r.r, u=r.u * k, v=r.v * k))
    assert got == want



def test_exact_sweep_overflow_guard():
    c = cs.constellation_by_id("qam64", MIND)
    q = 10 ** 15
    r = codes.DesignCoefficient(u=R_GRID.u, v=R_GRID.v,
                                t_exact=Fraction(q // 2 + 1, q))
    with pytest.raises(ValueError, match="overflow"):
        gain.coding_gain(c, r, method="aggregated")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_aggregated_equals_exhaustive_on_random_constellations(seed, m,
                                                               angle):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    pts /= math.sqrt(np.mean(np.abs(pts) ** 2))
    c = cs.Constellation(name="random", points=pts, normalization=UNIT)
    assert not c.integer_grid
    r = codes.DesignCoefficient(u=math.cos(angle), v=math.sin(angle))
    agg = gain.coding_gain(c, r, method="aggregated")
    exh = gain.coding_gain(c, r, method="exhaustive")
    for field in ("gain", "case1_min", "case2_min"):
        assert math.isclose(getattr(agg, field), getattr(exh, field),
                            rel_tol=1e-9, abs_tol=1e-12)
    for rep in (agg, exh):
        det = oracles.det_direct(rep.argmin, r)
        assert math.isclose(abs(det) ** 2, rep.gain,
                            rel_tol=1e-9, abs_tol=1e-12)


def test_triple_expansion_is_guarded_up_front():
    # psk64 (|D| = 2049) is admitted; a |D| just past the limit is
    # refused before any |D|^2 array exists
    d64 = cs.difference_set(cs.constellation_by_id("psk64", UNIT))
    assert d64.size ** 2 == 4_198_401 <= gain.TRIPLE_PAIR_LIMIT
    big = np.zeros(math.isqrt(gain.TRIPLE_PAIR_LIMIT) + 1, dtype=complex)
    with pytest.raises(ValueError, match=r"\|D\|\^2 = .* limit of 8388608"):
        gain._projected_triples(big)


def _expansions(c):
    d = cs.difference_set(c)
    trips = [gain._projected_triples(d)]
    if c.integer_grid:
        trips.append(gain._projected_triples(d, c.scale_sq))
    tab = opt.build_case1_table(c)
    return [np.atleast_1d(x) for t in trips for x in t] + [tab.a, tab.e]


@pytest.mark.parametrize("norm", (UNIT, MIND))
@pytest.mark.parametrize("ident", ("psk17", "apsk16", "qam16",
                                   "apsk16-grid"))
def test_blockwise_expansion_is_bitwise_the_one_block_answer(
        monkeypatch, ident, norm):
    # every tier-1 constellation below psk33 fits one default block, so
    # shrink the blocks until both streams merge many times
    c = cs.constellation_by_id(ident, norm)
    assert cs.difference_set(c).size ** 2 <= gain._BLOCK_PAIRS
    want = _expansions(c)
    monkeypatch.setattr(gain, "_BLOCK_PAIRS", 40)
    got = _expansions(c)
    for w, g in zip(want, got):
        assert w.dtype == g.dtype and w.shape == g.shape
        assert w.view(np.uint8).tobytes() == g.view(np.uint8).tobytes()


@pytest.mark.parametrize("ident", ("psk9", "psk17"))
def test_blockwise_triples_round_as_the_whole_product(monkeypatch, ident):
    # numpy's fused complex product rounds by operand order, and its
    # temporary elision swaps the order of x * conj(y) from 256 KiB up
    # (psk17's 74,529 pairs, not psk9's 5,329); blocks must round as
    # the one-shot product over all of D x D does
    d = cs.difference_set(cs.constellation_by_id(ident, UNIT))
    x, y = np.repeat(d, d.size), np.tile(d, d.size)
    cc = x * np.conj(y)
    whole = cc.imag - cc.real
    index = {v: k for k, v in enumerate(d.tolist())}
    monkeypatch.setattr(gain, "_BLOCK_PAIRS", 40)
    _, _, g, wx, wy, _ = gain._projected_triples(d)
    at = [index[p] * d.size + index[q]
          for p, q in zip(wx.tolist(), wy.tolist())]
    assert whole[at].tobytes() == g.tobytes()


def test_psk22_triples_match_the_stable_sort_oracle():
    # the real stream: keys (|x|^2, |y|^2, g) over all of D x D, row-major
    d = cs.difference_set(cs.constellation_by_id("psk22", UNIT))
    n = d.size
    i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    sq = np.abs(d) ** 2
    g = gain._dt(d[i], np.conj(d[j]), 16 * n * n >= 2 ** 18, sq.dtype)
    want = oracles.first_of_runs_oracle((sq[i], sq[j], g, d[i], d[j]), 3)
    got = gain._projected_triples(d)
    for w, x in zip(want, got[:5], strict=True):
        assert w.dtype == x.dtype
        assert np.array_equal(w, x)


def test_triple_expansion_memory_is_one_block():
    # psk33's |D|^2 = 1,117,249 pairs span more than four blocks; the
    # whole expansion at once peaked at 145 MiB
    d = cs.difference_set(cs.constellation_by_id("psk33", UNIT))
    assert d.size ** 2 == 1_117_249 > 4 * gain._BLOCK_PAIRS
    tracemalloc.start()
    try:
        gain._projected_triples(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 145 / 2 * 2 ** 20


def argmin_tuple_by_key(ii, jj, wx, wy, a, b):
    """The tie-break with its exact key run on every candidate: the
    reference for gain._argmin_tuple, which narrows the ties in bulk."""
    def key(c):
        i, j = c
        t = (wx[i], wx[j], wy[i], wy[j])
        return tuple(round(abs(z) ** 2, 12) for z in t) + \
            tuple(round(float(np.angle(z)), 12) for z in t)
    i, j = min(zip(ii.tolist(), jj.tolist()), key=key)
    tup = codes.DifferenceTuple(ds1=complex(wx[i]), ds2=complex(wx[j]),
                                ds3=complex(wy[i]), ds4=complex(wy[j]))
    if np.asarray(a).dtype.kind == "i":
        case = "I" if a[i] + a[j] == b[i] + b[j] else "II"
    else:
        case = "I" if abs((a[i] + a[j]) - (b[i] + b[j])) <= 1e-9 else "II"
    return tup, case


def tie_witnesses(rng, size, zero):
    """Witnesses whose key columns collide: equal moduli at other angles,
    and moduli and angles a few ulps apart or next to a 12-decimal
    rounding boundary."""
    base = rng.choice([0.5, 1.0, 2.0, 2.0 - math.sqrt(2.0), 3.7]
                      + [0.0] * zero, size)
    k = np.floor(base * 1e12)
    edge = (k + 0.5 + rng.uniform(-2e-3, 2e-3, size)) / 1e12
    mod2 = np.where(rng.random(size) < 0.3, edge, base)
    mod2 *= 1.0 + rng.integers(-4, 5, size) * 2.0 ** -52
    ang = rng.choice([0.0, 0.25, -2.0, math.pi / 4, math.pi], size)
    k = np.floor(ang * 1e12)
    edge = (k + 0.5 + rng.uniform(-2e-3, 2e-3, size)) / 1e12
    ang = np.where(rng.random(size) < 0.3, edge, ang)
    ang *= 1.0 + rng.integers(-4, 5, size) * 2.0 ** -52
    return np.sqrt(mod2) * np.exp(1j * ang)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pool=st.integers(1, 12),
       ties=st.integers(1, 60))
def test_bulk_tie_break_equals_exact_key(seed, pool, ties):
    rng = np.random.default_rng(seed)
    # wy is never 0, so no candidate is the all-zero tuple
    wx, wy = tie_witnesses(rng, pool, 1), tie_witnesses(rng, pool, 0)
    ii = rng.integers(0, pool, ties)
    jj = rng.integers(0, pool, ties)
    a, b = np.abs(wx) ** 2, np.abs(wy) ** 2
    assert gain._argmin_tuple(ii, jj, wx, wy, a, b) == \
        argmin_tuple_by_key(ii, jj, wx, wy, a, b)


@pytest.mark.parametrize("sign", (1, -1))
def test_bulk_tie_break_defers_to_the_key_at_a_rounding_boundary(sign):
    # za's angle times 1e12 is the float +-...2.5, which rint takes to the
    # even +-...2, but the key rounds the exact angle out to +-...3, level
    # with zb's; the next column, the angle of wx[j], then decides
    za = 0.9689124217100262 + 0.24740395925694522j
    zb = complex(math.cos(0.2500000000029), math.sin(0.2500000000029))
    wx = np.array([za, zb, np.exp(0.5j), np.exp(0.1j)])
    if sign < 0:
        wx = np.conj(wx)
    t = float(np.angle(wx[0]))
    assert (round(t, 12), np.round(t, 12)) == (sign * 0.250000000003,
                                                sign * 0.250000000002)
    wy = np.ones(4, dtype=complex)
    ii, jj = np.array([0, 1]), np.array([2, 3])
    a, b = np.abs(wx) ** 2, np.abs(wy) ** 2
    got = gain._argmin_tuple(ii, jj, wx, wy, a, b)
    assert got == argmin_tuple_by_key(ii, jj, wx, wy, a, b)
    # 0.1 < 0.5 picks zb's row; -0.5 < -0.1 picks za's
    assert got[0].ds1 == wx[1 if sign > 0 else 0]


def int_sweep_oracle(a, b, g, zero_idx, p, q, bound_coef, side=128):
    """The exact path's former search, kept as the reference for
    gain._search_pairs: every pair i <= j of int64 triples, tile by
    tile, as q^2*|det|^2 in its expanded form, with the case-II floor
    checked on each pair.  Returns (case1_min, case2_min, bound_min,
    ties), ties the set of pairs equal to the minimum."""
    q2 = float(q) ** 2
    p, q = np.int64(p), np.int64(q)
    k1, k2, k3, k4 = q * q, 2 * p * p, 2 * q * q, 2 * p * q
    c1 = c2 = run = np.int64(2) ** 62
    bound_min = math.inf
    hits = []
    for i0 in range(0, a.size, side):
        for j0 in range(i0, a.size, side):
            rows, cols = slice(i0, i0 + side), slice(j0, j0 + side)
            A = a[rows, None] + a[None, cols]
            B = b[rows, None] + b[None, cols]
            D = g[rows, None] + g[None, cols]
            am_b = A - B
            val = k1 * (am_b * am_b) + k2 * (A * B) + k3 * (D * D) \
                - k4 * ((A + B) * D)
            ii, jj = np.indices(val.shape)
            ii += i0
            jj += j0
            pair = (ii <= jj) & ((ii != zero_idx) | (jj != zero_idx))
            case2 = pair & (am_b != 0)
            if case2.any():
                bnd = am_b.astype(np.float64) ** 2 * bound_coef
                if (case2 & (val.astype(np.float64) / q2
                             < bnd - 1e-9)).any():
                    raise RuntimeError("case II lower bound violated; "
                                       "determinant reduction is "
                                       "inconsistent")
                bound_min = min(bound_min, float(bnd[case2].min()))
                c2 = min(c2, val[case2].min())
            if (pair & (am_b == 0)).any():
                c1 = min(c1, val[pair & (am_b == 0)].min())
            run = min(run, val[pair].min())
            tie = pair & (val == run)
            hits.append((ii[tie], jj[tie], val[tie]))
    best = min(c1, c2)
    ties = {(i, j) for h in hits for i, j, v in zip(*(x.tolist() for x in h))
            if v == best}
    return int(c1), int(c2), bound_min, ties


def search(trip, p, q, bound_coef):
    a, b, g, _, _, z = trip
    c1, c2, bmin, ii, jj = gain._search_pairs(a, b, g, z, p, q,
                                              bound_coef=bound_coef)
    ties = list(zip(ii.tolist(), jj.tolist()))
    assert len(ties) == len(set(ties))
    return c1, c2, bmin, set(ties)


def oracle(trip, p, q, bound_coef):
    a, b, g, _, _, z = trip
    return int_sweep_oracle(a, b, g, z, p, q, bound_coef)


def exact_triples(c):
    return gain._projected_triples(cs.difference_set(c), c.scale_sq)


GRID_IDS = ("qam4", "qam16", "qam64", "apsk8-grid", "apsk16-grid")


@pytest.mark.parametrize("norm", (UNIT, MIND))
@pytest.mark.parametrize("ident", GRID_IDS)
def test_search_matches_int_sweep_oracle_on_grid_presets(ident, norm):
    trip = exact_triples(cs.constellation_by_id(ident, norm))
    bc = (2.0 - R_GRID.t ** 2) / 2.0
    assert search(trip, 1, 2, bc) == oracle(trip, 1, 2, bc)


@pytest.mark.parametrize("t", (Fraction(1, 3), Fraction(0), Fraction(7, 5),
                               Fraction(-5, 4)))
@pytest.mark.parametrize("ident", ("qam16", "apsk16-grid"))
def test_search_matches_int_sweep_oracle_off_the_optimum(ident, t):
    trip = exact_triples(cs.constellation_by_id(ident, MIND))
    for r in opt._coefficients_at(float(t), "test", t):
        bc = (2.0 - r.t ** 2) / 2.0
        want = oracle(trip, t.numerator, t.denominator, bc)
        assert search(trip, t.numerator, t.denominator, bc) == want


# rationals in (-sqrt(2), sqrt(2)): zero, negative, and convergents of
# sqrt(2) from below, where c = 2q^2 - p^2 is 1 or 2
RATIONAL_T = st.one_of(
    st.sampled_from((Fraction(0), Fraction(7, 5), Fraction(-7, 5),
                     Fraction(41, 29), Fraction(-239, 169),
                     Fraction(4, 3), Fraction(-1, 2))),
    st.fractions(min_value=Fraction(-7, 5), max_value=Fraction(7, 5),
                 max_denominator=12))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(coords=st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=2, max_size=7),
       t=RATIONAL_T,
       nudge=st.sampled_from((0.0, 0.0, 1e-12, 1e-10, 1e-6, 1e-3)))
def test_search_equals_int_sweep_on_random_gaussian_integers(coords, t,
                                                             nudge):
    pts = np.array([complex(x, y) for x, y in sorted(coords)])
    c = cs._grid_constellation("random", pts, cs.NORM_INTEGER)
    trip = exact_triples(c)
    # a nudged floor coefficient makes some sums fail the case-II check:
    # both raise, or neither does and they agree
    bc = (2.0 - float(t) ** 2) / 2.0 * (1.0 + nudge)
    p, q = t.numerator, t.denominator
    try:
        want = oracle(trip, p, q, bc)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="case II lower bound"):
            search(trip, p, q, bc)
        return
    assert search(trip, p, q, bc) == want


@pytest.mark.parametrize("ident", ("qam16", "qam64", "apsk16-grid"))
def test_exact_path_never_enters_the_tiled_sweep(monkeypatch, ident):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact path took the exhaustive route")
    monkeypatch.setattr(gain, "_exhaustive_gain", refuse)
    for norm in (UNIT, MIND):
        c = cs.constellation_by_id(ident, norm)
        assert gain.coding_gain(c, R_GRID).gain_exact is not None
        assert optimize(c).report.gain_exact is not None


def test_exact_window_scores_few_pairs_per_tie(monkeypatch):
    # qam64 at t = 1/2 scores 4,176 pairs for its 1,068 ties; a W window
    # opened at every sum S, not only where the floor check is in doubt,
    # scored far more and took 171 ms
    trip = exact_triples(cs.constellation_by_id("qam64", MIND))
    kernel, scored = gain._pair_window, []

    def counted(*args, score, **kwargs):
        def count(i, j):
            scored.append(i.size)
            return score(i, j)
        return kernel(*args, score=count, **kwargs)
    monkeypatch.setattr(gain, "_pair_window", counted)
    _, _, _, ties = search(trip, 1, 2, (2.0 - R_GRID.t ** 2) / 2.0)
    assert len(ties) == 1068
    assert sum(scored) < 3 * 4176


def test_floor_check_raises_at_a_sum_the_search_pruned():
    # qam16 at t = 1/2: val = (7 S^2 + W^2)/2 with q^2 = 4.  Raise the
    # floor coefficient just past the first sum S it fails at: that S
    # lies above case II's minimum by its floor 7 S^2/2 alone, so the
    # level walk never visits it, and only the per-S decision sees it
    trip = exact_triples(cs.constellation_by_id("qam16", MIND))
    a, b, g, _, _, _ = trip
    c1, c2, _, _ = search(trip, 1, 2, (2.0 - R_GRID.t ** 2) / 2.0)
    s, w = a - b, 4 * g - (a + b)
    S = (s[:, None] + s[None, :]).ravel()
    W = (w[:, None] + w[None, :]).ravel()
    sums, at = np.unique(S[S != 0], return_inverse=True)
    vmin = np.full(sums.size, np.inf)
    np.minimum.at(vmin, at, ((7 * S ** 2 + W ** 2) // 2)[S != 0])
    edge = (vmin / 4.0 + 1e-9) / sums.astype(float) ** 2
    first = int(sums[edge.argmin()])
    assert 7 * first ** 2 // 2 > c2
    assert search(trip, 1, 2, edge.min() * (1 - 1e-9))[:2] == (c1, c2)
    for coef in (edge.min() * (1 + 1e-9), edge.min() * 1.001):
        with pytest.raises(RuntimeError, match="case II lower bound"):
            oracle(trip, 1, 2, coef)
        with pytest.raises(RuntimeError, match="case II lower bound"):
            search(trip, 1, 2, coef)


def test_exact_search_refuses_t_outside_the_unit_circle():
    # t = 99/70 is 7e-5 above sqrt(2): 2q^2 - p^2 = -1
    trip = exact_triples(cs.constellation_by_id("qam4", MIND))
    with pytest.raises(ValueError, match="sqrt"):
        search(trip, 99, 70, 0.0)


def test_scaled_grid_passes_its_floor_check_at_alpha_1e3():
    # values near 1e11: an absolute 1e-9 slack is below one ulp there
    c = cs.constellation_by_id("qam16", UNIT)
    rep = gain.coding_gain_scaled(c, R_GRID, 1e3)
    assert math.isclose(rep.gain, 1e12 * 0.08, rel_tol=1e-9)


@pytest.mark.parametrize("alpha", (1.0, 1e3))
def test_float_floor_check_raises_on_a_raised_floor(monkeypatch, alpha):
    # the relative slack is not blind: a floor coefficient 0.1% above
    # the true (u + v)^2 / 2 must fail some case-II pair at any scale
    c = cs.constellation_by_id("qam16", UNIT)
    search = gain._window_pairs

    def nudged(a, b, g, zero_idx, *, t, bound_coef):
        return search(a, b, g, zero_idx, t=t,
                      bound_coef=bound_coef * (1 + 1e-3))
    monkeypatch.setattr(gain, "_window_pairs", nudged)
    with pytest.raises(RuntimeError, match="case II lower bound"):
        gain.coding_gain_scaled(c, R_GRID, alpha, method="aggregated")


def test_scaling_refuses_keys_past_int64():
    c, r, base = _optimized("psk16")
    scaled = gain.coding_gain_scaled(c, r, 1e4)
    assert math.isclose(scaled.gain / 1e16, base, rel_tol=1e-9)
    # |x|^2 reaches 4e10: its 1e-9 key wraps int64
    with pytest.raises(ValueError, match="1e-9 grid"):
        gain.coding_gain_scaled(c, r, 1e5)


def test_differences_below_the_key_grid_raise_a_value_error():
    # at alpha 1e-5 qam16's smallest nonzero |x|^2 is 4e-11: it keys to
    # the zero triple's 0 on the 1e-9 grid
    c = cs.constellation_by_id("qam16", UNIT)
    with pytest.raises(ValueError, match=r"\|x\|\^2 = 4e-11 .* 1e-9"):
        gain.coding_gain_scaled(c, R_GRID, 1e-5)
    rep = gain.coding_gain_scaled(c, R_GRID, 1e-4)
    assert math.isclose(rep.gain, 1e-16 * 0.08, rel_tol=1e-9)


def float_sweep_oracle(a, b, g, zero_idx, *, t, bound_coef):
    """The float aggregated route's former search, kept as the reference
    for gain._window_pairs: every pair i <= j of triples, tile by tile
    through oracles.sweep_upper, scored by the expanded form with the
    case-II floor checked on each pair."""
    k2, k4 = 2.0 * t * t, 2.0 * t

    def tile(rows, cols):
        A = a[rows, None] + a[None, cols]
        B = b[rows, None] + b[None, cols]
        D = g[rows, None] + g[None, cols]
        am_b = A - B
        val = am_b * am_b + k2 * (A * B) + 2.0 * (D * D) \
            - k4 * ((A + B) * D)
        return val, am_b

    return oracles.sweep_upper(a.size, zero_idx, tile,
                               bound_coef=bound_coef)


def window_and_oracle(trip, t, bound_coef):
    """(window search, oracle) as (case1_min, case2_min, bound_min, ties),
    or the message of the RuntimeError each raised."""
    a, b, g, _, _, z = trip
    out = []
    for run in (gain._window_pairs, float_sweep_oracle):
        try:
            c1, c2, bmin, ii, jj = run(a, b, g, z, t=t, bound_coef=bound_coef)
        except RuntimeError as exc:
            out.append(str(exc))
            continue
        ties = list(zip(ii.tolist(), jj.tolist()))
        assert len(ties) == len(set(ties))
        assert all(i <= j for i, j in ties)
        out.append((float(c1), float(c2), float(bmin), set(ties)))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       scale=st.sampled_from((1e-3, 1.0, 1e3)),
       angle=st.floats(0.0, 2.0 * math.pi),
       nudge=st.sampled_from((0.0, 0.0, 1e-12, 1e-10, 1e-6, 1e-3)))
def test_window_search_equals_float_sweep_on_random_constellations(
        seed, m, scale, angle, nudge):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=m) + 1j * rng.normal(size=m)
    pts *= scale / math.sqrt(np.mean(np.abs(pts) ** 2))
    c = cs.Constellation(name="random", points=pts, normalization="scaled")
    d = cs.difference_set(c)
    # a difference with |x|^2 below the 1e-9 key shares the zero triple's
    # key, and _projected_triples refuses such a set: no search to test
    assume(np.abs(d[d != 0]).min() ** 2 >= 1e-9)
    trip = gain._projected_triples(d)
    r = codes.DesignCoefficient(u=math.cos(angle), v=math.sin(angle))
    # a nudged floor coefficient makes some pairs fail the case-II check:
    # both raise, or neither does and they agree bit for bit
    got, want = window_and_oracle(trip, r.t,
                                  (2.0 - r.t ** 2) / 2.0 * (1.0 + nudge))
    assert got == want


def _step1_case(ident, norm):
    res = opt.optimize_step1(cs.constellation_by_id(ident, norm))
    return res.triples, res.r_candidates[0].t


def _edge_case(ident, t):
    c = cs.constellation_by_id(ident, UNIT)
    return gain._projected_triples(cs.difference_set(c)), t


WINDOW_CASES = [
    pytest.param(_step1_case, (ident, norm), id=f"{ident}-{norm}")
    for ident in [f"psk{m}" for m in range(9, 29)] + ["apsk8", "apsk16"]
    for norm in (UNIT, MIND)] + [
    # u = v: the gain is 0 and over 6,000 pairs tie for it
    pytest.param(_edge_case, ("qam64", 0.0), id="qam64-u=v"),
    # c = 1 - t^2/2 near 0: the S window spans every sum
    pytest.param(_edge_case, ("psk16", math.sqrt(2.0) * (1 - 1e-9)),
                 id="psk16-t=+sqrt2"),
    pytest.param(_edge_case, ("apsk16", -math.sqrt(2.0) * (1 - 1e-9)),
                 id="apsk16-t=-sqrt2")]


@pytest.mark.parametrize("make,args", WINDOW_CASES)
def test_window_search_equals_float_sweep_on_presets(make, args):
    trip, t = make(*args)
    got, want = window_and_oracle(trip, t, (2.0 - t ** 2) / 2.0)
    assert not isinstance(want, str)
    assert got == want


@pytest.mark.parametrize("ident", ("psk16", "psk22", "apsk16"))
def test_float_route_never_enters_the_tiled_sweep(monkeypatch, ident):
    def refuse(*args, **kwargs):
        raise AssertionError(
            "the float aggregated route took the exhaustive route")
    monkeypatch.setattr(gain, "_exhaustive_gain", refuse)
    for norm in (UNIT, MIND):
        c = cs.constellation_by_id(ident, norm)
        r = optimize(c)[0]
        assert gain.coding_gain(c, r).method == "aggregated"


def test_window_search_memory_is_one_block(monkeypatch):
    # t next to sqrt(2) leaves c near 0, so the S window spans every sum
    # and psk32's triples ask about 250,000 partner queries: at the
    # default block they peak near 17 MiB
    trip, t = _edge_case("psk32", math.sqrt(2.0) * (1 - 1e-9))
    a, b, g, _, _, z = trip
    monkeypatch.setattr(gain, "_BLOCK_PAIRS", 2 ** 10)
    tracemalloc.start()
    try:
        gain._window_pairs(a, b, g, z, t=t, bound_coef=(2.0 - t * t) / 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
