import itertools
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdstbc import constellations as cs
from fdstbc.gain import coding_gain
from fdstbc.optimizer import analytic_integer_optimum

import oracles

UNIT = cs.NORM_UNIT_POWER
MIND = cs.NORM_MIN_DIST
GRID = cs.NORM_INTEGER


def test_qam4_unit_power_layout():
    c = cs.make_qam(4, UNIT)
    want = {(round(s * 0.5 ** 0.5, 12), round(t * 0.5 ** 0.5, 12))
            for s in (-1, 1) for t in (-1, 1)}
    got = {(round(p.real, 12), round(p.imag, 12)) for p in c.points}
    assert got == want
    assert math.isclose(cs.min_distance(c), math.sqrt(2.0), rel_tol=1e-12)


def test_qam16_unit_power_min_distance():
    c = cs.make_qam(16, UNIT)
    assert math.isclose(cs.min_distance(c), 2.0 / math.sqrt(10.0),
                        rel_tol=1e-12)
    assert math.isclose(cs.avg_power(c), 1.0, rel_tol=1e-12)


def test_qam16_min_dist_difference_set():
    c = cs.make_qam(16, MIND)
    assert math.isclose(cs.min_distance(c), 1.0, rel_tol=1e-12)
    d = cs.difference_set(c)
    assert len(d) == 49
    re = np.round(d.real, 9)
    im = np.round(d.imag, 9)
    assert np.array_equal(re, np.round(re))
    assert re.min() == -3 and re.max() == 3
    assert im.min() == -3 and im.max() == 3


def test_qam_rejects_unsupported_sizes():
    for m in (2, 8, 32):
        with pytest.raises(ValueError):
            cs.make_qam(m)


def test_psk8_unit_power():
    c = cs.make_psk(8, UNIT)
    assert np.allclose(np.abs(c.points), 1.0)
    assert math.isclose(cs.min_distance(c), 2.0 * math.sin(math.pi / 8),
                        rel_tol=1e-12)
    assert math.isclose(cs.papr(c), 1.0, rel_tol=1e-12)


def test_psk4_is_rotated_qam4():
    q = cs.make_qam(4, UNIT)
    p = cs.make_psk(4, UNIT)
    rotated = np.sort_complex(p.points * np.exp(1j * math.pi / 4))
    assert np.allclose(np.sort_complex(q.points), rotated, atol=1e-12)


def test_psk8_min_dist_radius():
    c = cs.make_psk(8, MIND)
    assert np.allclose(np.abs(c.points), 1.0 / (2.0 * math.sin(math.pi / 8)))


def test_psk_rejects_tiny_m_and_non_grid_integer():
    with pytest.raises(ValueError):
        cs.make_psk(1)
    with pytest.raises(ValueError):
        cs.make_psk(8, GRID)


def test_apsk8_conventional_layout():
    c = cs.make_apsk8_conventional(UNIT)
    b = 1.0 / math.sqrt(3.0 + math.sqrt(3.0))
    assert abs(cs.min_distance(c) - 0.9194) < 1e-3
    assert math.isclose(cs.min_distance(c), 2.0 * b, rel_tol=1e-12)
    assert math.isclose(cs.avg_power(c), 1.0, rel_tol=1e-12)
    inner = c.points[np.abs(np.abs(c.points) - b * math.sqrt(2)) < 1e-9]
    outer = c.points[np.abs(np.abs(c.points) - b * (1 + math.sqrt(3))) < 1e-9]
    assert inner.size == 4 and outer.size == 4
    cross = np.abs(inner[:, None] - outer[None, :]).min()
    assert math.isclose(cross, 2.0 * b, rel_tol=1e-9)


def test_apsk16_dvbs2_layout():
    c = cs.make_apsk16_dvbs2(UNIT)
    r1 = 2.0 / math.sqrt(13.0 + 6.0 * math.sqrt(3.0))
    r2 = 2.0 * math.sqrt(2.0) / math.sqrt(8.0 - math.sqrt(3.0))
    assert abs(cs.min_distance(c) - 0.5848) < 1e-3
    assert abs(cs.avg_power(c) - 1.0) < 1e-6
    assert abs((4 * r1 ** 2 + 12 * r2 ** 2) / 16.0 - 1.0) < 1e-6
    radii = np.abs(c.points)
    assert np.allclose(radii[:4], r1, rtol=1e-12, atol=0)
    assert np.allclose(radii[4:], r2, rtol=1e-12, atol=0)
    assert r1 < r2


def test_apsk8_grid_preset():
    c = cs.constellation_by_id("apsk8-grid", UNIT)
    assert abs(cs.min_distance(c) - math.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(cs.avg_power(c) - 1.0) < 1e-12
    assert abs(cs.papr(c) - 4.0 / 3.0) < 1e-12
    # ring radii in grid units must be sqrt(m^2 + n^2) for integers m, n
    grid_r2 = {round(abs(p) ** 2 / c.scale_sq) for p in c.points}
    assert grid_r2 == {2, 4}
    for rsq in grid_r2:
        assert any(m * m + n * n == rsq
                   for m in range(5) for n in range(5))


def test_apsk16_grid_preset():
    c = cs.constellation_by_id("apsk16-grid", UNIT)
    assert len(c) == 16
    assert abs(cs.min_distance(c) - 0.5) < 1e-12
    assert abs(cs.avg_power(c) - 1.0) < 1e-12
    assert math.isclose(math.sqrt(c.scale_sq), 0.5, rel_tol=1e-12)


@pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0, math.nan)))
def test_constellation_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        cs.Constellation(name="x", points=[0, 1, bad], normalization=UNIT)


@pytest.mark.parametrize("ident,norms", (("apsk8-grid", {2, 4}),
                                         ("apsk16-grid", {1, 2, 4, 9})))
@pytest.mark.parametrize("norm", cs.NORMALIZATIONS)
def test_apsk_grid_presets_are_whole_rings(ident, norms, norm):
    # the paper's topology: every Gaussian integer on a ring is a point
    c = cs.constellation_by_id(ident, norm)
    z = c.points / math.sqrt(c.scale_sq)
    assert np.abs(z - np.round(z)).max() < 1e-12
    got = {(round(p.real), round(p.imag)) for p in z}
    box = range(-max(norms), max(norms) + 1)
    want = {(m, n) for m in box for n in box if m * m + n * n in norms}
    assert got == want and len(c) == len(want)


def test_apsk_grid_rejects_bad_specs():
    # empty, duplicate, off-ring (3 is no m^2 + n^2), zero radius, non-int,
    # and an off-ring norm beside a whole ring
    for norms in ((), (2, 2), (3,), (0,), (2.5,), (1, 3)):
        with pytest.raises(ValueError):
            cs.make_apsk_grid(norms)


def test_normalize_qam16_scale_factor():
    c = cs.make_qam(16, UNIT)
    ref = cs.make_qam(16, MIND).points * (2.0 / math.sqrt(10.0))
    assert np.allclose(np.sort_complex(c.points), np.sort_complex(ref),
                       atol=1e-12)
    assert math.isclose(cs.min_distance(c), 2.0 / math.sqrt(10.0),
                        rel_tol=1e-12)


def test_normalize_psk8_to_min_dist():
    c = cs.make_psk(8, MIND)
    radius = 1.0 / (2.0 * math.sin(math.pi / 8))
    assert np.allclose(np.abs(c.points), radius)
    assert np.allclose(c.points, cs.make_psk(8, UNIT).points * radius,
                       atol=1e-12)
    assert math.isclose(cs.min_distance(c), 1.0, rel_tol=1e-12)


def test_difference_set_invariants():
    for ident in ("qam4", "qam16", "psk8", "apsk16-grid"):
        c = cs.constellation_by_id(ident, UNIT)
        d = cs.difference_set(c)
        assert np.any(d == 0)
        neg = np.sort_complex(-d)
        assert np.allclose(np.sort_complex(d), neg, atol=1e-12)


def test_psk_size_is_capped_before_the_distance_matrix():
    # psk512 stays available; psk100000 would need a 149 GiB M x M matrix
    assert len(cs.make_psk(2048, UNIT)) == 2048
    with pytest.raises(ValueError, match="M <= 2048, got 100000"):
        cs.make_psk(100000, UNIT)


_TOL = cs.DEDUP_TOL


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 60))
def test_streaming_dedup_keeps_the_earliest_row_of_each_key(data, n):
    # key columns: an int column and a float one whose planted
    # near-duplicates sit well inside DEDUP_TOL of a base value
    draw = data.draw
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    bases = st.lists(st.sampled_from([0.0, 0.5, -1.25, 2.0 ** 0.5]),
                     min_size=n, max_size=n)
    jitter = st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n)
    k_int = np.array(draw(ints), dtype=np.int64)
    k_flt = np.array(draw(bases)) + np.array(draw(jitter)) * _TOL
    pos = np.arange(n)
    cols = (k_int, k_flt, pos)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    edges = [0] + cuts + [n]
    blocks = [[c[lo:hi] for c in cols] for lo, hi in zip(edges, edges[1:])]

    whole = cs._first_of_runs([cols], 2)
    split = cs._first_of_runs(iter(blocks), 2)
    for w, s in zip(whole, split):
        assert w.dtype == s.dtype
        assert w.view(np.uint8).tobytes() == s.view(np.uint8).tobytes()

    def keys(row, cols):
        return (int(cols[0][row]), int(round(float(cols[1][row]) / _TOL)))

    first = {}
    for row in range(n):
        first.setdefault(keys(row, cols), row)
    got = [keys(r, whole) for r in range(whole[0].size)]
    assert got == sorted(first)
    assert [int(p) for p in whole[2]] == [first[k] for k in got]
    # the kept float is the earliest row's own, not another of its key
    assert np.array_equal(whole[1], k_flt[whole[2]])


@st.composite
def key_column(draw, n):
    """n int64 or float keys from a few values, so keys repeat; floats
    get planted near-duplicates well inside DEDUP_TOL.  Spans reach
    2^61 and past 2^62, where the packed key must fall back to ranks."""
    if draw(st.booleans()):
        ints = (st.integers(-2 ** 63, 2 ** 63 - 1)
                | st.integers(-2 ** 61, 2 ** 61) | st.integers(-3, 3))
        pool = draw(st.lists(ints, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                      max_size=n)), dtype=np.int64)
    mag = draw(st.sampled_from([1.0, 1e3, 2e9, 9e9]))
    pool = draw(st.lists(st.floats(-mag, mag), min_size=1, max_size=4))
    base = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n))
    return np.array(base) + np.array(jitter) * _TOL


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), n_keys=st.integers(1, 3))
def test_streaming_dedup_matches_the_stable_sort_oracle(data, n, n_keys):
    draw = data.draw
    keys = [draw(key_column(n)) for _ in range(n_keys)]
    cols = keys + [np.arange(n)]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    edges = [0] + cuts + [n]
    splits = [list(zip(edges, edges[1:])),
              # one row per block, an empty block after each
              [(k, k + d) for k in range(n) for d in (1, 0)]]
    want = oracles.first_of_runs_oracle(cols, n_keys)
    for bounds in splits:
        blocks = [[c[lo:hi] for c in cols] for lo, hi in bounds]
        got = cs._first_of_runs(iter(blocks), n_keys)
        for w, g in zip(want, got, strict=True):
            assert w.dtype == g.dtype
            assert np.array_equal(w, g)


@st.composite
def sorted_columns(draw, n):
    """1-3 columns of n rows, each int or float from a few values so
    rows repeat, sorted together as rows."""
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        vals, dtype = draw(st.sampled_from([
            (st.integers(-2, 2), np.int64),
            (st.sampled_from([-1.5, -0.0, 0.0, 5e-324, 2.0 ** 0.5]),
             np.float64)]))
        cols.append(np.array(draw(st.lists(vals, min_size=n, max_size=n)),
                             dtype=dtype))
    order = np.lexsort(cols[::-1])
    return [c[order] for c in cols]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 40))
def test_runs_start_where_sorted_rows_change(data, n):
    cols = data.draw(sorted_columns(n))
    rows = list(zip(*(c.tolist() for c in cols)))
    want, at = [], 0
    for _, run in itertools.groupby(rows):
        want.append(at)
        at += len(list(run))
    got = cs._runs(cols)
    assert got.dtype == np.intp
    assert got.tolist() == want


@pytest.mark.parametrize("cols, want", [
    ([np.array([], dtype=np.int64)], []),
    ([np.array([]), np.array([], dtype=np.int64)], []),
    ([np.array([7])], [0]),
    ([np.array([1.5]), np.array([2]), np.array([-0.0])], [0]),
])
def test_runs_of_empty_and_single_rows(cols, want):
    assert cs._runs(cols).tolist() == want


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cs.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_difference_sets_do_not_import_numpy_ma():
    # numpy.ma, which np.unique imports on first use, costs 10-20 ms:
    # more than the difference sets a fresh process builds on start-up;
    # nor does importing one module load the package's others or the
    # process pool that simulate brings
    run_fresh(
        "import sys\n"
        "import fdstbc\n"
        "from fdstbc import constellations as cs\n"
        "ids = ['qam4', 'qam16', 'qam64', 'apsk8', 'apsk16', 'apsk8-grid',\n"
        "       'apsk16-grid'] + [f'psk{m}' for m in range(2, 33)]\n"
        "for ident in ids:\n"
        "    for norm in cs.NORMALIZATIONS:\n"
        "        try:\n"
        "            c = cs.constellation_by_id(ident, norm)\n"
        "        except ValueError:\n"
        "            continue\n"
        "        cs.difference_set(c)\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "own = {m for m in sys.modules if m.split('.')[0] == 'fdstbc'}\n"
        "assert own == {'fdstbc', 'fdstbc.constellations'}, own\n"
        "pools = {m for m in sys.modules\n"
        "         if m.split('.')[0] == 'multiprocessing'\n"
        "         or m.startswith('concurrent.futures')}\n"
        "assert not pools, pools\n")


def test_cli_requests_do_not_import_numpy_ma():
    # one-shot requests through step 1 off the grid, simulate's lattice
    # slicer and the lemma sweeps' residue classes stay clear of numpy.ma
    run_fresh(
        "import contextlib, io, sys\n"
        "from fdstbc import cli\n"
        "for argv in (['optimize', '--constellation', 'psk8'],\n"
        "             ['simulate', '--constellation', 'qam16',\n"
        "              '--snr', '0:1:0', '--codewords', '16'],\n"
        "             ['lemmas', '--sweep', 'small']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n")


def test_grid_differences_are_integer_coordinates():
    for ident in ("qam4", "qam16", "qam64", "psk2", "psk4", "apsk8-grid",
                  "apsk16-grid"):
        for norm in (UNIT, MIND, GRID):
            c = cs.constellation_by_id(ident, norm)
            assert c.integer_grid
            d = cs.difference_set(c) / math.sqrt(c.scale_sq)
            xy = np.stack([d.real, d.imag])
            assert np.abs(xy - np.round(xy)).max() < 1e-9
            # the scale is the lattice step, not a multiple of it
            assert np.gcd.reduce(np.round(xy).astype(np.int64),
                                 axis=None) == 1


@pytest.mark.parametrize("seed", range(4))
def test_doubled_grid_points_scale_the_grid_and_the_gain(seed):
    rng = np.random.default_rng(seed)
    xy = rng.choice(81, size=6, replace=False)
    pts = xy // 9 - 4 + 1j * (xy % 9 - 4)
    r = analytic_integer_optimum()[0]
    one, two = (cs._grid_constellation("random", k * pts, GRID)
                for k in (1, 2))
    assert two.scale_sq == 4 * one.scale_sq
    assert coding_gain(two, r, method="aggregated").gain_exact == \
        16 * coding_gain(one, r, method="aggregated").gain_exact


def test_grid_apsk_papr_below_qam16():
    lhs = cs.papr(cs.constellation_by_id("apsk8-grid", UNIT))
    rhs = cs.papr(cs.make_qam(16, UNIT))
    assert lhs < rhs


def test_constellation_by_id_rejects_unknown():
    with pytest.raises(ValueError):
        cs.constellation_by_id("hexagon7")
