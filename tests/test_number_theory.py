import math
from dataclasses import dataclass
from fractions import Fraction
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from fdstbc import constellations as cs
from fdstbc import number_theory as nt

# Scalar oracles for the three four-square facts.  The package checks
# the facts with vectorised sweeps (nt.run_sweeps); these one-instance
# versions pin them on hand-picked cases.

ALL_DIVISIBLE = "all-divisible"
NONE_DIVISIBLE = "none-divisible"


@dataclass(frozen=True)
class FourSquareWitness:
    """One checked instance of the divisibility dichotomy."""

    a: int
    b: int
    c: int
    d: int
    k: int
    classification: str


def classify_four_square(a: int, b: int, c: int, d: int,
                         k: int) -> FourSquareWitness:
    """Classify (a, b, c, d) with 2^(2k) | a^2+b^2+c^2+d^2.

    Returns the witness with classification ALL_DIVISIBLE or
    NONE_DIVISIBLE.  Raises ValueError when the precondition fails and
    RuntimeError if the dichotomy itself fails, which no integer input
    can trigger.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    s = a * a + b * b + c * c + d * d
    if s % (1 << (2 * k)) != 0:
        raise ValueError(f"2^{2 * k} does not divide {s}")
    if k >= 1:
        half = 1 << (k - 1)
        if any(x % half != 0 for x in (a, b, c, d)):
            raise RuntimeError(
                f"2^{k - 1} should divide each of {(a, b, c, d)}")
    full = 1 << k
    hits = sum(x % full == 0 for x in (a, b, c, d))
    if hits == 4:
        cls = ALL_DIVISIBLE
    elif hits == 0:
        cls = NONE_DIVISIBLE
    else:
        raise RuntimeError(
            f"dichotomy failed for {(a, b, c, d)} at k={k}: {hits}/4")
    return FourSquareWitness(a, b, c, d, k, cls)


def check_cross_term_divisibility(a, b, c, d, e, f, g, h, k: int) -> bool:
    """True when 2^k divides t1 + t2 for equal-norm quadruples.

    Preconditions: the two quadruples have the same sum of squares and
    2^k divides it.  A False return would falsify the divisibility
    fact, so callers treat it as a tripwire.
    """
    s1 = a * a + b * b + c * c + d * d
    s2 = e * e + f * f + g * g + h * h
    if s1 != s2:
        raise ValueError(f"norms differ: {s1} != {s2}")
    if s1 % (1 << k) != 0:
        raise ValueError(f"2^{k} does not divide {s1}")
    t1, t2, _, _ = nt.euler_four_square(a, b, c, d, e, f, g, h)
    return (t1 + t2) % (1 << k) == 0


def min_offset(t, m_max: int):
    """Minimum of |m*t - n| over odd m in [1, m_max] and integers n.

    Returns (value, m, n) for the smallest achieving m.  Exact when t
    is a Fraction.  For any t the value is at most 1/2, with equality
    exactly when t is a half-odd-integer; on the design range
    |t| <= sqrt(2) that means t = +-1/2.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    best = None
    for m in range(1, m_max + 1, 2):
        x = m * t
        n = int(x) if x >= 0 else -int(-x)
        for cand in (n - 1, n, n + 1):
            off = abs(x - cand)
            if best is None or off < best[0]:
                best = (off, m, cand)
    return best


# Tuple-at-a-time oracles for the class-counting sweeps.  Each takes
# `shift`: the claimed divisor is 2^(k + shift), so shift=1 asks one
# power of 2 more than the lemma gives and the claim fails.

def dichotomy_oracle(limit, k_max, shift=0):
    """Per-a loop over the (b, c, d) cube, as nt.sweep_dichotomy."""
    n = limit + 1
    b, c, d = np.meshgrid(np.arange(n, dtype=np.int64),
                          np.arange(n, dtype=np.int64),
                          np.arange(n, dtype=np.int64), indexing="ij")
    b, c, d = b.ravel(), c.ravel(), d.ravel()
    s_bcd = b * b + c * c + d * d
    checked = 0
    failures = 0
    for a in range(n):
        s = s_bcd + a * a
        for k in range(k_max + 1):
            pre = s % (1 << (2 * k)) == 0
            if not pre.any():
                continue
            full = 1 << (k + shift)
            hits = ((a % full == 0) + (b[pre] % full == 0).astype(np.int64)
                    + (c[pre] % full == 0) + (d[pre] % full == 0))
            checked += int(pre.sum())
            failures += int(((hits != 0) & (hits != 4)).sum())
            if full >= 2:
                half = full >> 1
                lows = ((a % half == 0)
                        + (b[pre] % half == 0).astype(np.int64)
                        + (c[pre] % half == 0) + (d[pre] % half == 0))
                failures += int((lows != 4).sum())
    return nt.SweepResult("four-square dichotomy", checked, failures)


def norm_groups(limit, k_max):
    """(quadruples of one norm S, min(v2(S), k_max)) for each S with 2 | S."""
    r = np.arange(-limit, limit + 1, dtype=np.int64)
    quads = np.stack(np.meshgrid(r, r, r, r, indexing="ij"),
                     axis=-1).reshape(-1, 4)
    s = (quads * quads).sum(axis=1)
    for sval in np.unique(s).tolist():
        if sval == 0 or sval % 2:
            continue
        k = min((sval & -sval).bit_length() - 1, k_max)
        yield quads[s == sval], k


def cross_term_oracle(limit, k_max, shift=0):
    """One integer matmul over all ordered pairs of each norm group."""
    checked = 0
    failures = 0
    for x, k in norm_groups(limit, k_max):
        w = np.stack([x[:, 0] + x[:, 1], x[:, 1] - x[:, 0],
                      x[:, 2] + x[:, 3], x[:, 3] - x[:, 2]], axis=1)
        cross = x @ w.T
        checked += cross.size
        failures += int((cross % (1 << (k + shift)) != 0).sum())
    return nt.SweepResult("cross-term divisibility (exhaustive)",
                          checked, failures)


def dichotomy_counts_cube(limit, pre, full):
    """nt._dichotomy_counts by one bincount over the (b, c, d) cube.

    The package's former class count, kept as the reference for its
    pair-histogram form: each a reads the cube's row at (-a^2) mod pre.
    """
    x = np.arange(limit + 1, dtype=np.int64)
    sq = x * x % pre
    by_full = (x % full == 0).astype(np.int64)
    by_half = (x % max(full // 2, 1) == 0).astype(np.int64)

    def cube(v):
        return (v[:, None, None] + v[None, :, None] + v[None, None, :]).ravel()

    key = (cube(sq) % pre * 4 + cube(by_full)) * 4 + cube(by_half)
    rows = np.bincount(key, minlength=pre * 16).reshape(pre, 4, 4)
    rows = rows[-sq % pre]                     # (a, b..d by full, by half)
    hits = by_full[:, None] + np.arange(4)     # a..d divisible by full
    bad = ((hits != 0) & (hits != 4))[:, :, None].astype(np.int64)
    if full >= 2:
        bad = bad + (by_half[:, None] + np.arange(4) != 4)[:, None, :]
    return int(rows.sum()), int((rows * bad).sum())


def random_pairs_oracle(n, limit, seed):
    """(x, y) as sweep_cross_term_random pairs its draws, spelled out:
    x the drawn quadruples; y their partners, each the next draw of its
    norm in draw order (the last of a norm wraps to the first), after
    random signs and a random coordinate order."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-limit, limit + 1, size=(n, 4)).astype(np.int64)
    by_norm = {}
    for i, row in enumerate(x.tolist()):
        by_norm.setdefault(sum(v * v for v in row), []).append(i)
    partner = [0] * n
    for ids in by_norm.values():
        for j, i in enumerate(ids):
            partner[i] = ids[(j + 1) % len(ids)]
    y = x[partner] * (rng.integers(0, 2, size=(n, 4)) * 2 - 1)
    perm = np.argsort(rng.random((n, 4)), axis=1)
    return x, np.take_along_axis(y, perm, axis=1)


def test_classify_none_divisible():
    w = classify_four_square(1, 1, 1, 1, k=1)
    assert w.classification == NONE_DIVISIBLE
    assert (w.a, w.b, w.c, w.d, w.k) == (1, 1, 1, 1, 1)


def test_classify_all_divisible():
    assert classify_four_square(2, 2, 2, 2, 1).classification \
        == ALL_DIVISIBLE
    # signs don't matter
    assert classify_four_square(-2, 2, -2, 2, 1).classification \
        == ALL_DIVISIBLE


def test_classify_k2_none():
    # 6^2+2^2+2^2+2^2 = 48 = 16*3, yet 4 divides none of them
    w = classify_four_square(6, 2, 2, 2, k=2)
    assert w.classification == NONE_DIVISIBLE


def test_classify_k0_is_trivially_all():
    assert classify_four_square(1, 2, 3, 4, 0).classification \
        == ALL_DIVISIBLE


def test_classify_precondition():
    with pytest.raises(ValueError):
        classify_four_square(1, 0, 0, 0, k=1)
    with pytest.raises(ValueError):
        classify_four_square(1, 1, 1, 1, k=-1)


def test_classify_small_exhaustive():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    s = a * a + b * b + c * c + d * d
                    for k in range(3):
                        if s % (1 << (2 * k)):
                            continue
                        w = classify_four_square(a, b, c, d, k)
                        assert w.classification in (
                            ALL_DIVISIBLE, NONE_DIVISIBLE)


def test_euler_product_frozen_example():
    t = nt.euler_four_square(1, 2, 3, 4, 5, 6, 7, 8)
    assert t == (70, -8, 0, -16)
    assert sum(x * x for x in t) == 30 * 174


def test_euler_product_identity_random():
    import random
    rng = random.Random(7)
    for _ in range(200):
        v = [rng.randint(-50, 50) for _ in range(8)]
        t1, t2, t3, t4 = nt.euler_four_square(*v)
        lhs = t1 * t1 + t2 * t2 + t3 * t3 + t4 * t4
        rhs = sum(x * x for x in v[:4]) * sum(x * x for x in v[4:])
        assert lhs == rhs


def test_cross_term_examples():
    assert check_cross_term_divisibility(1, 2, 3, 4, 1, 2, 3, 4, k=1)
    assert check_cross_term_divisibility(1, 2, 3, 4, 2, 1, 4, 3, k=1)


def test_cross_term_preconditions():
    with pytest.raises(ValueError):
        check_cross_term_divisibility(1, 0, 0, 0, 1, 1, 0, 0, k=1)
    with pytest.raises(ValueError):
        # norm 30 is not divisible by 4
        check_cross_term_divisibility(1, 2, 3, 4, 1, 2, 3, 4, k=2)


def test_min_offset_half():
    off, m, n = min_offset(Fraction(1, 2), 9)
    assert off == Fraction(1, 2)
    assert (m, n) == (1, 0)


def test_min_offset_rational_hit():
    off, m, n = min_offset(Fraction(2, 5), 5)
    assert off == 0
    assert (m, n) == (5, 2)


def test_min_offset_float_half():
    off, m, n = min_offset(0.5, 9)
    assert off == 0.5
    assert (m, n) == (1, 0)


def test_min_offset_psk8_optimum_below_half():
    t = (11 + 6 * math.sqrt(2)) / 49
    off, m, n = min_offset(t, 99)
    assert off < 0.5
    assert (m, n) == (83, 33)
    assert math.isclose(off, abs(m * t - n))


def test_min_offset_never_exceeds_half():
    import random
    rng = random.Random(3)
    for _ in range(100):
        t = rng.uniform(-1.5, 1.5)
        off, _, _ = min_offset(t, 19)
        assert off <= 0.5 + 1e-12


def test_min_offset_rejects_empty_range():
    with pytest.raises(ValueError):
        min_offset(0.3, 0)


def test_lemma1_bound_qam4_equality_at_half():
    c = cs.constellation_by_id("qam4", cs.NORM_INTEGER)
    rep = nt.verify_lemma1_bound(c, Fraction(1, 2))
    assert rep.divisibility_ok
    assert rep.bound_met
    assert rep.equality_at_half
    assert rep.case1_gain_grid == 0.5
    assert rep.n_rows == 18


def test_lemma1_bound_qam4_rational_below_half():
    # t = 1/3 meets the bound but with gain exactly 0: the A = 3 row
    # contains dt = 1
    c = cs.constellation_by_id("qam4", cs.NORM_INTEGER)
    rep = nt.verify_lemma1_bound(c, Fraction(1, 3))
    assert rep.bound_met
    assert not rep.equality_at_half
    assert rep.case1_gain_grid == 0.0


def test_lemma1_bound_qam16():
    c = cs.constellation_by_id("qam16", cs.NORM_INTEGER)
    rep = nt.verify_lemma1_bound(c, Fraction(1, 2))
    assert rep.divisibility_ok
    assert rep.equality_at_half
    assert rep.n_rows == 558


def test_lemma1_bound_float_t():
    c = cs.constellation_by_id("qam4", cs.NORM_INTEGER)
    rep = nt.verify_lemma1_bound(c, 0.5)
    assert rep.bound_met
    assert rep.equality_at_half


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_lemma1_bound_refuses_non_finite_t(t):
    # NaN once gave a report with offset = nan and bound_met = False
    c = cs.constellation_by_id("qam16", cs.NORM_INTEGER)
    with pytest.raises(ValueError, match="finite"):
        nt.verify_lemma1_bound(c, t)


def test_lemma1_bound_needs_grid():
    c = cs.make_psk(8, cs.NORM_UNIT_POWER)
    with pytest.raises(ValueError):
        nt.verify_lemma1_bound(c, 0.5)


def test_small_sweeps_all_pass():
    results = nt.run_sweeps("small")
    assert len(results) == 4
    labels = {r.label for r in results}
    assert len(labels) == 4
    for r in results:
        assert r.checked > 0
        assert r.failures == 0
        assert r.ok


def test_run_sweeps_rejects_unknown_size():
    with pytest.raises(ValueError):
        nt.run_sweeps("huge")


DICHOTOMY_BOXES = [(7, 2), (16, 3), (23, 4), (33, 6)]
CROSS_TERM_BOXES = [(2, 1), (4, 3), (5, 4)]


@pytest.mark.parametrize("limit,k_max", DICHOTOMY_BOXES)
def test_dichotomy_matches_oracle(limit, k_max):
    got = nt.sweep_dichotomy(limit, k_max)
    assert got == dichotomy_oracle(limit, k_max)
    assert type(got.checked) is int and type(got.failures) is int


@pytest.mark.parametrize("limit,k_max", CROSS_TERM_BOXES)
def test_cross_term_exhaustive_matches_oracle(limit, k_max):
    got = nt.sweep_cross_term_exhaustive(limit, k_max)
    assert got == cross_term_oracle(limit, k_max)
    assert type(got.checked) is int and type(got.failures) is int


@pytest.mark.parametrize("limit,k_max", DICHOTOMY_BOXES)
def test_dichotomy_counts_failures_one_power_up(limit, k_max):
    # 2^(k+1) need not divide all or none of a..d, nor 2^k all of them
    checked = failures = 0
    for k in range(k_max + 1):
        c, f = nt._dichotomy_counts(limit, 1 << (2 * k), 1 << (k + 1))
        assert type(c) is int and type(f) is int
        checked += c
        failures += f
    want = dichotomy_oracle(limit, k_max, shift=1)
    assert (checked, failures) == (want.checked, want.failures)
    assert failures > 0


@pytest.mark.parametrize("limit,k_max", CROSS_TERM_BOXES)
def test_cross_term_counts_failures_one_power_up(limit, k_max):
    # 2^(k+1) need not divide t1 + t2
    checked, failures = nt._cross_term_counts(limit, k_max, shift=1)
    assert type(checked) is int and type(failures) is int
    want = cross_term_oracle(limit, k_max, shift=1)
    assert (checked, failures) == (want.checked, want.failures)
    assert failures > 0


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(1, 5), k_max=st.integers(1, 4))
def test_one_pass_cross_term_counts_match_the_oracle(limit, k_max):
    # the one-pass class count against one matmul per norm group, as
    # the lemma claims it and one power of 2 above it
    got = nt.sweep_cross_term_exhaustive(limit, k_max)
    assert got == cross_term_oracle(limit, k_max)
    checked, failures = nt._cross_term_counts(limit, k_max, shift=1)
    want = cross_term_oracle(limit, k_max, shift=1)
    assert (checked, failures) == (want.checked, want.failures)
    assert failures > 0


@pytest.mark.parametrize("limit", range(17))
def test_dichotomy_counts_match_the_cube_histogram(limit):
    for k in range(5):
        for full in (1 << k, 1 << (k + 1)):
            got = nt._dichotomy_counts(limit, 1 << (2 * k), full)
            assert got == dichotomy_counts_cube(limit, 1 << (2 * k), full)
            assert type(got[0]) is int and type(got[1]) is int


def spy_cross_term(monkeypatch, shift=0):
    """Patch nt._cross_term to record each call's (x, y) rows as one
    (n, 8) array and to add shift to its result."""
    seen = []
    cross_term = nt._cross_term

    def spy(x, y):
        seen.append(np.concatenate([x, y]).T.astype(np.int64))
        return cross_term(x, y) + shift
    monkeypatch.setattr(nt, "_cross_term", spy)
    return seen


@pytest.mark.parametrize("limit", [1, 4, 16, 64])
def test_random_sweep_picks_the_spelled_out_tables_quadruples(
        monkeypatch, limit):
    # the partner table spelled out in plain Python: each draw pairs
    # with the next draw of its norm
    seen = spy_cross_term(monkeypatch)
    got = nt.sweep_cross_term_random(n=100_000, limit=limit)
    assert got.checked == 100_000 and got.failures == 0
    x, y = random_pairs_oracle(100_000, limit, 0)
    (xy,) = seen
    assert np.array_equal(xy[:, :4], x)
    assert np.array_equal(xy[:, 4:], y)


def sorted_rows(q):
    """Rows of |q|, each sorted, in lexicographic row order."""
    q = np.sort(np.abs(q), axis=1)
    return q[np.lexsort(q.T[::-1])]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 2_000), limit=st.integers(1, 64),
       seed=st.integers(0, 2 ** 64 - 1))
def test_random_sweep_pairs_each_draw_once_within_its_norm(n, limit, seed):
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_cross_term(mp)
        got = nt.sweep_cross_term_random(n, limit, seed)
    assert (got.checked, got.failures) == (n, 0)
    (xy,) = seen
    x, y = xy[:, :4], xy[:, 4:]
    assert np.array_equal((x * x).sum(axis=1), (y * y).sum(axis=1))
    # up to signs and order the partners are the draws, each once
    assert np.array_equal(sorted_rows(y), sorted_rows(x))


def test_random_sweep_counts_what_the_cross_term_gives(monkeypatch):
    # t1 + t2 + 1 is odd, so every draw of even norm fails
    seen = spy_cross_term(monkeypatch, shift=1)
    got = nt.sweep_cross_term_random(n=10_000, limit=16)
    (xy,) = seen
    even = int(((xy[:, :4] ** 2).sum(axis=1) % 2 == 0).sum())
    assert got.checked == 10_000
    assert got.failures == even > 0


def test_random_sweep_stays_within_a_memory_budget():
    # the full-size sweep (n = 100,000, limit 64) traces about 7.3 MiB
    # on x86-64 with numpy 2.4
    tracemalloc.start()
    try:
        got = nt.sweep_cross_term_random(**nt.SWEEP_SIZES["full"][3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.checked == 100_000 and got.ok
    assert peak < 9 * 2 ** 20
