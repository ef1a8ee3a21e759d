import math
from dataclasses import dataclass
from fractions import Fraction

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
