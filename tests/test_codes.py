import cmath
from dataclasses import dataclass
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdstbc import codes

import oracles


R1 = codes.DesignCoefficient(u=1.0, v=0.0, provenance="test")


# Oracles: the codeword written out for one symbol tuple, its X_A + X_B
# split, and the general (a, b, c, d) form the code specialises.

def reference_codeword(s1, s2, s3, s4, r):
    rr = r.r
    jrc = 1j * rr.conjugate()
    return np.array([
        [s1 + rr * s3, jrc * np.conj(s2) - np.conj(s4)],
        [s2 + rr * s4, -jrc * np.conj(s1) + np.conj(s3)],
    ], dtype=np.complex128)


def build_codeword_parts(s1, s2, s3, s4, r):
    """Split X = X_A + X_B; each part satisfies M @ M^H = diagonal."""
    rr = r.r
    jrc = 1j * rr.conjugate()
    x_a = np.array([
        [s1, jrc * np.conj(s2)],
        [s2, -jrc * np.conj(s1)],
    ], dtype=np.complex128)
    x_b = np.array([
        [rr * s3, -np.conj(s4)],
        [rr * s4, np.conj(s3)],
    ], dtype=np.complex128)
    return x_a, x_b


@dataclass(frozen=True)
class GeneralCoefficients:
    """Coefficients (a, b, c, d) of the general-form codeword."""

    a: complex
    b: complex
    c: complex
    d: complex


def build_codeword_general(s1, s2, s3, s4, g):
    return np.array([
        [g.a * s1 + g.b * s3, -g.c * np.conj(s2) - g.d * np.conj(s4)],
        [g.a * s2 + g.b * s4, g.c * np.conj(s1) + g.d * np.conj(s3)],
    ], dtype=np.complex128)


def simplified_coefficients(r):
    """The (a, b, c, d) = (1, r, -j*conj(r), 1) specialisation."""
    rr = r.r
    return GeneralCoefficients(a=1, b=rr, c=-1j * rr.conjugate(), d=1)


def case2_lower_bound(t, r):
    """(B - A)^2 (u + v)^2 / 2, the perpendicular-distance floor on |det|^2."""
    if oracles.case(t) == "I":
        raise ValueError("bound applies to case II tuples only (A != B)")
    return (oracles.B(t) - oracles.A(t)) ** 2 * (r.u + r.v) ** 2 / 2.0


def rand_coeff(rng):
    ang = rng.uniform(0, 2 * math.pi)
    return codes.DesignCoefficient(u=math.cos(ang), v=math.sin(ang),
                                   provenance="test")


def test_codeword_frozen_example():
    x = codes.build_codeword(1, 1, 1, 1, R1)
    want = np.array([[2, 1j - 1], [2, 1 - 1j]], dtype=complex)
    assert np.allclose(x, want, atol=1e-15)
    det = x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
    assert abs(det - (4 - 4j)) < 1e-12


def test_build_codeword_broadcasts():
    rng = np.random.default_rng(21)
    r = rand_coeff(rng)
    s = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
    x = codes.build_codeword(*s, r)
    assert x.shape == (3, 5, 2, 2)
    for i in range(3):
        for k in range(5):
            one = codes.build_codeword(*s[:, i, k], r)
            assert one.shape == (2, 2)
            assert np.array_equal(x[i, k], one)
            # numpy scalar arithmetic may round the last bit differently
            assert np.allclose(one, reference_codeword(*s[:, i, k], r),
                               rtol=0.0, atol=1e-14)
    # a scalar symbol broadcasts against arrays of the others
    mixed = codes.build_codeword(s[0, 0], 1.0, s[2, 0], s[3, 0], r)
    assert mixed.shape == (5, 2, 2)
    for k in range(5):
        assert np.array_equal(
            mixed[k], codes.build_codeword(s[0, 0, k], 1.0, s[2, 0, k],
                                           s[3, 0, k], r))


def test_unit_modulus_is_enforced():
    from fractions import Fraction
    with pytest.raises(ValueError):
        codes.DesignCoefficient(u=1.0, v=0.5)
    with pytest.raises(ValueError):
        codes.DesignCoefficient(u=0.6, v=0.8, t_exact=Fraction(1, 2))


@pytest.mark.parametrize("u, v", [(math.nan, 1.0), (1.0, math.nan),
                                  (math.inf, 0.0), (0.0, -math.inf)])
def test_non_finite_coefficient_is_rejected(u, v):
    # abs(nan - 1) > tol is False, so the modulus check alone lets NaN in
    with pytest.raises(ValueError, match="finite"):
        codes.DesignCoefficient(u=u, v=v)


def test_from_complex_round_trip():
    r = codes.DesignCoefficient.from_complex(cmath.exp(0.7j))
    assert abs(r.r - cmath.exp(0.7j)) < 1e-15
    assert abs(r.t - (r.u - r.v)) == 0.0


def test_single_difference_determinant():
    t = codes.DifferenceTuple(1, 0, 0, 0)
    r = codes.DesignCoefficient(u=0.8, v=0.6)
    det = oracles.det_direct(t, r)
    assert abs(det - (-1j * r.r.conjugate())) < 1e-14


def test_all_zero_tuple_rejected():
    with pytest.raises(ValueError):
        codes.DifferenceTuple(0, 0, 0, 0)


def test_closed_form_matches_direct_determinant():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        ds = rng.integers(-3, 4, size=8).astype(float)
        if not np.any(ds):
            continue
        t = codes.DifferenceTuple(complex(ds[0], ds[1]), complex(ds[2], ds[3]),
                                  complex(ds[4], ds[5]), complex(ds[6], ds[7]))
        r = rand_coeff(rng)
        split = oracles.det_closed_form(t, r)
        assert abs(split.det - oracles.det_direct(t, r)) < 1e-12


component = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(ds=st.lists(component, min_size=8, max_size=8),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_closed_form_matches_direct_determinant_off_grid(ds, angle):
    # any real components, not only integer-grid ones
    if not any(ds):
        return
    t = codes.DifferenceTuple(*(complex(ds[k], ds[k + 1])
                                for k in range(0, 8, 2)))
    r = codes.DesignCoefficient(u=math.cos(angle), v=math.sin(angle))
    split = oracles.det_closed_form(t, r)
    direct = oracles.det_direct(t, r)
    assert abs(split.det - direct) <= \
        1e-12 * (1.0 + oracles.A(t) + oracles.B(t))


def test_d2_tilde_sign_convention():
    t = codes.DifferenceTuple(1, 0, 1j, 0)
    # C = ds1 * conj(ds3) = -1j, d2_tilde = Im - Re = -1
    assert oracles.d2_tilde(t) == -1.0
    flipped = codes.DifferenceTuple(1, 0, -1j, 0)
    assert oracles.d2_tilde(flipped) == 1.0


def test_case_classification():
    assert oracles.case(codes.DifferenceTuple(1, 0, 1, 0)) == "I"
    assert oracles.case(codes.DifferenceTuple(1, 0, 0, 0)) == "II"
    assert oracles.case(codes.DifferenceTuple(1, 1, 1j, -1)) == "I"


def test_case2_lower_bound_holds():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 2000:
        ds = rng.integers(-2, 3, size=8).astype(float)
        if not np.any(ds):
            continue
        t = codes.DifferenceTuple(complex(ds[0], ds[1]), complex(ds[2], ds[3]),
                                  complex(ds[4], ds[5]), complex(ds[6], ds[7]))
        if oracles.case(t) != "II":
            continue
        r = rand_coeff(rng)
        bound = case2_lower_bound(t, r)
        assert abs(oracles.det_direct(t, r)) ** 2 >= bound - 1e-9
        checked += 1


def test_case2_bound_rejects_case1():
    with pytest.raises(ValueError):
        case2_lower_bound(codes.DifferenceTuple(1, 0, 1, 0), R1)


def test_codeword_parts_are_column_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = rand_coeff(rng)
        xa, xb = build_codeword_parts(*s, r)
        assert np.allclose(xa + xb, codes.build_codeword(*s, r), atol=1e-14)
        for m in (xa, xb):
            g = m @ m.conj().T
            assert abs(g[0, 1]) < 1e-12 and abs(g[1, 0]) < 1e-12


def test_simplified_coefficients_reproduce_codeword():
    rng = np.random.default_rng(9)
    s = rng.normal(size=4) + 1j * rng.normal(size=4)
    r = rand_coeff(rng)
    g = simplified_coefficients(r)
    assert np.allclose(build_codeword_general(*s, g),
                       codes.build_codeword(*s, r), atol=1e-14)


def test_golden_codeword_power_calibration():
    # the sqrt(2/5) leading factor calibrates the golden construction to
    # per-antenna power 2 per channel use for unit-power symbols, the
    # same power the unnormalized main code radiates (two unit symbols
    # per entry); gains of the two constructions are then comparable
    rng = np.random.default_rng(17)
    acc = 0.0
    n = 20_000
    pts = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)
    for _ in range(n):
        k = rng.integers(0, 4, size=4)
        x = oracles.build_codeword_golden(*pts[k])
        acc += (np.abs(x) ** 2).sum(axis=1).mean() / 2.0
    assert abs(acc / n - 2.0) < 0.04
