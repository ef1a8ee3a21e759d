import cmath
import math

import numpy as np
import pytest

from fdstbc import codes


R1 = codes.DesignCoefficient(u=1.0, v=0.0, provenance="test")


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
    det = codes.det_direct(t, r)
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
        split = codes.det_closed_form(t, r)
        assert abs(split.det - codes.det_direct(t, r)) < 1e-12


def test_d2_tilde_sign_convention():
    t = codes.DifferenceTuple(1, 0, 1j, 0)
    # C = ds1 * conj(ds3) = -1j, d2_tilde = Im - Re = -1
    assert t.d2_tilde == -1.0
    flipped = codes.DifferenceTuple(1, 0, -1j, 0)
    assert flipped.d2_tilde == 1.0


def test_case_classification():
    assert codes.DifferenceTuple(1, 0, 1, 0).case == "I"
    assert codes.DifferenceTuple(1, 0, 0, 0).case == "II"
    assert codes.DifferenceTuple(1, 1, 1j, -1).case == "I"


def test_case2_lower_bound_holds():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 2000:
        ds = rng.integers(-2, 3, size=8).astype(float)
        if not np.any(ds):
            continue
        t = codes.DifferenceTuple(complex(ds[0], ds[1]), complex(ds[2], ds[3]),
                                  complex(ds[4], ds[5]), complex(ds[6], ds[7]))
        if t.case != "II":
            continue
        r = rand_coeff(rng)
        bound = codes.case2_lower_bound(t, r)
        assert abs(codes.det_direct(t, r)) ** 2 >= bound - 1e-9
        checked += 1


def test_case2_bound_rejects_case1():
    with pytest.raises(ValueError):
        codes.case2_lower_bound(codes.DifferenceTuple(1, 0, 1, 0), R1)


def test_codeword_parts_are_column_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = rand_coeff(rng)
        xa, xb = codes.build_codeword_parts(*s, r)
        assert np.allclose(xa + xb, codes.build_codeword(*s, r), atol=1e-14)
        for m in (xa, xb):
            g = m @ m.conj().T
            assert abs(g[0, 1]) < 1e-12 and abs(g[1, 0]) < 1e-12


def test_simplified_coefficients_reproduce_codeword():
    rng = np.random.default_rng(9)
    s = rng.normal(size=4) + 1j * rng.normal(size=4)
    r = rand_coeff(rng)
    g = codes.simplified_coefficients(r)
    assert np.allclose(codes.build_codeword_general(*s, g),
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
        x = codes.build_codeword_golden(*pts[k])
        acc += (np.abs(x) ** 2).sum(axis=1).mean() / 2.0
    assert abs(acc / n - 2.0) < 0.04
