"""2x2 full-rate codeword construction and its determinant split.

The code stacks four symbols into

    X = [[s1 + r*s3,  j*conj(r)*conj(s2) - conj(s4)],
         [s2 + r*s4, -j*conj(r)*conj(s1) + conj(s3)]]

with a unit-modulus design coefficient r = u + j*v.  X splits as
X = X_A + X_B where each part is column-orthogonal (X*X^H diagonal),
which is what the conditional decoder exploits.  build_codeword is the
package's one codeword builder: it broadcasts over arrays of symbols,
so the simulator's transmitter, its exhaustive-ML decoder and the
direct determinant all build X through it.

For a difference tuple (ds1, ds2, ds3, ds4) the determinant reduces to

    det = r*B - j*conj(r)*A + C - j*conj(C)

with A = |ds1|^2 + |ds2|^2, B = |ds3|^2 + |ds4|^2 and
C = ds1*conj(ds3) + ds2*conj(ds4).  Writing d2_tilde = Im(C) - Re(C),
the C part equals -d2_tilde*(1 - j), a point on the line x + y = 0.
When A == B (case I) the r part collapses to A*(u - v)*(1 - j) as well,
so |det|^2 = 2*(A*(u - v) - d2_tilde)^2.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

CASE_TOL = 1e-9
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class DesignCoefficient:
    """Unit-modulus coefficient r = u + j*v.

    ``t_exact`` optionally pins u - v to an exact rational, which unlocks
    exact integer arithmetic in the gain engine (analytic optima set it).
    """

    u: float
    v: float
    provenance: str = "user"
    t_exact: Fraction | None = None

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"r must be finite: u={self.u!r} v={self.v!r}")
        if abs(self.u * self.u + self.v * self.v - 1.0) > UNIT_TOL:
            raise ValueError(f"|r| != 1: u={self.u!r} v={self.v!r}")
        if self.t_exact is not None and abs(self.t - self.t_exact) > UNIT_TOL:
            raise ValueError("t_exact does not match u - v")

    @property
    def r(self) -> complex:
        return complex(self.u, self.v)

    @property
    def t(self) -> float:
        return self.u - self.v

    @classmethod
    def from_complex(cls, z: complex, provenance: str = "user") -> "DesignCoefficient":
        return cls(u=z.real, v=z.imag, provenance=provenance)


def build_codeword(s1, s2, s3, s4, r: DesignCoefficient) -> np.ndarray:
    """The codeword X of the module docstring, for scalar or array symbols.

    Symbols broadcast against each other; the result has shape
    (..., 2, 2), one (2, 2) matrix for scalar symbols.  Scalars are
    computed as 1-element arrays: numpy's scalar complex arithmetic can
    round differently from its array loops, and a codeword must not
    depend on the batch it is built in.
    """
    rr = r.r
    jrc = 1j * rr.conjugate()
    s = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.complex128) for v in (s1, s2, s3, s4)))
    shape = s[0].shape
    s1, s2, s3, s4 = (v.reshape(-1) for v in s)
    x = np.empty((s1.size, 2, 2), dtype=np.complex128)
    x[:, 0, 0] = s1 + rr * s3
    x[:, 0, 1] = jrc * np.conj(s2) - np.conj(s4)
    x[:, 1, 0] = s2 + rr * s4
    x[:, 1, 1] = -jrc * np.conj(s1) + np.conj(s3)
    return x.reshape(shape + (2, 2))


# Golden code constants.  The leading factor sqrt(2/5) (instead of the
# customary 1/sqrt(5)) calibrates both codes to the same per-antenna
# average transmit power of 2 per channel use for unit-power symbols,
# which is the power the unnormalized main code radiates; coding gains
# of the two constructions are then directly comparable.
_GOLDEN_THETA = (1.0 + math.sqrt(5.0)) / 2.0
_GOLDEN_THETA_BAR = 1.0 - _GOLDEN_THETA
_GOLDEN_ALPHA = 1.0 + 1j * (1.0 - _GOLDEN_THETA)
_GOLDEN_ALPHA_BAR = 1.0 + 1j * (1.0 - _GOLDEN_THETA_BAR)
_GOLDEN_SCALE = math.sqrt(2.0 / 5.0)


def build_codeword_golden(s1, s2, s3, s4) -> np.ndarray:
    th, tb = _GOLDEN_THETA, _GOLDEN_THETA_BAR
    al, ab = _GOLDEN_ALPHA, _GOLDEN_ALPHA_BAR
    return _GOLDEN_SCALE * np.array([
        [al * (s1 + th * s2), al * (s3 + th * s4)],
        [1j * ab * (s3 + tb * s4), ab * (s1 + tb * s2)],
    ], dtype=np.complex128)


@dataclass(frozen=True)
class DifferenceTuple:
    """Per-symbol difference of two codewords; not all four may be zero."""

    ds1: complex
    ds2: complex
    ds3: complex
    ds4: complex

    def __post_init__(self):
        if self.ds1 == 0 and self.ds2 == 0 and self.ds3 == 0 and self.ds4 == 0:
            raise ValueError("all-zero difference tuple")

    @property
    def A(self) -> float:
        return abs(self.ds1) ** 2 + abs(self.ds2) ** 2

    @property
    def B(self) -> float:
        return abs(self.ds3) ** 2 + abs(self.ds4) ** 2

    @property
    def C(self) -> complex:
        return self.ds1 * self.ds3.conjugate() + self.ds2 * self.ds4.conjugate()

    @property
    def d2_tilde(self) -> float:
        c = self.C
        return c.imag - c.real

    @property
    def case(self) -> str:
        return "I" if abs(self.A - self.B) <= CASE_TOL else "II"


@dataclass(frozen=True)
class DetSplit:
    det: complex
    A: float
    B: float
    C: complex
    d1: complex
    d2: complex
    d2_tilde: float
    case: str


def det_closed_form(t: DifferenceTuple, r: DesignCoefficient) -> DetSplit:
    """Determinant of the difference codeword via the A/B/C reduction."""
    rr = r.r
    a, b, c = t.A, t.B, t.C
    d1 = rr * b - 1j * rr.conjugate() * a
    d2t = c.imag - c.real
    d2 = d2t * (1 - 1j)
    return DetSplit(det=d1 - d2, A=a, B=b, C=c, d1=d1, d2=d2,
                    d2_tilde=d2t, case=t.case)


def det_direct(t: DifferenceTuple, r: DesignCoefficient) -> complex:
    """Plain 2x2 determinant of the difference codeword (oracle path)."""
    x = build_codeword(t.ds1, t.ds2, t.ds3, t.ds4, r)
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
