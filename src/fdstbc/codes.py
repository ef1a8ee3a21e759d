"""2x2 full-rate codeword construction.

The code stacks four symbols into

    X = [[s1 + r*s3,  j*conj(r)*conj(s2) - conj(s4)],
         [s2 + r*s4, -j*conj(r)*conj(s1) + conj(s3)]]

with a unit-modulus design coefficient r = u + j*v.  X splits as
X = X_A + X_B where each part is column-orthogonal (X*X^H diagonal),
which is what the conditional decoder exploits.  build_codeword is the
package's one codeword builder: it broadcasts over arrays of symbols,
so the simulator's transmitter and its exhaustive-ML decoder build X
through it.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

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
