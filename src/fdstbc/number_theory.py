"""Integer identities behind the worst-case gain analysis.

Three executable facts about sums of four squares, checked over
bounded ranges rather than proved for all integers: fact 1 over a
whole box, fact 2 on random tuples, and fact 3 both over a whole box
and on random pairs from a larger one:

  1. dichotomy: if 2^(2k) | a^2+b^2+c^2+d^2 then 2^k divides either
     all of a, b, c, d or none of them;
  2. the four-square product identity (t1, t2, t3, t4 below);
  3. if two quadruples share a norm divisible by 2^k, the cross term
     t1 + t2 is divisible by 2^k as well.

Fact 3 is the glue that pins where the dt values of a case-I row can
sit: every attainable dt at a row with A = 2^k*m (m odd) is a multiple
of 2^k, which caps the case-I gain of any integer-grid constellation
at 1/2.  ``verify_lemma1_bound`` re-derives that cap from an
enumerated row table.

Facts 1 and 3 depend only on residues mod a power of 2, so their
exhaustive sweeps count the box by residue class instead of testing
one tuple at a time.  Every tuple in the box is still counted, and
``checked`` is the same tuple count a one-by-one loop reports.  How
each sweep counts:

  * ``sweep_dichotomy``: per k, one histogram of the (a, b) pairs by
    sum of squares mod 2^(2k) and how many of the two 2^k and 2^(k-1)
    divide, read at residues r and -r for (a, b) and (c, d);
  * ``sweep_euler_identity``: the identity on random 8-tuples, checked
    tuple by tuple in one vectorised pass;
  * ``sweep_cross_term_exhaustive``: one sort of (norm, residues mod
    2^k) keys over the whole box gives every class and its size, and
    each pair of classes of one norm is one bilinear form for all its
    quadruple pairs;
  * ``sweep_cross_term_random``: one stable sort of the random
    quadruples by norm pairs each with the next one of its norm, and
    only t1 + t2 is formed, in int32.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .constellations import _runs
from .gain import _expand
from .optimizer import build_case1_table


def euler_four_square(a, b, c, d, e, f, g, h):
    """Product form of two four-square sums.

    Returns (t1, t2, t3, t4) with
    t1^2 + t2^2 + t3^2 + t4^2 == (a^2+b^2+c^2+d^2)(e^2+f^2+g^2+h^2).
    """
    t1 = a * e + b * f + c * g + d * h
    t2 = a * f - b * e + c * h - d * g
    t3 = a * g - b * h - c * e + d * f
    t4 = a * h + b * g - c * f - d * e
    return t1, t2, t3, t4


@dataclass(frozen=True)
class Lemma1BoundReport:
    """Case-I gain bound check for one integer-grid constellation."""

    n_rows: int
    divisibility_ok: bool
    offset: float
    case1_gain_grid: float
    bound_met: bool
    equality_at_half: bool


def verify_lemma1_bound(c, t) -> Lemma1BoundReport:
    """Check the 1/2 case-I gain cap for an integer-grid constellation.

    Builds the (A, dt) row table in grid units, confirms every dt at a
    row A = 2^k*m (m odd) is a multiple of 2^k, then evaluates
    2*min|A*t - dt|^2 and compares against 1/2.  t may be a float or a
    Fraction; Fractions are evaluated exactly.
    """
    if not (isinstance(t, Fraction) or math.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    tab = build_case1_table(c)
    if tab.scale_sq is None:
        raise ValueError("constellation differences are not on an "
                         "integer grid")
    a, e = tab.a, tab.e
    div_ok = bool(np.all(e % (a & -a) == 0))  # a & -a: 2^k of A = 2^k*m
    if isinstance(t, Fraction):
        p, q = t.numerator, t.denominator
        off = Fraction(int(np.abs(a * p - e * q).min()), q)
        gain = 2 * off * off
        equality = gain == Fraction(1, 2)
        bound_met = gain <= Fraction(1, 2)
    else:
        off = float(np.abs(a * float(t) - e).min())
        gain = 2.0 * off * off
        equality = abs(gain - 0.5) <= 1e-12
        bound_met = gain <= 0.5 + 1e-12
    return Lemma1BoundReport(
        n_rows=tab.n_rows,
        divisibility_ok=div_ok,
        offset=float(off),
        case1_gain_grid=float(gain),
        bound_met=bool(bound_met),
        equality_at_half=bool(equality),
    )


@dataclass(frozen=True)
class SweepResult:
    label: str
    checked: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _dichotomy_counts(limit: int, pre: int, full: int):
    """(checked, failures) of one dichotomy level over 0 <= a..d <= limit.

    checked counts the quadruples with pre | a^2+b^2+c^2+d^2.  Each one
    scores a failure if `full` divides some but not all of a..d, and
    (for full >= 2) one more if full/2 does not divide all of them.
    Three numbers about a pair of values decide both: its sum of
    squares mod pre and how many of the two full and full/2 divide.
    One histogram of those classes over all (limit+1)^2 pairs, read at
    residues r and -r for (a, b) and (c, d), counts every quadruple in
    the box.
    """
    x = np.arange(limit + 1, dtype=np.int64)
    sq = x * x % pre
    by_full = (x % full == 0).astype(np.int64)
    by_half = (x % max(full // 2, 1) == 0).astype(np.int64)
    i, j = np.repeat(x, x.size), np.tile(x, x.size)
    two = np.zeros((pre, 3, 3), np.int64)  # (residue, by full, by half)
    np.add.at(two, ((sq[i] + sq[j]) % pre, by_full[i] + by_full[j],
                    by_half[i] + by_half[j]), 1)
    # quads[f1, h1, f2, h2]: quadruples whose pairs are in those classes
    quads = np.einsum("rab,rcd->abcd", two, two[-np.arange(pre) % pre])
    hits = np.add.outer(np.arange(3), np.arange(3))
    bad = ((hits != 0) & (hits != 4)).astype(np.int64)[:, None, :, None]
    if full >= 2:
        bad = bad + (hits != 4)[None, :, None, :]
    return int(quads.sum()), int((quads * bad).sum())


def sweep_dichotomy(limit: int, k_max: int) -> SweepResult:
    """Exhaust the dichotomy over 0 <= a,b,c,d <= limit, k <= k_max.

    Signs are irrelevant (only squares and |x| divisibility enter), so
    the non-negative orthant covers the full +-limit box.  Each k is
    one residue-class histogram over the whole box
    (``_dichotomy_counts`` with pre = 2^(2k), full = 2^k).
    """
    checked = failures = 0
    for k in range(k_max + 1):
        c, f = _dichotomy_counts(limit, 1 << (2 * k), 1 << k)
        checked += c
        failures += f
    return SweepResult("four-square dichotomy", checked, failures)


def sweep_euler_identity(n: int, limit: int, seed: int = 0) -> SweepResult:
    """Check the product identity on n random integer 8-tuples."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-limit, limit + 1, size=(n, 8)).astype(np.int64)
    a, b, c, d, e, f, g, h = (v[:, i] for i in range(8))
    t1, t2, t3, t4 = euler_four_square(a, b, c, d, e, f, g, h)
    lhs = t1 * t1 + t2 * t2 + t3 * t3 + t4 * t4
    rhs = (a * a + b * b + c * c + d * d) * (e * e + f * f + g * g + h * h)
    return SweepResult("product identity (random)", n,
                       int((lhs != rhs).sum()))


def _cross_term(x, y):
    """t1 + t2 of euler_four_square from the columns (a, b, c, d) of x
    and (e, f, g, h) of y: a(e+f) + b(f-e) + c(g+h) + d(h-g)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * (e + f) + b * (f - e) + c * (g + h) + d * (h - g)


def _box(v, w: int) -> np.ndarray:
    """v[a] << 3w + v[b] << 2w + v[c] << w + v[d] for every (a, b, c, d)
    of the box, a-major: sums of four table values at w = 0."""
    return sum(v.reshape((-1,) + (1,) * (3 - i)) << (w * (3 - i))
               for i in range(4)).ravel()


def _cross_term_counts(limit: int, k_max: int, shift: int = 0):
    """(checked, failures) of cross-term divisibility over |values| <=
    limit: every ordered pair of quadruples of one norm S, with v2(S) >= 1,
    fails if 2^(min(v2(S), k_max) + shift) does not divide t1 + t2.

    t1 + t2 mod 2^k depends only on both quadruples mod 2^k, so one sort
    of (S, residues mod 2^k) keys over the box gives every class and its
    multiplicity, and each pair of classes of one norm is scored once
    for all its mult_i * mult_j quadruple pairs.  Residues take w bits a
    coordinate; once 2^w covers the box, a class is a single quadruple.
    """
    s = np.arange(4 * limit * limit + 1)
    k = np.zeros(s.size, np.int64)  # min(v2(S), k_max), 0 at S = 0
    for j in range(1, k_max + 1):
        k += s % (1 << j) == 0
    k[0] = 0
    k = np.where(k > 0, k + shift, 0)
    w = min(k_max + shift, (2 * limit).bit_length())
    r = np.arange(-limit, limit + 1)
    norm = _box(r * r, 0)
    sel = k[norm] > 0
    norm = norm[sel]
    ones = sum(1 << (w * i) for i in range(4))
    mask = ((1 << np.minimum(k[norm], w)) - 1) * ones  # residues of S
    key = np.sort(norm << (4 * w) | _box(r & ((1 << w) - 1), w)[sel] & mask)
    if not key.size:
        return 0, 0
    first = _runs([key])
    mult = np.diff(np.append(first, key.size))
    key = key[first]
    kc = k[key >> (4 * w)]
    g = _runs([key >> (4 * w)])
    size = np.diff(np.append(g, key.size))
    checked = int((np.add.reduceat(mult, g) ** 2).sum())
    # each class as signed values: its residues, or those less 2^w, so
    # the same mod 2^k for k <= w, and the quadruple itself for k > w
    # (then 2^w covers the box and the residues are unmasked)
    cols = [key >> (w * (3 - i)) & ((1 << w) - 1) for i in range(4)]
    cols = [np.where(c > limit, c - (1 << w), c).astype(np.int32)
            for c in cols]
    low = (1 << kc) - 1
    failures = 0
    for i, j in _expand(np.repeat(g, size), np.repeat(size, size)):
        cross = _cross_term([c[i] for c in cols], [c[j] for c in cols])
        bad = cross & low[i] != 0
        failures += int(mult[i][bad] @ mult[j][bad])
    return checked, failures


def sweep_cross_term_exhaustive(limit: int, k_max: int) -> SweepResult:
    """Exhaust cross-term divisibility over |values| <= limit, k <= k_max.

    Every ordered pair of quadruples that share a norm S with v2(S) >= 1
    is checked, counted per residue class mod 2^min(v2(S), k_max) in one
    pass over the box (``_cross_term_counts``).
    """
    checked, failures = _cross_term_counts(limit, k_max)
    return SweepResult("cross-term divisibility (exhaustive)",
                       checked, failures)


def _shuffled(y, u) -> np.ndarray:
    """Each row of y in the order np.argsort(u, axis=1) gives (ties by
    position): entry i of a row goes to its rank among the row of u."""
    n, m = y.shape
    rank = np.zeros((m, n), np.int32 if n * m < 2 ** 31 else np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            later = u[:, i] > u[:, j]
            rank[i] += later
            rank[j] += ~later
    out = np.empty_like(y)
    flat = out.reshape(-1)
    rank += np.arange(0, n * m, m, dtype=rank.dtype)
    for i in range(m):
        flat[rank[i]] = y[:, i]
    return out


def _next_of_norm(s, smax: int) -> np.ndarray:
    """For each i, the next j > i with s[j] == s[i], or else the first
    j with s[j] == s[i] (i itself when s[i] is unique); 0 <= s <= smax."""
    # keys of 16 bits or less (smax < 2^16) sort by radix
    by_s = np.argsort(s.astype(np.min_scalar_type(smax)), kind="stable")
    first = _runs([s[by_s]])
    nxt = np.roll(by_s, -1)
    nxt[np.roll(first, -1) - 1] = by_s[first]  # each run's last wraps
    out = np.empty_like(by_s)
    out[by_s] = nxt
    return out


def sweep_cross_term_random(n: int, limit: int,
                            seed: int = 0) -> SweepResult:
    """Cross-term divisibility on n random preconditioned pairs.

    Draws n quadruples uniformly in the +-limit box.  Each draw's
    partner is the next draw of the same norm, in draw order, and the
    last draw of a norm pairs with the first; a draw alone at its norm
    pairs with itself.  The draws are independent, so a partner is a
    uniform box quadruple of that norm.  The partner then gets random
    signs and a random coordinate order, so even a lone draw meets a
    signed permutation of itself.  The samples stay in the narrowest
    integer type, and t1 + t2 (|t1 + t2| <= 8*limit^2) is formed alone
    in int32; 2^k of S = 2^k*m (m odd) is S & -S.
    """
    rng = np.random.default_rng(seed)
    narrow = np.min_scalar_type(-limit - 1)  # holds +-limit
    x = rng.integers(-limit, limit + 1, size=(n, 4)).astype(narrow)
    s = np.einsum("ij,ij->i", x, x, dtype=np.int32)
    y = x[_next_of_norm(s, 4 * limit * limit)]
    y *= rng.integers(0, 2, size=(n, 4)).astype(narrow) * 2 - 1
    y = _shuffled(y, rng.random((n, 4)))
    cross = _cross_term(x.T.astype(np.int32), y.T.astype(np.int32))
    failures = int(np.count_nonzero(cross & ((s & -s) - 1)))
    return SweepResult("cross-term divisibility (random)", n, failures)


# run_sweeps' named sizes: every size argument of each lemma sweep, in
# run order; the sweeps take no size defaults
SWEEP_SIZES = {
    "small": ({"limit": 16, "k_max": 3}, {"n": 1_000, "limit": 64},
              {"limit": 4, "k_max": 3}, {"n": 10_000, "limit": 16}),
    "full": ({"limit": 64, "k_max": 5}, {"n": 10_000, "limit": 64},
             {"limit": 8, "k_max": 4}, {"n": 100_000, "limit": 64}),
}


def run_sweeps(size: str) -> list:
    """All lemma sweeps at one of SWEEP_SIZES."""
    if size not in SWEEP_SIZES:
        raise ValueError(f"unknown sweep size {size!r}")
    sweeps = (sweep_dichotomy, sweep_euler_identity,
              sweep_cross_term_exhaustive, sweep_cross_term_random)
    return [f(**kw) for f, kw in zip(sweeps, SWEEP_SIZES[size])]
