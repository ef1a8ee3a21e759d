"""Integer identities behind the worst-case gain analysis.

Three executable facts about sums of four squares, checked
exhaustively over bounded ranges rather than proved for all integers:

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
sweeps count the box by residue class: one histogram of the classes
that decide the claim, then one lookup or bilinear form per class
instead of one test per tuple.  Every tuple in the box is still
counted, and ``checked`` is the same tuple count a one-by-one loop
reports.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .constellations import _ranks, _runs
from .optimizer import build_case1_table


def _v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


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


def sweep_dichotomy(limit: int = 64, k_max: int = 5) -> SweepResult:
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


def sweep_euler_identity(n: int = 10_000, limit: int = 64,
                         seed: int = 0) -> SweepResult:
    """Check the product identity on n random integer 8-tuples."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-limit, limit + 1, size=(n, 8)).astype(np.int64)
    a, b, c, d, e, f, g, h = (v[:, i] for i in range(8))
    t1, t2, t3, t4 = euler_four_square(a, b, c, d, e, f, g, h)
    lhs = t1 * t1 + t2 * t2 + t3 * t3 + t4 * t4
    rhs = (a * a + b * b + c * c + d * d) * (e * e + f * f + g * g + h * h)
    return SweepResult("product identity (random)", n,
                       int((lhs != rhs).sum()))


def _cross_term_failures(x, mod: int) -> int:
    """Count ordered pairs of rows of x with t1 + t2 not 0 mod `mod`.

    t1 + t2 = a(e+f) + b(f-e) + c(g+h) + d(h-g) mod `mod` depends only
    on both quadruples mod `mod`, so rows are counted per residue class
    and one class pair stands for all mult_i * mult_j row pairs.
    """
    res = x % mod
    cls = ((res[:, 0] * mod + res[:, 1]) * mod + res[:, 2]) * mod + res[:, 3]
    rank, n = _ranks(cls)
    mult = np.bincount(rank, minlength=n)
    r = np.empty((n, 4), dtype=res.dtype)
    r[rank] = res  # every row of a class carries the class's residues
    w = np.stack([r[:, 0] + r[:, 1], r[:, 1] - r[:, 0],
                  r[:, 2] + r[:, 3], r[:, 3] - r[:, 2]], axis=1)
    bad = ((r @ w.T) % mod != 0).astype(np.int64)
    return int(mult @ bad @ mult)


def sweep_cross_term_exhaustive(limit: int = 8,
                                k_max: int = 4) -> SweepResult:
    """Exhaust cross-term divisibility over |values| <= limit, k <= k_max.

    Groups all quadruples by norm S.  In each group with v2(S) >= 1
    every ordered pair is checked, counted per residue class mod 2^k
    (``_cross_term_failures``) rather than one pair at a time.
    """
    r = np.arange(-limit, limit + 1, dtype=np.int64)
    quads = np.stack(np.meshgrid(r, r, r, r, indexing="ij"),
                     axis=-1).reshape(-1, 4)
    s = (quads * quads).sum(axis=1)
    # in 16 bits (limit <= 127) a stable argsort is a radix sort
    narrow = s.astype(np.min_scalar_type(4 * limit * limit))
    order = np.argsort(narrow, kind="stable")
    quads, s = quads[order], s[order]
    bounds = np.append(_runs([s]), s.size).tolist()
    checked = 0
    failures = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sval = int(s[lo])
        if sval == 0:
            continue
        k = min(_v2(sval), k_max)
        if k == 0:
            continue
        checked += (hi - lo) ** 2
        failures += _cross_term_failures(quads[lo:hi], 1 << k)
    return SweepResult("cross-term divisibility (exhaustive)",
                       checked, failures)


_SORT_BLOCK = 2 ** 16  # quadruple norms placed per counting-sort block


def _pair_runs(limit: int):
    """Pairs 0 <= a <= b <= limit, lexicographic, and their id runs.

    Returns (lo, hi, tail).  Pair (c, d) may follow pair p = (a, b) in a
    sorted quadruple iff c >= b: the last tail[p] pairs of the list.
    Quadruple ids number the (p, q) p-major, so pair p owns tail[p]
    consecutive ids, and its last one pairs it with the last pair.
    """
    n = limit + 1
    lo, hi = np.triu_indices(n)
    return lo, hi, lo.size - np.searchsorted(lo, np.arange(n))[hi]


def _signed(limit: int):
    """The narrowest signed integer type that holds +-limit."""
    return np.min_scalar_type(-limit - 1)


def _quadruples(limit: int, ids) -> np.ndarray:
    """The sorted quadruples (a, b, c, d) of quadruple ids, as (n, 4)
    in the narrowest signed integer type that holds +-limit."""
    lo, hi, tail = _pair_runs(limit)
    # a gather from an id -> pair table: a binary search of random ids
    # branches unpredictably
    owner = np.arange(lo.size, dtype=np.min_scalar_type(lo.size - 1))
    p = np.repeat(owner, tail)[ids]
    q = ids - np.cumsum(tail)[p] + lo.size
    pairs = np.stack([lo, hi], axis=1).astype(_signed(limit))
    return np.concatenate([pairs[p], pairs[q]], axis=1)


def _norm_index(limit: int):
    """Sorted non-negative quadruples by norm, as quadruple ids.

    Returns (order, start, count): order[start[S]:start[S] + count[S]]
    lists, in lexicographic order, the ids (see _pair_runs and
    _quadruples) of every sorted quadruple 0 <= a <= b <= c <= d <=
    limit with a^2+b^2+c^2+d^2 = S.  One norm per id, 16 bits for
    limit <= 127, goes through a stable counting sort in blocks of
    _SORT_BLOCK ids, so no sort index wider than a block exists.
    """
    lo, hi, tail = _pair_runs(limit)
    smax = 4 * limit * limit
    norm = (lo * lo + hi * hi).astype(np.min_scalar_type(smax))
    s = np.repeat(norm, tail)
    s += np.concatenate([norm[-t:] for t in tail.tolist()])
    blocks = [s[i:i + _SORT_BLOCK] for i in range(0, s.size, _SORT_BLOCK)]
    count = sum(np.bincount(b, minlength=smax + 1) for b in blocks)
    start = np.cumsum(count) - count
    order = np.empty(s.size, np.int32 if s.size < 2 ** 31 else np.int64)
    at = start.copy()  # where the next id of each norm goes
    for i, b in enumerate(blocks):
        ob = np.argsort(b, kind="stable")
        nb = np.bincount(b, minlength=smax + 1)
        # the m-th id of norm S in this block goes to at[S] + m
        shift = at - (np.cumsum(nb) - nb)
        order[shift[b[ob]] + np.arange(b.size)] = ob + i * _SORT_BLOCK
        at += nb
    return order, start, count


def sweep_cross_term_random(n: int = 100_000, limit: int = 64,
                            seed: int = 0) -> SweepResult:
    """Cross-term divisibility on n random preconditioned pairs.

    Draws (a, b, c, d) uniformly in the +-limit box, then picks a
    second quadruple of the same norm from a representation table,
    with random signs and a random coordinate order.  Only the picked
    rows of the table are spelled out, and the samples stay in the
    narrowest integer type until the int64 products.
    """
    rng = np.random.default_rng(seed)
    order, start, count = _norm_index(limit)
    narrow = _signed(limit)
    x = rng.integers(-limit, limit + 1, size=(n, 4)).astype(narrow)
    s = np.einsum("ij,ij->i", x, x, dtype=np.int64)
    pick = start[s] + (rng.random(n) * count[s]).astype(np.int64)
    y = _quadruples(limit, order[pick])
    del order, pick
    y *= rng.integers(0, 2, size=(n, 4)).astype(narrow) * 2 - 1
    perm = np.argsort(rng.random((n, 4)), axis=1).astype(np.int8)
    y = np.take_along_axis(y, perm, axis=1)
    t1, t2, _, _ = euler_four_square(*x.astype(np.int64).T, *y.T)
    cross = t1 + t2
    nz = s > 0
    k = np.zeros(n, dtype=np.int64)
    k[nz] = np.log2(s[nz] & -s[nz]).astype(np.int64)
    failures = int((cross % (1 << k) != 0).sum())
    return SweepResult("cross-term divisibility (random)", n, failures)


# run_sweeps' named sizes: each lemma sweep's arguments, in run order
SWEEP_SIZES = {
    "small": ({"limit": 16, "k_max": 3}, {"n": 1_000},
              {"limit": 4, "k_max": 3}, {"n": 10_000, "limit": 16}),
    "full": ({"limit": 64, "k_max": 5}, {"n": 10_000},
             {"limit": 8, "k_max": 4}, {"n": 100_000}),
}


def run_sweeps(size: str = "full") -> list:
    """All lemma sweeps at one of SWEEP_SIZES."""
    if size not in SWEEP_SIZES:
        raise ValueError(f"unknown sweep size {size!r}")
    sweeps = (sweep_dichotomy, sweep_euler_identity,
              sweep_cross_term_exhaustive, sweep_cross_term_random)
    return [f(**kw) for f, kw in zip(sweeps, SWEEP_SIZES[size])]
