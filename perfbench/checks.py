"""Output checks for benchmark requests.

Every answer is checked against values recorded in expected.json (see
record.py).  Numbers are compared at the CLI's 12 significant digits
with a relative tolerance, never as byte digests, so a float near-tie
that flips in a later rewrite is not counted as a failure; byte
identity is the test suite's job.

BER answers cannot be compared exactly because each pass draws a new
`simulate --seed`.  Each point's error rate must instead lie in a Wilson
interval that overlaps the recorded default-seed interval.  Codewords,
not bits, are used as the trials: the per-codeword error fraction lies
in [0, 1], so its variance is at most p(1 - p) and the interval is
conservative even though bit errors cluster within a codeword.
"""

import math

import numpy as np

REL_TOL = 1e-10
WILSON_Z = 5.0
EXACT_QAM64_GAIN = "1/2"


def parse_report(text: str) -> dict:
    """'key = value' lines of a CLI report."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def parse_csv(text: str):
    """(comment dict, header, rows) of CLI CSV output."""
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            comments[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _same_number(got: str, want: str) -> bool:
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL,
                            abs_tol=1e-14)
    except ValueError:
        return False


def _same_row(got, want) -> bool:
    if len(got) != len(want):
        return False
    return all(g == w or _same_number(g, w) for g, w in zip(got, want))


def wilson(k: float, n: int, z: float = WILSON_Z):
    """Wilson score interval for k successes in n trials."""
    p = k / n
    den = 1.0 + z * z / n
    mid = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return mid - half, mid + half


def check_optimize(name: str, text: str, expected: dict) -> list:
    rep = parse_report(text)
    want = expected["optimize"][name]
    return [f"optimize {name}: {key} = {rep.get(key)!r}, recorded {val!r}"
            for key, val in want.items()
            if not _same_number(rep.get(key, ""), val)]


def check_gain_qam64(text: str) -> list:
    got = parse_report(text).get("gain_exact")
    if got != EXACT_QAM64_GAIN:
        return [f"gain qam64: gain_exact = {got!r}, "
                f"expected {EXACT_QAM64_GAIN}"]
    return []


def check_table(which: str, text: str, expected: dict) -> list:
    _, header, rows = parse_csv(text)
    want = expected[which]
    if header != want["header"] or len(rows) != len(want["rows"]):
        return [f"{which}: header or row count differs from the record"]
    return [f"{which}: row {g} differs from recorded {w}"
            for g, w in zip(rows, want["rows"]) if not _same_row(g, w)]


def check_lemmas(text: str, expected: dict) -> list:
    seen = {}
    for line in text.splitlines():
        label, sep, rest = line.partition(": checked=")
        if sep:
            checked, _, tail = rest.partition(" failures=")
            seen[label] = (int(checked), int(tail.split()[0]))
    problems = []
    for label, checked in expected["lemmas"].items():
        if seen.get(label) != (checked, 0):
            problems.append(f"lemmas {label!r}: got (checked, failures) "
                            f"{seen.get(label)}, recorded ({checked}, 0)")
    return problems


def check_simulate(req, text: str, expected: dict) -> list:
    comments, header, rows = parse_csv(text)
    want = expected["simulate"][req.slot]
    if header is None or len(rows) != len(want["bit_errors"]):
        return [f"simulate {req.slot}: {len(rows)} points, "
                f"recorded {len(want['bit_errors'])}"]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    n = req.codewords
    for k, row in enumerate(rows):
        errors, bits = int(row[col["bit_errors"]]), int(row[col["bits"]])
        if (int(row[col["codewords"]]) != n or bits != want["bits"][k]
                or row[col["decoder"]] != req.decoder):
            problems.append(f"simulate {req.slot} point {k}: row {row}")
            continue
        lo, hi = wilson(errors / bits * n, n)
        rlo, rhi = wilson(want["bit_errors"][k] / bits * n, n)
        if hi < rlo or rhi < lo:
            problems.append(
                f"simulate {req.slot} point {k}: {errors} bit errors, "
                f"recorded {want['bit_errors'][k]} at seed {want['seed']}")
    return problems


def check_answer(req, rc, text: str, expected: dict) -> list:
    """Problems with one request's exit code and output (empty if fine)."""
    if rc != 0:
        return [f"{req.slot}: exit code {rc}"]
    if req.kind == "simulate":
        return check_simulate(req, text, expected)
    if req.kind == "optimize":
        return check_optimize(req.argv[-1], text, expected)
    if req.kind == "gain":
        return check_gain_qam64(text)
    if req.kind == "tables":
        return check_table(req.argv[0], text, expected)
    if req.kind == "lemmas":
        return check_lemmas(text, expected)
    return [f"{req.slot}: no check for request kind {req.kind!r}"]


def coefficient_from_csv(text: str):
    """The design coefficient echoed in a simulate CSV header."""
    from fdstbc.codes import DesignCoefficient

    comments, _, _ = parse_csv(text)
    u, v = float(comments["u"]), float(comments["v"])
    mod = math.hypot(u, v)
    return DesignCoefficient(u=u / mod, v=v / mod)


def random_receptions(c, r, rng, count: int, snr_db):
    """`count` noisy receptions (y, effective channel) of random codewords."""
    from fdstbc.codes import build_codeword
    from fdstbc.simulate import TX_SCALE, noise_variance, transmit

    out = []
    for _ in range(count):
        s = c.points[rng.integers(0, len(c), size=4)]
        h = TX_SCALE * (rng.normal(size=(2, 2))
                        + 1j * rng.normal(size=(2, 2))) * math.sqrt(0.5)
        snr = snr_db[rng.integers(0, len(snr_db))]
        y = transmit(build_codeword(*s, r), h, noise_variance(snr), rng)
        out.append((y, h))
    return out


def check_decoders(c, r, receptions, fast=None, ml=None) -> list:
    """Receptions where the fast decoder's decision differs from ML."""
    from fdstbc import simulate

    fast = fast or simulate.fast_decode
    ml = ml or simulate.ml_decode_exhaustive
    bad = 0
    for y, h in receptions:
        if not np.array_equal(np.array(fast(y, h, r, c)),
                              np.array(ml(y, h, r, c))):
            bad += 1
    if bad:
        return [f"{c.name}: fast decoder differs from exhaustive ML on "
                f"{bad} of {len(receptions)} receptions"]
    return []
