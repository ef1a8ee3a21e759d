"""fdstbc benchmark: BER throughput and exact-search time-to-answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ber-dense,ber-pool,design} \
        --seed N --seconds S --trace {0,1}

One closed-loop client sends the workload's CLI requests in-process
through fdstbc.cli.main(argv), pass after pass, until S seconds of
requests have run (at least MIN_PASSES passes).  Every answer is
checked (checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  The lines before it are a human-readable report with
the machine, each metric's median, tail percentile and sample count.

--trace 1 replays one pass of every workload with spans around the
layer calls (spans.py), times the layers' public functions directly
where no CLI request reaches them, and writes the spans to
perfbench/.out/.  Tracing overhead is the traced minus the untraced
time of the same pass of the selected workload.
"""

import argparse
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
import io
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Set-up samples are spread over the run, between passes, so a slow
# spell of the machine does not hit all of them.
SETUP_SAMPLES = 9
# fast == ML is checked on this many receptions per constellation; the
# 64-point exhaustive ML costs seconds per reception and is left out.
DECODER_CHECKS = {4: 48, 8: 24, 16: 6}
PROBE_RECEPTIONS = {"qam16": 12, "psk8": 48}

_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from fdstbc import constellations as cs
for ident, norm in zip(sys.argv[2::2], sys.argv[3::2]):
    cs.difference_set(cs.constellation_by_id(ident, norm))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Answer:
    req: object
    rc: object
    out: str
    seconds: float
    problems: list = field(default_factory=list)


def send(req, cli) -> Answer:
    """Run one request through the CLI, capturing its output and time."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a raising request is a failed request, not a crash
        rc = "raised: " + traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    ans = Answer(req, rc, out.getvalue(), seconds)
    if rc != 0 and err.getvalue():
        ans.problems.append(err.getvalue().strip()[-300:])
    return ans


def run_pass(reqs, cli, tracer=None, label=""):
    answers = []
    for req in reqs:
        if tracer is None:
            answers.append(send(req, cli))
            continue
        tracer.request = f"{label}:{req.slot}"
        with tracer.span("cli.main", slot=req.slot, kind=req.kind):
            answers.append(send(req, cli))
        tracer.request = None
    return answers


def check(answers, expected, seed):
    """Check every answer; fast == ML once per simulated constellation."""
    import numpy as np
    from fdstbc import constellations as cs

    from checks import (check_answer, check_decoders, coefficient_from_csv,
                        random_receptions)

    checked = set()
    for ans in answers:
        ans.problems += check_answer(ans.req, ans.rc, ans.out, expected)
        name = ans.req.constellation
        if ans.req.kind != "simulate" or ans.problems or name in checked:
            continue
        checked.add(name)
        c = cs.constellation_by_id(name)
        count = DECODER_CHECKS.get(len(c), 0)
        if count:
            rng = np.random.default_rng([seed, len(checked)])
            grid = [float(x) for x in expected["simulate"][ans.req.slot]
                    ["snr_db"]]
            r = coefficient_from_csv(ans.out)
            recs = random_receptions(c, r, rng, count, grid)
            ans.problems += check_decoders(c, r, recs)


def peak_rss_mb() -> float:
    """Highest high-water mark of this process or any finished child.

    A forked pool worker's RSS starts with the parent's pages, so adding
    the two would count them twice; the larger of the two still shows a
    worker whose own allocations outgrow the parent.  The set-up children
    only import the package and never set the maximum.
    """
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_seconds(workload) -> float:
    """Import fdstbc and build the workload's constellations, fresh process."""
    from workloads import SETUP_CONSTELLATIONS

    args = [x for pair in SETUP_CONSTELLATIONS[workload] for x in pair]
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)]
                          + args, capture_output=True, text=True, check=True,
                          timeout=120, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def machine(seed, workload, trace) -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": platform.processor() or "",
            "seed": seed, "workload": workload, "trace": trace}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                info[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return info


def tail(samples):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p <= 50:
        return "tail", None
    k = min(n - 1, math.ceil(p / 100.0 * n) - 1)
    return f"p{p}", sorted(samples)[k]


def report(name, unit, samples, note=""):
    label, value = tail(samples)
    tail_txt = f"{value:.6g}" if value is not None else "n/a"
    print(f"  {name:<34} {statistics.median(samples):>12.6g} {unit:<6} "
          f"{label}={tail_txt:<10} n={len(samples):<4} {note}")


def per_pass_sums(passes, kinds):
    return [sum(a.seconds for a in p if a.req.kind in kinds) for p in passes]


def end_to_end(workload, passes, setups, rss, attempted, failed):
    slot_times = {}
    for p in passes:
        for a in p:
            slot_times.setdefault(a.req.slot, []).append(a.seconds)
    medians = [statistics.median(v) for v in slot_times.values()]
    wall = sum(medians)
    gmean_ms = 1000.0 * math.exp(sum(math.log(m) for m in medians)
                                 / len(medians))
    print("end-to-end (median over passes; tracing off):")
    report("wall_s (sum of per-request medians)", "s", [wall])
    report("wall_s (per pass)", "s", [sum(a.seconds for a in p)
                                      for p in passes])
    report("answer_gmean_ms", "ms", [gmean_ms])
    if workload.startswith("ber"):
        rates = [sum(a.req.codewords * a.req.snr_points for a in p)
                 / sum(a.seconds for a in p) for p in passes]
        report("cw_per_s", "1/s", rates, "codewords / simulate time")
    else:
        for metric, kinds in (("optimize_s", {"optimize"}),
                              ("gain_s", {"gain"}),
                              ("tables_s", {"tables"}),
                              ("lemmas_s", {"lemmas"})):
            report(metric, "s", per_pass_sums(passes, kinds))
    report("setup_s", "s", setups)
    report("peak_rss_mb", "MB", [rss],
           "max of self and largest child" if workload == "ber-pool" else "")
    print(f"  {'fail_frac':<34} {failed / attempted:>12.6g} "
          f"({failed}/{attempted} requests)")
    return {"wall_s": (wall, "s"), "answer_gmean_ms": (gmean_ms, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB")}


def probe_decoders(tracer, seed):
    """Per-reception time of the public decoders on qam16 and psk8."""
    import numpy as np
    from fdstbc import constellations as cs, simulate
    from fdstbc.optimizer import optimize

    from checks import random_receptions

    out = {}
    for name, count in PROBE_RECEPTIONS.items():
        c = cs.constellation_by_id(name)
        r = optimize(c)[0]
        recs = random_receptions(c, r, np.random.default_rng([seed, 99]),
                                 count, [6.0])
        m = len(c)
        for label, fn, hyps in (("fast", simulate.fast_decode, m ** 2),
                                ("ml", simulate.ml_decode_exhaustive, m ** 4)):
            times = []
            for y, h in recs:
                with tracer.span(f"simulate.{fn.__name__}",
                                 constellation=name) as rec:
                    fn(y, h, r, c)
                times.append(rec["end"] - rec["start"])
            sec = statistics.median(times)
            out[f"simulate.{label}_decode_ms.{name}"] = (1000.0 * sec, "ms")
            out[f"simulate.hyp_per_s.{label}.{name}"] = (hyps / sec, "hyp/s")
    return out


def probe_constellations(tracer, reps=15):
    from fdstbc import constellations as cs
    from workloads import SETUP_CONSTELLATIONS

    ids = sorted({p for v in SETUP_CONSTELLATIONS.values() for p in v})
    build, diff = [], []
    for _ in range(reps):
        with tracer.span("constellations.build") as b:
            cons = [cs.constellation_by_id(i, n) for i, n in ids]
        with tracer.span("constellations.difference_set_all") as d:
            for c in cons:
                cs.difference_set(c)
        build.append(b["end"] - b["start"])
        diff.append(d["end"] - d["start"])
    return {"constellations.build_s": (statistics.median(build), "s"),
            "constellations.difference_set_s": (statistics.median(diff), "s")}


def layer_metrics(tracer):
    from spans import duration, self_time

    spans = tracer.spans

    def total(name, fn=duration, **tags):
        return sum(fn(s) for s in spans if s["name"] == name
                   and all(s["tags"].get(k) == v for k, v in tags.items()))

    def count(name, tag):
        return sum(s["tags"][tag] for s in spans if s["name"] == name)

    m = {}
    for s in spans:
        if s["name"] == "simulate.run_ber":
            slot = s["request"].rsplit(":", 1)[1]
            key = f"simulate.run_ber_s.{slot}"
            m[key] = (m.get(key, (0.0,))[0] + duration(s), "s")
    m["simulate.codewords"] = (count("simulate.run_ber", "codewords"), "count")
    m["simulate.chunks"] = (count("simulate.run_ber", "chunks"), "count")
    m["simulate.bit_errors"] = (count("simulate.run_ber", "bit_errors"),
                                "count")
    m["optimizer.case1_table_s"] = (total("optimizer.build_case1_table"), "s")
    m["optimizer.table_rows"] = (count("optimizer.build_case1_table", "rows"),
                                 "count")
    m["optimizer.step1_s"] = (total("optimizer.optimize_step1", self_time),
                              "s")
    m["optimizer.breakpoints"] = (count("optimizer.optimize_step1",
                                        "breakpoints"), "count")
    m["optimizer.step2_s"] = (total("optimizer.verify_step2"), "s")
    m["gain.coding_gain_s"] = (total("gain.coding_gain"), "s")
    for route in ("aggregated_int", "aggregated_float", "exhaustive"):
        m[f"gain.{route}_s"] = (total("gain.coding_gain", route=route), "s")
    m["gain.golden_s"] = (total("gain.golden_coding_gain"), "s")
    m["gain.d_size"] = (count("constellations.difference_set", "size"),
                        "count")
    for sweep in ("dichotomy", "euler_identity", "cross_term_exhaustive",
                  "cross_term_random"):
        m[f"number_theory.{sweep}_s"] = (total(f"number_theory.{sweep}"), "s")
        m[f"number_theory.{sweep}.checked"] = (
            count(f"number_theory.{sweep}", "checked"), "count")
    layer_self = {}
    for s in spans:
        if s["request"] is not None:
            layer = s["name"].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time(s)
    for layer in ("cli", "constellations", "simulate", "optimizer", "gain",
                  "number_theory"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return m


def traced_run(workload, seed, seconds, cli):
    from spans import Tracer
    from workloads import WORKLOADS, make_pass, with_arg

    tracer = Tracer()
    answers, untraced, traced = [], [], []
    # Overhead: the same pass of the selected workload, untraced then
    # traced, repeated while time allows; spans are kept from the first.
    t0 = time.perf_counter()
    while not traced or (time.perf_counter() - t0 < seconds / 2
                         and len(traced) < 5):
        reqs = make_pass(workload, seed, 0)
        plain = run_pass(reqs, cli)
        tr = tracer if not traced else Tracer()
        with tr.installed():
            spanned = run_pass(reqs, cli, tr, f"{workload}:0")
        untraced.append(sum(a.seconds for a in plain))
        traced.append(sum(a.seconds for a in spanned))
        answers += plain + spanned
    with tracer.installed():
        for other in WORKLOADS:
            if other != workload:
                answers += run_pass(make_pass(other, seed, 0), cli, tracer,
                                    f"{other}:0")
    # Pool speed-up: the ber-pool pass serially and at --workers 2.
    pool = make_pass("ber-pool", seed, 0)
    serial = run_pass([with_arg(r, "--workers", 1) for r in pool], cli)
    parallel = run_pass(pool, cli)
    answers += serial + parallel
    speedup = (sum(a.seconds for a in serial)
               / sum(a.seconds for a in parallel))
    metrics = probe_decoders(tracer, seed)
    metrics.update(probe_constellations(tracer))
    metrics.update(layer_metrics(tracer))
    metrics["simulate.pool_speedup"] = (speedup, "x")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"traced run: {len(traced)} untraced/traced pair(s) of "
          f"{workload}; untraced {statistics.median(untraced):.4g} s, "
          f"traced {statistics.median(traced):.4g} s")
    print_layer_shares(tracer)
    return answers, metrics, tracer


def print_layer_shares(tracer):
    """Per-workload self time of each layer, as a share of its pass."""
    from spans import duration, self_time

    by_wl = {}
    for s in tracer.spans:
        if s["request"] is None:
            continue
        wl = s["request"].split(":")[0]
        d = by_wl.setdefault(wl, {})
        layer = s["name"].split(".")[0]
        d[layer] = d.get(layer, 0.0) + self_time(s)
        if s["name"] == "cli.main":
            d["_wall"] = d.get("_wall", 0.0) + duration(s)
        if s["name"] == "simulate.run_ber":
            d["_run_ber"] = d.get("_run_ber", 0.0) + duration(s)
    print("layer self time per traced pass (share of the pass):")
    for wl, d in sorted(by_wl.items()):
        wall = d.pop("_wall")
        run_ber = d.pop("_run_ber", 0.0)
        parts = ", ".join(f"{k} {v:.3g} s ({100 * v / wall:.1f}%)"
                          for k, v in sorted(d.items()))
        print(f"  {wl}: wall {wall:.4g} s; {parts}; "
              f"simulate.run_ber {100 * run_ber / wall:.1f}% of wall")


def write_spans(tracer, info, workload, seed):
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    spans = [{k: v for k, v in s.items() if k != "child_s"}
             for s in tracer.spans]
    path.write_text(json.dumps({"machine": info, "spans": spans}))
    return path


def measured_passes(workload, seed, seconds, cli):
    """Passes until `seconds` of requests have run, and set-up samples."""
    from workloads import make_pass

    passes, setups, spent = [], [], 0.0
    while True:
        answers = run_pass(make_pass(workload, seed, len(passes)), cli)
        passes.append(answers)
        spent += sum(a.seconds for a in answers)
        k = len(passes)
        done = k >= MIN_PASSES and spent + spent / k > seconds
        while len(setups) < (SETUP_SAMPLES if done
                             else SETUP_SAMPLES * spent / seconds):
            setups.append(setup_seconds(workload))
        if done:
            return passes, setups


def declared(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fdstbc" / "__init__.py").is_file():
        print(f"error: no fdstbc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fdstbc import cli

    expected = json.loads((HERE / "expected.json").read_text())
    want = declared(bool(args.trace))
    info = machine(args.seed, args.workload, args.trace)
    print("machine: " + json.dumps(info))

    if args.trace:
        answers, metrics, tracer = traced_run(
            args.workload, args.seed, args.seconds, cli)
    else:
        passes, setups = measured_passes(args.workload, args.seed,
                                         args.seconds, cli)
        rss = peak_rss_mb()
        answers = [a for p in passes for a in p]
    check(answers, expected, args.seed)
    failed = [a for a in answers if a.problems]
    if args.trace:
        path = write_spans(tracer, info, args.workload, args.seed)
        print(f"spans written to {path}")
        print("per-layer (one traced pass of every workload):")
        for name, (value, unit) in sorted(metrics.items()):
            computed = " (computed)" if ".hyp_per_s." in name else ""
            print(f"  {name:<40} {value:>14.6g} {unit}{computed}")
    else:
        metrics = end_to_end(args.workload, passes, setups, rss,
                             len(answers), len(failed))
    for a in failed[:10]:
        print(f"FAILED {a.req.slot} {' '.join(a.req.argv)}: "
              f"{'; '.join(a.problems)[:500]}")
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        print(f"error: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed, "attempted": len(answers),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
