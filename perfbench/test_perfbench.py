"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import send  # noqa: E402
from workloads import WORKLOADS, Request, make_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    for index in range(3):
        assert make_pass(workload, 7, index) == make_pass(workload, 7, index)
    if workload != "design":
        assert make_pass(workload, 7, 0) != make_pass(workload, 8, 0)


def test_checker_flags_wrong_recorded_gain():
    from fdstbc import cli

    ans = send(Request(slot="optimize-psk8", kind="optimize",
                        argv=("optimize", "--constellation", "psk8")), cli)
    assert checks.check_answer(ans.req, ans.rc, ans.out, EXPECTED) == []
    wrong = json.loads(json.dumps(EXPECTED))
    wrong["optimize"]["psk8"]["gain"] = "0.0287521"
    assert checks.check_answer(ans.req, ans.rc, ans.out, wrong)
    assert checks.check_gain_qam64("gain_exact = 1/2\n") == []
    assert checks.check_gain_qam64("gain_exact = 499999/1000000\n")


def test_checker_flags_decoder_that_differs_from_ml():
    from fdstbc import constellations as cs
    from fdstbc.optimizer import optimize

    c = cs.constellation_by_id("qam4")
    r = optimize(c)[0]
    recs = checks.random_receptions(c, r, np.random.default_rng(0), 16,
                                    [0.0, 12.0])
    assert checks.check_decoders(c, r, recs) == []

    def off_by_one(y, h, r, c):
        from fdstbc.simulate import ml_decode_exhaustive
        s = ml_decode_exhaustive(y, h, r, c)
        k = int(np.flatnonzero(c.points == s[0])[0])
        return (c.points[(k + 1) % len(c)],) + tuple(s[1:])

    assert checks.check_decoders(c, r, recs[:1], fast=off_by_one)


def test_checker_flags_ber_far_from_record():
    req = make_pass("ber-dense", 0, 0)
    req = next(r for r in req if r.slot == "psk8")
    want = EXPECTED["simulate"]["psk8"]
    rows = [f"{s},{req.codewords},{b},{e},0,fast,1" for s, b, e in
            zip(want["snr_db"], want["bits"], want["bit_errors"])]
    head = "snr_db,codewords,bits,bit_errors,ber,decoder,seed\n"
    assert checks.check_simulate(req, head + "\n".join(rows), EXPECTED) == []
    rows[-1] = f"21,{req.codewords},{want['bits'][-1]},{want['bits'][-1] // 2},0,fast,1"
    assert checks.check_simulate(req, head + "\n".join(rows), EXPECTED)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"])
               and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run("--workload", "ber-pool", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = _run("--workload", "design", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
