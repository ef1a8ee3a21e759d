"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Runs every request slot once through the CLI, simulate requests at the
CLI's default --seed 1, and rewrites perfbench/expected.json.  Re-record
only when a change is meant to alter an answer, and say so.
"""

import json
import sys

from checks import parse_csv, parse_report
from run import HERE, SRC, send
from workloads import DESIGN_OPTIMIZE, make_pass, with_arg


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fdstbc import cli

    rec = {"optimize": {}, "simulate": {}, "lemmas": {}}
    for req in make_pass("design", 0, 0):
        ans = send(req, cli)
        if ans.rc != 0:
            raise SystemExit(f"{req.slot} failed: {ans.problems}")
        if req.kind == "optimize":
            rep = parse_report(ans.out)
            rec["optimize"][req.argv[-1]] = {k: rep[k]
                                             for k in ("u", "v", "gain")}
        elif req.kind == "tables":
            _, header, rows = parse_csv(ans.out)
            rec[req.argv[0]] = {"header": header, "rows": rows}
        elif req.kind == "lemmas":
            for line in ans.out.splitlines():
                label, sep, rest = line.partition(": checked=")
                if sep:
                    rec["lemmas"][label] = int(rest.split()[0])
    assert sorted(rec["optimize"]) == sorted(DESIGN_OPTIMIZE)
    for workload in ("ber-dense", "ber-pool"):
        for req in make_pass(workload, 0, 0):
            ans = send(with_arg(req, "--seed", 1), cli)
            if ans.rc != 0:
                raise SystemExit(f"{req.slot} failed: {ans.problems}")
            _, header, rows = parse_csv(ans.out)
            col = {name: i for i, name in enumerate(header)}
            rec["simulate"][req.slot] = {
                "seed": 1, "codewords": req.codewords,
                "snr_db": [r[col["snr_db"]] for r in rows],
                "bits": [int(r[col["bits"]]) for r in rows],
                "bit_errors": [int(r[col["bit_errors"]]) for r in rows]}
    path = HERE / "expected.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
