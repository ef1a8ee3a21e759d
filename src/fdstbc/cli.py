"""Command-line front end.

Subcommands: constellation, gain, optimize, lemmas, table1, table2,
simulate.  Commands that emit CSV prefix it with '# key=value' comment
lines echoing the effective configuration, and numeric fields carry 12
significant digits; table commands add *_rounded columns for eyeball
comparison.

A JSON config file (--config) may preset options: its keys are the
long option names of the invoked subcommand, and each entry goes to the
parser as the flag --key=value, so config values are checked exactly
like flags (the config and out keys are refused).  Precedence is
built-in default < config file < explicit flag.  Every parse error is
one 'error: ...' line on stderr with exit status 2.  simulate runs
serially unless --workers, or a config file's "workers" key, gives it
more workers.  The worker count never appears in output, so CSV bytes
are identical across worker counts.
"""

import argparse
from dataclasses import astuple
import functools
import json
import math
import sys

from . import constellations as cs
from . import number_theory as nt
from . import optimizer as opt
from .codes import DesignCoefficient
from .gain import METHODS, coding_gain, exhaustive_guard, golden_coding_gain
from .simulate import DECODERS, SimConfig, run_ber


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _rounded(x, sig: int = 4) -> str:
    return f"{float(x):.{sig}g}"


def _parse_r(spec: str, c) -> DesignCoefficient:
    if spec == "auto":
        if c.integer_grid:  # analytic: no sweep needed to pick it
            return opt.analytic_integer_optimum()[0]
        return opt.optimize_step1(c).r_candidates[0]  # = optimize(c).r
    try:
        u, v = map(float, spec.split(","))
    except ValueError:
        raise ValueError(
            f"--r must be 'auto' or 'u,v', got {spec!r}") from None
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"--r must be finite, got {spec!r}")
    mod = math.hypot(u, v)
    if mod == 0.0:
        raise ValueError("--r must be nonzero")
    if not sys.float_info.min <= mod < math.inf:
        # hypot overflowed or is subnormal: scale both by one exact
        # power of two so that it is a normal float
        e = max(math.frexp(u)[1], math.frexp(v)[1])
        u, v = math.ldexp(u, -e), math.ldexp(v, -e)
        mod = math.hypot(u, v)
    return DesignCoefficient(u=u / mod, v=v / mod, provenance="user")


MAX_SNR_POINTS = 10_000


def _parse_snr(spec: str) -> tuple:
    try:
        start, step, stop = map(float, spec.split(":"))
    except ValueError:
        raise ValueError(
            f"--snr must be 'start:step:stop', got {spec!r}") from None
    if not all(math.isfinite(x) for x in (start, step, stop)):
        raise ValueError(f"--snr values must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError("--snr step must be positive")
    span = (stop - start) / step + 1e-9
    if span < 0:
        raise ValueError("--snr grid is empty")
    if span >= MAX_SNR_POINTS:
        raise ValueError(f"--snr grid has more than {MAX_SNR_POINTS} points")
    count = math.floor(span) + 1
    grid = tuple(round(start + k * step, 9) for k in range(count))
    if any(a == b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"--snr points must differ after rounding to "
                         f"1e-9 dB, got {spec!r}")
    return grid


def _parse_int(val: str, low: int) -> int:
    """int(val) if it is at least low; else an ArgumentTypeError saying why.

    The type of --codewords, --seed and --workers; like int(), it
    refuses '2.0' and 'true'.
    """
    try:
        num = int(val)
    except ValueError:
        num = None
    if num is None or num < low:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {low}, got {val!r}")
    return num


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _echo(pairs):
    return [f"# {k}={v}" for k, v in pairs]


def cmd_constellation(ns):
    c = cs.constellation_by_id(ns.name, ns.norm)
    stats = (f"# min_distance={_fmt(cs.min_distance(c))}, "
             f"papr={_fmt(cs.papr(c))}, avg_power={_fmt(cs.avg_power(c))}")
    if ns.emit == "csv":
        lines = _echo([("name", c.name), ("norm", c.normalization)])
        lines.append("index,re,im")
        for k, p in enumerate(c.points):
            lines.append(f"{k},{_fmt(p.real)},{_fmt(p.imag)}")
        lines.append(stats)
    else:
        lines = [f"constellation = {c.name}",
                 f"norm = {c.normalization}",
                 f"size = {len(c)}",
                 f"min_distance = {_fmt(cs.min_distance(c))}",
                 f"avg_power = {_fmt(cs.avg_power(c))}",
                 f"papr = {_fmt(cs.papr(c))}"]
        for k, p in enumerate(c.points):
            lines.append(f"point[{k}] = {_fmt(p.real)} {_fmt(p.imag)}")
    _emit(lines, ns.out)
    return 0


def cmd_gain(ns):
    c = cs.constellation_by_id(ns.constellation, ns.norm)
    if ns.method == "exhaustive":
        exhaustive_guard(c)  # before --r auto runs step 1
    if ns.r == "auto" and ns.method == "auto":
        # optimize already reports the gain of r under the default method
        r, rep, _ = opt.optimize(c)
    else:
        r = _parse_r(ns.r, c)
        rep = coding_gain(c, r, method=ns.method)
    argmin = [x for s in astuple(rep.argmin) for x in (s.real, s.imag)]
    if ns.emit == "csv":
        lines = _echo([("constellation", c.name), ("norm", c.normalization),
                       ("r", ns.r), ("method", rep.method)])
        cols = ",".join(f"argmin{k // 2 + 1}_{'re' if k % 2 == 0 else 'im'}"
                        for k in range(8))
        lines.append(f"constellation,norm,u,v,gain,case,{cols}")
        lines.append(",".join([c.name, c.normalization, _fmt(r.u), _fmt(r.v),
                               _fmt(rep.gain), rep.case_of_argmin]
                              + [_fmt(x) for x in argmin]))
    else:
        lines = [f"constellation = {c.name}",
                 f"norm = {c.normalization}",
                 f"u = {_fmt(r.u)}",
                 f"v = {_fmt(r.v)}",
                 f"gain = {_fmt(rep.gain)}"]
        if rep.gain_exact is not None:
            lines.append(f"gain_exact = {rep.gain_exact}")
        lines += [f"case = {rep.case_of_argmin}",
                  f"case1_min = {_fmt(rep.case1_min)}",
                  f"case2_min = {_fmt(rep.case2_min)}",
                  f"case2_bound_min = {_fmt(rep.case2_bound_min)}",
                  f"method = {rep.method}",
                  "argmin = " + " ".join(_fmt(x) for x in argmin)]
    _emit(lines, ns.out)
    return 0


def cmd_optimize(ns):
    c = cs.constellation_by_id(ns.constellation, ns.norm)
    res = opt.optimize(c)
    r, rep = res.r, res.report
    if ns.emit == "csv":
        lines = _echo([("constellation", c.name),
                       ("norm", c.normalization)])
        lines.append("name,min_distance,u,v,gain")
        lines.append(",".join([c.name, _fmt(cs.min_distance(c)),
                               _fmt(r.u), _fmt(r.v), _fmt(rep.gain)]))
    else:
        lines = [f"constellation = {c.name}",
                 f"norm = {c.normalization}",
                 f"u = {_fmt(r.u)}",
                 f"v = {_fmt(r.v)}",
                 f"t = {_fmt(r.t)}",
                 f"gain = {_fmt(rep.gain)}"]
        if rep.gain_exact is not None:
            lines.append(f"gain_exact = {rep.gain_exact}")
        lines += [f"case1_gain = {_fmt(res.case1_gain)}",
                  f"case2_min = {_fmt(rep.case2_min)}",
                  f"case2_dominates = {res.case2_dominates}",
                  f"provenance = {r.provenance}",
                  "witness = " + " ".join(_fmt(x) for s in astuple(
                      rep.argmin) for x in (s.real, s.imag))]
    _emit(lines, ns.out)
    return 0


def cmd_lemmas(ns):
    results = nt.run_sweeps(ns.sweep)
    lines = [f"sweep = {ns.sweep}"]
    bad = 0
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        bad += 0 if r.ok else 1
        lines.append(f"{r.label}: checked={r.checked} "
                     f"failures={r.failures} [{tag}]")
    lines.append(f"total = {len(results)} sweeps, {bad} failing")
    _emit(lines, ns.out)
    return 0 if bad == 0 else 1


def cmd_table1(ns):
    rows = []
    for m in (4, 16):
        c = cs.make_qam(m, cs.NORM_UNIT_POWER)
        rows.append(("golden", c.name, golden_coding_gain(c)))
    for ident in ("qam4", "qam16", "psk8"):
        c = cs.constellation_by_id(ident, cs.NORM_UNIT_POWER)
        rows.append(("fdstbc", c.name, opt.optimize(c).report.gain))
    lines = _echo([("norm", cs.NORM_UNIT_POWER)])
    lines.append("code,constellation,gain,gain_rounded")
    for code, name, g in rows:
        lines.append(f"{code},{name},{_fmt(g)},{_rounded(g, 3)}")
    _emit(lines, ns.out)
    return 0


def cmd_table2(ns):
    lines = _echo([("norm", cs.NORM_UNIT_POWER)])
    lines.append("apsk,min_distance,u,v,gain,"
                 "min_distance_rounded,u_rounded,v_rounded,gain_rounded")
    for ident in ("apsk8", "apsk8-grid", "apsk16", "apsk16-grid"):
        c = cs.constellation_by_id(ident, cs.NORM_UNIT_POWER)
        r, rep, _ = opt.optimize(c)
        mind = cs.min_distance(c)
        lines.append(",".join([
            c.name, _fmt(mind), _fmt(r.u), _fmt(r.v), _fmt(rep.gain),
            _rounded(mind), _rounded(r.u), _rounded(r.v),
            _rounded(rep.gain)]))
    _emit(lines, ns.out)
    return 0


def cmd_simulate(ns):
    c = cs.constellation_by_id(ns.constellation, ns.norm)
    r = _parse_r(ns.r, c)
    sim_cfg = SimConfig(constellation=c, r=r, decoder=ns.decoder,
                        snr_grid_db=_parse_snr(ns.snr),
                        codewords_per_point=ns.codewords, seed=ns.seed)
    res = run_ber(sim_cfg, workers=ns.workers)
    lines = _echo([("constellation", c.name), ("norm", c.normalization),
                   ("u", _fmt(r.u)), ("v", _fmt(r.v)),
                   ("decoder", sim_cfg.decoder), ("snr", ns.snr),
                   ("codewords", sim_cfg.codewords_per_point),
                   ("seed", sim_cfg.seed)])
    if ns.emit == "csv":
        lines.append("snr_db,codewords,bits,bit_errors,ber,decoder,seed")
        for p in res.points:
            lines.append(",".join([
                _fmt(p.snr_db), str(p.codewords), str(p.bits),
                str(p.bit_errors), _fmt(p.ber), sim_cfg.decoder,
                str(sim_cfg.seed)]))
    else:
        for p in res.points:
            lines.append(f"snr={_fmt(p.snr_db)} ber={_fmt(p.ber)} "
                         f"errors={p.bit_errors}/{p.bits}")
    _emit(lines, ns.out)
    return 0


# name: (handler, help, its options before --config and --out)
_COMMANDS = {
    "constellation": (cmd_constellation, "list points and stats",
                      ("name", "norm", "emit")),
    "gain": (cmd_gain, "coding gain for a coefficient",
             ("constellation", "norm", "r", "method", "emit")),
    "optimize": (cmd_optimize, "best design coefficient",
                 ("constellation", "norm", "emit")),
    "lemmas": (cmd_lemmas, "integer-identity sweeps", ("sweep",)),
    "table1": (cmd_table1, "coding-gain comparison rows", ()),
    "table2": (cmd_table2, "APSK comparison rows", ()),
    "simulate": (cmd_simulate, "Monte Carlo BER over an SNR grid",
                 ("constellation", "norm", "r", "decoder", "snr",
                  "codewords", "seed", "workers", "emit")),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors reach main() as a ValueError."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state."""
    top = _Parser(prog="fdstbc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    # every option, declared once: name -> add_argument keywords
    options = {
        "name": {"required": True},
        "constellation": {"required": True},
        "norm": {"choices": cs.NORMALIZATIONS,
                 "default": cs.NORM_UNIT_POWER},
        "r": {"default": "auto",
              "help": "'auto' or 'u,v' (normalized to |r|=1)"},
        "method": {"choices": METHODS, "default": "auto"},
        "sweep": {"choices": nt.SWEEP_SIZES, "default": "small"},
        "decoder": {"choices": DECODERS, "default": "fast"},
        "snr": {"default": "0:3:21", "help": "start:step:stop in dB"},
        "codewords": {"type": lambda v: _parse_int(v, 1), "default": 10000},
        "seed": {"type": lambda v: _parse_int(v, 0), "default": 1},
        "workers": {"type": lambda v: _parse_int(v, 1)},
        "emit": {"choices": ("report", "csv"), "default": "report"},
        "config": {"help": "JSON file presetting options"},
        "out": {"help": "write output to this path"},
    }
    for name, (_, text, opts) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for opt in (*opts, "config", "out"):
            p.add_argument(f"--{opt}", **options[opt])
    sub.choices["simulate"].set_defaults(emit="csv")
    return top


def _config_flags(path) -> list:
    """A JSON config file's entries as --key=value flags for the parser."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key in ("config", "out"):
        if key in cfg:
            raise ValueError(f"--{key} cannot be set in a config file")
    return [f"--{k}={v if isinstance(v, str) else json.dumps(v)}"
            for k, v in cfg.items()]


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds --config anywhere in argv."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    return pre


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        path = _config_parser().parse_known_args(argv)[0].config
        if path is not None:
            # after the subcommand, before every explicit flag: flags win
            argv[1:1] = _config_flags(path)
        ns = _build_parser().parse_args(argv)
        return _COMMANDS[ns.command][0](ns)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
