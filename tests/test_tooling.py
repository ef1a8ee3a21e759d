"""Guards for what the benchmark harness in perfbench/ uses of the package.

perfbench/spans.py wraps module attributes by name for its traced run,
perfbench/run.py takes the coefficient as optimize(c)[0] and times the
public decoders one reception at a time, and perfbench/checks.py builds
single codewords and sends them through transmit.  The traced run's span
taggers read fields of what the layers return (a table's n_rows, step
1's breakpoints_examined, a gain report's route, a sweep's checked
count).  A simplification that renames or reshapes any of these breaks
`perfbench/run.py --trace 1` without failing another test.  These tests
only read perfbench/.  One more guard keeps the package numpy-only, one
runs the benchmark's own answer checks on the `design` requests, and one
holds each of those requests to a traced-memory budget.  Two more keep
the package to what the command line, the paper's claims and the
benchmark run: the package exports its modules, not names, and code
only the tests call lives in tests/oracles.py.  Another keeps each fact
in one place: one run splitter, one GainReport builder, and a SimResult
that holds only its points; one more gives each option one home, and
one states each lemma sweep's size only in its named sizes; and a last
one keeps the process pool's modules out of a fresh import of the
command line.
"""

import ast
import importlib.util
import json
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from fdstbc import constellations as cs
from fdstbc import optimizer as opt
from fdstbc.codes import DesignCoefficient

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdstbc"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_bindings_resolve_to_callables():
    bindings = load("spans")._bindings()
    assert bindings
    for module, attr, _, _ in bindings:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


# span name -> the tag its tagger must attach
TAGGED = {
    "optimizer.build_case1_table": "rows",
    "optimizer.optimize_step1": "breakpoints",
    "gain.coding_gain": "route",
    "simulate.run_ber": "chunks",
    "number_theory.dichotomy": "checked",
    "number_theory.euler_identity": "checked",
    "number_theory.cross_term_exhaustive": "checked",
    "number_theory.cross_term_random": "checked",
}


def test_traced_requests_tag_their_spans(capsys):
    from fdstbc import cli

    tracer = load("spans").Tracer()
    with tracer.installed():
        for argv in (("optimize", "--constellation", "psk8"),
                     ("optimize", "--constellation", "qam16"),
                     ("gain", "--constellation", "qam4"),
                     ("lemmas", "--sweep", "small"),
                     ("simulate", "--constellation", "qam4",
                      "--snr", "0:1:0", "--codewords", "16")):
            assert cli.main(list(argv)) == 0, argv
    capsys.readouterr()
    seen = {rec["name"] for rec in tracer.spans}
    assert set(TAGGED) <= seen
    for rec in tracer.spans:
        if rec["name"] in TAGGED:
            assert TAGGED[rec["name"]] in rec["tags"], rec


@pytest.mark.parametrize("ident", ("qam4", "psk8"))
def test_optimize_returns_the_coefficient_first(ident):
    r = opt.optimize(cs.constellation_by_id(ident))[0]
    assert isinstance(r, DesignCoefficient)


def test_decoder_check_receptions():
    checks = load("checks")
    c = cs.constellation_by_id("psk8")
    r = opt.optimize(c)[0]
    recs = checks.random_receptions(c, r, np.random.default_rng(0), 4,
                                    [6.0])
    assert all(y.shape == h.shape == (2, 2) for y, h in recs)
    assert checks.check_decoders(c, r, recs) == []


def test_traced_decoder_probe_times_both_decoders(monkeypatch):
    # probe_decoders imports checks.py by its plain module name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    out = load("run").probe_decoders(load("spans").Tracer(), 0)
    for name in ("qam16", "psk8"):
        for label in ("fast", "ml"):
            value, unit = out[f"simulate.{label}_decode_ms.{name}"]
            assert unit == "ms" and value > 0.0


def test_package_imports_only_the_standard_library_and_numpy():
    own = {p.stem for p in PACKAGE.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"numpy", "fdstbc"}
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = {a.name.split(".")[0] for a in node.names}
                bad = tops - allowed
            elif isinstance(node, ast.ImportFrom) and node.level:
                tops = {node.module.split(".")[0]} if node.module \
                    else {a.name for a in node.names}
                bad = tops - own
            elif isinstance(node, ast.ImportFrom):
                tops = {node.module.split(".")[0]}
                bad = tops - allowed
            else:
                continue
            assert not bad, f"{path.name}:{node.lineno} imports {bad}"
            seen |= tops
    assert {"numpy", "codes", "math"} <= seen


# the package exports its modules, not names: `import fdstbc` defines
# only __version__, and a caller imports the modules it uses
EXPORTS = set()

# the claim analyses that only tests call today: acceptance tests 9
# (vanishing_probe), 10 (diversity_slope) and 11 (coding_gain_scaled),
# and the lemma 1 bound check of tests/test_number_theory.py
CLAIM_ANALYSES = {"coding_gain_scaled", "vanishing_probe", "diversity_slope",
                  "verify_lemma1_bound"}


def test_package_exports_are_pinned():
    import fdstbc

    names = {k for k, v in vars(fdstbc).items()
             if not k.startswith("__")
             and not isinstance(v, types.ModuleType)}
    assert names == EXPORTS


def referenced_names(path, *, strings):
    """Names and attributes path uses; with strings, also its imported
    names and string constants (perfbench/spans.py patches by name)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_package_definition_is_used_outside_the_tests():
    refs = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            refs |= referenced_names(path, strings=False)
    for path in PERFBENCH.glob("*.py"):
        refs |= referenced_names(path, strings=True)
    unused = {f"{path.name}:{node.name}"
              for path in PACKAGE.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in refs | CLAIM_ANALYSES}
    assert not unused, sorted(unused)


def _neighbour_compare(node):
    """Whether node compares x[1:] with y[:-1] for (in)equality."""
    def cut(x, lower, upper):
        return (isinstance(x, ast.Subscript) and isinstance(x.slice, ast.Slice)
                and ast.dump(x.slice) == ast.dump(ast.Slice(lower, upper)))
    one = ast.Constant(1)
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and cut(node.left, one, None)
            and cut(node.comparators[0], None,
                    ast.UnaryOp(ast.USub(), one)))


def test_each_fact_has_one_home():
    # one run splitter (constellations._runs), one GainReport builder
    # (gain._report), and a SimResult that holds only its points
    from dataclasses import fields
    from fdstbc import simulate

    splits, r_joins, reports, imports = [], [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if _neighbour_compare(node):
                    splits.append(where)
                elif isinstance(node, ast.Attribute) and node.attr == "r_":
                    r_joins.append(where)
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) == "GainReport":
                    reports.append(where)
                elif path.stem == "simulate" and isinstance(
                        node, (ast.Import, ast.ImportFrom)):
                    imports |= {getattr(node, "module", None),
                                *(a.name for a in node.names)}
    assert splits == ["constellations._runs"]
    assert r_joins == []
    assert reports == ["gain._report"]
    assert "time" not in imports
    assert [f.name for f in fields(simulate.SimResult)] == ["points"]


def test_each_option_has_one_home():
    # one way to preset each option: src/ reads no environment variable,
    # one exhaustive-ML guard, each shared flag declared by one
    # add_argument call, and the decoder, method and sweep names taken
    # from the modules that dispatch on them
    from fdstbc import cli, gain, number_theory as nt, simulate

    env, guards, flags = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                name = getattr(node, "attr", getattr(node, "name", None))
                if isinstance(node, (ast.Attribute, ast.alias)) and name in (
                        "environ", "environb", "getenv", "getenvb"):
                    env.append(where)
                elif isinstance(node, ast.Compare) and any(
                        getattr(x, "id", getattr(x, "attr", None))
                        == "ML_TUPLE_GUARD" for x in ast.walk(node)):
                    guards.append(where)
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "attr", None) == "add_argument" \
                        and isinstance(node.args[0], ast.Constant):
                    flags.append(node.args[0].value)
    assert env == []
    assert guards == ["simulate._check_ml_size"]
    for flag in ("--constellation", "--norm", "--emit", "--r"):
        assert flags.count(flag) <= 1, flag
    owners = {"--decoder": simulate.DECODERS, "--method": gain.METHODS,
              "--sweep": nt.SWEEP_SIZES}
    subs = next(a.choices for a in cli._build_parser()._actions
                if a.dest == "command")
    seen = set()
    for sub in subs.values():
        for action in sub._actions:
            for flag in set(action.option_strings) & set(owners):
                assert action.choices is owners[flag], flag
                seen.add(flag)
    assert seen == set(owners)


def test_each_lemma_size_is_stated_once():
    # SWEEP_SIZES spells every size argument of every lemma sweep: no
    # sweep and no run_sweeps has a default but its seed
    import inspect
    from fdstbc import number_theory as nt

    sweeps = [f for name, f in vars(nt).items() if name.startswith("sweep_")]
    assert len(sweeps) == 4
    for f in sweeps + [nt.run_sweeps]:
        defaults = {p.name for p in inspect.signature(f).parameters.values()
                    if p.default is not p.empty}
        assert defaults <= {"seed"}, (f.__name__, defaults)


def test_the_cli_loads_no_pool_modules():
    # only simulate --workers above 1 uses the process pool; a fresh
    # process that imports the command line loads neither its modules
    # nor multiprocessing (11-14 ms of start-up)
    code = ("import sys\n"
            "import fdstbc.cli\n"
            "pools = {'concurrent.futures.process', 'multiprocessing'}\n"
            "assert not pools & set(sys.modules), pools & set(sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_design_answers_pass_the_benchmark_checks(capsys):
    # the benchmark refuses a change whose answers move past
    # expected.json's 1e-10 relative check; fail here first
    from fdstbc import cli

    checks = load("checks")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    for req in load("workloads").make_pass("design", 1, 0):
        capsys.readouterr()
        rc = cli.main(list(req.argv))
        out = capsys.readouterr().out
        assert checks.check_answer(req, rc, out, expected) == [], req.slot


def test_design_requests_stay_within_a_memory_budget(capsys):
    # the design workload's peak RSS follows its largest request; the
    # largest are optimize psk28 (the triple expansion) and lemmas (the
    # norm table of the random cross-term sweep)
    from fdstbc import cli

    for req in load("workloads").make_pass("design", 1, 0):
        tracemalloc.start()
        try:
            rc = cli.main(list(req.argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0, req.slot
        assert peak <= 12 * 2 ** 20, (req.slot, peak / 2 ** 20)
