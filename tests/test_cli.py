import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fdstbc
from fdstbc.cli import main, parse_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_rows_and_values(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["code", "constellation", "gain", "gain_rounded"]
    assert len(rows) == 5
    table = {(r[0], r[1]): r for r in rows}
    assert table[("golden", "qam4")][2] == "3.2"
    assert table[("golden", "qam16")][2] == "0.128"
    assert table[("fdstbc", "qam4")][2] == "2"
    assert table[("fdstbc", "qam16")][2] == "0.08"
    assert table[("fdstbc", "psk8")][2] == "0.0287521014241"
    assert table[("fdstbc", "psk8")][3] == "0.0288"


def test_table1_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "table1")
    _, out2, _ = run_cli(capsys, "table1")
    assert out1 == out2


def test_table2_rows_and_values(capsys):
    code, out, _ = run_cli(capsys, "table2")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:5] == ["apsk", "min_distance", "u", "v", "gain"]
    table = {r[0]: r for r in rows}
    assert set(table) == {"apsk8", "apsk8-grid", "apsk16", "apsk16-grid"}
    assert table["apsk8"][4] == "0.0229749663118"
    assert table["apsk8"][8] == "0.02297"
    assert table["apsk8-grid"][4] == "0.222222222222"
    assert table["apsk16"][8] == "0.0004255"
    assert table["apsk16-grid"][4] == "0.03125"
    assert math.isclose(float(table["apsk8"][1]), 0.9194, abs_tol=5e-5)
    assert math.isclose(float(table["apsk16"][1]), 0.5848, abs_tol=5e-5)


def test_gain_report_qam4(capsys):
    code, out, _ = run_cli(capsys, "gain", "--constellation", "qam4",
                           "--norm", "min-dist-1")
    assert code == 0
    assert "gain = 0.5" in out
    assert "case2_bound_min = 0.875" in out
    assert "case2_min = 1" in out


def test_gain_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gain", "--constellation", "qam4",
                           "--norm", "min-dist-1", "--emit", "csv")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert "# constellation=qam4" in comments
    assert header[:6] == ["constellation", "norm", "u", "v", "gain", "case"]
    assert len(header) == 14
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(0.5)
    assert math.hypot(float(rows[0][2]), float(rows[0][3])) \
        == pytest.approx(1.0)


def test_optimize_report_psk8(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--constellation", "psk8")
    assert code == 0
    assert "gain = 0.0287521014241" in out
    assert "provenance = maximin" in out
    assert "case2_dominates = True" in out


def test_optimize_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--constellation", "psk8",
                           "--emit", "csv")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["name", "min_distance", "u", "v", "gain"]
    assert rows[0][0] == "psk8"
    assert float(rows[0][4]) == pytest.approx(0.0287521014241887)


def test_constellation_csv(capsys):
    code, out, _ = run_cli(capsys, "constellation", "--name", "qam16",
                           "--emit", "csv")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["index", "re", "im"]
    assert len(rows) == 16
    assert any(c.startswith("# min_distance=") for c in comments)


def test_constellation_report(capsys):
    code, out, _ = run_cli(capsys, "constellation", "--name", "apsk8-grid")
    assert code == 0
    assert "size = 8" in out
    assert "papr = " in out


def test_lemmas_small_passes(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--sweep", "small")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "0 failing" in out


def test_simulate_csv_header_and_workers(capsys):
    argv = ("simulate", "--constellation", "qam4", "--snr", "0:6:12",
            "--codewords", "400", "--seed", "3")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code == 0
    assert out1 == out2
    assert "workers" not in out1
    _, header, rows = parse_csv(out1)
    assert header == ["snr_db", "codewords", "bits",
                      "bit_errors", "ber", "decoder", "seed"]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["0", "6", "12"]
    assert all(r[1] == "400" and r[6] == "3" for r in rows)


def test_simulate_more_than_256_points(capsys):
    # 9-bit labels: the bit count goes past one byte
    code, out, err = run_cli(capsys, "simulate", "--constellation", "psk512",
                             "--r", "1,0", "--codewords", "2",
                             "--snr", "0:1:0")
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    assert len(rows) == 1
    snr, codewords, bits, errors = rows[0][:4]
    assert (snr, codewords, bits) == ("0", "2", "72")
    assert 0 < int(errors) <= 72


def test_simulate_workers_env(capsys, monkeypatch):
    argv = ("simulate", "--constellation", "qam4", "--snr", "0:6:6",
            "--codewords", "200", "--seed", "4")
    _, out1, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("FDSTBC_WORKERS", "2")
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_config_precedence(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"codewords": 500, "seed": 9,
                               "snr": "0:6:6"}))
    code, out, _ = run_cli(capsys, "simulate", "--constellation", "qam4",
                           "--config", str(cfg))
    assert code == 0
    assert "# codewords=500" in out
    assert "# seed=9" in out
    code, out, _ = run_cli(capsys, "simulate", "--constellation", "qam4",
                           "--config", str(cfg), "--codewords", "800")
    assert code == 0
    assert "# codewords=800" in out
    assert "# seed=9" in out


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "simulate", "--constellation", "qam4",
                           "--config", str(cfg))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("gain", "--constellation", "qam4", "--r", "1"),
    ("gain", "--constellation", "qam4", "--r", "0,0"),
    ("simulate", "--constellation", "qam4", "--snr", "5:0:10"),
    ("simulate", "--constellation", "qam4", "--snr", "oops"),
    ("gain", "--constellation", "qam32"),
])
def test_bad_arguments_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, env, flag", [
    (("simulate", "--constellation", "qam4", "--r", "nan,1",
      "--snr", "0:1:1", "--codewords", "1"), None, "--r"),
    (("gain", "--constellation", "qam4", "--r", "nan,1"), None, "--r"),
    (("gain", "--constellation", "qam4", "--r", "inf,1"), None, "--r"),
    (("simulate", "--constellation", "qam4", "--snr", "nan:1:3"), None,
     "--snr"),
    (("simulate", "--constellation", "qam4", "--snr", "0:inf:3"), None,
     "--snr"),
    # refused from the point count alone; the grid is never built
    (("simulate", "--constellation", "qam4", "--snr", "0:1:1e7"), None,
     "--snr"),
    (("simulate", "--constellation", "qam4", "--snr=-1e308:1e-308:1e308"),
     None, "--snr"),
    (("simulate", "--constellation", "qam4", "--workers", "-3",
      "--codewords", "1"), None, "--workers"),
    (("simulate", "--constellation", "qam4", "--workers", "0",
      "--codewords", "1"), None, "--workers"),
    (("simulate", "--constellation", "qam4", "--codewords", "1"), "x2",
     "FDSTBC_WORKERS"),
    (("simulate", "--constellation", "qam4", "--codewords", "1"), "-1",
     "FDSTBC_WORKERS"),
    (("simulate", "--constellation", "qam4", "--r", "abc,1",
      "--codewords", "1"), None, "--r"),
    (("simulate", "--constellation", "qam4", "--snr", "oops:1:2"), None,
     "--snr"),
    (("simulate", "--constellation", "qam4", "--codewords", "0"), None,
     "--codewords"),
    # a dict is written to a JSON config file and replaced by its path
    (("simulate", "--constellation", "qam4", "--config",
      {"codewords": "x"}), None, "--codewords"),
    (("simulate", "--constellation", "qam4", "--codewords", "1",
      "--config", {"seed": "x"}), None, "--seed"),
    # JSON numbers that int() would truncate, and JSON true
    (("simulate", "--constellation", "qam4", "--config",
      {"codewords": 2.7}), None, "--codewords"),
    (("simulate", "--constellation", "qam4", "--config",
      {"codewords": True}), None, "--codewords"),
    (("simulate", "--constellation", "qam4", "--codewords", "1",
      "--config", {"seed": 1.5}), None, "--seed"),
    (("simulate", "--constellation", "qam4", "--seed", "-1",
      "--codewords", "1"), None, "--seed"),
    # ids with a family prefix but no size
    (("gain", "--constellation", "qamfoo"), None, "'qamfoo'"),
    (("gain", "--constellation", "psk"), None, "'psk'"),
    (("simulate", "--constellation", "pskx", "--codewords", "1"), None,
     "'pskx'"),
    (("constellation", "--name", "qamfoo"), None, "'qamfoo'"),
    (("constellation", "--name", "psk"), None, "'psk'"),
    (("constellation", "--name", "pskx"), None, "'pskx'"),
    # refused from |D| alone, before the |D|^2 pairs are expanded
    (("gain", "--constellation", "psk256"), None, "|D|^2 = 1073807361"),
    (("gain", "--constellation", "psk512"), None, "|D|^2 = 17180131329"),
    (("optimize", "--constellation", "psk256"), None, "|D|^2"),
    (("optimize", "--constellation", "psk512"), None, "|D|^2"),
])
def test_malformed_input_one_line_error(capsys, monkeypatch, tmp_path, argv,
                                        env, flag):
    if env is not None:
        monkeypatch.setenv("FDSTBC_WORKERS", env)
    argv = list(argv)
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(arg))
            argv[k] = str(path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert flag in err
    assert "Traceback" not in err


def test_gain_auto_runs_the_exact_sweep_once(capsys, monkeypatch):
    from fdstbc import cli, optimizer

    calls = []
    for module in (cli, optimizer):
        inner = module.coding_gain

        def counted(*args, _inner=inner, **kwargs):
            calls.append(args[0].name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, "coding_gain", counted)
    for ident in ("qam16", "psk8"):
        calls.clear()
        code, _, _ = run_cli(capsys, "gain", "--constellation", ident)
        assert code == 0
        assert calls == [ident]
    # a non-default method runs its own sweep; on an integer grid the
    # analytic coefficient needs none to be picked
    calls.clear()
    code, _, _ = run_cli(capsys, "gain", "--constellation", "qam4",
                         "--method", "exhaustive")
    assert code == 0
    assert calls == ["qam4"]
    # simulate picks the analytic coefficient without any gain sweep
    calls.clear()
    code, _, _ = run_cli(capsys, "simulate", "--constellation", "qam16",
                         "--r", "auto", "--snr", "0:1:0", "--codewords", "4")
    assert code == 0
    assert calls == []


# SHA-256 of `simulate --constellation <id> --emit csv --seed 1
# --codewords 1000` (r auto, 0:3:21 dB), recorded with the per-(k3, k4)
# hypothesis loop that the vectorised fast decoder replaced.
SIMULATE_CSV_SHA256 = {
    "qam16": "e249a63bf65206ffdc1ef6f58df3c6d112d1da99530b65cca0adcfd7f8bb8621",
    "psk8": "3b10c677b577835187e4c33e16181a600080a38d316accb133081d976fee6d54",
    "apsk16": "18f491124783592bae445013c0e639ecc45f66d83d6747fa3f8bdc70ed262add",
}


@pytest.mark.parametrize("ident", sorted(SIMULATE_CSV_SHA256))
def test_simulate_csv_digest_frozen(capsys, ident):
    code, out, _ = run_cli(capsys, "simulate", "--constellation", ident,
                           "--emit", "csv", "--seed", "1",
                           "--codewords", "1000")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SIMULATE_CSV_SHA256[ident]


# SHA-256 of `simulate --constellation qam4 --decoder ml --seed 1
# --codewords 1000 --emit csv`, recorded before the simulator's own codeword
# builder and inline channel were replaced by build_codeword and transmit.
SIMULATE_ML_CSV_SHA256 = \
    "33189ffcb80075c24bfa18dee490872391312dab541d82e63f1042975b97dad9"


def test_simulate_ml_csv_digest_frozen(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--constellation", "qam4",
                           "--decoder", "ml", "--seed", "1",
                           "--codewords", "1000", "--emit", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_ML_CSV_SHA256


# SHA-256 of the stdout of each exact-search command, recorded before the
# pair sweep was tiled.
EXACT_STDOUT_SHA256 = {
    ("table1",):
        "7d5184b6d6dbe983c72c5bec7fe54f048d2e89220afcb86adead772b47b81f61",
    ("table2",):
        "c0b3adc8ec9cf5e904702da0c1904a241e079f4698ebe2bf6e58f3d4792042f0",
    ("gain", "--constellation", "qam64", "--norm", "min-dist-1"):
        "2539cd1a981a90ac336dbe9cef92fda3478cfb0b26779751a8204e05b6c01b34",
    ("optimize", "--constellation", "psk22"):
        "b1d1d9db3ffabe73199414f7716621a00f9bc3033386efe8b95dd3a3ac050396",
    ("optimize", "--constellation", "apsk16"):
        "7746da68971e473bfffe2f3cd87f87e3de91bf3894c4ce4378acf6d0ecf45c4f",
    # integer grids: the analytic coefficient and the sweep's own gains
    ("optimize", "--constellation", "qam16"):
        "8e198368f5ccffc9ec9c860151a2586b074c02c5edd0da273bbf58f6e1e2b0c3",
    ("optimize", "--constellation", "apsk16-grid", "--norm", "min-dist-1"):
        "4e83ba766ef7435934c59082b875c7b4a4bd672172782a90c98fea07e704f20f",
    ("lemmas", "--sweep", "small"):
        "cb7f6b12846e5d5c450f48ee1df870f2ac8249ffe223d402b26788e829c50140",
    ("lemmas", "--sweep", "full"):
        "544a7d59bde8fa1b7310e89660c995c4d7a168a924dedf8c6b044638e6ea8885",
}


@pytest.mark.parametrize("argv", sorted(EXACT_STDOUT_SHA256))
def test_exact_search_stdout_digest_frozen(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == EXACT_STDOUT_SHA256[argv]


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "t1.csv"
    code, out, _ = run_cli(capsys, "table1", "--out", str(path))
    assert code == 0
    assert out == ""
    _, header, rows = parse_csv(path.read_text())
    assert header == ["code", "constellation", "gain", "gain_rounded"]
    assert len(rows) == 5


def test_console_entry_point(capsys, tmp_path):
    """The ``fdstbc`` console script declared in ``pyproject.toml`` prints,
    in a fresh process, the same ``table1`` bytes as ``main`` in-process.

    The target is read from ``[project.scripts]`` and called the way the
    setuptools wrapper calls it, so no install is needed; where an
    installed ``fdstbc`` executable is on ``PATH`` it is run as well.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fdstbc"]
    assert target == "fdstbc.cli:main"
    module, _, attr = target.partition(":")
    wrapper = (f"import sys, importlib; sys.exit(getattr("
               f"importlib.import_module({module!r}), {attr!r})())")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(fdstbc.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", wrapper, "table1"]]
    installed = shutil.which("fdstbc")
    if installed:
        commands.append([installed, "table1"])

    _, expected, _ = run_cli(capsys, "table1")
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
