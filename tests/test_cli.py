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
from fdstbc import constellations as cs
from fdstbc import optimizer as opt
from fdstbc.cli import main

from oracles import parse_csv


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


def test_config_supplies_required_option_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"name": "qam4", "emit": "csv"}))
    code, out, _ = run_cli(capsys, "constellation", "--config", str(cfg))
    assert code == 0
    assert parse_csv(out)[1] == ["index", "re", "im"]
    code, out, _ = run_cli(capsys, "constellation", "--config", str(cfg),
                           "--name", "psk8", "--emit", "report")
    assert code == 0
    assert "constellation = psk8" in out
    assert "size = 8" in out


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


@pytest.mark.parametrize("spec, same", [("1e308,1.7e308", "1,1.7"),
                                        ("1e-320,1e-320", "1,1")])
def test_r_is_normalized_when_its_modulus_is_not_a_normal_float(
        capsys, spec, same):
    # hypot overflows on the first and is subnormal on the second
    outs = []
    for r in (spec, same):
        code, out, err = run_cli(capsys, "gain", "--constellation", "qam4",
                                 "--r", r)
        assert code == 0, err
        outs.append([ln for ln in out.splitlines()
                     if ln.startswith(("u = ", "v = "))])
    assert len(outs[0]) == 2
    assert outs[0] == outs[1]


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
    # refused from M alone, before the M x M distance check is built
    (("constellation", "--name", "psk100000"), None, "M <= 2048"),
    (("gain", "--constellation", "psk100000"), None, "M <= 2048"),
    (("simulate", "--constellation", "psk100000", "--codewords", "1"),
     None, "M <= 2048"),
    # config values go through the same parser as flags
    (("simulate", "--constellation", "qam4", "--config", {"snr": 5}), None,
     "--snr"),
    (("simulate", "--constellation", "qam4", "--config", {"r": 1}), None,
     "--r"),
    (("simulate", "--constellation", "qam4", "--codewords", "1",
      "--config", {"emit": "xml"}), None, "--emit"),
    (("simulate", "--constellation", "qam4", "--codewords", "1",
      "--config", {"emit": 0}), None, "--emit"),
    (("simulate", "--constellation", "qam4", "--config",
      {"codewords": 2.0}), None, "--codewords"),
    (("simulate", "--constellation", "qam4", "--codewords", "1",
      "--config", {"out": "x"}), None, "--out"),
    (("gain", "--constellation", "qam4", "--norm", "bogus"), None, "--norm"),
    ((), None, "command"),
    # finite SNRs whose N0 = 2/10^(snr/10) overflows or is infinite
    (("simulate", "--constellation", "qam4", "--snr", "3100:1:3100"), None,
     "snr 3100.0 dB"),
    (("simulate", "--constellation", "qam4", "--snr=-3300:1:-3300"), None,
     "snr -3300.0 dB"),
    # one spelling per id: ASCII only, no sign, space or underscore
    (("constellation", "--name", "psk8_0"), None, "'psk8_0'"),
    (("constellation", "--name", "psk+8"), None, "'psk+8'"),
    (("constellation", "--name", "psk 8"), None, "'psk 8'"),
    (("constellation", "--name", "psk8 "), None, "'psk8 '"),
    (("constellation", "--name", "psk\u0668"), None, "'psk\u0668'"),
    (("constellation", "--name", "qam+16"), None, "'qam+16'"),
    (("constellation", "--name", "ps\u212a8"), None, "'ps\u212a8'"),
    # neighbours that the 1e-9 dB rounding would merge
    (("simulate", "--constellation", "qam4", "--snr", "0:1e-10:1e-9",
      "--codewords", "1"), None, "--snr points"),
    # the guard's message reads for CLI users too
    (("gain", "--constellation", "psk64", "--method", "exhaustive"), None,
     "exhaustive-search guard"),
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


def test_exhaustive_guard_fires_before_r_auto_runs_step_1(capsys,
                                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--r auto ran step 1 before the guard")
    monkeypatch.setattr(opt, "optimize_step1", refuse)
    code, out, err = run_cli(capsys, "gain", "--constellation", "psk64",
                             "--method", "exhaustive")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exhaustive-search guard" in err


def test_one_parser_per_process_keeps_no_value_between_calls(
        capsys, monkeypatch, tmp_path):
    from fdstbc import cli

    monkeypatch.delenv("FDSTBC_WORKERS", raising=False)
    cfg = tmp_path / "gain.json"
    cfg.write_text(json.dumps({"constellation": "qam4", "r": "1,0",
                               "emit": "csv"}))
    sim = ("simulate", "--constellation", "qam4", "--snr", "0:3:3",
           "--codewords", "8")
    calls = [sim + ("--workers", "2"), sim,
             ("optimize", "--constellation", "psk8"),
             ("gain", "--config", str(cfg), "--emit", "report")]
    assert cli._build_parser() is cli._build_parser()
    cached = [run_cli(capsys, *argv) for argv in calls]
    # the second simulate runs serially: --workers 2 did not stay behind
    assert cli._build_parser().parse_args(sim).workers is None
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    monkeypatch.setattr(cli, "_config_parser",
                        cli._config_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert all(code == 0 for code, _, _ in cached)
    assert "method = exhaustive" in cached[3][1]


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
    calls.clear()
    code, _, _ = run_cli(capsys, "gain", "--constellation", "psk8",
                         "--method", "aggregated")
    assert code == 0
    assert calls == ["psk8"]
    # simulate picks the analytic coefficient without any gain sweep, and
    # off the grid takes optimize's coefficient from step 1 alone
    for ident in ("qam16", "psk8", "apsk16"):
        r = opt.optimize(cs.constellation_by_id(ident))[0]
        calls.clear()
        code, out, _ = run_cli(capsys, "simulate", "--constellation", ident,
                               "--r", "auto", "--snr", "0:1:0",
                               "--codewords", "4")
        assert code == 0
        assert calls == []
        assert f"# u={r.u:.12g}\n# v={r.v:.12g}\n" in out


def test_simulate_auto_needs_no_certified_gain(capsys):
    # optimize psk32 at min-dist-1 refuses its step-1 / sweep mismatch,
    # but simulate only needs the coefficient
    c = cs.constellation_by_id("psk32", "min-dist-1")
    r = opt.optimize_step1(c).r_candidates[0]
    code, out, err = run_cli(capsys, "simulate", "--constellation", "psk32",
                             "--norm", "min-dist-1", "--r", "auto",
                             "--snr", "0:1:0", "--codewords", "4")
    assert code == 0, err
    assert f"# u={r.u:.12g}\n# v={r.v:.12g}\n" in out


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


UNIT, MIND = "unit-average-power", "min-dist-1"

# SHA-256 of optimize's stdout, (report, csv), for every PSK up to 32 and
# both conventional APSKs that it answered before step 1 became a
# level-set bisection; the search may change, these bytes may not.
OPTIMIZE_STDOUT_SHA256 = {
    ("psk2", UNIT): (
        "2b483b797525378e63de1f793cec4e2e132d0a0acc93e790cc2f4b07e6955151",
        "cf238d273870ecf5513f80591c3852081b35a1efdd7351f0db43f5adde0f6092"),
    ("psk2", MIND): (
        "121fbc8748f6e92519742ae2cfa92a88022e8fcc264453fd58025bb09202951b",
        "d7974dbefa188312f99bcdcdc54644a0bcc338ff9055ae908ac5a6dc3680a5a3"),
    ("psk3", UNIT): (
        "9db701009840aba51db79ca8cbb03796bc6a479efee838ef609db5cdaf97dd98",
        "c0cbcda311e697c3716c192710d1d5852027e1894cb4ddd900f5285a4db5bd89"),
    ("psk3", MIND): (
        "3bcd2d837be9bda937202f3688fe95f3cfa17b02e7bd0190bb3ce90f5014bc41",
        "f2726c3e5e51e410f30895b0162f6f0a3501f156296798d9a58e5c1e93b218df"),
    ("psk4", UNIT): (
        "cb34b9783b2b83b99124fa90871e73c140d2940454bd0d975226ad9dd25a49b1",
        "914606b8bcd73f448406021ccf5a1664fbc29db536447698cd576559666a0253"),
    ("psk4", MIND): (
        "0dfb08f467e9dd6301a9aaa27f7a356268f7fd067748b6ae0c020b5e7ce2dfbd",
        "410576139dc33ebabc47219291504111cda4236b25eb6d87bd404b294d1c5fb4"),
    ("psk5", UNIT): (
        "1aa4e4e499f67a0d691305293d72d07780d8776c6fc30dcf0a0d7d892d1b00fd",
        "9835b886327cd4ea72daf1dfaf59829cb8f467196771afbdaae1718ce88c4b0b"),
    ("psk5", MIND): (
        "d8c31ae97422ce9d172d98cf8a6459d4243caa7e0109e3290c823b2a0373f7d8",
        "e1f590aa013e2e0f00a303fbb1181370f5f980f360c58aa560b2fbcdbee5edf1"),
    ("psk6", UNIT): (
        "49fe3163b537803ab95486d49a8dc42f2557a52cc748cb40e5555cf03a7c323b",
        "3dc2aa03facfdc2bd172cb26b704c77594068699dee22743abb65f8b954918f4"),
    ("psk6", MIND): (
        "321c4503ecbe368d8c6ce95685e5c3a5600bae42a52d5677c49a19dbecde17ab",
        "2db1448c72399795bde938b66c8cb5fd486a55f2d1274c3c8b6b232ff9337594"),
    ("psk7", UNIT): (
        "7ff1f9c73df8d73bbfa377fee13f1ecfe5b1ce89fb81e275621de06d08978215",
        "4af904966587f730b162ba7ec8136be32d0936a636338baf66089fb8b26c153b"),
    ("psk7", MIND): (
        "a2581ea216242fd42997be1836ef9b08712b67bd3f762f905f4fc98277f2f697",
        "4d68aa1411cfcf309201b882c76d5909b18cfc9a7a7fff37eb595b00d216f274"),
    ("psk8", UNIT): (
        "f1ba3b9f3160e83642db3dca3ea744dff17cd03f7f0b3295d1e8b08b28066226",
        "6be941f23420c963645ab68f7c86a06166c7e4d9b936a9f7a7aede6977daef14"),
    ("psk8", MIND): (
        "d0dc677a67240accb44449ca02d0f862a1f95424979229fe027f1c091ca3ea54",
        "cdea894133af02eeed0bef21884315682a0003be68baff6c109138b136079a9f"),
    ("psk9", UNIT): (
        "d3f58588d2cead05bae9ab994abc33747de8548fddabc49cc3ccb7bece1bf5ac",
        "8f9d93a634675305268b7391674bf44bf79f76bc0c6943ce0cf33e67ba07cd00"),
    ("psk9", MIND): (
        "80311ae2e0ffccbf96d6d4ae6debdef712cbb0e60188ed35292e4d74bce88ad3",
        "06c4c4cd9551eab1618c19556e8c7589fca9a6d56f23954eb49eccdb7eca5680"),
    ("psk10", UNIT): (
        "147462df97e1e9a724375f888f6253f2e893b06afa75b83f407f2ca355e13612",
        "e9730a66bc493211c78b683124ce8792596937bbc828de136414bb18e221296a"),
    ("psk10", MIND): (
        "77e70f6271a058bdc5860ff943c893c2515bc92082fbd6a83939f380cf6addb1",
        "1cd01872a8080af283edc2988cd64810c27c5b830a76ebf43e7b09fe906634b8"),
    ("psk11", UNIT): (
        "1778da5ca9b7ada33919922bd72d14c76329a3071f16d77903d2fd18d5da01be",
        "eb4ff4b994aacfd4ad4a0b49e7a72f5b05b535c22f4736df9f0b737fe4e848ea"),
    ("psk11", MIND): (
        "a015f6fc45afe14dae0183c2e3ed26fc71050757f04eccb4b6b59ca44a904981",
        "885474157470141cfab77aeeb9d63d7eea7efede8cebdbbd3b05d828a02cc48a"),
    ("psk12", UNIT): (
        "b79c81b9fa25c23a0550313302410b446508758da897332dcdc72fb97a90a175",
        "6af6a7826c6c7d18ac189397387e8750df0b4bdf7e5222aab2c41751cc154069"),
    ("psk12", MIND): (
        "da5930e1afb322dcc311232653a0c1ad088371b769a97ddf3a4ea5edb57c40c7",
        "61b50608b44e789b4d13e8f73b336238734ae78c93071ef6c87d1410d76e56c9"),
    ("psk13", UNIT): (
        "984ce675ef73c05a4e29eca9fa437746352d3a4b57ff2b372918ca66b1b1bab9",
        "3b07df45df0f5dc284ad0f1d4c9174886f4d4232e292cc7f19c1840d3253ab94"),
    ("psk13", MIND): (
        "e6580ce556ef0cc45e307a044490b92088de622baac89511ea9915ef6cfd6165",
        "fdce126127c7b15de45c55b31194c1736d270f9f444116c6c716fb52348e21c6"),
    ("psk14", UNIT): (
        "ea5875b86c41405107e73043f5bfb8d37ae2c110b1527fe602dcab824420873d",
        "35c9d3b0fcf41419d7d0de37ce542b668da706b86a9ed43375ed77e99af61537"),
    ("psk14", MIND): (
        "2ba6e1aea62f2ccb053d118db973e0fb343208bbb95af412c7b73b95a3e5b707",
        "8255cfda222a310e3eef90c324b70ca7008e06c29c8187f947ec6247add8f810"),
    ("psk15", UNIT): (
        "bccc89eeefa4536f63ec396fe527b7ed1b4f1cac8e8ba43bcdd0eb0f8c06cfcf",
        "9e7c2eaa53a581c81ec616c9e1dc7a467a141319e2e7cf8d72123acf5191a304"),
    ("psk15", MIND): (
        "fdb52c24d6ea9e2d5e21b674b3bbb5ed16a20fc1f2867ae67304796f069050b7",
        "8af9ecc4113b65f8428f55453260759775425cd2326ceb2f681324eed1fe7959"),
    ("psk16", UNIT): (
        "1c1ec5e827a79420e7211bef69ef95be764e14b8e31f7279cad0f7bb6a228d13",
        "8cf99c9743b155b76f596dae953ae144d1428e1704f651a1d232725170f64db6"),
    ("psk16", MIND): (
        "b9e4a934b38018f5ca24d286296523e254824d9462a966d7fb607a0574c91d02",
        "30da0281a4a7ebc38d7ed17817992f4932fd3630c35fafdc9f49ca5702b9a05f"),
    ("psk17", UNIT): (
        "75bc0dc529d2776aa309e9e520f55629fde3d2d746a748716c215c09372c9c57",
        "9ac8a6d27803af60977a7e04e29520c487014fc18bbece74a84d6bd914c9b4b6"),
    ("psk17", MIND): (
        "7a057496adc6531545588f06b114073247cc59549db3138b22925d053353455b",
        "8d03a735dd322ab16e288f09752247e1ab9f45f2318ff83a8585f610f000874a"),
    ("psk18", UNIT): (
        "96e05f0f5489a64c3becb5313ed94719a08ebfa052b7b02cf847629b33210310",
        "56ff29dc8d7e94e5c20547f6348af209fa08af3dd852f48b1825afcb12819f7c"),
    ("psk18", MIND): (
        "0c0e48d5c530edcaa01a9aa43e14e4ec6823e2b223adcb167060aa4fe235b3b3",
        "3d464e9d3c164843dfdc17cd810581d5b4b49bf47f6d73fbc98f3909b3f3ecbf"),
    ("psk20", UNIT): (
        "7068250d52e8877d6c1abeecb4aaa949383b9166ad8450d37fd3c6fa6ea6f7d2",
        "2b6821980a9a82a00de755390d2f243805de579e2de03aa5d90d572778053c1e"),
    ("psk20", MIND): (
        "2cad3a5656795a0771b6e495f041033609073202075b9f6e29d610ab20ce762d",
        "b266c3907678eb368c7ee210626a142857ed82052a004431dee98dd2ea3e4267"),
    ("psk22", UNIT): (
        "b1d1d9db3ffabe73199414f7716621a00f9bc3033386efe8b95dd3a3ac050396",
        "43ce7c78eeb3292f18b67bb46a2b7fd55b6fc0e434b0e6d51d2a8a5a4224baa1"),
    ("psk22", MIND): (
        "66d12392f4de6c74da341bc6e62d774086f6a50ee1fac036434bbc73299e589d",
        "51e3b6d568bee4e2c15d4d3aa8a97d07934443e25835bb5e72048049289e3a26"),
    ("psk24", UNIT): (
        "90f324587d491ef2a08414973f7a66b85e79870fe95bce47ed2083af5cd35dc8",
        "0c37b711d3df83821d948763bcadd0d070ceb29623ce3fc3aed2b3cd1102cad6"),
    ("psk24", MIND): (
        "d559bdf911c1b72507754022f7213f4cf5f504b50e3970618e86912a32b5e42b",
        "5c05a61d23b1091f790e947c41d6d1db9f3de423a202c6cddbb0cd700fde0141"),
    ("psk28", UNIT): (
        "43f40774a688d2029480fc8078d8f9f3960021c424cd3cb35fa8ba267257e9b0",
        "303cdbf4a740a8f3d6e7b9afb5485790d461de6560b65db5ea4f1065ec46b3bc"),
    ("psk32", UNIT): (
        "36d80f2d305c19a6ecbc104bec5299c7e9fb41f6ea064c035d3bab5749698926",
        "33f2321fb6ab56316f32f80c2ab851302daf7e76d970b89fc1a3bb01b4ebb9db"),
    ("apsk8", UNIT): (
        "0204dacb55f48784f6050bd8ede7ed061efea075e2795c994e8d3e7f66092997",
        "f34fea6177bf61ed2a3855cdf9ccb30cb60a61011d13074303641f7769f227ff"),
    ("apsk8", MIND): (
        "fafea9489a8d49c999b9129fce802a5ee6639fa6b67c2d9714977b53132658a1",
        "f6152ed49c86a41ab94301824214b48203af5d4cccbcc21753ec75e676615552"),
    ("apsk16", UNIT): (
        "7746da68971e473bfffe2f3cd87f87e3de91bf3894c4ce4378acf6d0ecf45c4f",
        "919b934e1d0ceda766f7cfd41b0223d1b91244761390264b350f0cb02115d19b"),
    ("apsk16", MIND): (
        "fd8e88795e5a98e5dba37a8ee76d8b1d58ae3a6aec8e79b828d2d4bad473d07e",
        "0ebcd63731d8d6d495825c9f7229ec3b5f05ceb17a713e8def0616f1278acd59"),
}


@pytest.mark.parametrize("ident, norm", sorted(OPTIMIZE_STDOUT_SHA256))
def test_optimize_stdout_digest_frozen(capsys, monkeypatch, ident, norm):
    # both forms print one optimum, so compute it once
    memo = {}
    real = opt.optimize

    def once(c):
        if "best" not in memo:
            memo["best"] = real(c)
        return memo["best"]

    monkeypatch.setattr(opt, "optimize", once)
    digests = []
    for emit in ("report", "csv"):
        code, out, _ = run_cli(capsys, "optimize", "--constellation", ident,
                               "--norm", norm, "--emit", emit)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == OPTIMIZE_STDOUT_SHA256[ident, norm]


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
