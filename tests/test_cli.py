"""Command-line surface: config parsing, dataset files, command contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mchjm import cli
from mchjm import calibration as cal

SEP = "0.35,0.15,0.62,0.10,0.88,0.07,0.45,-0.30"


def run(*argv) -> int:
    return cli.main(list(argv))


def make_dataset(tmp_path: Path, days=8, seed=3, noise="0.0") -> Path:
    target = tmp_path / "data.csv"
    code = run("synth", "--days", str(days), "--seed", str(seed),
               "--set", f"noise_sd={noise}", "--set", f"theta_true={SEP}",
               "--dataset", str(target), "--out", str(tmp_path))
    assert code == 0
    return target


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("days = 5\n# comment line\nnoise_sd = 0.001  # inline\n\n")
    parsed = cli._parse_config_file(cfg)
    assert parsed == {"days": ("5", 1), "noise_sd": ("0.001", 3)}
    cfg.write_text("days 5\n")
    with pytest.raises(cli.ConfigError):
        cli._parse_config_file(cfg)


def test_non_utf8_config_file_exits_with_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"days = 4\nnoise_sd = 0.001\xff\n")
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: byte 0xff" in err


def test_config_file_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfdays = 5\nnoise_sd = 0.001\n")
    assert cli._parse_config_file(cfg) == {"days": ("5", 1), "noise_sd": ("0.001", 2)}


def test_main_calls_do_not_share_settings(tmp_path, monkeypatch):
    # the parser is built once per process; each call still parses afresh
    seen = []
    monkeypatch.setitem(cli.HANDLERS, "synth", seen.append)
    assert run("synth", "--set", "days=5", "--set", "noise_sd=0.1",
               "--out", str(tmp_path)) == 0
    assert run("synth", "--set", "days=7", "--out", str(tmp_path)) == 0
    assert run("synth", "--out", str(tmp_path)) == 0
    assert [c.options for c in seen] == [{"days": "5", "noise_sd": "0.1"}, {"days": "7"}, {}]
    assert cli.build_parser() is cli.build_parser()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"days = 4\ntheta_true = {SEP}\n")
    out = tmp_path / "o"
    code = run("synth", "--config", str(cfg), "--days", "6",
               "--dataset", str(tmp_path / "d.csv"), "--out", str(out))
    assert code == 0
    snaps = cli.read_dataset(tmp_path / "d.csv")
    assert len(snaps) == 6


def test_tolerance_overrides_must_be_positive():
    for value in ("-1.0", "nan", "inf"):
        config = cli.RunConfig(command="check", options={"tolerance": value})
        with pytest.raises(cli.ConfigError, match="tolerance"):
            config.get_float("tolerance", 1e-4)


def test_exit_code_constants():
    assert cli.ConfigError.exit_code == 2
    assert cli.DataError.exit_code == 3
    assert cli.InsufficientDataError.exit_code == 4
    assert cli.NumericalFailureError.exit_code == 5


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------


def test_dataset_round_trip_is_byte_identical(tmp_path):
    src = make_dataset(tmp_path, days=5, noise="0.0005")
    snaps = cli.read_dataset(src)
    again = tmp_path / "again.csv"
    cli.write_dataset(again, snaps)
    assert again.read_bytes() == src.read_bytes()


def test_read_dataset_line_numbered_errors(tmp_path):
    src = make_dataset(tmp_path, days=3)
    lines = src.read_text().splitlines()

    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(cli.DataError, match="line 5: missing spreads"):
        cli.read_dataset(bad)

    corrupt = lines.copy()
    corrupt[2] = corrupt[2].replace(",0,", ",9,", 1)
    bad.write_text("\n".join(corrupt) + "\n")
    with pytest.raises(cli.DataError, match="line 3: curve_id"):
        cli.read_dataset(bad)

    corrupt = lines.copy()
    corrupt[1] = corrupt[1].rsplit(",", 1)[0] + ",not_a_number"
    bad.write_text("\n".join(corrupt) + "\n")
    with pytest.raises(cli.DataError, match="line 2: bond_price"):
        cli.read_dataset(bad)


def test_non_finite_values_exit_with_data_error(tmp_path, capsys):
    src = make_dataset(tmp_path, days=3)
    lines = src.read_text().splitlines()
    spread_line = lines.index(cli.SPREAD_HEADER) + 2  # 1-based: first quote
    bad = tmp_path / "bad.csv"
    for lineno, token in ((2, "nan"), (spread_line, "inf")):
        corrupt = lines.copy()
        corrupt[lineno - 1] = corrupt[lineno - 1].rsplit(",", 1)[0] + "," + token
        bad.write_text("\n".join(corrupt) + "\n")
        assert run("calibrate", "--dataset", str(bad), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert f"line {lineno}:" in err and "finite" in err
        assert "Traceback" not in err


def test_non_utf8_dataset_exits_with_data_error(tmp_path, capsys):
    src = make_dataset(tmp_path, days=3)
    lines = src.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    assert run("calibrate", "--dataset", str(bad), "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3: byte 0xff" in err


def test_dataset_with_byte_order_mark_calibrates_the_same(tmp_path):
    plain = make_dataset(tmp_path, days=4, noise="0.0002")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = []
    for tag, data in (("plain", plain), ("bom", bom)):
        out = tmp_path / tag
        assert run("calibrate", "--dataset", str(data), "--out", str(out),
                   "--set", f"theta0={SEP}") == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def overflowing_dataset(tmp_path: Path) -> Path:
    """A dataset whose finite but absurd day-0 log-spread (1e200) overflows
    the solver's residuals."""
    src = make_dataset(tmp_path, days=6)
    lines = src.read_text().splitlines()
    first_quote = lines.index(cli.SPREAD_HEADER) + 1
    lines[first_quote] = lines[first_quote].rsplit(",", 1)[0] + ",1e200"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_solver_failure_exits_with_numerical_error(tmp_path, capsys):
    bad = overflowing_dataset(tmp_path)
    capsys.readouterr()
    assert run("calibrate", "--dataset", str(bad), "--out", str(tmp_path / "o")) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")


def run_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in its own process.  pytest records warnings apart from
    stderr, so only a real process shows numpy's floating-point
    RuntimeWarnings on the way to an error line."""
    src_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_root, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "mchjm.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_solver_failure_prints_one_stderr_line_in_a_process(tmp_path):
    bad = overflowing_dataset(tmp_path)
    proc = run_process("calibrate", "--dataset", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 5
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv, code, in_process", [
    # non-finite numbers in options
    ("check --family ns-strategy1 --set sigma=inf,0.1,0.1", 2, True),
    ("check --family cdv-example --set beta_slope=nan,0.4", 2, True),
    ("check --family hw3-constant-vol --set a=nan,0.6,0.9", 2, True),
    ("check --family ns-strategy2 --set tolerance=nan", 2, True),
    ("simulate --horizon inf", 2, True),
    ("simulate --dt nan", 2, True),
    # settings the commands cannot run with
    ("check --family hw3-constant-vol --depth 9", 2, True),
    ("check --family hw3-constant-vol --states 0", 2, True),
    ("simulate --paths 5", 2, True),
    ("check --family ns-plain --set a=1e-9", 5, True),
    # counts below 1, and options a family does not take ({data}: a 30-day dataset)
    ("calibrate --dataset {data} --max-iterations 0", 2, True),
    ("stability --dataset {data} --rolls 0 --window-months 1", 2, True),
    ("stability --dataset {data} --window-months 0 --rolls 5", 2, True),
    ("sweep --dataset {data} --lengths -1", 2, True),
    ("check --family ns-plain --depth 9 --states 4", 2, True),
    ("check --family ns-strategy1 --depth 3", 2, True),
    ("check --family ns-strategy2 --states 1", 2, True),
    # option keys the command or the family does not read
    ("synth --set dayz=5", 2, True),
    ("synth --set substeps=4", 2, True),
    ("calibrate --dataset {data} --set theta_true=" + SEP, 2, True),
    ("check --family cdv-example --set sigmaa=1", 2, True),
    ("check --family ns-plain --set beta=0.1,0.2", 2, True),
    ("check --family ns-strategy2 --set beta=0.1,0.2", 2, True),
    # an overflowing martingale statistic, and no numpy warning before its line
    ("simulate --set sigma=1e200,0.1,0.1 --paths 100 --horizon 0.02 --dt 0.01", 5, False),
])
def test_bad_settings_exit_with_one_error_line(tmp_path, capsys, argv, code, in_process):
    data = make_dataset(tmp_path, days=30) if "{data}" in argv else None
    args = [*argv.format(data=data).split(), "--out", str(tmp_path / "o")]
    if in_process:
        capsys.readouterr()
        assert run(*args) == code
        err = capsys.readouterr().err
    else:
        proc = run_process(*args)
        assert proc.returncode == code
        err = proc.stderr
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_unknown_option_names_the_key_and_where_it_was_set(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("days = 5\n# comment line\nnoise = 0.001\n")
    capsys.readouterr()
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: command 'synth' takes no option 'noise' (set by {cfg}:3)\n")
    assert run("check", "--family", "cdv-example", "--set", "sigmaa=1",
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "error: family 'cdv-example' takes no option 'sigmaa' (set by --set)\n")
    assert run("check", "--family", "ns-plain", "--depth", "2",
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "error: family 'ns-plain' takes no option 'depth' (set by --depth)\n")
    assert not (tmp_path / "o").exists()


def test_read_dataset_requires_contiguous_dates(tmp_path):
    src = make_dataset(tmp_path, days=3)
    text = src.read_text().replace("\n2,", "\n5,")
    bad = tmp_path / "gap.csv"
    bad.write_text(text)
    with pytest.raises(cli.DataError, match="contiguous"):
        cli.read_dataset(bad)


def test_read_dataset_checks_maturity_completeness(tmp_path):
    src = make_dataset(tmp_path, days=2)
    lines = src.read_text().splitlines()
    del lines[1]  # drop one bond row -> curve 0 of date 0 loses a maturity
    bad = tmp_path / "short.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(cli.DataError, match="maturity set"):
        cli.read_dataset(bad)


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def test_calibrate_writes_all_tables(tmp_path, capsys):
    data = make_dataset(tmp_path, days=8)
    out = tmp_path / "fit"
    code = run("calibrate", "--dataset", str(data), "--out", str(out),
               "--set", f"theta0={SEP}")
    assert code == 0
    for name in ("theta_table.csv", "per_day_states.csv", "error_table.csv",
                 "yields_fit.csv", "spreads_fit.csv"):
        assert (out / name).exists()
    theta_lines = (out / "theta_table.csv").read_text().splitlines()
    assert theta_lines[0] == "parameter,initial,calibrated"
    assert theta_lines[1].startswith("a0,0.35,")
    errors = dict(
        line.split(",") for line in
        (out / "error_table.csv").read_text().splitlines()[1:]
    )
    assert float(errors["err_yield_0"]) < 1e-6
    assert "calibrated 8 days" in capsys.readouterr().out


def test_calibrate_is_byte_reproducible(tmp_path):
    data = make_dataset(tmp_path, days=6, noise="0.0002")
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert run("calibrate", "--dataset", str(data), "--out", str(out),
                   "--set", f"theta0={SEP}") == 0
        outs.append(out)
    for name in ("theta_table.csv", "per_day_states.csv", "error_table.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_calibrate_requires_dataset_and_enough_days(tmp_path):
    assert run("calibrate", "--out", str(tmp_path)) == 2
    data = make_dataset(tmp_path, days=1)
    assert run("calibrate", "--dataset", str(data),
               "--out", str(tmp_path)) == 4


def test_calibrate_rejects_invalid_theta0(tmp_path, capsys):
    data = make_dataset(tmp_path, days=4)
    # a0 above the box, and a0 in (0, 1] but below the 1e-6 calibration floor
    for a0 in ("2.0", "1e-7"):
        capsys.readouterr()
        code = run("calibrate", "--dataset", str(data), "--out", str(tmp_path),
                   "--set", f"theta0={a0},0.15,0.62,0.10,0.88,0.07,0.45,-0.30")
        assert code == 2
        assert "option 'theta0': a0 must lie in" in capsys.readouterr().err


def test_check_families_and_unknown(tmp_path, capsys):
    out = tmp_path / "chk"
    assert run("check", "--family", "ns-strategy2", "--out", str(out)) == 0
    report = (out / "check_report.csv").read_text().splitlines()
    assert report[0] == "kind,name,value,verdict"
    verdicts = {row.split(",")[1]: row.split(",")[3] for row in report[1:]}
    assert verdicts["strategy2"] == "consistent"
    assert verdicts["strategy2_control"] == "inconsistent"
    assert run("check", "--family", "no-such-family", "--out", str(out)) == 2
    capsys.readouterr()


def test_check_rejects_a_threshold_below_the_consistency_tolerance(tmp_path, capsys):
    # with a threshold under 1e-6 the consistent family (drift residual about
    # 6e-11) would be reported inconsistent
    out = tmp_path / "tol"
    capsys.readouterr()
    assert run("check", "--family", "ns-strategy2", "--set", "tolerance=1e-11",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: tangency threshold 1e-11"), err
    assert run("check", "--family", "ns-strategy2", "--set", "tolerance=1e-6",
               "--out", str(out)) == 0
    assert "strategy2: drift residual" in capsys.readouterr().out
    rows = (out / "check_report.csv").read_text().splitlines()[1:]
    assert rows[0].endswith(",consistent")


def test_check_span_report(tmp_path, capsys):
    out = tmp_path / "span"
    assert run("check", "--family", "hw3-constant-vol", "--out", str(out),
               "--set", "sigma=0.00285941,0.09546952,0.09083773",
               "--set", "a=0.53041117,0.66253001,0.65812121",
               "--set", "beta=0.41734616,0.82477578") == 0
    rows = (out / "check_report.csv").read_text().splitlines()[1:]
    span = [r for r in rows if r.startswith("span_dimension")]
    assert len(span) == 1 and float(span[0].split(",")[2]) == 5.0
    assert "span dimension" in capsys.readouterr().out


def test_stability_single_roll_zero_std(tmp_path):
    data = make_dataset(tmp_path, days=cal.TRADING_DAYS_PER_MONTH + 1)
    out = tmp_path / "st"
    code = run("stability", "--dataset", str(data), "--out", str(out),
               "--rolls", "1", "--window-months", "1",
               "--set", f"theta0={SEP}")
    assert code == 0
    rows = (out / "stability_table.csv").read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(row.rsplit(",", 1)[1] == "0.0" for row in rows)


def test_diagnostics_and_roll_tables_parse_and_repeat(tmp_path):
    data = make_dataset(tmp_path, days=cal.TRADING_DAYS_PER_MONTH + 2, noise="0.0002")
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert run("calibrate", "--dataset", str(data), "--out", str(out),
                   "--set", f"theta0={SEP}") == 0
        assert run("stability", "--dataset", str(data), "--out", str(out),
                   "--rolls", "2", "--window-months", "1",
                   "--set", f"theta0={SEP}") == 0
        outs.append(out)
    for name in ("diagnostics.csv", "stability_rolls.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    lines = (outs[0] / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    diag = dict(line.split(",") for line in lines[1:])
    assert list(diag) == sorted(diag) == [
        "converged", "jacobian_condition", "max_day_condition", "min_day_rank",
        "nfev", "njev", "optimizer_sse", "status", "weakly_identified"]
    assert diag["converged"] == "True" and diag["min_day_rank"] == "7"
    assert int(diag["nfev"]) >= int(diag["njev"]) > 0
    assert 1.0 < float(diag["max_day_condition"]) < np.inf
    assert float(diag["optimizer_sse"]) >= 0.0

    lines = (outs[0] / "stability_rolls.csv").read_text().splitlines()
    assert lines[0] == "roll,start_date," + ",".join(cal.PARAM_NAMES) + ",converged"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["0", "0"], ["1", "1"]]
    theta = cal.Theta.from_array([float(v) for v in rows[1][2:10]])
    assert theta.a0 == pytest.approx(0.35, rel=0.1)
    assert [r[10] for r in rows] == ["True", "True"]


def test_stability_insufficient_data(tmp_path):
    data = make_dataset(tmp_path, days=6)
    assert run("stability", "--dataset", str(data), "--out", str(tmp_path),
               "--rolls", "50") == 4


def test_sweep_row_per_length(tmp_path):
    data = make_dataset(tmp_path, days=cal.TRADING_DAYS_PER_MONTH + 2)
    out = tmp_path / "sw"
    code = run("sweep", "--dataset", str(data), "--out", str(out),
               "--lengths", "1,2,3,4,5,6", "--set", f"theta0={SEP}")
    assert code == 0
    rows = (out / "sweep_table.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    skipped = [r.split(",")[4] for r in rows]
    assert skipped == ["False"] + ["True"] * 5
    assert run("sweep", "--dataset", str(data), "--out", str(out),
               "--end-date", "99") == 4


def test_simulate_zero_volatility_z_scores(tmp_path):
    out = tmp_path / "sim"
    code = run("simulate", "--paths", "120", "--dt", "0.01",
               "--out", str(out), "--seed", "5",
               "--set", "sigma=0,0,0", "--set", "beta=0,0")
    assert code == 0
    rows = (out / "martingale_report.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.rsplit(",", 1)[1] == "0.0" for row in rows)
    assert (out / "rates_paths.csv").exists()
    assert (out / "curve_final.csv").exists()


def test_simulate_is_byte_reproducible(tmp_path):
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert run("simulate", "--paths", "150", "--dt", "0.01",
                   "--out", str(out), "--seed", "11") == 0
        outs.append(out)
    for name in ("rates_paths.csv", "martingale_report.csv", "curve_final.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
