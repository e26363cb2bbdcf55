import errno
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import measured_records
from reference_kernels import mixed_state
from whichway import (
    DimensionError,
    InputFormatError,
    certify_run,
    pauli_mixture_channel,
    read_records_csv,
    rectilinear_filters,
    run_experiment,
    save_channel,
    transpose_channel,
    write_records_csv,
)
from whichway import interferometer as itf
from whichway.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VIOLATION,
    MAX_KRAUS,
    MAX_SPIN_DIM,
    main,
    parse_channel,
    parse_preparation,
)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_transpose_pure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--channel", "transpose", "--d", "2", "--prep", "pure:h,h"
    )
    assert code == EXIT_OK
    assert "D     = 0.5000" in out
    assert "V_G   = 0.5000" in out
    assert "D_max = 0.8660" in out


def test_vg_identity_mixed(capsys):
    code, out, _ = run_cli(
        capsys, "vg", "--channel", "identity", "--d", "3", "--prep", "mixed"
    )
    assert code == EXIT_OK
    assert out.strip() == "V_G = 1.0000"


def test_distinguishability_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "distinguishability", "--channel", "pauli", "--prep", "mixed"
    )
    assert code == EXIT_OK
    assert out.strip() == "D = 0.0000"


def test_malformed_channel_exits_2(capsys):
    code, _, err = run_cli(capsys, "vg", "--channel", "nope", "--prep", "mixed")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_random_channel_with_a_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "vg", "--channel", "random:2:-1", "--prep", "mixed")
    assert code == EXIT_INPUT and out == ""
    assert "seed must be >= 0 and an integer, got -1" in err


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run_cli(
        capsys, "vg", "--channel", f"file:{bad}", "--prep", "mixed"
    )
    assert code == EXIT_INPUT
    assert "input error" in err


def test_channel_file_cut_after_a_pair_line_exits_2(capsys, tmp_path):
    # used to end in a traceback from a bare IndexError
    path = tmp_path / "cut.txt"
    save_channel(transpose_channel(2), path)
    path.write_text(path.read_text().split("\nA ")[0] + "\n")
    code, out, err = run_cli(capsys, "vg", "--channel", f"file:{path}", "--prep", "mixed")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: channel spec file truncated: missing 'pair' block\n"


@pytest.mark.parametrize("spin_dim", [0, -1])
def test_channel_file_with_spin_dim_below_one_exits_2(capsys, tmp_path, spin_dim):
    path = tmp_path / "bad_dim.txt"
    save_channel(transpose_channel(2), path)
    path.write_text(path.read_text().replace("spin_dim 2", f"spin_dim {spin_dim}"))
    code, out, err = run_cli(capsys, "vg", "--channel", f"file:{path}", "--prep", "mixed")
    assert code == EXIT_INPUT and out == ""
    assert f"spin_dim must be >= 1 and an integer, got {spin_dim}" in err


def test_channel_file_round_trip_through_cli(capsys, tmp_path):
    path = tmp_path / "transpose.txt"
    save_channel(transpose_channel(2), path)
    code, out, _ = run_cli(
        capsys, "vg", "--channel", f"file:{path}", "--prep", "pure:h,v"
    )
    assert code == EXIT_OK
    assert out.strip() == "V_G = 0.5000"


def test_table_grid_and_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "table", "--out", str(out_path))
    assert code == EXIT_OK
    assert "0.5000" in out
    records = read_records_csv(out_path)
    assert len(records) == 16
    by_key = {r.key: r for r in records}
    assert abs(by_key[("hh", "hh")].visibility) == pytest.approx(0.5, abs=1e-10)
    assert abs(by_key[("hh", "hv")].visibility) == pytest.approx(0.0, abs=1e-10)
    assert all(r.p == pytest.approx(0.5, abs=1e-10) for r in records)
    # row sums of the grid
    for mu in ("hh", "hv", "vh", "vv"):
        total = sum(abs(r.visibility) for r in records if r.mu == mu)
        assert total == pytest.approx(0.5, abs=1e-10)


def test_reproduce_from_csv_matches_measured_bounds(capsys, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(measured_records(), path)
    code, out, _ = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_OK
    assert "V_G >= 0.9605" in out
    assert "D   <= 0.2783" in out
    assert "V_G >= 0.5800" in out
    assert "D <= 0.8146" in out


def test_reproduce_requires_seed_for_simulation(capsys):
    code, _, err = run_cli(capsys, "reproduce")
    assert code == EXIT_INPUT
    assert "--seed" in err


def test_reproduce_simulated_is_deterministic(capsys):
    args = ("reproduce", "--seed", "3", "--shots", "1000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("flags, filters", [((), None), (("--filters", "hh,vv"), ["hh", "vv"])],
                         ids=["default", "filters"])
def test_reproduce_runs_the_library_default_without_filters(capsys, monkeypatch, flags,
                                                            filters):
    # the CLI passed a fresh rectilinear dict, so it never ran the grid route
    seen = []

    def run(ch, filters=None, **kwargs):
        seen.append(filters if filters is None else sorted(filters))
        return run_experiment(ch, filters=filters, **kwargs)

    monkeypatch.setattr(itf, "run_experiment", run)
    code, _, _ = run_cli(capsys, "reproduce", "--seed", "3", "--shots", "1000", *flags)
    assert code == EXIT_OK
    assert seen == [filters]


def test_parse_preparation_tokens():
    prep = parse_preparation("pure:d,a", 2)
    np.testing.assert_allclose(mixed_state(prep, 0), np.ones((2, 2)) / 2, atol=1e-12)
    prep = parse_preparation("ensemble:0.5,h,h;0.5,v,v", 2)
    np.testing.assert_allclose(mixed_state(prep, 0), np.eye(2) / 2, atol=1e-12)
    prep = parse_preparation("pure:0,2", 3)
    assert mixed_state(prep, 1)[2, 2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parse_preparation("pure:h", 2)
    with pytest.raises(ValueError):
        parse_preparation("pure:h,h", 3)


def test_parse_channel_specs():
    assert parse_channel("random:3:5", 2).n_kraus == 3
    with pytest.raises(ValueError):
        parse_channel("random:3", 2)
    with pytest.raises(ValueError):
        parse_channel("pauli", 3)


def test_verify_accepts_tolerance_override(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--channel", "identity", "--d", "2",
        "--prep", "pure:h,v", "--tol", "1e-6",
    )
    assert code == EXIT_OK
    assert "slack" in out


def test_out_flag_writes_report(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "vg", "--channel", "transpose", "--d", "2",
        "--prep", "pure:h,h", "--out", str(path),
    )
    assert code == EXIT_OK
    assert path.read_text().strip() == out.strip()


@pytest.mark.parametrize("argv, target, errno_", [
    (("vg", "--channel", "identity", "--d", "3", "--prep", "mixed", "--out"),
     "missing/x.txt", errno.ENOENT),
    (("table", "--out"), ".", errno.EISDIR),
], ids=["vg-missing-directory", "table-out-is-a-directory"])
def test_unwritable_out_prints_no_result(capsys, tmp_path, argv, target, errno_):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, *argv, path)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: [Errno {errno_}] {os.strerror(errno_)}: {path!r}\n"


def test_reproduce_from_csv_with_nan_record_exits_2(capsys, tmp_path):
    records = measured_records()
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text(encoding="ascii").splitlines()
    fields = lines[1].split(",")
    fields[3] = "nan"  # re_V of the first record
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_INPUT
    assert "input error" in err
    assert "nan" not in out


def test_non_finite_channel_file_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("whichway-channel v1\nspin_dim 1\npairs 1\npair\n"
                    "A nan 0.0\nB 1.0 0.0\n", encoding="ascii")
    code, _, err = run_cli(
        capsys, "verify", "--channel", f"file:{path}", "--d", "1", "--prep", "mixed"
    )
    assert code == EXIT_INPUT
    assert "NaN or infinite" in err


def test_an_ensemble_weight_that_is_not_a_number_is_an_input_error(capsys):
    # it escaped as a bare ValueError that named neither the term nor the field
    code, out, err = run_cli(capsys, "verify", "--channel", "identity", "--prep",
                             "ensemble:x,h,h")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: ensemble term 'x,h,h': weight field 'x' is not a number\n"
    with pytest.raises(InputFormatError):
        parse_preparation("ensemble:0.5,h,h;1/2,v,v", 2)


def test_non_finite_ensemble_weight_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--channel", "identity", "--prep", "ensemble:nan,h,h;0.5,v,v"
    )
    assert code == EXIT_INPUT
    assert "NaN or infinite entry in ensemble weights" in err


def test_tol_is_a_verify_option_only():
    for command in ("vg", "distinguishability"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--channel", "identity", "--prep", "mixed", "--tol", "1e-6"])
        assert exc.value.code == EXIT_INPUT


@pytest.mark.parametrize("command", ["vg", "distinguishability", "verify"])
def test_duality_commands_share_the_slack_floor(capsys, monkeypatch, command):
    # D = V_G = 0.9 leaves slack -0.62, below the -1e-8 floor of DualityReport
    import whichway.duality as dua

    monkeypatch.setattr(dua, "_d_and_vg", lambda ch, prep: (0.9, 0.9))
    code, out, err = run_cli(capsys, command, "--channel", "identity", "--prep", "mixed")
    assert code == EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical failure: trade-off violated: D=0.9, V_G=0.9")


@pytest.mark.parametrize("channel,prep", [
    ("replace", "pure:h,v"),
    ("replace:h", "ensemble:0.3,h,v;0.7,d,a"),
    ("identity", "pure:h,v"),
])
def test_verify_prints_round_off_slack_without_sign(capsys, channel, prep):
    code, out, _ = run_cli(capsys, "verify", "--channel", channel, "--prep", prep)
    assert code == EXIT_OK
    assert "slack = 0.0000  (1 - D^2 - V_G^2)" in out.splitlines()


def test_reproduce_from_csv_with_a_repeated_record_exits_2(capsys, tmp_path):
    path = tmp_path / "records.csv"
    text = (ROOT / "demos" / "data" / "measured_records.csv").read_text(encoding="ascii")
    path.write_text(text.rstrip("\r\n") + "\nhh,hh,0.489,0.0,0.0,0.003,0.003\n",
                    encoding="ascii")
    code, out, err = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert "input error: duplicate record for ('hh', 'hh')" in err


@pytest.mark.parametrize("row, count", [("hh,hh,0.5", 3), ("hh,hh,0.5,0.1,0.0,0.0,0.0,9", 8)],
                         ids=["short", "long"])
def test_reproduce_from_csv_with_a_row_of_the_wrong_length_exits_2(capsys, tmp_path,
                                                                   row, count):
    path = tmp_path / "records.csv"
    path.write_text("mu,nu,p,re_V,im_V,sigma_p,sigma_V\n" + row + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert f"input error: CSV line 2: expected 7 fields, got {count}" in err


def test_reproduce_from_a_header_only_csv_certifies_nothing_and_exits_2(capsys, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("mu,nu,p,re_V,im_V,sigma_p,sigma_V\n", encoding="ascii")
    code, out, err = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == ("input error: no bound certified: the 0 records support neither "
                   "the four-term bound nor a single-preparation bound\n")


def test_reproduce_with_a_single_filter_certifies_nothing_and_exits_2(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--seed", "7", "--shots", "500",
                             "--filters", "hh")
    assert code == EXIT_INPUT
    assert out == ""
    assert "input error: no bound certified: the 4 records" in err


def _printed_bounds(out: str) -> dict:
    """The bounds a ``reproduce`` report prints, as strings."""
    swap = re.search(r"V_G >= (\S+) \+/- (\S+)\n  D   <= (\S+) \+/- (\S+)\n"
                     r"  contraction slack = (\S+)", out)
    why = re.search(r"bound unavailable: (.*)", out)
    singles = re.findall(r"mu=(\w+), nu in \{(\w+),(\w+)\}: V_G >= (\S+) \+/- (\S+)  ->  "
                         r"D <= (\S+) \+/- (\S+)", out)
    best = re.search(r"best single preparation: mu=(\w+) \(V_G >= (\S+), D <= (\S+)\)", out)
    return {"swap": swap and swap.groups(), "swap_unavailable": why and why.group(1),
            "singles": {tuple(row[:3]): row[3:] for row in singles},
            "best": best and best.groups()}


def _bounds_to_print(run) -> dict:
    """:func:`certify_run`'s result at the precision ``reproduce`` prints."""
    def fields(cert):
        return tuple(f"{getattr(cert, name):.4f}"
                     for name in ("vg_lower", "sigma_vg", "d_upper", "sigma_d"))
    swap = run.swap and (*fields(run.swap), f"{run.swap.contraction_slack:.3e}")
    best = run.best and run.singles[run.best]
    return {"swap": swap, "swap_unavailable": run.swap_unavailable,
            "singles": {key: fields(cert) for key, cert in run.singles.items()},
            "best": best and (run.best[0], fields(best)[0], fields(best)[2])}


_SEED_7 = ("--seed", "7", "--shots", "10000", "--contrast", "0.96")


@pytest.mark.parametrize("argv, expected", [
    (_SEED_7, EXIT_OK),
    (("--from-csv", "demos/data/measured_records.csv"), EXIT_OK),
    (_SEED_7 + ("--filters", "hh"), EXIT_INPUT),
    (_SEED_7 + ("--filters", "hh,vv"), EXIT_OK),
    (_SEED_7 + ("--filters", "hh,hv,vh"), EXIT_OK),
    (("--from-csv", "HEADER"), EXIT_INPUT),
], ids=["seed-7", "measured-csv", "filters-hh", "filters-hh-vv", "filters-hh-hv-vh",
        "header-only-csv"])
def test_certify_run_agrees_with_the_printed_bounds(capsys, monkeypatch, tmp_path, argv,
                                                    expected):
    monkeypatch.chdir(ROOT)
    header = tmp_path / "header.csv"
    header.write_text("mu,nu,p,re_V,im_V,sigma_p,sigma_V\n", encoding="ascii")
    argv = [str(header) if a == "HEADER" else a for a in argv]
    code, out, err = run_cli(capsys, "reproduce", *argv)
    assert code == expected
    if argv[0] == "--from-csv":
        records = read_records_csv(argv[1])
    else:
        filters = rectilinear_filters()
        if "--filters" in argv:
            filters = {nu: filters[nu] for nu in argv[-1].split(",")}
        records = run_experiment(pauli_mixture_channel(), filters=filters,
                                 shots_per_phase=10_000, contrast=0.96, seed=7)
    if expected == EXIT_INPUT:
        with pytest.raises(DimensionError) as exc:
            certify_run(records)
        assert (out, err) == ("", f"input error: {exc.value}\n")
    else:
        assert err == ""
        assert _printed_bounds(out) == _bounds_to_print(certify_run(records))


def test_reproduce_from_csv_with_a_non_numeric_field_names_line_and_column(capsys, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("mu,nu,p,re_V,im_V,sigma_p,sigma_V\nhh,hh,abc,0.1,0.0,0.0,0.0\n",
                    encoding="ascii")
    code, out, err = run_cli(capsys, "reproduce", "--from-csv", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "input error: CSV line 2, column p: could not convert string to float: 'abc'\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--channel", "identity", "--prep", "mixed", "--tol", "nan"),
    ("verify", "--channel", "identity", "--prep", "mixed", "--tol", "inf"),
    ("verify", "--channel", "identity", "--prep", "mixed", "--tol", "-1"),
    ("verify", "--channel", "identity", "--prep", "mixed", "--tol", "abc"),
    ("reproduce", "--seed", "1", "--shots", "0"),
    ("reproduce", "--seed", "1", "--shots", "-5"),
    ("reproduce", "--seed", "1", "--shots", "1.5"),
], ids=["tol-nan", "tol-inf", "tol-negative", "tol-text", "shots-0", "shots-negative",
        "shots-fraction"])
def test_out_of_range_numbers_are_refused_at_parse_time(capsys, monkeypatch, argv):
    import whichway.cli as cli

    def refuse(args):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli, "cmd_duality", refuse)
    monkeypatch.setattr(cli, "cmd_reproduce", refuse)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_INPUT
    assert f"argument {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("vg", "--channel", "identity", "--prep", "mixed", "--out", ""),
    ("distinguishability", "--channel", "identity", "--prep", "mixed", "--out", ""),
    ("verify", "--channel", "identity", "--prep", "mixed", "--out", ""),
    ("table", "--out", ""),
    ("reproduce", "--seed", "1", "--out", ""),
    ("reproduce", "--seed", "1", "--filters", ""),
    ("reproduce", "--seed", "1", "--from-csv", ""),
], ids=["vg-out", "distinguishability-out", "verify-out", "table-out", "reproduce-out",
        "filters", "from-csv"])
def test_empty_strings_are_refused_at_parse_time(capsys, monkeypatch, argv):
    # '' would otherwise read as the flag not given: no file, or every filter
    import whichway.cli as cli

    def refuse(args):
        raise AssertionError("the subcommand ran")

    for name in ("cmd_duality", "cmd_table", "cmd_reproduce"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: {argv[-2]} must not be empty" in captured.err


def test_smallest_accepted_numbers(capsys):
    code, out, _ = run_cli(capsys, "verify", "--channel", "identity", "--prep", "pure:h,v",
                           "--tol", "0")
    assert code == EXIT_OK
    assert "slack = 0.0000" in out
    code, out, _ = run_cli(capsys, "reproduce", "--seed", "1", "--shots", "1")
    assert code == EXIT_OK
    assert "shots/phase=1," in out


def test_fuchs_van_de_graaf_floor_violation_exits_3(capsys, monkeypatch):
    import whichway.duality as duality

    monkeypatch.setattr(duality, "_trace_distance", lambda m0, m1: 0.0)
    code, out, err = run_cli(capsys, "verify", "--channel", "transpose", "--prep", "pure:h,h")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "numerical failure: Fuchs-van de Graaf bound violated" in err


def _verify_with_slack(capsys, monkeypatch, slack, *tol):
    """Run verify on identity/pure:h,v, where V_G = 1, with D patched to
    sqrt(-slack) so that 1 - D^2 - V_G^2 = slack."""
    import whichway.duality as duality

    monkeypatch.setattr(duality, "_trace_distance", lambda m0, m1: math.sqrt(-slack))
    return run_cli(capsys, "verify", "--channel", "identity", "--prep", "pure:h,v", *tol)


def test_verify_slack_within_the_floor_exits_by_tol(capsys, monkeypatch):
    code, out, _ = _verify_with_slack(capsys, monkeypatch, -5e-9)
    assert code == EXIT_OK
    assert "slack = 0.0000  (1 - D^2 - V_G^2)" in out.splitlines()
    code, out, err = _verify_with_slack(capsys, monkeypatch, -5e-9, "--tol", "0")
    assert code == EXIT_VIOLATION
    assert "slack = 0.0000  (1 - D^2 - V_G^2)" in out.splitlines()
    assert err == ""


def test_verify_slack_below_the_floor_exits_3(capsys, monkeypatch):
    for tol in ((), ("--tol", "1e-3")):
        code, out, err = _verify_with_slack(capsys, monkeypatch, -1e-6, *tol)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "numerical failure: trade-off violated" in err


@pytest.mark.parametrize("argv, limit", [
    (("verify", "--channel", "transpose", "--d", "100", "--prep", "mixed"), "--d must be in 1..16"),
    (("vg", "--channel", "identity", "--d", "0", "--prep", "mixed"), "--d must be in 1..16"),
    (("verify", "--channel", "random:100000:1", "--prep", "mixed"), "K in 1..256"),
    (("distinguishability", "--channel", "random:0:1", "--prep", "mixed"), "K in 1..256"),
])
def test_size_cap_exits_2_before_building(capsys, monkeypatch, argv, limit):
    import whichway.channels as channels

    def refuse(*args):
        raise AssertionError("built a channel beyond the size cap")

    for builder in ("identity_channel", "transpose_channel", "random_path_channel"):
        monkeypatch.setattr(channels, builder, refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert limit in err


def test_size_cap_limits_are_accepted_and_documented(capsys):
    assert parse_channel("identity", MAX_SPIN_DIM).spin_dim == MAX_SPIN_DIM
    assert parse_channel(f"random:{MAX_KRAUS}:1", 2).n_kraus == MAX_KRAUS
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert f"1..{MAX_SPIN_DIM}" in help_text and f"1..{MAX_KRAUS}" in help_text


def test_exit_code_constants_are_distinct():
    assert len({EXIT_OK, EXIT_VIOLATION, EXIT_INPUT, EXIT_NUMERICAL}) == 4


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_ends_the_run_quietly(unbuffered):
    # the reader is gone before the run starts, as in `whichway ... | true`;
    # unbuffered, print itself meets the broken pipe, buffered the final flush
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "whichway.cli", "reproduce", "--seed", "1",
                               "--shots", "5"], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=60, check=False)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
