import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sparsecombine
from sparsecombine.cli import (
    BUDGET_ENV_VAR,
    CSV_FIELDS,
    EXIT_BAD_CONFIG,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    StudyConfig,
    cmd_plan,
    cmd_solve,
    cmd_study,
    cmd_verify,
    main,
    write_records_csv,
)
from sparsecombine.combine import (
    CombinationPlan,
    ConvergenceRecord,
    extrapolation_plan,
    ho_plan,
    plan_to_dict,
    standard_plan,
    write_plan_json,
)

DATA = Path(__file__).parent / "data"


def run_main(argv):
    """main() normally returns the exit code; argparse errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    comments = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        filtered = []
        for line in fh:
            if line.startswith("# "):
                key, _, val = line[2:].rstrip("\n").partition("=")
                comments[key] = val
            else:
                filtered.append(line)
        rows = list(csv.DictReader(filtered))
    return comments, rows


# ---------------------------------------------------------------------------
# study subcommand


def test_study_csv_output(tmp_path):
    out = tmp_path / "run.csv"
    code = run_main(
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "6",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    comments, rows = read_csv(out)
    assert comments["method"] == "SG"
    assert comments["dim"] == "2"
    assert comments["problem"] == "sine-2d"
    assert [r["n"] for r in rows] == ["3", "4", "5", "6"]
    assert list(rows[0].keys()) == list(CSV_FIELDS)
    assert rows[-1]["surplus"] == ""
    for r in rows[:-1]:
        assert r["surplus"] != ""
    # 17-digit floats survive a text round-trip bit-exactly
    assert float(rows[0]["value"]) == float(format(float(rows[0]["value"]), ".17g"))


def test_study_json_matches_csv(tmp_path):
    args = ["study", "--method", "HOFG", "--dim", "2", "--n-min", "3", "--n-max", "5"]
    csv_out = tmp_path / "a.csv"
    json_out = tmp_path / "b.json"
    assert run_main(args + ["--out", str(csv_out)]) == EXIT_OK
    assert run_main(args + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
    _, rows = read_csv(csv_out)
    payload = json.loads(json_out.read_text())
    assert payload["config"]["method"] == "HOFG"
    assert len(payload["records"]) == len(rows)
    for jrec, crow in zip(payload["records"], rows):
        assert jrec["n"] == int(crow["n"])
        assert jrec["value"] == float(crow["value"])
        assert jrec["dof_unique"] == int(crow["dof_unique"])
        if crow["surplus"] == "":
            assert jrec["surplus"] is None
        else:
            assert jrec["surplus"] == float(crow["surplus"])


def test_study_rerun_bit_identical(tmp_path):
    args = ["study", "--method", "SG", "--dim", "3", "--n-min", "2", "--n-max", "4",
            "--parallel", "4"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_main(args + ["--out", str(out1)]) == EXIT_OK
    assert run_main(args + ["--out", str(out2)]) == EXIT_OK
    _, rows1 = read_csv(out1)
    _, rows2 = read_csv(out2)
    for a, b in zip(rows1, rows2):
        assert a["value"] == b["value"]
        assert a["surplus"] == b["surplus"]
        assert a["dof_unique"] == b["dof_unique"]


def test_study_budget_exit_and_partial_records(tmp_path):
    out = tmp_path / "partial.csv"
    code = run_main(
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "9",
         "--budget", "4000", "--out", str(out)]
    )
    assert code == EXIT_BUDGET
    comments, rows = read_csv(out)
    assert "budget_exceeded" in comments
    assert len(rows) >= 1  # completed records are flushed
    assert [r["method"] for r in rows] == ["SG"] * len(rows)


@pytest.mark.parametrize("method", ["SG", "HOSG"])
def test_study_deep_dimension_budget_guard(method, tmp_path, capsys):
    out = tmp_path / "deep.csv"
    code = run_main(
        ["study", "--method", method, "--dim", "400", "--n-max", "1", "--out", str(out)]
    )
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget guard" in err
    assert "Traceback" not in err


def test_study_budget_env_var(tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv(BUDGET_ENV_VAR, "4000")
    code = run_main(
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "9",
         "--out", str(out)]
    )
    assert code == EXIT_BUDGET
    comments, _ = read_csv(out)
    assert comments["node_budget"] == "4000"


def test_study_flag_overrides_env(tmp_path, monkeypatch):
    out = tmp_path / "flag.csv"
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    code = run_main(
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--budget", "100000", "--out", str(out)]
    )
    assert code == EXIT_OK


def test_study_bad_env_budget(monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    code = run_main(["study", "--method", "SG", "--dim", "2", "--n-min", "3",
                     "--n-max", "4"])
    assert code == EXIT_BAD_CONFIG


def test_study_point_flag(tmp_path):
    out = tmp_path / "pt.csv"
    code = run_main(
        ["study", "--method", "FG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--point", "0.3,0.7", "--out", str(out)]
    )
    assert code == EXIT_OK
    comments, _ = read_csv(out)
    assert comments["point"] == "[0.3, 0.7]"


def test_study_single_record(tmp_path):
    out = tmp_path / "one.csv"
    code = run_main(
        ["study", "--method", "SG", "--dim", "2", "--n-min", "5", "--n-max", "5",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["surplus"] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "--method", "NOPE", "--dim", "2", "--n-min", "3", "--n-max", "4"],
        ["study", "--method", "SPLIT2D", "--dim", "3", "--n-min", "3", "--n-max", "4"],
        ["study", "--method", "SG", "--dim", "2", "--n-min", "5", "--n-max", "4"],
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--point", "0.3"],
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--point", "0.3,oops"],
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--budget", "-5"],
        ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
         "--parallel", "0"],
        ["study", "--dim", "2", "--n-min", "3", "--n-max", "4"],  # method missing
        ["study", "--method", "SG", "--n-min", "3", "--n-max", "4"],  # dim missing
        ["nonsense-subcommand"],
    ],
)
def test_bad_config_exits_3(argv, capsys):
    assert run_main(argv) == EXIT_BAD_CONFIG


def test_study_nan_point_exits_3_without_traceback(capsys):
    argv = ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
            "--point", "nan,0.5"]
    assert run_main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "coordinate 0 = nan outside [0, 1]" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_ok_exit_zero():
    buf = io.StringIO()
    code = cmd_verify(6, trials=25, seed=0, stream=buf)
    assert code == EXIT_OK
    text = buf.getvalue()
    assert "checks passed" in text
    assert "FAIL" not in text


def test_verify_perturbed_weights_exit_one():
    buf = io.StringIO()
    code = cmd_verify(4, trials=10, seed=0, perturb_alpha1=Fraction(101, 100), stream=buf)
    assert code == EXIT_VERIFY_FAILED
    assert "FAILED" in buf.getvalue()


def test_verify_via_main(capsys):
    assert run_main(["verify", "--d-max", "4", "--trials", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert run_main(
        ["verify", "--d-max", "3", "--trials", "10", "--perturb-alpha1", "101/100"]
    ) == EXIT_VERIFY_FAILED


def test_verify_rejects_bad_dmax(capsys):
    assert run_main(["verify", "--d-max", "0"]) == EXIT_BAD_CONFIG


# ---------------------------------------------------------------------------
# plan subcommand


def test_plan_standard_frozen(capsys):
    assert run_main(["plan", "--dim", "2", "--n", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2
    assert payload["n"] == 1
    assert payload["coefficient_sum"] == "1/1"
    assert len(payload["terms"]) == 5
    coeffs = sorted(t["coeff"] for t in payload["terms"])
    assert coeffs == ["-1/1", "-1/1", "1/1", "1/1", "1/1"]


def test_plan_ho(capsys):
    assert run_main(["plan", "--dim", "1", "--n", "4", "--kind", "ho"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [t["coeff"] for t in payload["terms"]] == ["-1/3", "4/3"]


def test_plan_bad_kind(capsys):
    assert run_main(["plan", "--dim", "2", "--n", "1", "--kind", "weird"]) == EXIT_BAD_CONFIG


def test_cmd_plan_stream():
    buf = io.StringIO()
    assert cmd_plan(2, 3, "standard", stream=buf) == EXIT_OK
    payload = json.loads(buf.getvalue())
    assert payload["coefficient_sum"] == "1/1"


def json_dump_bytes(plan, n):
    # The export format: json.dump(plan_to_dict(...), indent=2) and a newline.
    return json.dumps(plan_to_dict(plan, n=n), indent=2) + "\n"


# The three plans the benchmark's exact workload exports.
EXACT_PLANS = [("ho", 5, 6), ("ho", 6, 2), ("standard", 8, 3)]


@pytest.mark.parametrize("kind, d, n", [
    *(("standard", d, n) for d in range(1, 7) for n in range(7)),
    *(("ho", d, n) for d in range(1, 6) for n in range(1, 6)),
    *EXACT_PLANS,
])
def test_cmd_plan_writes_json_dump_bytes(kind, d, n):
    buf = io.StringIO()
    assert cmd_plan(d, n, kind, stream=buf) == EXIT_OK
    plan = standard_plan(d, n) if kind == "standard" else ho_plan(d, n)
    assert buf.getvalue() == json_dump_bytes(plan, n)


@pytest.mark.parametrize("plan, n", [
    (extrapolation_plan((2, 1)), 3),
    (extrapolation_plan((0, 4, 1)), None),
    # Escaped label, mixed denominators, a diagonal that cancels to 0, n=None.
    (CombinationPlan(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3), (2, 0): 7,
                         (1, 1): Fraction(-5, 6)}, label='q"b\\s\nä'), None),
    (CombinationPlan(3, {}, label="empty"), 2),
    # Built when the test runs: more than one chunk of terms each.
    *((lambda kind=kind, d=d, n=n: (ho_plan if kind == "ho" else standard_plan)(d, n), n)
      for kind, d, n in EXACT_PLANS),
])
def test_plan_writer_matches_json_dump(plan, n):
    if callable(plan):
        plan = plan()
    buf = io.StringIO()
    write_plan_json(plan, buf, n=n)
    assert buf.getvalue() == json_dump_bytes(plan, n)


@pytest.mark.parametrize("argv, golden", [
    (["plan", "--kind", "ho", "--dim", "2", "--n", "2"], "plan_ho_d2_n2.json"),
    (["plan", "--kind", "standard", "--dim", "3", "--n", "2"], "plan_standard_d3_n2.json"),
    (["verify", "--d-max", "8"], "verify_d8.txt"),
])
def test_stdout_matches_golden_file(argv, golden, capsys):
    assert run_main(argv) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (DATA / golden).read_bytes()


def test_plan_and_verify_do_not_import_scipy():
    # A fresh interpreter: in this process test plugins may have loaded scipy.
    code = (
        "import contextlib, io, sys\n"
        "from sparsecombine.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['plan', '--dim', '2', '--n', '2']),"
        " main(['verify', '--d-max', '2'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sparsecombine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[0, 0] []\n"


# ---------------------------------------------------------------------------
# solve subcommand


def test_solve_json(capsys):
    assert run_main(["solve", "--dim", "2", "--level", "5,5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == [5, 5]
    assert payload["nodes"] == 33 * 33
    assert abs(payload["error_at_point"]) < 1e-3
    assert payload["residual_inf"] < 1e-9


def test_solve_point_flag(capsys):
    assert run_main(
        ["solve", "--dim", "1", "--level", "4", "--point", "0.5"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [0.5]
    assert payload["value"] == pytest.approx(-1.0, abs=5e-3)


def test_solve_degenerate_level(capsys):
    assert run_main(["solve", "--dim", "2", "--level", "0,3"]) == EXIT_BAD_CONFIG


def test_solve_level_dim_mismatch(capsys):
    assert run_main(["solve", "--dim", "2", "--level", "3"]) == EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "env_budget,level,nodes", [(None, "12,12,12", 68769820673), ("288", "4,4", 289)]
)
def test_solve_over_budget_exits_2_without_solving(
    env_budget, level, nodes, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("an over-budget grid must not be solved")

    monkeypatch.setattr("sparsecombine.cli.solve_poisson", no_solve)
    if env_budget is None:
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(BUDGET_ENV_VAR, env_budget)
    dim = str(level.count(",") + 1)
    assert run_main(["solve", "--dim", dim, "--level", level]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert f"has {nodes} nodes" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_solve_at_budget_runs(monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV_VAR, "289")
    assert run_main(["solve", "--dim", "2", "--level", "4,4"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nodes"] == 289


@pytest.mark.parametrize(
    "message,reported",
    [("Unable to allocate 14.6 TiB", "error: Unable to allocate 14.6 TiB"),
     ("", "error: MemoryError")],
)
def test_study_out_of_memory_exits_3_without_traceback(
    message, reported, monkeypatch, capsys
):
    # The MemoryError is injected; nothing is allocated for real.
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("sparsecombine.cli.hierarchical_surplus_study", out_of_memory)
    argv = ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4",
            "--surplus-points", "1000000000000"]
    assert run_main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert reported in err
    assert "Traceback" not in err


def test_cmd_solve_stream():
    buf = io.StringIO()
    assert cmd_solve(1, (3,), stream=buf) == EXIT_OK
    payload = json.loads(buf.getvalue())
    assert payload["nodes"] == 9


# ---------------------------------------------------------------------------
# writers / config plumbing


def test_write_csv_empty_records_header_only():
    buf = io.StringIO()
    write_records_csv([], buf, metadata={"method": "SG"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# method=SG"
    assert lines[1] == ",".join(CSV_FIELDS)
    assert len(lines) == 2


def test_write_csv_float_precision():
    rec = ConvergenceRecord("SG", 2, 3, 10, 20, -0.70710678118654746, None, 0.125)
    buf = io.StringIO()
    write_records_csv([rec], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert float(row[5]) == rec.value


def test_study_config_resolution():
    cfg = StudyConfig(method="SG", dim=3, n_min=1, n_max=2)
    assert cfg.resolved_point() == (0.25, 0.5, 0.25)
    assert cfg.resolved_parallelism() is None
    cfg2 = StudyConfig(method="SG", dim=2, n_min=1, n_max=2,
                       eval_point=(0.3, 0.7), parallelism=2)
    assert cfg2.resolved_point() == (0.3, 0.7)
    assert cfg2.resolved_parallelism() == 2


def test_cmd_study_stdout_default(capsys):
    cfg = StudyConfig(method="FG", dim=1, n_min=3, n_max=4)
    assert cmd_study(cfg) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# method=FG")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("sparsecombine")
    assert exe is not None
    proc = subprocess.run(
        [exe, "plan", "--dim", "1", "--n", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficient_sum"] == "1/1"
