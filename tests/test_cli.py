import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sparsecombine
from sparsecombine.cli import (
    BUDGET_ENV_VAR,
    CSV_FIELDS,
    EXIT_BAD_CONFIG,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    cmd_plan,
    cmd_solve,
    cmd_study,
    cmd_verify,
    main,
    write_records_csv,
)
from sparsecombine.combine import (
    DEFAULT_NODE_BUDGET,
    STUDY_METHODS,
    CombinationPlan,
    ConvergenceRecord,
    PlanEvaluationError,
    _band,
    extrapolation_plan,
    ho_plan,
    per_level_mass,
    plan_to_dict,
    standard_plan,
    write_plan_json,
)

from oracles import level_mass_by_fraction_sum

DATA = Path(__file__).parent / "data"


def run_main(argv):
    """main() normally returns the exit code; argparse errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_contract(argv, budget="5000"):
    """Run argv under a small SPARSECOMBINE_BUDGET; returns (code, stdout).

    The contract of every command: exit 0 (ok), 1 (verification failed), 2
    (over the budget) or 3 (bad input), and never a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {BUDGET_ENV_VAR: budget}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_BUDGET, EXIT_BAD_CONFIG)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue()


@st.composite
def mostly(draw, good, bad):
    """A draw of ``good`` four times in five, else one of the edge values
    ``bad`` (shrinking toward ``good``)."""
    if draw(st.integers(0, 4)) < 4:
        return draw(good)
    return draw(st.sampled_from(bad))


@st.composite
def point_flag(draw, dim):
    """The --point flag and its value for a dim-dimensional command, or none."""
    coords = st.lists(st.sampled_from(["0.25", "0.5", "0.7", "0", "1"]),
                      min_size=max(dim, 0), max_size=max(dim, 0)).map(",".join)
    point = draw(mostly(st.one_of(st.none(), st.just("auto"), coords),
                        ["nan,0.5", "inf", "-0.1", "0.5,0.5,0.5,0.5,0.5", "", "x"]))
    return [] if point is None else [f"--point={point}"]


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


@pytest.mark.bits
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


def test_parallel_flag_starts_no_thread(tmp_path, monkeypatch):
    # --parallel is accepted and ignored: every grid is solved on the calling
    # thread, whatever count is asked for.
    def refuse(self):
        raise RuntimeError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    args = ["study", "--method", "HOSG", "--dim", "2", "--n-min", "2", "--n-max", "5"]
    outputs = []
    for workers in ("4", "1", "auto"):
        out = tmp_path / f"p{workers}.csv"
        assert run_main(args + ["--parallel", workers, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        outputs.append([{k: v for k, v in r.items() if k != "runtime_s"} for r in rows])
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1] == outputs[2]


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


def test_study_unwritable_out_exits_3_before_solving(tmp_path, monkeypatch, capsys):
    # The output is opened before the first solve, so a path in a missing
    # directory fails at once instead of after the whole study.
    def no_solve(*args, **kwargs):
        raise AssertionError("no grid may be solved for an unwritable output")

    monkeypatch.setattr("sparsecombine.combine._solve_at_table", no_solve)
    out = tmp_path / "missing" / "x.csv"
    code = run_main(["study", "--method", "HOSG", "--dim", "3", "--n-min", "2",
                     "--n-max", "10", "--out", str(out)])
    assert code == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err
    assert "budget guard" not in captured.err
    assert "Traceback" not in captured.out + captured.err


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
        ["solve", "--dim", "2", "--level", "4,4", "--solver", "cg"],
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


@st.composite
def study_argv(draw):
    dim = draw(mostly(st.integers(1, 4), [0, -1]))
    n_min = draw(mostly(st.integers(0, 6), [-1, 10 ** 5]))
    n_max = n_min + draw(mostly(st.integers(0, 3), [-1]))
    argv = ["study", f"--method={draw(mostly(st.sampled_from(STUDY_METHODS), ['weird', '']))}",
            f"--dim={dim}", f"--n-min={n_min}", f"--n-max={n_max}",
            f"--level-shift={draw(mostly(st.sampled_from([0, 1]), [2, -1]))}",
            f"--surplus-points={draw(mostly(st.integers(0, 3), [-1, 'x']))}"]
    argv += draw(mostly(st.one_of(st.just([]), st.integers(1, 5000).map(
        lambda b: [f"--budget={b}"])), [["--budget=0"], ["--budget=-1"]]))
    argv += draw(point_flag(dim))
    return argv, n_min, n_max


@settings(max_examples=100, deadline=None)
@given(study_argv())
def test_study_command_contract(drawn):
    # A study exits 0 only with one record per n, and 2 only with the records
    # before the refused n.
    argv, n_min, n_max = drawn
    code, out = run_contract(argv)
    assert code != EXIT_VERIFY_FAILED
    ns = [int(row["n"]) for row in csv.DictReader(
        line for line in out.splitlines() if not line.startswith("#"))]
    if code == EXIT_OK:
        assert ns == list(range(n_min, n_max + 1))
    elif code == EXIT_BUDGET:
        assert ns == list(range(n_min, n_min + len(ns)))


@pytest.mark.parametrize("method", ["SG", "HOSG"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_study_refuses_hopeless_record_at_once(method, dim, capsys):
    # Grid (n+1, 1, ..., 1) alone puts n = 100000 over the budget; the
    # projection's O(n**2 * d) big-integer products are never started.
    t0 = time.perf_counter()
    argv = ["study", "--method", method, "--dim", str(dim),
            "--n-min", "100000", "--n-max", "100000"]
    assert run_main(argv) == EXIT_BUDGET
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"budget guard: {method} d={dim} n=100000 (shift 1) projects over 2**")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_ok_exit_zero():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cmd_verify(6, trials=25, seed=0)
    assert code == EXIT_OK
    text = buf.getvalue()
    assert "checks passed" in text
    assert "FAIL" not in text


def test_verify_perturbed_weights_exit_one():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cmd_verify(4, trials=10, seed=0, perturb_alpha1=Fraction(101, 100))
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


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(trials, capsys):
    # A randomized check that draws no table would pass vacuously.
    assert run_main(["verify", "--d-max", "2", "--trials", trials]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert "trials must be >= 1" in captured.err
    assert "checks passed" not in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("trials", ["100001", "100000000000"])
def test_verify_rejects_trials_above_bound(trials, capsys):
    # 10**5 tables bound the randomized check's run time; a larger count is
    # refused before any table is drawn.
    t0 = time.perf_counter()
    assert run_main(["verify", "--d-max", "2", "--trials", trials]) == EXIT_BAD_CONFIG
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "trials must be <= 100000" in captured.err
    assert "checks passed" not in captured.out
    assert "Traceback" not in captured.out + captured.err


@settings(max_examples=100, deadline=None)
@given(
    mostly(st.integers(1, 10), [0, -2, 33, "x"]),
    mostly(st.integers(1, 20), [0, -1, 100_001, 10 ** 11, "x"]),
    mostly(st.integers(-3, 3), ["x"]),
    mostly(st.sampled_from([None, "1", "101/100", "-1", "0"]), ["1/0", "1e400", "nan", "inf", ""]),
)
def test_verify_command_contract(d_max, trials, seed, factor):
    # verify exits 0 only when every check it ran passed: one normalization
    # and one cancellation check per d, and a randomized one per d <= 8.
    argv = ["verify", f"--d-max={d_max}", f"--trials={trials}", f"--seed={seed}"]
    if factor is not None:
        argv.append(f"--perturb-alpha1={factor}")
    code, out = run_contract(argv)
    assert code != EXIT_BUDGET
    if code == EXIT_OK:
        checks = 2 * d_max + min(d_max, 8)
        assert out.splitlines()[-1] == f"{checks}/{checks} checks passed"


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
    # cmd_plan writes to sys.stdout as it is when called.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cmd_plan(2, 3, "standard") == EXIT_OK
    payload = json.loads(buf.getvalue())
    assert payload["coefficient_sum"] == "1/1"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["standard", "ho", "weird"]),
    st.integers(min_value=-3, max_value=6),
    st.integers(min_value=-2, max_value=7),
)
def test_plan_command_contract(kind, dim, n):
    # Whatever its kind, dimension and level, plan exits 0, 2 (more terms
    # than the budget) or 3 (bad input) without a traceback, and prints a
    # plan only when its coefficients sum to 1.
    code, out = run_contract(
        ["plan", "--kind", kind, "--dim", str(dim), "--n", str(n)], budget="2000"
    )
    assert code != EXIT_VERIFY_FAILED
    if code == EXIT_OK:
        assert json.loads(out)["coefficient_sum"] == "1/1"


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
    with contextlib.redirect_stdout(buf):
        assert cmd_plan(d, n, kind) == EXIT_OK
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


def reference_plan_json(plan, n):
    # The export built from the materialised terms alone: sorted by diagonal
    # and level, masses summed one Fraction per term, laid out by json.
    items = sorted(plan.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def frac(c):
        return f"{c.numerator}/{c.denominator}"

    payload = {
        "d": plan.dim,
        "n": n,
        "label": plan.label,
        "terms": [{"levels": list(lv), "coeff": frac(c)} for lv, c in items],
        "coefficient_sum": frac(sum((c for _, c in items), Fraction(0))),
        "level_mass": {
            str(t): frac(m) for t, m in level_mass_by_fraction_sum(plan.terms).items()
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def cancelled_band():
    # No ho_plan has a diagonal whose mass cancels, so this band takes a
    # made-up table, c(t, p) = (-2)**p [x^(t-1)] (x - 1) / 8 (the step
    # polynomial -2, see combine._band): on |l|_1 = 2, two levels of
    # coefficient -1/4 and one of 1/2.
    plan = _band(2, 1, (-2,), 8, "cancelled")
    assert plan.terms == {(0, 2): Fraction(-1, 4), (1, 1): Fraction(1, 2),
                          (2, 0): Fraction(-1, 4), (0, 1): Fraction(1, 4),
                          (1, 0): Fraction(1, 4)}
    assert per_level_mass(plan)[2] == 0
    return plan


# Made-up step polynomials (see combine._band) whose tables have zero cells
# inside a diagonal: (1 + x)**2 / 4 and 1 - x**2, e.g. c(3, 1) at d = 3,
# n = 2 for the first and c(6, 3) for the second.
MADE_UP_STEPS = {"square": ((1, 2, 1), 4), "difference": ((1, 0, -1), 1)}


def made_up_band(kind, d, n):
    plan = _band(d, n, *MADE_UP_STEPS[kind], kind)
    # Some diagonal holds terms and a class left out for its zero coefficient.
    band = plan._band
    live = {(t, p) for t, p, _, _ in band.classes()}
    assert any(
        (t, p) not in live and any(t == u for u, _ in live)
        for t in range(n, band.top + 1)
        for p in range(1, min(t, d) + 1)
    )
    return plan


@pytest.mark.parametrize("kind, d, n, shifts", [
    *(("standard", d, n, 0) for d in range(1, 7) for n in range(8)),
    *(("ho", d, n, 0) for d in range(1, 7) for n in range(1, 8)),
    *((kind, d, n, 0) for kind, d, n in EXACT_PLANS),
    *(("standard", d, n, 1) for d in (1, 3, 6) for n in (0, 4)),
    *(("ho", d, n, 1) for d in (1, 3, 5) for n in (1, 4)),
    ("ho", 3, 2, 2),
    ("cancelled", 2, 1, 0),
    ("cancelled", 2, 1, 1),
    *(("ho", 7, n, 0) for n in (1, 2)),
    *(("standard", 8, n, 0) for n in range(3)),
    *((kind, d, n, 2) for kind, d, n in (("standard", 4, 0), ("ho", 4, 2), ("ho", 5, 1),
                                          ("standard", 7, 2))),
    *((kind, d, n, 0) for kind in MADE_UP_STEPS for d in range(3, 6) for n in (1, 2)),
    *((kind, d, 2, 1) for kind in MADE_UP_STEPS for d in (3, 5)),
])
def test_band_plan_writer_matches_reference(kind, d, n, shifts):
    if kind == "cancelled":
        plan = cancelled_band()
    elif kind in MADE_UP_STEPS:
        plan = made_up_band(kind, d, n)
    else:
        plan = (ho_plan if kind == "ho" else standard_plan)(d, n)
    for _ in range(shifts):
        plan = plan.shifted(1)
    buf = io.StringIO()
    write_plan_json(plan, buf, n=n)
    assert buf.getvalue() == reference_plan_json(plan, n)


def test_band_plan_export_memory_bounded():
    # The 6.5 MB export of standard_plan(8, 3) is rendered in blocks and
    # written in bounded chunks, never held whole. Measured peak: 1.3 MB.
    class Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    plan, sink = standard_plan(8, 3), Sink()
    plan.term_count()
    tracemalloc.start()
    try:
        write_plan_json(plan, sink, n=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == 6_497_977
    assert peak < sink.chars / 4


def test_band_table_holds_diagonals_from_n_only():
    # standard_plan(1, 3_000_000) has one term: its table holds the rows of
    # diagonals n..top only, and its export renders no text per level value.
    n = 3_000_000
    plan = standard_plan(1, n)
    band = plan._band
    assert band.top == n and len(band.table) == band.top - n + 1
    buf = io.StringIO()
    write_plan_json(plan, buf, n=n)
    want = {
        "d": 1,
        "n": n,
        "label": f"standard(d=1,n={n})",
        "terms": [{"levels": [n], "coeff": "1/1"}],
        "coefficient_sum": "1/1",
        "level_mass": {str(n): "1/1"},
    }
    assert buf.getvalue() == json.dumps(want, indent=2) + "\n"


def test_band_plan_export_leaves_terms_unbuilt():
    for plan in (standard_plan(4, 3), ho_plan(3, 2), ho_plan(3, 2).shifted(1)):
        len(plan)
        repr(plan)
        plan.term_count()
        plan.coefficient_sum()
        per_level_mass(plan)
        write_plan_json(plan, io.StringIO(), n=2)
        assert plan.shifted(1)._terms is None
        assert plan._terms is None
        terms = plan.terms
        assert plan._terms is terms and plan.terms is terms
        assert len(terms) == len(plan)


@pytest.mark.parametrize("argv, golden", [
    (["plan", "--kind", "ho", "--dim", "2", "--n", "2"], "plan_ho_d2_n2.json"),
    (["plan", "--kind", "standard", "--dim", "3", "--n", "2"], "plan_standard_d3_n2.json"),
    (["verify", "--d-max", "8"], "verify_d8.txt"),
    (["verify", "--d-max", "8", "--seed", "1"], "verify_d8_seed1.txt"),
])
def test_stdout_matches_golden_file(argv, golden, capsys):
    assert run_main(argv) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (DATA / golden).read_bytes()


def test_perturbed_verify_matches_golden_file(capsys):
    # Every check fails with a nonzero Fraction defect, the randomized one's
    # summed over every table key.
    argv = ["verify", "--d-max", "5", "--seed", "7", "--perturb-alpha1", "1.0001"]
    assert run_main(argv) == EXIT_VERIFY_FAILED
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (DATA / "verify_d5_perturbed.txt").read_bytes()


def _mask_runtime(text):
    # runtime_s is the last column of a CSV record and a key of a JSON record.
    text = re.sub(r'("runtime_s": )[0-9.e+-]+', r"\1_", text)
    return re.sub(r",[0-9.e+-]+$", ",_", text, flags=re.M)


@pytest.mark.bits
@pytest.mark.parametrize("argv, golden", [
    (["study", "--method", "HOSG", "--dim", "3", "--n-min", "2", "--n-max", "6",
      "--surplus-points", "8"], "study_hosg_d3_n6_k8.csv"),
    (["study", "--method", "SG", "--dim", "2", "--n-max", "5", "--format", "json",
      "--point", "0.3,0.7", "--budget", "999999"], "study_sg_d2_n5.json"),
])
def test_study_matches_golden_file(argv, golden, capsys):
    # A study's output but for runtime_s has the golden bytes.
    assert run_main(argv) == EXIT_OK
    want = (DATA / golden).read_text(encoding="utf-8")
    got = capsys.readouterr().out
    assert _mask_runtime(got) == _mask_runtime(want)


def run_fresh_python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this package:
    in the test process, test modules and plugins have loaded numpy and
    maybe scipy already."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(),
        check=True,
    )
    return proc.stdout


def fresh_env():
    # The environment with this package's source first on PYTHONPATH.
    src = str(Path(sparsecombine.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_plan_into_closed_pipe_exits_141_silently():
    # The reader closes the pipe after a few bytes, as `| head -c 100` does:
    # the process exits 141 (128 + SIGPIPE) and prints nothing to stderr,
    # neither an error message nor the ignored exception of the final flush.
    with subprocess.Popen(
        [sys.executable, "-m", "sparsecombine.cli", "plan", "--kind", "standard",
         "--dim", "8", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    ) as proc:
        try:
            assert proc.stdout.read(100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (141, b"")


def test_plan_and_verify_do_not_import_scipy():
    # Nor numpy: the name is bound lazily, so no numpy.* submodule loads.
    # study and solve, FFT path included, load numpy.fft and still no scipy.
    code = (
        "import contextlib, io, sys\n"
        "from sparsecombine.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['plan', '--dim', '2', '--n', '2']),"
        " main(['verify', '--d-max', '2'])]\n"
        "print(codes, scipy_modules())\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['study', '--method', 'HOSG', '--dim', '3', '--n-min', '2',"
        " '--n-max', '4']), main(['solve', '--dim', '2', '--level', '8,3'])]\n"
        "print(codes, scipy_modules(), 'numpy.fft' in sys.modules)\n"
    )
    assert run_fresh_python(code) == "[0, 0] []\n[]\n[0, 0] [] True\n"


def _untimed(text):
    # A solve's JSON without solve_seconds, or a study's CSV without runtime_s.
    if text.startswith("{"):
        payload = json.loads(text)
        del payload["solve_seconds"]
        return payload
    lines = text.splitlines(keepends=True)
    rows = list(csv.DictReader(line for line in lines if not line.startswith("# ")))
    for row in rows:
        del row["runtime_s"]
    return [line for line in lines if line.startswith("# ")], rows


def test_first_numpy_load_from_package_gives_same_output(capsys):
    argvs = [
        ["solve", "--dim", "2", "--level", "5,5"],
        ["study", "--method", "HOSG", "--dim", "3", "--n-min", "2", "--n-max", "5"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from sparsecombine.cli import main\n"
        "assert not [m for m in sys.modules if m.startswith('numpy.')]\n"
        "outs = []\n"
        f"for argv in {argvs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        outs.append([main(argv), buf.getvalue()])\n"
        "assert 'numpy.linalg' in sys.modules\n"
        "print(json.dumps(outs))\n"
    )
    fresh = json.loads(run_fresh_python(code))
    for argv, (rc, text) in zip(argvs, fresh):
        assert rc == run_main(argv) == EXIT_OK
        assert _untimed(text) == _untimed(capsys.readouterr().out)


@pytest.mark.parametrize("hide", [
    "class Hide:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'numpy':\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, Hide())\n",
    "sys.modules['numpy'] = None\n",
], ids=["meta_path", "sys_modules"])
def test_import_without_numpy_names_it(hide):
    code = (
        "import sys\n"
        f"{hide}"
        "try:\n"
        "    import sparsecombine.cli\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, 'numpy' in str(exc))\n"
    )
    assert run_fresh_python(code) == "numpy True\n"


# ---------------------------------------------------------------------------
# solve subcommand


def test_solve_json(capsys):
    assert run_main(["solve", "--dim", "2", "--level", "5,5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == [5, 5]
    assert payload["nodes"] == 33 * 33
    assert abs(payload["error_at_point"]) < 1e-3
    assert payload["residual_inf"] < 1e-9


@pytest.mark.bits
def test_solve_matches_golden_file(capsys):
    # A solve's JSON but for solve_seconds, with FFT-path and direct-path
    # directions, has the golden bytes.
    assert run_main(["solve", "--dim", "3", "--level", "8,3,2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    del payload["solve_seconds"]
    text = json.dumps(payload, indent=2) + "\n"
    assert text.encode("utf-8") == (DATA / "solve_d3_l832.json").read_bytes()


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


@pytest.mark.parametrize("point, message", [
    ("2,0,0", "outside [0, 1]"),
    ("0.5,0.5", "point has 2 coords, expected 3"),
])
def test_solve_bad_point_exits_3_without_solving(point, message, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid must not be solved for a bad point")

    monkeypatch.setattr("sparsecombine.cli.solve_poisson", no_solve)
    argv = ["solve", "--dim", "3", "--level", "7,7,7", "--point", point]
    assert run_main(argv) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "env_budget,level,nodes", [
        (None, "12,12,12", 68769820673),
        ("288", "4,4", 289),
        # Past str()'s 4300-digit limit, a count shows as its power of two.
        (None, "100000,1", "over 2**100001"),
    ]
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


@pytest.mark.parametrize("env_budget, argv, message", [
    (None, ["--kind", "standard", "--dim", "40", "--n", "3"],
     f"plan standard(d=40,n=3) has 414670662257153823493959 terms, "
     f"budget is {DEFAULT_NODE_BUDGET}"),
    (None, ["--kind", "ho", "--dim", "10", "--n", "5"],
     f"plan ho(d=10,n=5) has 50275012 terms, budget is {DEFAULT_NODE_BUDGET}"),
    ("30", ["--kind", "standard", "--dim", "3", "--n", "2"],
     "plan standard(d=3,n=2) has 31 terms, budget is 30"),
])
def test_plan_over_budget_exits_2_without_writing(
    env_budget, argv, message, monkeypatch, capsys
):
    def no_write(*args, **kwargs):
        raise AssertionError("an over-budget plan must not be written")

    monkeypatch.setattr("sparsecombine.cli.write_plan_json", no_write)
    if env_budget is None:
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(BUDGET_ENV_VAR, env_budget)
    assert run_main(["plan", *argv]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.err == f"budget guard: {message}\n"
    assert captured.out == ""


def test_plan_ho_far_over_budget_exits_2_at_once(monkeypatch, capsys):
    # The class table is built in closed form, so a higher-order plan at
    # d = 200 is refused from its term count in well under a second (0.4 s
    # measured); with per-cell Fraction sums it ran for more than 90 s.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    t0 = time.perf_counter()
    assert run_main(["plan", "--kind", "ho", "--dim", "200", "--n", "1"]) == EXIT_BUDGET
    assert time.perf_counter() - t0 < 30.0
    captured = capsys.readouterr()
    assert captured.err.startswith("budget guard: plan ho(d=200,n=1) has ")
    assert captured.out == ""


@pytest.mark.parametrize("env_budget, argv, terms", [
    (None, ["--kind", "standard", "--dim", "8", "--n", "12"], 2_144_493),
    ("31", ["--kind", "standard", "--dim", "3", "--n", "2"], 31),
])
def test_plan_within_budget_is_written(env_budget, argv, terms, monkeypatch):
    written = []
    monkeypatch.setattr(
        "sparsecombine.cli.write_plan_json", lambda plan, out, n: written.append(plan)
    )
    if env_budget is None:
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(BUDGET_ENV_VAR, env_budget)
    assert run_main(["plan", *argv]) == EXIT_OK
    assert [plan.term_count() for plan in written] == [terms]


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


def test_study_grid_too_big_exits_3_naming_level(capsys):
    # numpy refuses the 2**61-node grid before it allocates anything.
    argv = ["study", "--method", "FG", "--dim", "1", "--n-min", "60", "--n-max", "60",
            "--budget", "100000000000000000000"]
    assert run_main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "error: while solving level (61,) for plan fg(n=60): " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "message,reported",
    [("Unable to allocate 14.6 TiB", "Unable to allocate 14.6 TiB"), ("", "MemoryError")],
)
def test_grid_solve_out_of_memory_exits_3_naming_level(
    message, reported, monkeypatch, capsys
):
    # Injected below evaluate_plan, which wraps it in PlanEvaluationError;
    # nothing is allocated for real.
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("sparsecombine.combine._solve_at_table", out_of_memory)
    argv = ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4"]
    assert run_main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    level = "level (1, 4) for plan standard(d=2,n=3)+shift1"
    assert f"error: while solving {level}: {reported}\n" in err
    assert "Traceback" not in err


def test_grid_solve_other_failure_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("sparsecombine.combine._solve_at_table", broken)
    argv = ["study", "--method", "SG", "--dim", "2", "--n-min", "3", "--n-max", "4"]
    with pytest.raises(PlanEvaluationError) as exc:
        run_main(argv)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_command_contract(data):
    # solve exits 0 only with a report on the grid it was asked for, and
    # that grid is within the budget.
    dim = data.draw(mostly(st.integers(1, 4), [0, -1]))
    level = data.draw(mostly(
        st.lists(st.integers(1, 7), min_size=max(dim, 0), max_size=max(dim, 0)).map(
            lambda levels: ",".join(map(str, levels))),
        ["0,3", "-1,2", "3", "", "x", "3,,3", "100000,1"]))
    argv = ["solve", f"--dim={dim}", f"--level={level}", *data.draw(point_flag(dim))]
    code, out = run_contract(argv)
    assert code != EXIT_VERIFY_FAILED
    if code == EXIT_OK:
        payload = json.loads(out)
        assert ",".join(map(str, payload["level"])) == level
        assert payload["nodes"] <= 5000


def test_cmd_solve_stream():
    # cmd_solve writes to sys.stdout as it is when called.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cmd_solve(1, (3,)) == EXIT_OK
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


def test_study_config_resolution(capsys):
    # point=None is the default point; an explicit point is written as given.
    assert cmd_study("SG", 3, 1, 2) == EXIT_OK
    assert "# point=[0.25, 0.5, 0.25]\n" in capsys.readouterr().out
    assert cmd_study("SG", 2, 1, 2, point=(0.3, 0.7)) == EXIT_OK
    assert "# point=[0.3, 0.7]\n" in capsys.readouterr().out


def test_cmd_study_stdout_default(capsys):
    assert cmd_study("FG", 1, 3, 4) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# method=FG")


@pytest.mark.parametrize("fmt", ["jsn", "CSV", ""])
def test_cmd_study_rejects_unknown_format(tmp_path, fmt):
    # An unknown format is refused before the output is opened or anything
    # is solved.
    out = tmp_path / "records.txt"
    with pytest.raises(ValueError, match="unknown format"):
        cmd_study("SG", 2, 1, 2, fmt=fmt, out=str(out))
    assert not out.exists()


def test_cmd_study_honours_env_budget(monkeypatch, capsys):
    # budget=None resolves the budget as the command line does.
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    assert cmd_study("SG", 2, 1, 5) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert "budget is 100" in captured.err
    lines = captured.out.splitlines()
    assert "# node_budget=100" in lines
    assert any(line.startswith("# budget_exceeded=") for line in lines)
    assert lines[-1] == ",".join(CSV_FIELDS)


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
