"""Smoke test of the benchmark itself (about two minutes).

    python3 bench/smoke.py

Checks that a shortened run of every workload prints every end-to-end and
per-layer metric named in BENCHMARK.json with its unit and passes its gates;
that the gates fire (a study with a far too tight tolerance, a plan export
with the wrong sum or term count, a verify report with a failed check); that
a missing hook only leaves its metrics out; and that the benchmark refuses to
run without the program's sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Step, check_step  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [*SPEC["command"], *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics() -> None:
    names = {w["name"] for w in SPEC["workloads"]}
    expect(names <= set(WORKLOADS), "workloads.py defines every workload of BENCHMARK.json")
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        want = {m["name"]: m["unit"] for m in declared}
        for name in WORKLOADS:
            rc, lines = bench("--workload", name, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace))
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(rc == 0 and set(result) == RESULT_KEYS and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: exit {rc}, gates pass")
            expect(got == want, f"{name} trace={trace}: every metric with its unit "
                   f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")


def check_gates() -> None:
    rc, lines = bench("--workload", "hosg3-serial", "--seed", "7", "--seconds", "1",
                      "--tol", "1e-30")
    result = json.loads(lines[-1]) if lines else {}
    expect(rc == 1 and result.get("correct") is False
           and result.get("failed") == result.get("attempted"),
           "a far too tight study tolerance fails every unit")

    plan_step, verify_step = WORKLOADS["exact"].steps[0], WORKLOADS["exact"].steps[-1]
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        out = Path(tmp) / "out"
        terms = [{"levels": [1], "coeff": "1/1"}] * plan_step.expect
        out.write_text(json.dumps({"coefficient_sum": "2/1", "terms": terms}))
        expect(bool(check_step(plan_step, 0, out, None)[0]), "plan with sum 2/1 fails")
        out.write_text(json.dumps({"coefficient_sum": "1/1", "terms": terms[1:]}))
        expect(bool(check_step(plan_step, 0, out, None)[0]), "plan one term short fails")
        out.write_text("23/24 checks passed (1 FAILED)\n")
        expect(bool(check_step(verify_step, 0, out, None)[0]), "verify with a failure fails")
        expect(bool(check_step(verify_step, 1, out, None)[0]), "verify exit code 1 fails")
        study = Step("study", ("study", "--dim", "1", "--n-min", "1", "--n-max", "2"), 1)
        out.write_text("method,d,n,dof_unique,dof_total,value,surplus,runtime_s\n"
                       "HOSG,1,1,3,3,-1.0,0.1,0.1\n")
        expect(bool(check_step(study, 0, out, None)[0]), "study missing a record fails")


def check_missing_hook() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from spans import HOOKS, Hook, Hooks, Recorder

    gone = Hook("sparsecombine.combine", "no_such_function", "x", None, ("x.calls",))
    hooks = Hooks(Recorder(), (*HOOKS, gone))
    expect(hooks.missing == ["sparsecombine.combine.no_such_function"]
           and hooks.absent == {"x.calls"}, "a missing hook leaves only its metrics out")
    hooks.install()
    hooks.uninstall()


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, Path(tmp) / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, lines = bench("--workload", "exact", "--seed", "1", "--seconds", "1",
                          cwd=Path(tmp))
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           f"without src/ the benchmark exits {rc} and prints no result")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    check_gates()
    check_missing_hook()
    check_without_sources()
    check_metrics()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
