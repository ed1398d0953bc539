"""The benchmark's workloads and the correctness gates every unit must pass.

A unit is one full sequence of ``sparsecombine`` invocations, run in-process
through ``sparsecombine.cli.main`` with the output going to a file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import re
from pathlib import Path
from typing import NamedTuple, Optional

# Largest |value - exact| the last record of a study may show (the seed code
# reaches 3.0e-15, 3.5e-13 and 2.0e-14 on the three study workloads).
DEFAULT_TOL = 1e-12


class Step(NamedTuple):
    kind: str  # "study", "plan" or "verify"
    argv: tuple[str, ...]
    expect: int  # study: dimension; plan: term count; verify: number of checks

    def command(self, seed: int, out: Path) -> list[str]:
        if self.kind == "study":
            return [*self.argv, "--seed", str(seed), "--out", str(out)]
        if self.kind == "verify":
            return [*self.argv, "--seed", str(seed)]
        return list(self.argv)

    def flags(self) -> dict[str, str]:
        return dict(zip(self.argv[1::2], self.argv[2::2]))


class Workload(NamedTuple):
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    steps: tuple[Step, ...]


def _study(*argv: str) -> Step:
    args = dict(zip(argv[::2], argv[1::2]))
    return Step("study", ("study", "--method", "HOSG", *argv), int(args["--dim"]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hosg3-serial",
            (_study("--dim", "3", "--n-min", "2", "--n-max", "8", "--parallel", "1"),),
        ),
        Workload(
            "hosg4-par2",
            (_study("--dim", "4", "--n-min", "2", "--n-max", "4",
                    "--budget", "100000000", "--parallel", "2"),),
        ),
        Workload(
            "points-k64",
            (_study("--dim", "3", "--n-min", "2", "--n-max", "6",
                    "--surplus-points", "64", "--parallel", "2"),),
        ),
        Workload(
            "exact",
            (
                Step("plan", ("plan", "--kind", "ho", "--dim", "5", "--n", "6"), 11_332),
                Step("plan", ("plan", "--kind", "ho", "--dim", "6", "--n", "2"), 14_400),
                Step("plan", ("plan", "--kind", "standard", "--dim", "8", "--n", "3"), 43_713),
                Step("verify", ("verify", "--d-max", "8"), 24),
            ),
        ),
    )
}


def run_step(cli, step: Step, seed: int, out: Path) -> int:
    """One CLI invocation; plan and verify print, so stdout goes to ``out``."""
    argv = step.command(seed, out)
    try:
        if step.kind == "study":
            return cli.main(argv)
        with open(out, "w", encoding="utf-8") as stream, contextlib.redirect_stdout(stream):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 1


def exact_value(d: int) -> float:
    """u = -prod sin(pi x_j) at the studies' default point (0.25, 0.5, 0.25, ...)."""
    return -math.prod(math.sin(math.pi * (0.25 if j % 2 == 0 else 0.5)) for j in range(d))


def _study_rows(out: Path) -> list[dict]:
    with open(out, encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def check_step(step: Step, rc: int, out: Path, reference: Optional[list],
               tol: float = DEFAULT_TOL) -> tuple[list[str], Optional[list]]:
    """Gate one step's output; returns (failures, comparable rows).

    The rows of every study must equal ``reference`` (the first unit's rows)
    bit for bit, except for the runtime column.
    """
    if rc != 0:
        return [f"{' '.join(step.argv)}: exit code {rc}"], None
    if step.kind == "study":
        args = step.flags()
        rows = _study_rows(out)
        comparable = [tuple(v for k, v in r.items() if k != "runtime_s") for r in rows]
        fails = []
        ns = [int(r["n"]) for r in rows]
        if ns != list(range(int(args["--n-min"]), int(args["--n-max"]) + 1)):
            fails.append(f"records for n={ns}")
        elif abs(float(rows[-1]["value"]) - exact_value(step.expect)) > tol:
            fails.append(f"last value {rows[-1]['value']} misses exact by more than {tol}")
        if reference is not None and comparable != reference:
            fails.append("records differ from the first unit's")
        return fails, comparable
    if step.kind == "plan":
        with open(out, encoding="utf-8") as f:
            plan = json.load(f)
        fails = []
        if plan.get("coefficient_sum") != "1/1":
            fails.append(f"coefficient sum {plan.get('coefficient_sum')}")
        if len(plan.get("terms", ())) != step.expect:
            fails.append(f"{len(plan.get('terms', ()))} terms, expected {step.expect}")
        return fails, None
    last = Path(out).read_text(encoding="utf-8").strip().splitlines()[-1:]
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", last[0] if last else "")
    if not m or int(m[1]) != int(m[2]) or int(m[2]) != step.expect:
        return [f"verify reported {last}"], None
    return [], None
