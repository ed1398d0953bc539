"""Command-line front end: convergence studies, identity verification, plan
inspection, and single-grid solves on the built-in benchmark problem.

Exit codes: 0 ok, 1 verification failure, 2 node budget exceeded, 3 bad
configuration or usage, or out of memory, 141 (128 + SIGPIPE) the reader of
the output closed it early, as ``| head`` does.

Each subcommand's flags are the keyword parameters of its ``cmd_*``
function: ``main`` calls it with the parsed flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence, TextIO, Union

from .combine import (
    DEFAULT_NODE_BUDGET,
    STUDY_METHODS,
    BudgetExceededError,
    ConvergenceRecord,
    PlanEvaluationError,
    default_eval_point,
    extrapolation_weights,
    hierarchical_surplus_study,
    ho_plan,
    standard_plan,
    write_plan_json,
)

# Stopgap: plan_to_dict is not called here (``plan`` writes its JSON through
# write_plan_json). It stays a module attribute only because the benchmark's
# span hook for the plan export (bench/spans.py) resolves it on this module
# and its smoke check fails on a missing hook; that hook therefore times 0 s.
# Delete the import in the benchmark change that re-points the hook to
# write_plan_json (open as a FOUND line in CHANGES.md).
from .combine import plan_to_dict  # noqa: F401
from .grid import LevelIndex, _checked_points, multilinear_eval
from .pde import builtin_sine_problem, solve_poisson
from .verify import (
    check_cancellation_system,
    check_lemma_cancel,
    check_normalization,
)

__all__ = ["cmd_study", "cmd_verify", "cmd_plan", "cmd_solve", "main", "entry"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 2
EXIT_BAD_CONFIG = 3
EXIT_BROKEN_PIPE = 141

BUDGET_ENV_VAR = "SPARSECOMBINE_BUDGET"

CSV_FIELDS = ("method", "d", "n", "dof_unique", "dof_total", "value", "surplus", "runtime_s")


def _fmt_float(v: float) -> str:
    return format(v, ".17g")


def write_records_csv(
    records: Sequence[ConvergenceRecord], stream: TextIO, metadata: Optional[dict] = None
) -> None:
    """Fixed schema: method,d,n,dof_unique,dof_total,value,surplus,runtime_s.

    Floats carry 17 significant digits (lossless round-trip); the surplus
    column is empty on the last row. Metadata rides in leading '#' comments.
    """
    if metadata:
        for key, val in metadata.items():
            stream.write(f"# {key}={val}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(
            [
                r.method,
                r.d,
                r.n,
                r.dof_unique,
                r.dof_total,
                _fmt_float(r.value),
                "" if r.surplus is None else _fmt_float(r.surplus),
                _fmt_float(r.runtime_s),
            ]
        )


def write_records_json(
    records: Sequence[ConvergenceRecord], stream: TextIO, metadata: Optional[dict] = None
) -> None:
    payload = {
        "config": metadata or {},
        "records": [{name: getattr(r, name) for name in CSV_FIELDS} for r in records],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_study(
    method: str,
    dim: int,
    n_min: int,
    n_max: int,
    point: Optional[Sequence[float]] = None,
    level_shift: int = 1,
    budget: Optional[int] = None,
    fmt: str = "csv",
    out: str = "-",
    seed: int = 1234,
    surplus_points: int = 0,
) -> int:
    """Run one convergence study and write its records; returns the exit code.

    ``point`` defaults to default_eval_point(dim) and ``budget`` to
    SPARSECOMBINE_BUDGET, else DEFAULT_NODE_BUDGET. ``fmt`` is "csv" or
    "json"; any other value raises ValueError before the output is opened.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    budget = budget if budget is not None else _default_budget()
    problem = builtin_sine_problem(dim)
    point = tuple(map(float, point)) if point is not None else default_eval_point(dim)
    metadata = {
        "method": method.upper(),
        "dim": dim,
        "n_min": n_min,
        "n_max": n_max,
        "point": list(point),
        "level_shift": level_shift,
        "node_budget": budget,
        "seed": seed,
        "surplus_points": surplus_points,
        "problem": problem.name,
    }

    # The output is opened (and truncated) before the first solve, as a shell
    # redirect would, so a path that cannot be written fails at once.
    stream, owned = _open_out(out)
    code = EXIT_OK
    try:
        try:
            records = hierarchical_surplus_study(
                problem,
                method,
                dim,
                n_max,
                point,
                n_min=n_min,
                level_shift=level_shift,
                node_budget=budget,
                surplus_points=surplus_points,
                seed=seed,
            )
        except BudgetExceededError as exc:
            records = exc.records
            metadata["budget_exceeded"] = str(exc)
            print(f"budget guard: {exc}", file=sys.stderr)
            code = EXIT_BUDGET
        if fmt == "json":
            write_records_json(records, stream, metadata)
        else:
            write_records_csv(records, stream, metadata)
    finally:
        if owned:
            stream.close()
    return code


def cmd_verify(
    d_max: int,
    trials: int = 100,
    seed: int = 0,
    perturb_alpha1: Union[str, Fraction, None] = None,
) -> int:
    """Run all identity checks for d = 1..d_max; returns 0 iff everything passes.

    The randomized telescoping check runs for d = 1..min(d_max, 8).
    ``perturb_alpha1`` multiplies the weight alpha_1 by an exact factor (a
    Fraction or its text, such as "1.0001") before checking, to demonstrate
    that a corrupted weight set is caught.
    """
    factor = None if perturb_alpha1 is None else Fraction(perturb_alpha1)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")

    def weights_for(d: int):
        if factor is None:
            return None
        w = list(extrapolation_weights(d))
        w[1] = w[1] * factor
        return w

    reports = []
    for d in range(1, d_max + 1):
        reports.append(check_normalization(d, weights=weights_for(d)))
        reports.append(check_cancellation_system(d, weights=weights_for(d)))
    for d in range(1, min(d_max, 8) + 1):
        reports.append(check_lemma_cancel(d, trials=trials, seed=seed, weights=weights_for(d)))

    print(f"{'identity':<20} {'d':<5} {'defect':<14} status")
    for report in reports:
        print(str(report))
    failed = [r for r in reports if not r.passed]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed"
        + (f" ({len(failed)} FAILED)" if failed else "")
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_plan(dim: int, n: int, kind: str) -> int:
    """Print the requested plan as JSON with exact fraction coefficients.

    A plan with more terms than the node budget raises BudgetExceededError
    before anything is written.
    """
    if kind == "standard":
        plan = standard_plan(dim, n)
    elif kind == "ho":
        plan = ho_plan(dim, n)
    else:
        raise ValueError(f"unknown plan kind {kind!r}; expected 'standard' or 'ho'")
    budget = _default_budget()
    terms = plan.term_count()
    if terms > budget:
        raise BudgetExceededError(
            f"plan {plan.label} has {terms} terms, budget is {budget}",
            projected=terms,
            budget=budget,
        )
    write_plan_json(plan, sys.stdout, n=n)
    return EXIT_OK


def cmd_solve(
    dim: int,
    level: Sequence[int],
    point: Optional[Sequence[float]] = None,
) -> int:
    """Solve the built-in problem on one grid and report values (debug aid).

    A point outside the cube or of the wrong length raises ValueError, and a
    grid over the studies' node budget raises BudgetExceededError, both
    before the grid is solved.
    """
    problem = builtin_sine_problem(dim)
    lv = LevelIndex(level)
    pt = tuple(point) if point is not None else default_eval_point(dim)
    _checked_points(pt, dim)
    budget = _default_budget()
    if lv.node_count() > budget:
        raise BudgetExceededError(
            f"level {tuple(lv)} has {lv.node_count()} nodes, budget is {budget}",
            projected=lv.node_count(),
            budget=budget,
        )
    grid, report = solve_poisson(problem, lv)
    value = multilinear_eval(grid, pt)
    payload = {
        "level": list(lv),
        "nodes": lv.node_count(),
        "point": list(pt),
        "value": value,
        "residual_inf": report.residual_inf,
        "solve_seconds": report.solve_seconds,
    }
    if problem.exact is not None:
        payload["error_at_point"] = value - problem.exact(pt)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Bad usage must exit 3 (argparse's default of 2 collides with the budget code).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_point(text: str) -> Optional[tuple[float, ...]]:
    # "auto" is the default point, which the cmd_* functions take as None.
    if text == "auto":
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from None


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}: {exc}") from None


def _parse_parallel(text: str) -> Union[str, int]:
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thread count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("thread count must be >= 1")
    return value


def _default_budget() -> int:
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
        if value <= 0:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
        return value
    return DEFAULT_NODE_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsecombine",
        description="Sparse-grid combination studies for the Poisson benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser(
        "study", help="run a convergence study and emit CSV/JSON records"
    )
    study.add_argument("--method", required=True, help=f"one of {', '.join(STUDY_METHODS)}")
    study.add_argument("--dim", type=int, required=True, help="spatial dimension d")
    study.add_argument("--n-min", type=int, default=1, help="first level (default 1)")
    study.add_argument("--n-max", type=int, required=True, help="last level")
    study.add_argument(
        "--point",
        type=_parse_point,
        help="evaluation point 'x1,x2,...' or 'auto' for (0.25, 0.5, ...)",
    )
    study.add_argument(
        "--level-shift",
        type=int,
        choices=(0, 1),
        default=1,
        help="offset added to every grid level (default 1: all grids solvable)",
    )
    study.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"node budget (default {BUDGET_ENV_VAR} or {DEFAULT_NODE_BUDGET})",
    )
    study.add_argument(
        "--parallel",
        type=_parse_parallel,
        default="auto",
        help="a thread count N >= 1 or 'auto'; accepted for compatibility and "
        "ignored (grids are solved on the calling thread)",
    )
    study.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    study.add_argument("--out", default="-", help="output path, '-' for stdout")
    study.add_argument("--seed", type=int, default=1234)
    study.add_argument(
        "--surplus-points",
        type=int,
        default=0,
        help="if > 0, surplus = max |difference| over this many fixed random points",
    )
    study.set_defaults(func=cmd_study)

    verify = sub.add_parser("verify", help="check the weight identities exactly")
    verify.add_argument("--d-max", type=int, default=10)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--perturb-alpha1",
        default=None,
        help="multiply alpha_1 by this exact factor (e.g. 1.0001) to force a failure",
    )
    verify.set_defaults(func=cmd_verify)

    plan = sub.add_parser("plan", help="print a combination plan as JSON")
    plan.add_argument("--dim", type=int, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--kind", choices=("standard", "ho"), default="standard")
    plan.set_defaults(func=cmd_plan)

    solve = sub.add_parser("solve", help="solve one grid of the built-in problem")
    solve.add_argument("--dim", type=int, required=True)
    solve.add_argument("--level", type=_parse_levels, required=True, help="levels 'l1,l2,...'")
    solve.add_argument("--point", type=_parse_point)
    solve.set_defaults(func=cmd_solve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    func = flags.pop("func")
    del flags["command"]
    flags.pop("parallel", None)  # accepted for compatibility and ignored
    try:
        return func(**flags)
    except BudgetExceededError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # Point fd 1 at devnull, so the interpreter's final flush of stdout
        # stays silent, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except PlanEvaluationError as exc:
        # A grid that cannot be allocated or solved; the message names its level.
        if not isinstance(exc.__cause__, (ValueError, MemoryError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
