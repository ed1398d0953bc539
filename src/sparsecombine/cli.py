"""Command-line front end: convergence studies, identity verification, plan
inspection, and single-grid solves on the built-in benchmark problem.

Exit codes: 0 ok, 1 verification failure, 2 node budget exceeded, 3 bad
configuration or usage, or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO, Union

from .combine import (
    DEFAULT_NODE_BUDGET,
    STUDY_METHODS,
    BudgetExceededError,
    ConvergenceRecord,
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
from .grid import LevelIndex, multilinear_eval
from .pde import builtin_sine_problem, solve_poisson
from .verify import (
    check_cancellation_system,
    check_lemma_cancel,
    check_normalization,
)

__all__ = ["StudyConfig", "cmd_study", "cmd_verify", "cmd_plan", "cmd_solve", "main", "entry"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 2
EXIT_BAD_CONFIG = 3

BUDGET_ENV_VAR = "SPARSECOMBINE_BUDGET"

CSV_FIELDS = ("method", "d", "n", "dof_unique", "dof_total", "value", "surplus", "runtime_s")


@dataclass
class StudyConfig:
    """Everything one study run needs; mirrors the study subcommand's flags."""

    method: str
    dim: int
    n_min: int
    n_max: int
    eval_point: Union[str, tuple[float, ...]] = "auto"
    level_shift: int = 1
    node_budget: int = DEFAULT_NODE_BUDGET
    parallelism: Union[str, int] = "auto"
    out: str = "-"
    fmt: str = "csv"
    seed: int = 1234
    surplus_points: int = 0

    def resolved_point(self) -> tuple[float, ...]:
        if self.eval_point == "auto":
            return default_eval_point(self.dim)
        return tuple(float(v) for v in self.eval_point)

    def resolved_parallelism(self) -> Optional[int]:
        if self.parallelism == "auto":
            return None
        return int(self.parallelism)


def _fmt_float(v: float) -> str:
    return format(v, ".17g")


def _study_metadata(cfg: StudyConfig, problem_name: str) -> dict:
    return {
        "method": cfg.method.upper(),
        "dim": cfg.dim,
        "n_min": cfg.n_min,
        "n_max": cfg.n_max,
        "point": list(cfg.resolved_point()),
        "level_shift": cfg.level_shift,
        "node_budget": cfg.node_budget,
        "parallelism": cfg.parallelism,
        "seed": cfg.seed,
        "surplus_points": cfg.surplus_points,
        "problem": problem_name,
    }


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
        "records": [
            {
                "method": r.method,
                "d": r.d,
                "n": r.n,
                "dof_unique": r.dof_unique,
                "dof_total": r.dof_total,
                "value": r.value,
                "surplus": r.surplus,
                "runtime_s": r.runtime_s,
            }
            for r in records
        ],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_study(cfg: StudyConfig, stderr: Optional[TextIO] = None) -> int:
    """Run one convergence study and write its records; returns the exit code."""
    err = stderr if stderr is not None else sys.stderr
    problem = builtin_sine_problem(cfg.dim)
    metadata = _study_metadata(cfg, problem.name)

    code = EXIT_OK
    try:
        records = hierarchical_surplus_study(
            problem,
            cfg.method,
            cfg.dim,
            cfg.n_max,
            cfg.resolved_point(),
            n_min=cfg.n_min,
            level_shift=cfg.level_shift,
            node_budget=cfg.node_budget,
            parallelism=cfg.resolved_parallelism(),
            surplus_points=cfg.surplus_points,
            seed=cfg.seed,
        )
    except BudgetExceededError as exc:
        records = exc.records
        metadata["budget_exceeded"] = str(exc)
        print(f"budget guard: {exc}", file=err)
        code = EXIT_BUDGET

    stream, owned = _open_out(cfg.out)
    try:
        if cfg.fmt == "json":
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
    perturb_alpha1: Optional[Fraction] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Run all identity checks for d = 1..d_max; returns 0 iff everything passes.

    The randomized telescoping check runs for d = 1..min(d_max, 8).
    ``perturb_alpha1`` multiplies the weight alpha_1 by an exact factor before
    checking, to demonstrate that a corrupted weight set is caught.
    """
    out = stream if stream is not None else sys.stdout
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    factor = None if perturb_alpha1 is None else Fraction(perturb_alpha1)

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

    print(f"{'identity':<20} {'d':<5} {'defect':<14} status", file=out)
    for report in reports:
        print(str(report), file=out)
    failed = [r for r in reports if not r.passed]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed"
        + (f" ({len(failed)} FAILED)" if failed else ""),
        file=out,
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_plan(d: int, n: int, kind: str, stream: Optional[TextIO] = None) -> int:
    """Print the requested plan as JSON with exact fraction coefficients."""
    out = stream if stream is not None else sys.stdout
    if kind == "standard":
        plan = standard_plan(d, n)
    elif kind == "ho":
        plan = ho_plan(d, n)
    else:
        raise ValueError(f"unknown plan kind {kind!r}; expected 'standard' or 'ho'")
    write_plan_json(plan, out, n=n)
    return EXIT_OK


def cmd_solve(
    dim: int,
    level: Sequence[int],
    point: Optional[Sequence[float]] = None,
    method: str = "fast",
    stream: Optional[TextIO] = None,
) -> int:
    """Solve the built-in problem on one grid and report values (debug aid).

    A grid over the studies' node budget raises BudgetExceededError unsolved.
    """
    out = stream if stream is not None else sys.stdout
    problem = builtin_sine_problem(dim)
    lv = LevelIndex(level)
    budget = _default_budget()
    if lv.node_count() > budget:
        raise BudgetExceededError(
            f"level {tuple(lv)} has {lv.node_count()} nodes, budget is {budget}",
            projected=lv.node_count(),
            budget=budget,
        )
    grid, report = solve_poisson(problem, lv, method=method)
    pt = tuple(point) if point is not None else default_eval_point(dim)
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
    json.dump(payload, out, indent=2)
    out.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Bad usage must exit 3 (argparse's default of 2 collides with the budget code).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_point(text: str) -> Union[str, tuple[float, ...]]:
    if text == "auto":
        return "auto"
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
        raise argparse.ArgumentTypeError(f"bad parallelism {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("parallelism must be >= 1")
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
        default="auto",
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
        help="worker threads for grid solves, or 'auto'",
    )
    study.add_argument("--format", choices=("csv", "json"), default="csv")
    study.add_argument("--out", default="-", help="output path, '-' for stdout")
    study.add_argument("--seed", type=int, default=1234)
    study.add_argument(
        "--surplus-points",
        type=int,
        default=0,
        help="if > 0, surplus = max |difference| over this many fixed random points",
    )
    study.set_defaults(func=_run_study)

    verify = sub.add_parser("verify", help="check the weight identities exactly")
    verify.add_argument("--d-max", type=int, default=10)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--perturb-alpha1",
        default=None,
        help="multiply alpha_1 by this exact factor (e.g. 1.0001) to force a failure",
    )
    verify.set_defaults(func=_run_verify)

    plan = sub.add_parser("plan", help="print a combination plan as JSON")
    plan.add_argument("--dim", type=int, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--kind", choices=("standard", "ho"), default="standard")
    plan.set_defaults(func=_run_plan)

    solve = sub.add_parser("solve", help="solve one grid of the built-in problem")
    solve.add_argument("--dim", type=int, required=True)
    solve.add_argument("--level", type=_parse_levels, required=True, help="levels 'l1,l2,...'")
    solve.add_argument("--point", type=_parse_point, default="auto")
    solve.add_argument("--solver", choices=("fast", "cg"), default="fast")
    solve.set_defaults(func=_run_solve)

    return parser


def _run_study(args: argparse.Namespace) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    cfg = StudyConfig(
        method=args.method,
        dim=args.dim,
        n_min=args.n_min,
        n_max=args.n_max,
        eval_point=args.point,
        level_shift=args.level_shift,
        node_budget=budget,
        parallelism=args.parallel,
        out=args.out,
        fmt=args.format,
        seed=args.seed,
        surplus_points=args.surplus_points,
    )
    return cmd_study(cfg)


def _run_verify(args: argparse.Namespace) -> int:
    factor = None
    if args.perturb_alpha1 is not None:
        factor = Fraction(args.perturb_alpha1)
    return cmd_verify(
        args.d_max, trials=args.trials, seed=args.seed, perturb_alpha1=factor
    )


def _run_plan(args: argparse.Namespace) -> int:
    return cmd_plan(args.dim, args.n, args.kind)


def _run_solve(args: argparse.Namespace) -> int:
    point = None if args.point == "auto" else args.point
    return cmd_solve(args.dim, args.level, point, method=args.solver)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget guard: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
