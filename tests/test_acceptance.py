"""Acceptance suite: one test per headline requirement, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measurement
lines; each test prints its measured numbers and PASS/FAIL before asserting.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from sparsecombine.cli import cmd_verify
from sparsecombine.combine import (
    BudgetExceededError,
    DEFAULT_NODE_BUDGET,
    GridCache,
    evaluate_plan,
    default_eval_point,
    hierarchical_surplus_study,
    ho_plan,
    method_plan,
    observed_order,
    surplus_order,
)
from sparsecombine.grid import node_count
from sparsecombine.pde import builtin_sine_problem, solve_poisson
from sparsecombine.verify import (
    random_expansion,
    residual_bound,
    synthetic_expansion_check,
)

import oracles


def _verdict(tag: str, detail: str, ok: bool) -> None:
    print(f"[{tag}] {detail}: {'PASS' if ok else 'FAIL'}")


def test_c01_weight_identities_all_pass():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cmd_verify(10, trials=100, seed=0)
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 10.0
    _verdict(
        "c01",
        f"verify d=1..10 exited {code} in {elapsed:.2f}s (need 0, <10s)",
        ok,
    )
    assert code == 0
    assert elapsed < 10.0


def test_c02_solver_matches_assembled_system():
    rng = np.random.default_rng(20260817)
    ranges = {1: (1, 13), 2: (1, 8), 3: (1, 5)}
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    dims_seen = set()
    while count < 20:
        d = int(rng.integers(1, 4))
        lo, hi = ranges[d]
        level = tuple(int(v) for v in rng.integers(lo, hi, size=d))
        if node_count(level) > 20000:
            continue
        p = builtin_sine_problem(d)
        u, _ = solve_poisson(p, level)
        ref = oracles.solve_assembled(p, level)
        worst = max(worst, float(np.max(np.abs(u.ndview() - ref))))
        count += 1
        dims_seen.add(d)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0 and dims_seen == {1, 2, 3}
    _verdict(
        "c02",
        f"20 random grids d<=3: max |fast - assembled| = {worst:.3e} "
        f"in {elapsed:.1f}s (need <=1e-10, <60s)",
        ok,
    )
    assert dims_seen == {1, 2, 3}
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_c03_full_grid_second_order():
    orders = {}
    for d, n_min, n_max in ((1, 5, 10), (2, 4, 8)):
        p = builtin_sine_problem(d)
        recs = hierarchical_surplus_study(p, "FG", d, n_max, n_min=n_min)
        orders[d] = surplus_order(recs)
    ok = all(1.8 <= o <= 2.2 for o in orders.values())
    _verdict(
        "c03",
        "FG surplus orders "
        + ", ".join(f"d={d}: {o:.3f}" for d, o in orders.items())
        + " (need within [1.8, 2.2])",
        ok,
    )
    for o in orders.values():
        assert 1.8 <= o <= 2.2


def test_c04_richardson_full_grid_fourth_order():
    orders = {}
    for d, n_min, n_max in ((1, 5, 10), (2, 4, 7)):
        p = builtin_sine_problem(d)
        recs = hierarchical_surplus_study(p, "HOFG", d, n_max, n_min=n_min)
        orders[d] = surplus_order(recs)
    ok = all(3.7 <= o <= 4.3 for o in orders.values())
    _verdict(
        "c04",
        "HOFG surplus orders "
        + ", ".join(f"d={d}: {o:.3f}" for d, o in orders.items())
        + " (need within [3.7, 4.3])",
        ok,
    )
    for o in orders.values():
        assert 3.7 <= o <= 4.3


def test_c05_sparse_combination_second_order():
    # The surplus at one fixed point can cross zero and corrupt the fitted
    # slope, so the binding measurement is the robust surplus (max over 16
    # fixed sample points); the single-point order is reported alongside.
    orders = {}
    single = {}
    for d in (2, 3):
        p = builtin_sine_problem(d)
        recs = hierarchical_surplus_study(
            p, "SG", d, 9, n_min=5, surplus_points=16, seed=1234
        )
        orders[d] = surplus_order(recs)
        values = [r.value for r in recs]
        diffs = [(recs[i].n, abs(values[i + 1] - values[i])) for i in range(len(values) - 1)]
        try:
            single[d] = f"{observed_order(diffs):.3f}"
        except ValueError:
            single[d] = "n/a (zero crossing)"
    ok = all(1.6 <= o <= 2.4 for o in orders.values())
    _verdict(
        "c05",
        "SG robust surplus orders "
        + ", ".join(f"d={d}: {o:.3f}" for d, o in orders.items())
        + " (need within [1.6, 2.4]; single-point orders "
        + ", ".join(f"d={d}: {s}" for d, s in single.items())
        + ")",
        ok,
    )
    for o in orders.values():
        assert 1.6 <= o <= 2.4


def test_c06_ho_combination_fourth_order_and_budget_guard():
    t0 = time.perf_counter()
    orders = {}
    for d, n_min, n_max in ((2, 5, 9), (3, 4, 8)):
        p = builtin_sine_problem(d)
        recs = hierarchical_surplus_study(p, "HOSG", d, n_max, n_min=n_min)
        orders[d] = surplus_order(recs)
    elapsed = time.perf_counter() - t0

    # Higher dimensions under the default node budget: the guard must refuse
    # the oversized record up front and keep the completed ones.
    p4 = builtin_sine_problem(4)
    with pytest.raises(BudgetExceededError) as exc4:
        hierarchical_surplus_study(p4, "HOSG", 4, 4, n_min=2)
    guard4 = exc4.value
    p5 = builtin_sine_problem(5)
    with pytest.raises(BudgetExceededError) as exc5:
        hierarchical_surplus_study(p5, "HOSG", 5, 2, n_min=1)
    guard5 = exc5.value

    ok = (
        all(o >= 3.4 for o in orders.values())
        and elapsed < 300.0
        and guard4.n == 4
        and [r.n for r in guard4.records] == [2, 3]
        and guard4.projected > DEFAULT_NODE_BUDGET
        and guard5.n == 1
        and guard5.records == []
        and guard5.projected > DEFAULT_NODE_BUDGET
    )
    _verdict(
        "c06",
        "HOSG surplus orders "
        + ", ".join(f"d={d}: {o:.3f}" for d, o in orders.items())
        + f" (need >=3.4) in {elapsed:.0f}s (<300s); "
        f"d=4 guard at n={guard4.n} after {len(guard4.records)} records "
        f"(projects {guard4.projected}), d=5 guard at n={guard5.n} "
        f"(projects {guard5.projected})",
        ok,
    )
    for o in orders.values():
        assert o >= 3.4
    assert elapsed < 300.0
    assert guard4.n == 4 and [r.n for r in guard4.records] == [2, 3]
    assert guard5.n == 1 and guard5.records == []
    assert guard4.projected > DEFAULT_NODE_BUDGET
    assert guard5.projected > DEFAULT_NODE_BUDGET


def test_c07_sparse_grid_work_scaling():
    # Incremental unique work per record must track 2**n * n (d = 2): the
    # normalized values y_n = dof_unique / 2**n fit c * n with every relative
    # deviation |y - c*n| / y below 15% over n = 6..11 (study warm-started at
    # n = 5 so the first record's dof is not inflated by the cold cache).
    p = builtin_sine_problem(2)
    recs = hierarchical_surplus_study(p, "SG", 2, 11, n_min=5)
    fit = [(r.n, r.dof_unique) for r in recs if r.n >= 6]
    ns = np.array([float(n) for n, _ in fit])
    y = np.array([u / 2.0 ** n for n, u in fit])
    c = float(np.dot(y, ns) / np.dot(ns, ns))
    rel = np.abs(y - c * ns) / y
    worst = float(np.max(rel))
    ok = worst < 0.15
    _verdict(
        "c07",
        f"SG d=2 dof_unique/2^n vs c*n over n=6..11: "
        f"c = {c:.3f}, max rel deviation = {worst:.1%} (need <15%)",
        ok,
    )
    assert worst < 0.15


def test_c08_synthetic_expansions_fourth_order_within_bound():
    seeds = (11, 23, 37, 41, 58)
    levels = list(range(2, 7))
    worst_slope = -math.inf
    checked = 0
    bound_ok = True
    for d in (1, 2, 3):
        for seed in seeds:
            se = random_expansion(d, seed)
            rows = synthetic_expansion_check(se, levels)
            for h, res in rows:
                checked += 1
                if abs(res) > residual_bound(se, h) * (1.0 + 1e-10):
                    bound_ok = False
            slope = -observed_order(
                [(n, abs(res)) for n, (_, res) in zip(levels, rows)]
            )
            worst_slope = max(worst_slope, slope)
    ok = bound_ok and worst_slope <= -3.7
    _verdict(
        "c08",
        f"15 random expansions (d=1..3), {checked} residuals within bound: "
        f"{bound_ok}, worst slope = {worst_slope:.2f} (need <= -3.7)",
        ok,
    )
    assert bound_ok
    assert worst_slope <= -3.7


def test_c09_plan_matches_literal_double_sum():
    worst = 0.0
    for d in (2, 3):
        p = builtin_sine_problem(d)
        eval_cache = GridCache()
        oracle_cache: dict[tuple, np.ndarray] = {}

        def solve_full(level):
            if level not in oracle_cache:
                oracle_cache[level] = solve_poisson(p, level)[0].ndview()
            return oracle_cache[level]

        rng = np.random.default_rng(100 + d)
        points = rng.uniform(0.05, 0.95, size=(10, d))
        for n in range(2, 6):
            for shift in (1, 0):
                plan = ho_plan(d, n).shifted(shift) if shift else ho_plan(d, n)
                mine = evaluate_plan(p, plan, points, eval_cache).values
                for x, value in zip(points, mine):
                    ref = oracles.double_sum_ho(
                        p, d, n, tuple(x), level_shift=shift, solve=solve_full
                    )
                    worst = max(worst, abs(value - ref))
    ok = worst <= 1e-12
    _verdict(
        "c09",
        f"composed plan vs literal extrapolate-then-combine double sum: "
        f"max |diff| = {worst:.3e} over d=2,3, n=2..5, shifts 0 and 1 "
        f"(need <=1e-12)",
        ok,
    )
    assert worst <= 1e-12


def test_c10_splitting_extrapolation_fourth_order():
    p = builtin_sine_problem(2)
    x = default_eval_point(2)
    cache = GridCache()
    errs = []
    for l in range(4, 9):
        val = evaluate_plan(p, method_plan("SPLIT2D", 2, l, level_shift=0), x, cache).value
        errs.append((l, abs(val - p.exact(x))))
    order = observed_order(errs)
    ok = 3.5 <= order <= 4.5
    _verdict(
        "c10",
        f"2-d splitting extrapolation order at {tuple(x)} over l=4..8: "
        f"{order:.3f} (need within [3.5, 4.5])",
        ok,
    )
    assert 3.5 <= order <= 4.5
