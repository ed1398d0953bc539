import collections
import dataclasses
import gc
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecombine.combine import (
    STUDY_METHODS,
    BudgetExceededError,
    CombinationPlan,
    GridCache,
    PlanEvaluationError,
    ConvergenceRecord,
    evaluate_plan,
    default_eval_point,
    extrapolation_plan,
    extrapolation_weights,
    hierarchical_surplus_study,
    ho_plan,
    method_plan,
    observed_order,
    per_level_mass,
    plan_to_dict,
    projected_dof_total,
    standard_plan,
    surplus_order,
    _node_total,
)
from sparsecombine import combine, pde
from sparsecombine.grid import GridFunction, multilinear_eval, node_count
from sparsecombine.pde import (
    DIRECT_TRANSFORM_MAX,
    ProblemSpec,
    _PointTable,
    _solve_at_table,
    _swapped,
    _Workspace,
    builtin_sine_problem,
    solve_at_points,
    solve_poisson,
)

from oracles import (
    builtin_grid_value,
    class_table_by_sums,
    compositions,
    ho_plan_by_accumulation,
    level_mass_by_fraction_sum,
    standard_coeffs,
    weights_by_elimination,
)


# ---------------------------------------------------------------------------
# CombinationPlan basics


def test_plan_drops_zero_coefficients():
    plan = CombinationPlan(1, {(2,): Fraction(1, 2), (3,): Fraction(0)})
    assert len(plan) == 1
    assert plan.terms[(2,)] == Fraction(1, 2)


def test_plan_rejects_mixed_dimension():
    with pytest.raises(ValueError):
        CombinationPlan(2, {(1, 1): 1, (2,): 1})


def test_plan_rejects_non_integer_level():
    # A fractional level is refused, not truncated to (2, 3).
    with pytest.raises(ValueError, match=r"level entry 2\.9 is not an integer"):
        CombinationPlan(2, {(2.9, 3): 1})
    with pytest.raises(ValueError, match="level entry '3' is not an integer"):
        CombinationPlan(2, {("3", 3): 1})


def test_plan_shifted():
    plan = standard_plan(2, 1).shifted(1)
    assert all(min(lv) >= 1 for lv in plan)
    assert plan.coefficient_sum() == 1


def test_plan_shifted_below_level_zero_raises():
    # Only a negative offset can make a level negative; it keeps the check.
    with pytest.raises(ValueError):
        standard_plan(2, 0).shifted(-1)
    back = standard_plan(2, 2).shifted(1).shifted(-1)
    assert dict(back.terms) == dict(standard_plan(2, 2).terms)


def test_plan_shifted_keeps_python_int_levels():
    # Shifting yields plain int levels: an integer-like offset is taken as
    # an int, a float is refused.
    plan = standard_plan(2, 2)
    for offset in (1, np.int64(1), True):
        shifted = plan.shifted(offset)
        assert shifted.label == f"{plan.label}+shift1"
        assert all(type(v) is int for lv in shifted for v in lv)
        assert dict(shifted.terms) == dict(plan.shifted(1).terms)
    for offset in (1.0, 0.0):
        with pytest.raises(TypeError):
            plan.shifted(offset)


def test_plan_terms_in_sorted_level_order():
    # Terms are stored sorted by level tuple whatever the input order, so the
    # terms and iteration yield sorted levels, and shifting keeps the order.
    given = {(2, 0): 1, (0, 2): 2, (1, 1): -1, (0, 1): 3, (1, 0): Fraction(1, 2)}
    plan = CombinationPlan(2, given)
    expected = sorted(given)
    assert list(plan.terms) == expected
    assert [lv for lv, _ in plan.terms.items()] == expected
    assert list(plan) == expected
    assert dict(plan.terms) == {lv: Fraction(c) for lv, c in given.items()}
    assert list(plan.shifted(1)) == [(a + 1, b + 1) for a, b in expected]
    for built in (standard_plan(3, 2), ho_plan(3, 2), extrapolation_plan((2, 1, 3))):
        assert list(built) == sorted(built.terms)


def test_plan_immutable():
    plan = standard_plan(2, 2)
    with pytest.raises(AttributeError):
        plan.dim = 3
    with pytest.raises(TypeError):
        plan.terms[(9, 9)] = Fraction(1)


# ---------------------------------------------------------------------------
# standard_plan


def test_standard_plan_trivial_1d():
    plan = standard_plan(1, 3)
    assert dict(plan.terms) == {(3,): Fraction(1)}


def test_standard_plan_d2_n1_frozen():
    plan = standard_plan(2, 1)
    expected = {
        (1, 0): Fraction(-1),
        (0, 1): Fraction(-1),
        (2, 0): Fraction(1),
        (1, 1): Fraction(1),
        (0, 2): Fraction(1),
    }
    assert {tuple(lv): c for lv, c in plan.terms.items()} == expected


def test_standard_plan_d3_diagonal_coefficients():
    # Three diagonals |l| = n .. n+2 carry per-term coefficients 1, -2, 1.
    plan = standard_plan(3, 0)
    by_diag = {}
    for lv, c in plan.terms.items():
        by_diag.setdefault(sum(lv), set()).add(c)
    assert by_diag == {0: {Fraction(1)}, 1: {Fraction(-2)}, 2: {Fraction(1)}}


@pytest.mark.parametrize("d", range(1, 7))
def test_standard_plan_coefficients_match_recurrence(d):
    coeffs = standard_coeffs(d)
    for n in range(0, 4):
        plan = standard_plan(d, n)
        for lv, c in plan.terms.items():
            assert n <= sum(lv) <= n + d - 1
            assert c == coeffs[sum(lv) - n]


@pytest.mark.parametrize("d,n", [(1, 5), (2, 3), (3, 2), (4, 1), (4, 6)])
def test_standard_plan_support_is_full_diagonal_band(d, n):
    plan = standard_plan(d, n)
    expected = sum(math.comb(s + d - 1, d - 1) for s in range(n, n + d))
    assert len(plan) == expected


# ---------------------------------------------------------------------------
# extrapolation weights / plan


def test_extrapolation_weights_frozen():
    assert extrapolation_weights(1) == (Fraction(-1, 3), Fraction(4, 3))
    assert extrapolation_weights(2) == (
        Fraction(1, 9),
        Fraction(-4, 9),
        Fraction(16, 9),
    )


@pytest.mark.parametrize("d", range(1, 7))
def test_extrapolation_weights_match_elimination_oracle(d):
    # The closed form must agree with solving the defining linear system
    # (normalization plus one cancellation row per mixed order) exactly.
    assert list(extrapolation_weights(d)) == weights_by_elimination(d)


def test_extrapolation_weights_sum_to_one():
    for d in range(1, 12):
        w = extrapolation_weights(d)
        assert sum(math.comb(d, k) * w[k] for k in range(d + 1)) == 1


def test_extrapolation_plan_frozen_2d():
    plan = extrapolation_plan((2, 3))
    expected = {
        (2, 3): Fraction(1, 9),
        (3, 3): Fraction(-4, 9),
        (2, 4): Fraction(-4, 9),
        (3, 4): Fraction(16, 9),
    }
    assert {tuple(lv): c for lv, c in plan.terms.items()} == expected


def test_extrapolation_plan_coefficient_sum_is_one():
    for l in [(4,), (2, 3), (1, 1, 2), (2, 2, 2, 2)]:
        assert extrapolation_plan(l).coefficient_sum() == 1


def test_extrapolation_plan_accepts_zero_levels():
    plan = extrapolation_plan((0, 2))
    assert (1, 3) in set(plan)
    assert plan.coefficient_sum() == 1


# ---------------------------------------------------------------------------
# ho_plan


def test_ho_plan_1d_is_two_grid_extrapolation():
    plan = ho_plan(1, 4)
    assert {tuple(lv): c for lv, c in plan.terms.items()} == {
        (4,): Fraction(-1, 3),
        (5,): Fraction(4, 3),
    }


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ho_plan_matches_accumulation_oracle(d):
    for n in range(1, 7):
        assert dict(ho_plan(d, n).terms) == ho_plan_by_accumulation(d, n), n


def band_mapping(d, n, alpha):
    # The band of ho_plan's docstring as a plain dict for the public
    # constructor: tuple keys in reverse diagonal order, exact zeros kept.
    a = standard_coeffs(d)
    mapping = {}
    for t in reversed(range(n, n + d + len(alpha) - 1)):
        coeff = [
            sum(
                math.comb(p, k) * a[t - k - n] * alpha[k]
                for k in range(min(p, len(alpha) - 1) + 1)
                if 0 <= t - k - n < d
            )
            for p in range(d + 1)
        ]
        for lv in compositions(t, d):
            mapping[lv] = coeff[d - lv.count(0)]
    return mapping


def assert_same_terms(got, want):
    assert (got.dim, got.label) == (want.dim, want.label)
    assert list(got.terms.items()) == list(want.terms.items())
    for lv, coeff in got.terms.items():
        assert type(lv) is tuple and all(type(v) is int for v in lv)
        assert type(coeff) is Fraction and coeff != 0


def test_plan_levels_untracked_by_collector():
    # A level is an exact tuple of ints, which the cyclic collector stops
    # tracking, so the collections during a large plan build do not walk
    # every key: band plans, shifted or not, and explicit plans.
    plans = [
        standard_plan(3, 4),
        ho_plan(3, 2).shifted(1),
        extrapolation_plan((2, 1, 3)),
        CombinationPlan(2, {(1, np.int64(2)): 1, (2, 1): -1}).shifted(1),
    ]
    terms = [plan.terms for plan in plans]
    gc.collect()
    for levels in terms:
        assert levels and not any(map(gc.is_tracked, levels))


@pytest.mark.parametrize("d", range(1, 7))
def test_builder_plans_equal_public_constructor(d):
    # standard_plan and ho_plan build their sorted, zero-free terms from the
    # class table unchecked, before and after a shift; the public
    # constructor, given the unsorted band with its zeros, must store the
    # same terms in the same order.
    cases = [
        *((standard_plan, n, [1]) for n in range(8)),
        *((ho_plan, n, weights_by_elimination(d)) for n in range(1, 7)),
    ]
    for build, n, alpha in cases:
        plan = build(d, n)
        assert_same_terms(plan, CombinationPlan(d, band_mapping(d, n, alpha), plan.label))
        for offset in (0, 1):
            shifted = plan.shifted(offset)
            backwards = dict(reversed(shifted.terms.items()))
            assert_same_terms(shifted, CombinationPlan(d, backwards, shifted.label))


@pytest.mark.parametrize("d", range(1, 9))
def test_class_table_matches_accumulated_sums(d):
    # The band plans' class tables, built in closed form as polynomial
    # products, equal the per-cell Fraction sums on diagonals n..top; the
    # sums below diagonal n, which the tables leave out, are zero.
    for n in range(7):
        cases = [(standard_plan(d, n), [Fraction(1)])]
        if n:
            cases.append((ho_plan(d, n), weights_by_elimination(d)))
        for plan, alpha in cases:
            want = class_table_by_sums(d, n, alpha)
            assert plan._band.table == want[n:]
            assert plan._band.top == len(want) - 1
            assert not any(map(any, want[:n]))


def test_ho_plan_rejects_n_zero():
    with pytest.raises(ValueError):
        ho_plan(2, 0)
    for d in (0, -2):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            ho_plan(d, 1)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 2), (4, 2)])
def test_ho_plan_support_band(d, n):
    plan = ho_plan(d, n)
    diags = [sum(lv) for lv in plan]
    assert min(diags) == n
    assert max(diags) == n + 2 * d - 1
    assert plan.coefficient_sum() == 1


def test_ho_plan_level_mass_sums_to_one():
    plan = ho_plan(3, 2)
    mass = per_level_mass(plan)
    assert sum(mass.values()) == 1
    assert set(mass) <= set(range(2, 2 + 6))


@pytest.mark.parametrize("plan", [
    standard_plan(1, 0),
    standard_plan(4, 3),
    ho_plan(3, 2),
    ho_plan(5, 4),
    extrapolation_plan((2, 0, 3)),
    # Mixed denominators, and a first diagonal that cancels to exactly 0.
    CombinationPlan(3, {
        (1, 0, 0): Fraction(2, 7), (0, 1, 0): Fraction(-1, 3), (0, 0, 1): Fraction(1, 21),
        (2, 0, 0): Fraction(5, 6), (1, 1, 0): Fraction(-9, 10), (0, 0, 2): 3,
        (3, 1, 0): Fraction(-1, 2**40),
    }),
])
def test_per_level_mass_matches_fraction_sum(plan):
    got = per_level_mass(plan)
    want = level_mass_by_fraction_sum(plan.terms)
    assert list(got.items()) == list(want.items())
    assert all(type(m) is Fraction for m in got.values())


def test_cancelled_diagonal_is_exported_as_zero():
    plan = CombinationPlan(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3), (1, 1): 1})
    assert per_level_mass(plan) == {1: 0, 2: 1}
    assert plan_to_dict(plan)["level_mass"] == {"1": "0/1", "2": "1/1"}


def assert_class_counts_match_enumeration(plan):
    """Check a fresh band plan and its fresh shift, both counted from their
    class tables, against the terms each enumerates."""
    shifted = plan.shifted(1)
    gc_was_enabled = gc.isenabled()
    # Millions of tracked Fraction coefficients: at standard_plan(8, 12) the
    # collections cost about 9% of the check (the level tuples are untracked).
    gc.disable()
    try:
        items = plan.terms.items()
        total = sum((c for _, c in items), Fraction(0))
        masses = level_mass_by_fraction_sum(plan.terms)
        assert len(plan) == plan.term_count() == len(items)
        assert plan.coefficient_sum() == total
        assert per_level_mass(plan) == masses
        # The shift's terms are the same coefficients at levels one higher, so
        # its Fraction sums are the ones above, each diagonal moved by d.
        assert list(shifted.terms.values()) == [c for _, c in items]
        assert list(shifted.terms) == [tuple(map((1).__add__, lv)) for lv, _ in items]
        del items
        assert len(shifted) == shifted.term_count() == len(shifted.terms)
        assert shifted.coefficient_sum() == total
        assert per_level_mass(shifted) == {t + plan.dim: m for t, m in masses.items()}
    finally:
        if gc_was_enabled:
            gc.enable()


@pytest.mark.parametrize("d", range(1, 9))
def test_standard_plan_class_counts_match_enumeration(d):
    # Up to standard_plan(8, 12), 2,144,493 terms.
    for n in range(13):
        assert_class_counts_match_enumeration(standard_plan(d, n))


@pytest.mark.parametrize("d", range(1, 7))
def test_ho_plan_class_counts_match_enumeration(d):
    for n in range(1, 7):
        assert_class_counts_match_enumeration(ho_plan(d, n))


# ---------------------------------------------------------------------------
# partition of unity (coefficient_sum == 1 for every constructor)


@pytest.mark.parametrize("d", range(1, 5))
def test_partition_of_unity_exhaustive_small(d):
    for n in range(0, 9):
        assert standard_plan(d, n).coefficient_sum() == 1
        if n >= 1:
            assert ho_plan(d, n).coefficient_sum() == 1


@pytest.mark.parametrize("d", range(1, 9))
def test_partition_of_unity_closed_form(d):
    # Per-diagonal term counts times the shared diagonal coefficient:
    # sum_i (-1)^(d-1-i) C(d-1, i) C(n+i+d-1, d-1) must be 1 for every n.
    for n in range(0, 13):
        total = sum(
            (-1) ** (d - 1 - i) * math.comb(d - 1, i) * math.comb(n + i + d - 1, d - 1)
            for i in range(d)
        )
        assert total == 1
        assert standard_plan(d, n).coefficient_sum() == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12))
def test_partition_of_unity_property(d, n):
    assert standard_plan(d, n).coefficient_sum() == 1
    if n >= 1 and d <= 4:
        assert ho_plan(d, n).coefficient_sum() == 1


# ---------------------------------------------------------------------------
# node totals / projections


def node_total_by_terms(plan):
    return sum(map(node_count, plan.terms))


@pytest.mark.parametrize("build", [standard_plan, ho_plan])
def test_node_total_matches_per_term_sum(build):
    # A band plan counts its nodes from its class table; offset 0 keeps the
    # zero-level terms, which count their boundary nodes too.
    for d in range(1, 5):
        for n in range(1, 5):
            for offset in (0, 1, 2):
                plan = build(d, n).shifted(offset)
                assert _node_total(plan) == node_total_by_terms(plan)


@pytest.mark.parametrize(
    "method,d,n",
    [
        ("FG", 1, 5),
        ("FG", 3, 3),
        ("HOFG", 2, 4),
        ("SG", 2, 6),
        ("SG", 3, 4),
        ("SG", 4, 3),
        ("SPLIT2D", 2, 5),
    ],
)
def test_projected_dof_exact_for_closed_form_methods(method, d, n):
    for shift in (0, 1):
        plan = method_plan(method, d, n, level_shift=shift)
        assert projected_dof_total(method, d, n, level_shift=shift) == node_total_by_terms(plan)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 2), (3, 4)])
def test_projected_dof_upper_bounds_hosg(d, n):
    plan = method_plan("HOSG", d, n, level_shift=1)
    built = node_total_by_terms(plan)
    projected = projected_dof_total("HOSG", d, n, level_shift=1)
    assert projected >= built
    assert projected <= 4 * built


def test_projected_dof_rejects_unknown_method():
    with pytest.raises(ValueError):
        projected_dof_total("NOPE", 2, 3)


@pytest.mark.parametrize("shift", [0, 1])
def test_projected_dof_hosg_counts_every_refinement_of_every_base_grid(shift):
    # The HOSG projection counts the nodes of all 2**d subset-refinements of
    # every base grid of the shifted standard plan.
    for d in range(1, 5):
        for n in range(1, 5):
            expected = sum(
                node_count([v + (j in subset) for j, v in enumerate(base)])
                for base in standard_plan(d, n).shifted(shift).terms
                for k in range(d + 1)
                for subset in itertools.combinations(range(d), k)
            )
            assert projected_dof_total("HOSG", d, n, level_shift=shift) == expected


@pytest.mark.parametrize("method", STUDY_METHODS)
@pytest.mark.parametrize("shift", [0, 1])
def test_study_guard_bounds_bracket_node_total(method, shift):
    # The study checks a record once, against its projection: the projection
    # never undercounts the plan's node total, and grid (n+s, s, ..., s),
    # which the study checks before projecting, never overcounts it.
    for d in range(1, 6):
        if method == "SPLIT2D" and d != 2:
            continue
        for n in range(1 if method == "HOSG" else 0, 8):
            total = _node_total(method_plan(method, d, n, shift))
            first = node_count((n + shift,) + (shift,) * (d - 1))
            assert first <= total <= projected_dof_total(method, d, n, shift)


# ---------------------------------------------------------------------------
# evaluate_plan


@pytest.mark.bits
def test_singleton_plan_matches_direct_solve():
    p = builtin_sine_problem(2)
    x = (0.3, 0.7)
    plan = CombinationPlan(2, {(5, 4): 1})
    res = evaluate_plan(p, plan, x)
    # Plan evaluation reads the grid's value from its sine coefficients, so it
    # equals the point path bit for bit and the interpolated nodal grid to
    # rounding (measured worst 9e-16 * max|u| over random levels, d <= 4).
    assert res.value == solve_at_points(p, (5, 4), x)[0]
    u, _ = solve_poisson(p, (5, 4))
    tol = 1e-13 * np.max(np.abs(u.values))
    assert abs(res.value - multilinear_eval(u, x)) <= tol
    assert res.dof_total == node_count((5, 4))
    assert res.dof_unique == res.dof_total
    assert res.grids_solved == 1


def _wavy_grid_problem(d, seed):
    # A non-separable right-hand side with a vectorized sampler.
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(1.0, 7.0, size=d)

    def rhs(x):
        return math.cos(sum(f * xj for f, xj in zip(freqs, x)) + 0.3) * math.exp(x[0])

    def rhs_grid(level):
        axes = [np.arange(1, 2 ** v) * 2.0 ** -v for v in level]
        shapes = [(-1,) + (1,) * (d - 1 - j) for j in range(d)]
        arg = sum(f * ax.reshape(s) for f, ax, s in zip(freqs, axes, shapes))
        return np.cos(arg + 0.3) * np.exp(axes[0].reshape(shapes[0]))

    return ProblemSpec(dim=d, rhs=rhs, rhs_grid=rhs_grid)


_TABLE_MAX_LEVEL = {1: 10, 2: 6, 3: 4, 4: 3}


@pytest.mark.bits
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(min_value=1, max_value=_TABLE_MAX_LEVEL[d])] * d),
            min_size=1,
            max_size=4,
            unique=True,
        )
    ),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_shared_point_table_bit_identical(levels, seed):
    # One point table shared by several grids, in any order, gives each grid
    # the bits of solve_at_points with a table of its own, whether the table
    # keeps its sine weight blocks or rebuilds them per chunk; and a plan over
    # those grids is the fsum of their coefficient-weighted values.
    rng = np.random.default_rng(seed)
    d = len(levels[0])
    p = _wavy_grid_problem(d, seed)
    # Points per chunk of each grid (see pde._interpolate_nodal); twice
    # the largest plus one gives every grid at least three chunks.
    steps = [
        max(math.prod(2 ** v - 1 for v in lv), 2 ** 14)
        * (2 ** max(lv) - 1)
        // math.prod(2 ** v - 1 for v in lv)
        for lv in levels
    ]
    pts = rng.uniform(0.0, 1.0, size=(2 * max(steps) + 1, d))
    node_level = levels[rng.integers(len(levels))]
    pts[::7] = [[rng.integers(0, 2 ** v + 1) / 2 ** v for v in node_level] for _ in pts[::7]]
    pts[1::11, rng.integers(d)] = rng.choice([0.0, 1.0], size=len(pts[1::11]))
    pts[2] = rng.choice([0.0, 1.0], size=d)

    fresh = {lv: solve_at_points(p, lv, pts) for lv in levels}
    kept, rebuilt = _PointTable(pts), _PointTable(pts)
    rebuilt._room = 0  # keeps no sine weight block
    for i in rng.permutation(len(levels)):
        for table in (kept, rebuilt):
            values = _solve_at_table(p, levels[i], table, _Workspace())
            assert values.tobytes() == fresh[levels[i]].tobytes()

    plan = CombinationPlan(
        d, {lv: Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 7))) for lv in levels}
    )
    weighted = [(float(c), fresh[tuple(lv)]) for lv, c in plan.terms.items()]
    want = [math.fsum(c * values[k] for c, values in weighted) for k in range(len(pts))]
    assert list(evaluate_plan(p, plan, pts).values) == want


def test_evaluate_plan_memory_bounded():
    # All grids of an evaluation share one point table, whose sine weight
    # blocks are bounded: 20,000 points never cost a K x 511 block (78 MiB)
    # for the grid (9, 9). Measured peak: 18 MiB.
    rng = np.random.default_rng(6)
    p = builtin_sine_problem(2)
    pts = rng.uniform(0.0, 1.0, size=(20_000, 2))
    plan = CombinationPlan(2, {(12, 2): 1, (9, 9): -1})
    evaluate_plan(p, plan, pts[:3])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        evaluate_plan(p, plan, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(pts) * 511 * 8 / 3


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_hosg_matches_closed_form_oracle(d):
    # The built-in problem's grid values in closed form (no solve), summed
    # with the plan's coefficients, against evaluate_plan at the default
    # point and three random points. The tolerance is 4 eps sum_l |c_l v_l|,
    # the a-priori rounding scale of the combination; the measured worst
    # ratio over d = 4..7, n = 1..2 is 0.26.
    rng = np.random.default_rng(d)
    pts = np.vstack([default_eval_point(d), rng.uniform(0.0, 1.0, size=(3, d))])
    p = builtin_sine_problem(d)
    cache = GridCache()
    for n in (1, 2):
        plan = method_plan("HOSG", d, n, 0)
        got = evaluate_plan(p, plan, pts, cache).values
        solvable = [(float(c), lv) for lv, c in plan.terms.items() if min(lv) > 0]
        for k, x in enumerate(pts):
            parts = [c * builtin_grid_value(lv, x) for c, lv in solvable]
            scale = math.fsum(map(abs, parts))
            assert abs(got[k] - math.fsum(parts)) <= 4 * 2.0 ** -52 * scale, (n, k)


def test_zero_level_terms_contribute_zero_without_solving():
    p = builtin_sine_problem(2)
    plan = CombinationPlan(2, {(0, 5): Fraction(7, 2)})
    res = evaluate_plan(p, plan, (0.5, 0.5))
    assert res.value == 0.0
    assert res.grids_solved == 0
    assert res.dof_unique == 0
    assert res.dof_total == node_count((0, 5))


def test_evaluate_plan_respects_budget():
    p = builtin_sine_problem(2)
    plan = standard_plan(2, 6).shifted(1)
    needed = node_total_by_terms(plan)
    with pytest.raises(BudgetExceededError) as exc:
        evaluate_plan(p, plan, (0.5, 0.5), node_budget=needed - 1)
    assert exc.value.projected == needed
    assert exc.value.budget == needed - 1
    # exactly at the budget it must run
    res = evaluate_plan(p, plan, (0.5, 0.5), node_budget=needed)
    assert res.dof_total == needed


def test_evaluate_plan_refuses_band_plan_without_building_its_terms():
    p = builtin_sine_problem(6)
    plan = ho_plan(6, 4)
    needed = node_total_by_terms(ho_plan(6, 4))
    with pytest.raises(BudgetExceededError) as exc:
        evaluate_plan(p, plan, default_eval_point(6), node_budget=needed - 1)
    assert exc.value.projected == needed
    assert plan._terms is None


def test_evaluate_plan_dimension_mismatch():
    p = builtin_sine_problem(2)
    with pytest.raises(ValueError):
        evaluate_plan(p, standard_plan(3, 2), (0.5, 0.5, 0.5))


def test_evaluate_plan_wraps_solver_errors():
    def bad_rhs(x):
        raise RuntimeError("boom")

    p = ProblemSpec(dim=1, rhs=bad_rhs)
    with pytest.raises(PlanEvaluationError) as exc:
        evaluate_plan(p, CombinationPlan(1, {(3,): 1}), (0.5,))
    assert tuple(exc.value.level) == (3,)


def test_wrong_length_factor_names_level_and_direction():
    # A separable factor of the wrong length is refused as rhs_grid's wrong
    # shape is, naming the level and the direction; a plan evaluation
    # carries the level.
    p = ProblemSpec(
        dim=2,
        rhs=lambda x: 1.0,
        rhs_factors=(1.0, lambda j, v: np.ones(2 ** v - 1 - j)),
    )
    message = r"direction 1 of level \(3, 2\), expected \(3,\)"
    with pytest.raises(ValueError, match=message):
        solve_at_points(p, (3, 2), (0.5, 0.5))
    with pytest.raises(ValueError, match=message):
        solve_poisson(p, (3, 2))
    with pytest.raises(PlanEvaluationError, match=message) as exc:
        evaluate_plan(p, CombinationPlan(2, {(3, 2): 1}), (0.5, 0.5))
    assert tuple(exc.value.level) == (3, 2)
    assert isinstance(exc.value.__cause__, ValueError)


def test_cache_reuse_and_incremental_dof():
    p = builtin_sine_problem(2)
    cache = GridCache()
    plan5 = standard_plan(2, 5).shifted(1)
    plan6 = standard_plan(2, 6).shifted(1)
    r5 = evaluate_plan(p, plan5, (0.25, 0.5), cache)
    assert r5.dof_unique == node_total_by_terms(plan5)
    r6 = evaluate_plan(p, plan6, (0.25, 0.5), cache)
    new_levels = set(plan6) - set(plan5)
    assert r6.dof_unique == sum(map(node_count, new_levels))
    assert r6.grids_solved == len(new_levels)
    # warm cache: nothing new
    r6b = evaluate_plan(p, plan6, (0.25, 0.5), cache)
    assert r6b.dof_unique == 0
    assert r6b.grids_solved == 0
    assert r6b.value == r6.value


@pytest.mark.bits
def test_reduction_bit_identical_across_cache_states():
    p = builtin_sine_problem(2)
    plan = standard_plan(2, 5).shifted(1)
    x = (0.3, 0.7)
    fresh = evaluate_plan(p, plan, x).value
    cache = GridCache()
    evaluate_plan(p, standard_plan(2, 4).shifted(1), x, cache)
    warm = evaluate_plan(p, plan, x, cache).value
    assert fresh == warm

    # K points in one call give the K single-point values bit for bit, with
    # a cold and a warm cache.
    pts = [x, (0.0, 1.0), (0.5, 0.25), (0.91, 0.13), (1.0, 0.6)]
    singles = [evaluate_plan(p, plan, q).value for q in pts]
    assert singles[0] == fresh
    batch_cache = GridCache()
    evaluate_plan(p, standard_plan(2, 4).shifted(1), pts, batch_cache)
    cold = evaluate_plan(p, plan, pts)
    warm_k = evaluate_plan(p, plan, pts, batch_cache)
    assert list(cold.values) == list(warm_k.values) == singles
    assert cold.value == fresh


@pytest.mark.bits
def test_cache_warmed_by_larger_grids_serves_smaller_plan():
    # A cache whose work buffers were sized by a plan of larger grids (FFT
    # path) evaluates a plan of other, smaller grids with the bits of a
    # fresh cache, and its buffers keep the largest grid's size.
    base = builtin_sine_problem(3)
    sampled = ProblemSpec(dim=3, rhs=base.rhs, rhs_grid=base.rhs_grid)
    pts = [default_eval_point(3), (0.1, 0.93, 0.6)]
    large = CombinationPlan(3, {(9, 1, 2): 1, (2, 8, 1): Fraction(-1, 3), (1, 1, 10): 2})
    small = ho_plan(3, 2).shifted(1)
    for p in (base, sampled):
        cache = GridCache()
        evaluate_plan(p, large, pts, cache)
        warm = evaluate_plan(p, small, pts, cache)
        assert warm.grids_solved == len(small)
        assert warm.values == evaluate_plan(p, small, pts).values
        assert cache._work._size == max(math.prod(2 ** v - 1 for v in lv) for lv in large.terms)


@pytest.mark.bits
def test_cache_holding_one_of_each_pair_serves_plan():
    # A cold evaluation solves each level right after its partner (the level
    # with its first two directions swapped), so an FFT-path level that
    # follows its partner needs no coefficients of its own. A cache warmed,
    # through an explicit plan, with exactly one level of each pair solves
    # the others with no partner before them, and serves the HOSG plan with
    # the bytes of a cold cache.
    p = builtin_sine_problem(3)
    pts = [default_eval_point(3), (0.1, 0.93, 0.6)]
    plan = ho_plan(3, 4).shifted(1)
    with mock.patch.object(pde, "_solve_along", wraps=pde._solve_along) as spy:
        cold = evaluate_plan(p, plan, pts)
    followers = [
        lv for lv in plan.terms if 2 ** max(lv) - 1 > DIRECT_TRANSFORM_MAX and lv > _swapped(lv)
    ]
    assert followers and spy.call_count == len(plan) - len(followers)
    for keep in (min, max):
        half = CombinationPlan(3, {keep(lv, _swapped(lv)): 1 for lv in plan.terms})
        cache = GridCache()
        evaluate_plan(p, half, pts, cache)
        warm = evaluate_plan(p, plan, pts, cache)
        assert warm.grids_solved == len(plan) - len(half)
        assert warm.values == cold.values


def test_cache_serves_one_problem():
    # A cache is bound to the first problem evaluated through it: another
    # problem, even one with the same data, raises instead of reading the
    # first one's values and factor transforms, and the first keeps its
    # values.
    p = builtin_sine_problem(2)
    c, g = p.rhs_factors
    doubled = dataclasses.replace(p, rhs_factors=(2 * c, g))
    plan = ho_plan(2, 4).shifted(1)
    x = default_eval_point(2)
    cache = GridCache()
    first = evaluate_plan(p, plan, x, cache)
    for other in (doubled, builtin_sine_problem(2)):
        with pytest.raises(ValueError, match="another problem"):
            evaluate_plan(other, plan, x, cache)
    assert evaluate_plan(p, plan, x, cache).values == first.values
    assert evaluate_plan(doubled, plan, x, GridCache()).value == pytest.approx(2 * first.value)


def test_study_transforms_each_factor_once():
    # The records of a study share one workspace, so a separable right-hand
    # side's factor g_j is sampled (and transformed) once per (direction,
    # level value), not once per record.
    base = builtin_sine_problem(3)
    c, g = base.rhs_factors
    calls = collections.Counter()

    def counted(j, v):
        calls[j, v] += 1
        return g(j, v)

    p = dataclasses.replace(base, rhs_factors=(c, counted))
    records = hierarchical_surplus_study(p, "HOSG", 3, 6, n_min=2)
    want = {
        (j, v)
        for n in range(2, 7)
        for lv in method_plan("HOSG", 3, n, 1).terms
        if min(lv) > 0
        for j, v in enumerate(lv)
    }
    assert set(calls) == want
    assert set(calls.values()) == {1}
    plain = hierarchical_surplus_study(base, "HOSG", 3, 6, n_min=2)
    assert [r.value for r in records] == [r.value for r in plain]


def test_cache_does_not_serve_another_point_set():
    p = builtin_sine_problem(2)
    plan = standard_plan(2, 3).shifted(1)
    cache = GridCache()
    first = evaluate_plan(p, plan, (0.3, 0.7), cache)
    assert first.grids_solved == len(plan)
    for other in ((0.6, 0.2), [(0.3, 0.7), (0.6, 0.2)]):
        res = evaluate_plan(p, plan, other, cache)
        assert res.grids_solved == len(plan)
        assert res.values == evaluate_plan(p, plan, other).values
    assert len(cache) == 3 * len(plan)
    again = evaluate_plan(p, plan, [(0.3, 0.7)], cache)
    assert again.grids_solved == 0
    assert again.value == first.value


def test_study_cache_holds_values_not_grids(monkeypatch):
    # The study makes its own GridCache; the recording subclass stands in
    # for it.
    caches = []

    class RecordingCache(GridCache):
        def __init__(self):
            super().__init__()
            self.seen = {}
            caches.append(self)

        def get_or_solve(self, key, solver):
            entry, mine = super().get_or_solve(key, solver)
            self.seen[key] = entry
            return entry, mine

    def live_grids():
        gc.collect()
        return sum(isinstance(o, GridFunction) for o in gc.get_objects())

    monkeypatch.setattr(combine, "GridCache", RecordingCache)
    p = builtin_sine_problem(2)
    before = live_grids()
    hierarchical_surplus_study(p, "HOSG", 2, 5, n_min=2, surplus_points=6)
    assert live_grids() <= before
    [cache] = caches
    assert len(cache.seen) == len(cache) > 0
    for entry in cache.seen.values():
        assert type(entry) is tuple and len(entry) == 7
        assert all(type(v) is float for v in entry)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0.5, float("nan")), "coordinate 1 = nan outside [0, 1]"),
        ((1.5, 0.5), "coordinate 0 = 1.5 outside [0, 1]"),
        ((0.5, 0.5, 0.5), "point has 3 coords, expected 2"),
    ],
)
def test_evaluate_plan_bad_point_same_error_alone_or_in_array(bad, message):
    def rhs(x):
        raise AssertionError("no grid may be solved for a bad point")

    p = ProblemSpec(dim=2, rhs=rhs)
    plan = standard_plan(2, 2).shifted(1)
    good = (0.25,) * len(bad)
    for x in (bad, [good, bad]):
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_plan(p, plan, x)


def test_evaluate_plan_linear_in_rhs():
    # The whole pipeline is linear, so a*f1 + b*f2 must map to the same
    # combination of values up to rounding.
    a, b = 2.5, -1.25

    def f1(x):
        return math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])

    def f2(x):
        return math.sin(2 * math.pi * x[0]) * math.sin(3 * math.pi * x[1])

    def fmix(x):
        return a * f1(x) + b * f2(x)

    plan = standard_plan(2, 4).shifted(1)
    x = (0.3, 0.7)
    v1 = evaluate_plan(ProblemSpec(dim=2, rhs=f1), plan, x).value
    v2 = evaluate_plan(ProblemSpec(dim=2, rhs=f2), plan, x).value
    vm = evaluate_plan(ProblemSpec(dim=2, rhs=fmix), plan, x).value
    assert vm == pytest.approx(a * v1 + b * v2, rel=1e-11, abs=1e-13)


def test_combined_interpolation_of_exact_solution():
    # Feed the combination the *exact* solution sampled on each grid: the
    # combined interpolant converges at the sparse-grid rate at a non-dyadic
    # point, and reproduces the function to rounding at a shared grid node.
    p = builtin_sine_problem(2)
    x = (0.3, 0.7)

    def exact_grid(lv):
        axes = [np.linspace(0.0, 1.0, 2 ** v + 1) for v in lv]
        return GridFunction(lv, p.exact(np.meshgrid(*axes, indexing="ij")))

    def combined(n):
        plan = standard_plan(2, n).shifted(1)
        total = math.fsum(
            float(c) * multilinear_eval(exact_grid(lv), x) for lv, c in plan.terms.items()
        )
        return total

    errs = [(n, abs(combined(n) - p.exact(x))) for n in range(6, 10)]
    assert observed_order(errs) >= 1.8

    node = (0.5, 0.5)  # a node of every level-shifted grid
    plan = standard_plan(2, 6).shifted(1)
    at_node = math.fsum(
        float(c) * multilinear_eval(exact_grid(lv), node)
        for lv, c in plan.terms.items()
    )
    assert at_node == pytest.approx(p.exact(node), abs=1e-14)


# ---------------------------------------------------------------------------
# HOFG (Richardson) and SPLIT2D (splitting) plans from the method table


def _hofg(p, n, x):
    return evaluate_plan(p, method_plan("HOFG", p.dim, n, level_shift=0), x).value


def test_richardson_zero_rhs():
    p = ProblemSpec(dim=2, rhs=lambda x: 0.0)
    assert _hofg(p, 3, (0.3, 0.4)) == 0.0


def test_richardson_beats_plain_grid():
    p = builtin_sine_problem(2)
    x = (0.3, 0.7)
    u5, _ = solve_poisson(p, (5, 5))
    plain = abs(multilinear_eval(u5, x) - p.exact(x))
    extrap = abs(_hofg(p, 5, x) - p.exact(x))
    assert extrap < plain / 4


def test_richardson_fourth_order_1d():
    # Use nodal error at a point present on every grid so the interpolation
    # error does not mask the extrapolated truncation order.
    p = builtin_sine_problem(1)
    x = (0.5,)
    errs = [(n, abs(_hofg(p, n, x) - p.exact(x))) for n in range(3, 8)]
    order = observed_order(errs)
    assert 3.7 <= order <= 4.3


def test_splitting_zero_rhs():
    p = ProblemSpec(dim=2, rhs=lambda x: 0.0)
    plan = method_plan("SPLIT2D", 2, 3, level_shift=0)
    assert evaluate_plan(p, plan, (0.25, 0.5)).value == 0.0


def test_splitting_requires_2d():
    for d in (1, 3):
        with pytest.raises(ValueError):
            method_plan("SPLIT2D", d, 2, level_shift=0)


# ---------------------------------------------------------------------------
# hierarchical_surplus_study mechanics


def test_study_single_record_has_no_surplus():
    p = builtin_sine_problem(2)
    recs = hierarchical_surplus_study(p, "SG", 2, 4, n_min=4)
    assert len(recs) == 1
    assert recs[0].n == 4
    assert recs[0].surplus is None
    assert recs[0].method == "SG"


def test_study_surplus_backfill():
    p = builtin_sine_problem(2)
    recs = hierarchical_surplus_study(p, "SG", 2, 6, n_min=3)
    assert [r.n for r in recs] == [3, 4, 5, 6]
    for prev, nxt in zip(recs, recs[1:]):
        assert prev.surplus == abs(nxt.value - prev.value)
    assert recs[-1].surplus is None


def test_study_dof_unique_is_incremental():
    p = builtin_sine_problem(2)
    recs = hierarchical_surplus_study(p, "SG", 2, 6, n_min=3)
    seen = set()
    for r in recs:
        plan = standard_plan(2, r.n).shifted(1)
        new = [lv for lv in plan if lv not in seen]
        assert r.dof_unique == sum(map(node_count, new))
        seen.update(plan)
        assert r.dof_total == node_total_by_terms(plan)


@pytest.mark.bits
def test_study_values_match_direct_evaluation():
    p = builtin_sine_problem(2)
    x = default_eval_point(2)
    recs = hierarchical_surplus_study(p, "FG", 2, 5, n_min=3)
    for r in recs:
        level = (r.n + 1, r.n + 1)
        assert r.value == solve_at_points(p, level, x)[0]
        u, _ = solve_poisson(p, level)
        tol = 1e-13 * np.max(np.abs(u.values))
        assert abs(r.value - multilinear_eval(u, x)) <= tol


@pytest.mark.parametrize("n", range(1, 5))
def test_hosg_study_at_level_shift_zero_evaluates_unshifted_plan(n):
    p = builtin_sine_problem(3)
    x = default_eval_point(3)
    (rec,) = hierarchical_surplus_study(p, "HOSG", 3, n, x, n_min=n, level_shift=0)
    direct = evaluate_plan(p, ho_plan(3, n), x)
    assert (rec.value, rec.dof_total) == (direct.value, direct.dof_total)


def test_study_rejects_bad_inputs():
    p = builtin_sine_problem(2)
    with pytest.raises(ValueError):
        hierarchical_surplus_study(p, "XX", 2, 4)
    with pytest.raises(ValueError):
        hierarchical_surplus_study(p, "SPLIT2D", 3, 3)
    with pytest.raises(ValueError):
        hierarchical_surplus_study(p, "SG", 3, 4, x=(0.5, 0.5))
    with pytest.raises(ValueError):
        hierarchical_surplus_study(p, "SG", 2, 3, n_min=4)


@pytest.mark.parametrize("method", STUDY_METHODS)
@pytest.mark.parametrize("shift", [1.0, 0.0, 2, -1])
def test_bad_level_shift_rejected_before_any_solve(method, shift):
    def unsolvable(x):
        raise AssertionError("a grid was solved")

    p = ProblemSpec(dim=2, rhs=unsolvable)
    with pytest.raises(ValueError, match="^level_shift must be 0 or 1$"):
        method_plan(method, 2, 2, shift)
    with pytest.raises(ValueError, match="^level_shift must be 0 or 1$"):
        projected_dof_total(method, 2, 2, shift)
    with pytest.raises(ValueError, match="^level_shift must be 0 or 1$"):
        hierarchical_surplus_study(p, method, 2, 3, level_shift=shift)


def test_study_budget_carries_partial_records():
    p = builtin_sine_problem(2)
    full = hierarchical_surplus_study(p, "SG", 2, 6, n_min=3)
    budget = max(r.dof_total for r in full[:2]) + 1
    with pytest.raises(BudgetExceededError) as exc:
        hierarchical_surplus_study(p, "SG", 2, 6, n_min=3, node_budget=budget)
    err = exc.value
    assert err.n in (5, 6)
    assert err.records is not None and len(err.records) >= 2
    for got, want in zip(err.records, full):
        assert got.value == want.value
    assert err.projected > err.budget == budget


def test_study_robustness_mode_deterministic():
    p = builtin_sine_problem(2)
    a = hierarchical_surplus_study(p, "SG", 2, 5, n_min=3, surplus_points=8, seed=42)
    b = hierarchical_surplus_study(p, "SG", 2, 5, n_min=3, surplus_points=8, seed=42)
    assert [r.surplus for r in a] == [r.surplus for r in b]
    c = hierarchical_surplus_study(p, "SG", 2, 5, n_min=3, surplus_points=8, seed=43)
    assert [r.surplus for r in a[:-1]] != [r.surplus for r in c[:-1]]


def test_split2d_study_runs():
    p = builtin_sine_problem(2)
    recs = hierarchical_surplus_study(p, "SPLIT2D", 2, 5, n_min=3)
    assert [r.n for r in recs] == [3, 4, 5]
    x = default_eval_point(2)
    direct = evaluate_plan(p, method_plan("SPLIT2D", 2, 4, level_shift=0), x).value
    assert recs[0].value == direct


# ---------------------------------------------------------------------------
# observed_order / surplus_order


def test_observed_order_exact_powers():
    pairs = [(n, 2.0 ** (-2 * n)) for n in range(3, 8)]
    assert observed_order(pairs) == pytest.approx(2.0, abs=1e-12)


def test_observed_order_needs_two_points():
    with pytest.raises(ValueError):
        observed_order([(3, 0.5)])


def test_observed_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        observed_order([(3, 0.5), (4, 0.0)])


def test_surplus_order_uses_backfilled_records():
    recs = [
        ConvergenceRecord("SG", 1, n, 0, 0, 0.0, surplus=2.0 ** (-4 * n))
        for n in range(2, 6)
    ]
    recs.append(ConvergenceRecord("SG", 1, 6, 0, 0, 0.0, surplus=None))
    assert surplus_order(recs) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# plan_to_dict


def test_plan_to_dict_frozen():
    d = plan_to_dict(ho_plan(1, 4), n=4)
    assert d["d"] == 1
    assert d["n"] == 4
    assert d["terms"] == [
        {"levels": [4], "coeff": "-1/3"},
        {"levels": [5], "coeff": "4/3"},
    ]
    assert d["coefficient_sum"] == "1/1"
    assert d["level_mass"] == {"4": "-1/3", "5": "4/3"}


def test_plan_to_dict_orders_terms_by_diagonal_then_level():
    # In d = 2 the lexicographic order (0,1), (0,2), (1,0), ... differs from
    # the export order, which is by |l|_1 first.
    d = plan_to_dict(standard_plan(2, 1), n=1)
    assert [(t["levels"], t["coeff"]) for t in d["terms"]] == [
        ([0, 1], "-1/1"),
        ([1, 0], "-1/1"),
        ([0, 2], "1/1"),
        ([1, 1], "1/1"),
        ([2, 0], "1/1"),
    ]
    assert d["coefficient_sum"] == "1/1"
    assert d["level_mass"] == {"1": "-2/1", "2": "3/1"}
    # An explicit plan given out of diagonal order exports the same way, and
    # a diagonal that cancels keeps its mass entry.
    given = {(3, 0): 2, (0, 1): Fraction(1, 2), (2, 0): -1, (1, 1): 1, (0, 3): -2}
    d = plan_to_dict(CombinationPlan(2, given, "explicit"))
    assert [(t["levels"], t["coeff"]) for t in d["terms"]] == [
        ([0, 1], "1/2"),
        ([1, 1], "1/1"),
        ([2, 0], "-1/1"),
        ([0, 3], "-2/1"),
        ([3, 0], "2/1"),
    ]
    assert d["coefficient_sum"] == "1/2"
    assert d["level_mass"] == {"1": "1/2", "2": "0/1", "3": "0/1"}
