import decimal
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecombine.grid import GridFunction, LevelIndex, multilinear_eval
from sparsecombine.pde import (
    DegenerateGridError,
    ProblemSpec,
    apply_operator,
    builtin_sine_problem,
    inverse_sine_transform,
    sine_transform,
    solve_at_points,
    solve_poisson,
)

from oracles import interp_corners, solve_assembled


# ---------------------------------------------------------------------------
# Built-in problem


def test_builtin_sine_values():
    p2 = builtin_sine_problem(2)
    assert p2.dim == 2
    assert p2.exact((0.25, 0.5)) == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-15)
    assert p2.rhs((0.25, 0.5)) == pytest.approx(
        2.0 * math.pi ** 2 * math.sqrt(2.0) / 2.0, rel=1e-15
    )
    p1 = builtin_sine_problem(1)
    assert p1.rhs((0.5,)) == pytest.approx(math.pi ** 2, rel=1e-15)
    assert p1.exact((0.5,)) == pytest.approx(-1.0, abs=1e-15)


def test_builtin_sine_vanishes_on_boundary():
    p = builtin_sine_problem(2)
    for pt in [(0.0, 0.3), (1.0, 0.7), (0.25, 0.0), (0.5, 1.0)]:
        assert p.exact(pt) == pytest.approx(0.0, abs=1e-15)


def test_builtin_rhs_grid_matches_scalar():
    p = builtin_sine_problem(3)
    lv = LevelIndex((2, 3, 2))
    grid = p.rhs_grid(lv)
    # interior lattice in the same odometer order as a scalar loop
    expected = np.empty(lv.interior_count())
    widths = lv.mesh_widths()
    k = 0
    for idx in np.ndindex(*(2 ** v - 1 for v in lv)):
        pt = tuple((i + 1) * w for i, w in zip(idx, widths))
        expected[k] = p.rhs(pt)
        k += 1
    np.testing.assert_allclose(grid.reshape(-1), expected, rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_builtin_rhs_grid_bitwise_and_fresh(d):
    # The interior sines are cached per level value; the grid is still the
    # outer product of freshly computed sines times d pi^2, bit for bit. It
    # is a new writable array each call (at d = 1 the product is the cached
    # vector itself), so changing it leaves the next call's result alone.
    p = builtin_sine_problem(d)
    level = LevelIndex((3, 1, 3, 2)[:d])
    sines = [np.sin(np.pi * (np.arange(1, 2 ** v) * 2.0 ** -v)) for v in level]
    want = reduce(np.multiply, np.ix_(*sines)) * (d * np.pi ** 2)
    first = p.rhs_grid(level)
    assert first.shape == want.shape and first.tobytes() == want.tobytes()
    assert first.flags.writeable
    first *= -2.0
    again = p.rhs_grid(level)
    assert again.tobytes() == want.tobytes()
    assert not np.shares_memory(first, again)


# ---------------------------------------------------------------------------
# Sine transforms


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 63, 64, 65, 127, 128])
def test_transform_roundtrip(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal(m)
    back = inverse_sine_transform(sine_transform(v, axis=0), axis=0)
    np.testing.assert_allclose(back, v, atol=1e-12)


def test_direct_and_fft_paths_agree():
    # The implementation switches from a cached matrix product to an FFT-based
    # transform above size 64; both must compute the same thing.
    import sparsecombine.pde as pde

    rng = np.random.default_rng(7)
    for m in (5, 17, 33, 64):
        v = rng.standard_normal(m)
        direct = pde._sine_matrix(m) @ v
        np.testing.assert_allclose(sine_transform(v, axis=0), direct, atol=1e-12)
        import scipy.fft

        fft_way = 0.5 * scipy.fft.dst(v, type=1)
        np.testing.assert_allclose(sine_transform(v, axis=0), fft_way, atol=1e-11)


# pi to 60 digits, for reference sines in decimal arithmetic.
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494"


def _reference_sine(q, n):
    # sin(pi q / n) from its Taylor series in 60-digit decimal arithmetic.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(_PI_DIGITS) * q / n
        term, total, k = x, x, 1
        while abs(term) > decimal.Decimal(10) ** -55:
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return float(total)


@pytest.mark.parametrize("n", [2, 3, 6, 7, 12, 33, 64, 65, 256, 1024])
def test_sine_table_correctly_rounded(n):
    # Every entry of the table behind the sine matrix and the sine rows is
    # sin(pi r / n) correctly rounded, computed with IEEE arithmetic only
    # (no extended precision), with exact zeros at r = 0 and r = n.
    import sparsecombine.pde as pde

    table = pde._sine_table(n)
    assert table.shape == (2 * n,)
    quadrant = [_reference_sine(q, n) for q in range(n // 2 + 1)]
    assert table[: n // 2 + 1].tolist() == quadrant
    r = np.arange(2 * n)
    expected = np.where(r < n, 1.0, -1.0) * np.array(quadrant)[np.minimum(r % n, n - r % n)]
    assert table.tolist() == expected.tolist()
    assert table[0] == 0.0 and table[n] == 0.0
    if n % 4 == 0:
        assert table[n // 4] == math.sqrt(0.5)  # sqrt is correctly rounded


def test_transform_diagonalizes_second_difference():
    # Eigenvectors of the 1-d second-difference matrix are discrete sines.
    m, h = 15, 1.0 / 16.0
    for k in range(1, m + 1):
        vec = np.sin(np.pi * k * np.arange(1, m + 1) * h)
        image = np.empty(m)
        image[0] = vec[1] - 2 * vec[0]
        image[1:-1] = vec[:-2] - 2 * vec[1:-1] + vec[2:]
        image[-1] = vec[-2] - 2 * vec[-1]
        lam = -4.0 * math.sin(math.pi * k * h / 2.0) ** 2
        np.testing.assert_allclose(image, lam * vec, atol=1e-12)


# ---------------------------------------------------------------------------
# solve_poisson


def test_single_unknown_1d():
    # Level (1,): one interior unknown at x = 1/2, h = 1/2.
    # -(u_E - 2u)/h^2 = f(1/2) = pi^2  =>  u = -pi^2/8.
    p = builtin_sine_problem(1)
    u, rep = solve_poisson(p, (1,))
    assert u.ndview()[1] == pytest.approx(-math.pi ** 2 / 8.0, rel=1e-14)
    assert rep.residual_inf <= 1e-10 * (1.0 + math.pi ** 2)


def test_single_unknown_2d():
    # Level (1, 1): one interior unknown, f(1/2,1/2) = 2 pi^2, diagonal 16.
    p = builtin_sine_problem(2)
    u, _ = solve_poisson(p, (1, 1))
    assert u.ndview()[1, 1] == pytest.approx(-math.pi ** 2 / 8.0, rel=1e-14)


def test_zero_rhs_gives_zero():
    p = ProblemSpec(dim=2, rhs=lambda x: 0.0)
    u, rep = solve_poisson(p, (3, 4))
    np.testing.assert_array_equal(u.values, np.zeros(u.values.size))
    assert rep.residual_inf == 0.0


def test_boundary_is_zero():
    p = builtin_sine_problem(2)
    u, _ = solve_poisson(p, (3, 2))
    full = u.ndview()
    assert np.all(full[0, :] == 0.0)
    assert np.all(full[-1, :] == 0.0)
    assert np.all(full[:, 0] == 0.0)
    assert np.all(full[:, -1] == 0.0)


def test_degenerate_level_rejected():
    p = builtin_sine_problem(2)
    with pytest.raises(DegenerateGridError):
        solve_poisson(p, (0, 3))


def test_dimension_mismatch_rejected():
    p = builtin_sine_problem(2)
    with pytest.raises(ValueError):
        solve_poisson(p, (3,))


def test_rhs_grid_shape_mismatch_rejected():
    p = ProblemSpec(
        dim=1,
        rhs=lambda x: 1.0,
        rhs_grid=lambda lv: np.zeros(3),
    )
    with pytest.raises(ValueError):
        solve_poisson(p, (3,))


@pytest.mark.parametrize(
    "level",
    [(4,), (6,), (2, 2), (3, 5), (5, 3), (2, 2, 2), (1, 3, 2)],
)
def test_matches_assembled_oracle(level):
    # The fast diagonalization solver and an independently assembled sparse
    # system must produce the same nodal values.
    p = builtin_sine_problem(len(level))
    u, _ = solve_poisson(p, level)
    ref = solve_assembled(p, LevelIndex(level))
    np.testing.assert_allclose(u.ndview(), ref, rtol=0, atol=1e-12)


def test_cg_matches_fast():
    p = builtin_sine_problem(2)
    u_fast, _ = solve_poisson(p, (4, 3), method="fast")
    u_cg, _ = solve_poisson(p, (4, 3), method="cg")
    np.testing.assert_allclose(u_cg.values, u_fast.values, atol=1e-9)


def test_unknown_method_rejected():
    p = builtin_sine_problem(1)
    with pytest.raises(ValueError):
        solve_poisson(p, (3,), method="magic")


@pytest.mark.parametrize("d,n_range", [(1, range(4, 10)), (2, range(4, 9))])
def test_second_order_convergence(d, n_range):
    p = builtin_sine_problem(d)
    errs = []
    for n in n_range:
        u, _ = solve_poisson(p, (n,) * d)
        full = u.ndview()
        h = u.level.mesh_widths()
        worst = 0.0
        for idx in np.ndindex(*full.shape):
            pt = tuple(i * w for i, w in zip(idx, h))
            worst = max(worst, abs(full[idx] - p.exact(pt)))
        errs.append(worst)
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = sum(rates) / len(rates)
    assert 1.8 <= order <= 2.2


def test_discrete_max_principle():
    # With positive rhs the discrete solution is nonpositive inside.
    p = builtin_sine_problem(2)
    u, _ = solve_poisson(p, (5, 4))
    assert u.values.max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_residual_contract_random_levels(levels, seed):
    # Residual postcondition on grids where float64 stencil evaluation can
    # resolve it (per-direction level <= 10 keeps 4^l benign).
    rng = np.random.default_rng(seed)
    d = len(levels)
    freqs = rng.integers(1, 4, size=d)

    def rhs(x):
        out = 1.0
        for j, xj in enumerate(x):
            out *= math.sin(math.pi * freqs[j] * xj)
        return out

    p = ProblemSpec(dim=d, rhs=rhs)
    u, rep = solve_poisson(p, levels)
    lv = LevelIndex(levels)
    h = lv.mesh_widths()
    interior = [
        (idx, tuple(i * w for i, w in zip(idx, h)))
        for idx in np.ndindex(*lv.points_per_direction())
        if all(0 < i < 2 ** v for i, v in zip(idx, lv))
    ]
    f_inf = max(abs(rhs(pt)) for _, pt in interior)
    assert rep.residual_inf <= 1e-10 * (1.0 + f_inf)
    # Cross-check the reported residual against apply_operator.
    op = apply_operator(u)
    worst = 0.0
    for idx, pt in interior:
        worst = max(worst, abs(op.ndview()[idx] - rhs(pt)))
    assert worst == pytest.approx(rep.residual_inf, rel=1e-9, abs=1e-13)


# ---------------------------------------------------------------------------
# solve_at_points: grid values at points from the sine coefficients


def _wavy_problem(d, seed):
    # A non-separable right-hand side that excites every sine mode.
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(1.0, 7.0, size=d)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d)

    def rhs(x):
        arg = sum(f * xj + ph for f, xj, ph in zip(freqs, x, phases))
        return math.cos(arg) * math.exp(x[0])

    return ProblemSpec(dim=d, rhs=rhs)


def _probe_points(level, rng):
    # Random points plus points on the faces 0 and 1 and on grid nodes.
    d = len(level)
    pts = rng.uniform(0.0, 1.0, size=(7, d))
    pts[0] = rng.choice([0.0, 1.0], size=d)
    pts[1] = [rng.integers(0, 2 ** v + 1) / 2 ** v for v in level]
    pts[2, 0] = 1.0
    pts[3, -1] = 0.0
    pts[4] = [rng.integers(0, 2 ** v + 1) / 2 ** v for v in level]
    pts[4, 0] = rng.uniform()
    return pts


_MAX_LEVEL = {1: 11, 2: 7, 3: 4, 4: 3}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.integers(min_value=1, max_value=_MAX_LEVEL[d]), min_size=d, max_size=d
        )
    ),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_point_values_independent_of_point_set(levels, seed):
    # A point's value is the same bits alone, inside a point set and with the
    # set reversed; and it is the interpolated nodal solution to rounding.
    rng = np.random.default_rng(seed)
    p = _wavy_problem(len(levels), seed)
    pts = _probe_points(levels, rng)
    together = solve_at_points(p, levels, pts)
    alone = [solve_at_points(p, levels, q)[0] for q in pts]
    reversed_set = solve_at_points(p, levels, pts[::-1])
    assert together.tolist() == alone == reversed_set[::-1].tolist()
    assert solve_at_points(p, levels, tuple(pts[0])).shape == (1,)

    u, _ = solve_poisson(p, levels)
    # Measured worst deviation over 400 such draws: 9e-16 * max|u|.
    scale = float(np.max(np.abs(u.values)))
    deviation = float(np.max(np.abs(together - multilinear_eval(u, pts))))
    assert deviation <= 1e-13 * scale


@pytest.mark.parametrize("level", [(8, 7), (6, 5, 4)])
def test_point_values_independent_of_chunking(level):
    # Many points are evaluated a chunk at a time, each chunk's work arrays
    # no larger than the grid; here several chunks are needed, and every
    # point still gets the bits it gets alone, in any order. Measured worst
    # deviation from the interpolated grid: 9e-16 * max|u|.
    rng = np.random.default_rng(sum(level))
    p = _wavy_problem(len(level), 3)
    pts = rng.uniform(0.0, 1.0, size=(700, len(level)))
    pts[::50] = [rng.integers(0, 2 ** v + 1) / 2 ** v for v in level]
    together = solve_at_points(p, level, pts)
    order = rng.permutation(len(pts))
    assert solve_at_points(p, level, pts[order]).tolist() == together[order].tolist()
    for i in range(0, len(pts), 97):
        assert solve_at_points(p, level, pts[i]).tolist() == [together[i]]
    u, _ = solve_poisson(p, level)
    scale = float(np.max(np.abs(u.values)))
    deviation = float(np.max(np.abs(together - multilinear_eval(u, pts))))
    assert deviation <= 1e-13 * scale


@pytest.mark.parametrize(
    "level, m, ratio",
    # Measured peaks: 3.9 MiB at (12, 2) and 17.7 MiB at (9, 9).
    [((12, 2), 4095, 64), ((9, 9), 511, 3)],
)
def test_point_values_memory_bounded(level, m, ratio):
    # The point table keeps O(K) arrays per (direction, level) and a bounded
    # number of sine weight entries, so many points never cost a K x m block.
    rng = np.random.default_rng(5)
    p = builtin_sine_problem(2)
    pts = rng.uniform(0.0, 1.0, size=(20_000, 2))
    solve_at_points(p, level, pts[:3])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        solve_at_points(p, level, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(pts) * m * 8 / ratio


def test_point_values_reject_degenerate_level_and_bad_point():
    p = builtin_sine_problem(2)
    with pytest.raises(DegenerateGridError):
        solve_at_points(p, (0, 3), (0.5, 0.5))
    with pytest.raises(ValueError, match="outside"):
        solve_at_points(p, (2, 3), (0.5, 1.5))


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_high_dimension_matches_assembled_oracle(d):
    # Both outputs of the fast solver, the nodal grid and the point values,
    # against the independently assembled system on small grids at d >= 4.
    # Measured worst deviation: 4e-15 * max|u| (grid), 2e-16 * max|u| (points).
    rng = np.random.default_rng(40 + d)
    p = _wavy_problem(d, d)
    mixed = tuple(int(v) for v in rng.permutation([1 + j % 2 for j in range(d)]))
    for level in ((1,) * d, (2,) * d, mixed):
        ref = solve_assembled(p, level)
        tol = 1e-13 * float(np.max(np.abs(ref)))
        u, _ = solve_poisson(p, level)
        np.testing.assert_allclose(u.ndview(), ref, rtol=0, atol=tol)
        pts = _probe_points(level, rng)
        want = [interp_corners(ref, level, x) for x in pts]
        got = solve_at_points(p, level, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# apply_operator


def test_apply_operator_quadratic_exact():
    # The operator is the plain sum of second differences: u = x(1-x) has
    # u'' = -2 exactly, and the 3-point stencil is exact for quadratics.
    g = GridFunction.from_callable((2,), lambda x: x[0] * (1.0 - x[0]))
    out = apply_operator(g)
    np.testing.assert_allclose(out.ndview()[1:-1], -2.0, atol=1e-12)
    assert out.ndview()[0] == 0.0
    assert out.ndview()[-1] == 0.0


def test_apply_operator_inverts_solve():
    p = builtin_sine_problem(2)
    u, _ = solve_poisson(p, (4, 5))
    out = apply_operator(u)
    lv = u.level
    h = lv.mesh_widths()
    for idx in np.ndindex(*lv.points_per_direction()):
        if all(0 < i < 2 ** v for i, v in zip(idx, lv)):
            pt = tuple(i * w for i, w in zip(idx, h))
            assert out.ndview()[idx] == pytest.approx(p.rhs(pt), rel=1e-8, abs=1e-8)


def test_interpolated_solution_accuracy():
    # End-to-end: solve, interpolate off-grid, compare with the closed form.
    p = builtin_sine_problem(2)
    u, _ = solve_poisson(p, (6, 6))
    x = (0.3, 0.7)
    err = abs(multilinear_eval(u, x) - p.exact(x))
    assert err < 5e-4
