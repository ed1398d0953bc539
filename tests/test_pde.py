import dataclasses
import decimal
import itertools
import math
import time
import tracemalloc
import types
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparsecombine import pde
from sparsecombine.combine import default_eval_point, method_plan
from sparsecombine.grid import GridFunction, LevelIndex, _checked_points, multilinear_eval
from sparsecombine.pde import (
    DIRECT_TRANSFORM_MAX,
    DegenerateGridError,
    ProblemSpec,
    _PointTable,
    _Workspace,
    _eigenvalues_1d,
    _factor_coefficients,
    _interpolate_nodal,
    _outer,
    _sample_interior_rhs,
    _solve_at_table,
    _swapped,
    _uses_fft,
    apply_operator,
    builtin_sine_problem,
    sine_transform,
    solve_at_points,
    solve_poisson,
)

from oracles import (
    builtin_grid_value_decimal,
    decimal_sine,
    interp_corners,
    solve_assembled,
)


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
    # The transform is its own inverse up to the factor 2/(m+1).
    rng = np.random.default_rng(m)
    v = rng.standard_normal(m)
    back = (2.0 / (m + 1)) * sine_transform(sine_transform(v, axis=0), axis=0)
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
        fft_way = 0.5 * _scipy_dst1(v)
        np.testing.assert_allclose(sine_transform(v, axis=0), fft_way, atol=1e-11)


def _scipy_dst1(a, axis=-1):
    # The reference DST-I: scipy's pocketfft, used by the tests only.
    import scipy.fft

    return scipy.fft.dst(a, type=1, axis=axis)


@pytest.mark.parametrize("chunk", [None, 96])
@pytest.mark.parametrize("v", range(1, 13))
def test_dst1_matches_scipy_bits(v, chunk, monkeypatch):
    # The numpy DST-I has scipy's bits along every axis of 3-D arrays, C-ordered
    # (strided lines) and laid out with the axis last in memory (unit-stride
    # lines), in fresh and in a workspace's reused chunk buffers (left full of
    # NaNs by earlier use), with chunks of a few lines or of part of one
    # (chunk = 96 entries), and for data with signed zeros.
    if chunk is not None:
        monkeypatch.setattr(pde, "_FFT_CHUNK_ENTRIES", chunk)
    m = 2 ** v - 1
    rng = np.random.default_rng(v)
    work = _Workspace()
    for axis in range(3):
        shape = [3, 5, 4]
        shape[axis] = m
        a = rng.standard_normal(shape)
        a.flat[::7] = 0.0
        a.flat[::11] = -0.0
        want = _scipy_dst1(a, axis).tobytes()
        for layout in ("C", "last"):
            for scratch in (None, work):
                x = a.copy()
                if layout == "last":
                    x = np.moveaxis(np.moveaxis(a, axis, -1).copy(), -1, axis)
                work.fft_buffers(max(1, pde._FFT_CHUNK_ENTRIES // (2 * m + 2)), 2 * m + 2)
                for buf in work._fft:
                    buf.fill(np.nan)
                pde._dst1(x, axis, scratch)
                assert np.ascontiguousarray(x).tobytes() == want, (axis, layout, scratch)
        if m > DIRECT_TRANSFORM_MAX:
            assert sine_transform(a, axis).tobytes() == (0.5 * _scipy_dst1(a, axis)).tobytes()


def _scipy_factor_coefficients(g):
    # 0.5 DST-I of a factor in np.longdouble, rounded once, through scipy.
    work = np.array(g, dtype=np.longdouble)
    if len(work) > 1:
        work = 0.5 * _scipy_dst1(work)
    return work.astype(np.float64)


def test_factor_transforms_match_scipy_bits():
    # The longdouble factor transforms, rounded to float64, have the bits of
    # scipy's: the built-in sines at levels 1..20 and the test problems'
    # random factors.
    builtin = builtin_sine_problem(1)
    for v in range(1, 21):
        got = _factor_coefficients(builtin, 0, LevelIndex((v,)), {})
        want = _scipy_factor_coefficients(builtin.rhs_factors[1](0, v))
        assert got.tobytes() == want.tobytes(), v
    for d in (1, 2, 3, 4):
        p = _separable_problems(d, 100 + d)[0]
        level = LevelIndex([1 + (j * 5 + d) % 13 for j in range(d)])
        for j in range(d):
            got = _factor_coefficients(p, j, level, {})
            want = _scipy_factor_coefficients(p.rhs_factors[1](j, level[j]))
            assert got.tobytes() == want.tobytes(), (d, j, level)


def _dyadic_problem(d):
    # Sampled data only, f = prod_j x_j (1 - x_j) (1 + 2 x_j): every node
    # value is exact in float64, so the samples have the same bits anywhere.
    def g(v):
        x = np.arange(1, 2 ** v) * 2.0 ** -v
        return x * (1.0 - x) * (1.0 + 2.0 * x)

    def rhs(x):
        return math.prod(xj * (1 - xj) * (1 + 2 * xj) for xj in x)

    def rhs_grid(level):
        return reduce(np.multiply, np.ix_(*[g(v) for v in level]))

    return ProblemSpec(dim=d, rhs=rhs, rhs_grid=rhs_grid)


@pytest.mark.bits
@pytest.mark.parametrize("level, digest, values", [
    ((7, 8), "b5f28860779c5fe624d0f6a43ea1200c72f8df8505fdbf8569919ef2e0806d75",
     ["-0x1.19c0f1e2616a6p-7", "-0x1.a6f5e45fda925p-10"]),
    ((8, 7), "aff891d79911883e53af36869e38d819849053a5c9c9edb258e27581455e35d2",
     ["-0x1.19c3e641549b2p-7", "-0x1.a6f51b3196619p-10"]),
    ((7, 7, 7), "d7b18fd91b1bc1771209657d885bef1c9688b52157c296fad2f7ac0ec0ad91c9",
     ["-0x1.85aa941f69328p-9", "-0x1.219396387370dp-11"]),
    ((2, 8, 7), "1d41d4c0887e132614c8c963e9e30693d3f175fe9b550b993cad1aa7377078c9",
     ["-0x1.7789727576f1bp-9", "-0x1.1825f65aa644fp-11"]),
    ((3, 7, 1, 3), "452d09ea34066447fbf55130c99c66ea8368426db81422e9e8b73ba11a01f5ed",
     ["-0x1.0ab3c5aee33e3p-11", "-0x1.c9b8000b41244p-13"]),
])
def test_sampled_fft_path_golden(level, digest, values):
    # Sampled data whose forward and inverse transforms take the FFT path
    # along every direction (or mix it with direct and single-node ones):
    # the nodal grid's SHA-256 and two point values, as scipy.fft's DST-I
    # gives them.
    import hashlib

    p = _dyadic_problem(len(level))
    u, _ = solve_poisson(p, level)
    assert hashlib.sha256(u.ndview().tobytes()).hexdigest() == digest
    pts = np.array([[0.3, 0.71, 0.55, 0.2], [0.125, 0.9, 0.5, 0.6]])[:, : len(level)]
    assert [float(x).hex() for x in solve_at_points(p, level, pts)] == values


def _reference_sine(q, n):
    return float(decimal_sine(q, n))


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


def test_solve_clock_starts_after_numpy_fft_loads(monkeypatch):
    # A process's first solve does not time importing numpy.fft: it is
    # loaded when the clock starts for a solve that uses it, one of
    # separable data (its factor transforms) or with an FFT-path direction,
    # and a sampled solve on the direct path leaves it unloaded.
    builtin = builtin_sine_problem(2)
    sampled = ProblemSpec(dim=2, rhs=builtin.rhs, rhs_grid=builtin.rhs_grid)
    loaded = []

    def perf_counter():
        loaded.append(pde._rfft.cache_info().currsize)
        return time.perf_counter()

    monkeypatch.setattr(pde, "time", types.SimpleNamespace(perf_counter=perf_counter))
    for p, level, want in ((builtin, (3, 2), 1), (sampled, (7, 2), 1), (sampled, (3, 2), 0)):
        pde._rfft.cache_clear()
        loaded.clear()
        solve_poisson(p, level)
        assert loaded == [want, want]


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
    # f at the interior nodes i * h_j, in C order.
    axes = [np.arange(1, 2 ** v) * w for v, w in zip(lv, lv.mesh_widths())]
    f = np.array([rhs(pt) for pt in itertools.product(*axes)])
    f = f.reshape([a.size for a in axes])
    f_inf = float(np.abs(f).max())
    assert rep.residual_inf <= 1e-10 * (1.0 + f_inf)
    # Cross-check the reported residual against apply_operator.
    op = apply_operator(u).ndview()[(slice(1, -1),) * d]
    worst = float(np.abs(op - f).max())
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


@pytest.mark.bits
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


@pytest.mark.bits
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


@pytest.mark.bits
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


def _separable_problems(d, seed, twin=False):
    # f = c prod_j g_j(x_j) with smooth random factors g_j(x) =
    # cos(a_j x + b_j) + e_j x^2, given once by its factors and once by its
    # sampled grid only. With ``twin`` directions 0 and 1 share their factor.
    rng = np.random.default_rng(seed)
    a, b, e = rng.uniform(0.5, 6.0, size=(3, d))
    c = float(rng.uniform(-3.0, 3.0))
    if twin:
        a[0], b[0], e[0] = a[1], b[1], e[1]

    def g(j, v):
        x = np.arange(1, 2 ** v) * 2.0 ** -v
        return np.cos(a[j] * x + b[j]) + e[j] * x * x

    def rhs(x):
        return c * math.prod(
            math.cos(a[j] * xj + b[j]) + e[j] * xj * xj for j, xj in enumerate(x)
        )

    def rhs_grid(level):
        return reduce(np.multiply, np.ix_(*[g(j, v) for j, v in enumerate(level)])) * c

    return (
        ProblemSpec(dim=d, rhs=rhs, rhs_factors=(c, g)),
        ProblemSpec(dim=d, rhs=rhs, rhs_grid=rhs_grid),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.integers(min_value=1, max_value=_MAX_LEVEL[d]), min_size=d, max_size=d
        )
    ),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_factored_rhs_matches_sampled(levels, seed):
    # Separable data solved from its factors' 1-D transforms and from its
    # sampled grid: point values and nodal grids agree within the assembled
    # oracle's tolerance (measured worst deviations over 400 such draws:
    # 4e-16 * max|u| for points, 7e-16 * max|u| for grids).
    factored, sampled = _separable_problems(len(levels), seed)
    pts = _probe_points(levels, np.random.default_rng(seed))
    u, _ = solve_poisson(sampled, levels)
    tol = 1e-13 * float(np.max(np.abs(u.values)))
    np.testing.assert_allclose(
        solve_at_points(factored, levels, pts),
        solve_at_points(sampled, levels, pts),
        rtol=0,
        atol=tol,
    )
    v, _ = solve_poisson(factored, levels)
    np.testing.assert_allclose(v.values, u.values, rtol=0, atol=tol)


@pytest.mark.bits
@pytest.mark.parametrize("d", [1, 2, 3])
def test_factor_cache_bit_identical(d):
    # A level's values are the same bits whether the factor transforms it
    # reads were cached while other levels were evaluated or are computed
    # fresh; the cache holds one vector per (direction, level value).
    rng = np.random.default_rng(d)
    pts = rng.uniform(0.0, 1.0, size=(9, d))
    levels = [LevelIndex(rng.integers(1, 8 - d, size=d)) for _ in range(12)]
    for p in (builtin_sine_problem(d), _separable_problems(d, d)[0]):
        table, warm = _PointTable(pts), _Workspace()
        for level in levels:
            _solve_at_table(p, level, table, warm)
        for level in reversed(levels):
            fresh = _solve_at_table(p, level, _PointTable(pts), _Workspace())
            assert _solve_at_table(p, level, table, warm).tobytes() == fresh.tobytes()
            assert solve_at_points(p, level, pts).tobytes() == fresh.tobytes()
        want = {(j, v) for level in levels for j, v in enumerate(level)}
        assert len(warm.factors) == len(want)


def _fresh_array_solve(p, level, axes):
    # The solve with a new array at every stage: the outer products of
    # _outer, the division into a new array and sine_transform (0.5 * DST-I
    # on the FFT path), forward for sampled data and inverse along ``axes``.
    if p.rhs_factors is not None:
        factors = [_factor_coefficients(p, j, level, {}) for j in range(level.dim)]
        numer = _outer(np.multiply, factors)
        numer *= p.rhs_factors[0]
    else:
        numer = _sample_interior_rhs(p, level)
        for axis, v in enumerate(level):
            if v > 1:
                numer = sine_transform(numer, axis)
    scale = 2.0 ** (sum(level) - level.dim)
    out = numer / _outer(np.add, [scale * _eigenvalues_1d(v) for v in level])
    for axis in axes:
        if level[axis] > 1:
            out = sine_transform(out, axis)
    return out


def _fresh_array_point_values(p, level, pts):
    # The point values from _fresh_array_solve along the longest direction.
    level = LevelIndex(level)
    a = level.index(max(level))
    nodal = _fresh_array_solve(p, level, [a])
    return _interpolate_nodal(nodal, level, a, _PointTable(_checked_points(pts, level.dim)))


@pytest.mark.bits
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_solve_poisson_bit_identical(d):
    # solve_poisson's nodal grid, every stage of which runs in two buffers
    # with the FFT stages' 1/2 folded into the denominator, has the bits of
    # the solve with a new array at every stage, and exact zeros on the
    # boundary; for the built-in problem, its sampled-only twin and separable
    # data given by factors and sampled, on grids whose directions mix the
    # FFT path (m >= 127), the direct one and single nodes.
    rng = np.random.default_rng(40 + d)
    tops = {1: (1, 3, 7, 9), 2: (6, 7, 8), 3: (6, 7, 8), 4: (6, 7)}[d]
    levels = {
        LevelIndex(rng.permutation([top, *rng.integers(1, 4, size=d - 1)]).tolist())
        for top in tops
    }
    if d > 1:
        levels |= {LevelIndex((7, 8) + (2,) * (d - 2)), LevelIndex((2,) * (d - 2) + (8, 1))}
    if d == 4:
        # Run in place on the direct stage's transposed product, the FFT
        # stage along direction 1 would change the separable data's bits.
        levels.add(LevelIndex((3, 7, 1, 3)))
    assert any(_uses_fft(2 ** max(lv) - 1) for lv in levels)
    assert d == 1 or any(min(lv) > 1 and not _uses_fft(2 ** min(lv) - 1) for lv in levels)
    builtin = builtin_sine_problem(d)
    sampled = ProblemSpec(dim=d, rhs=builtin.rhs, rhs_grid=builtin.rhs_grid)
    for p in (builtin, sampled, *_separable_problems(d, d)):
        for level in sorted(levels):
            u, _ = solve_poisson(p, level)
            want = np.zeros(level.points_per_direction())
            want[(slice(1, -1),) * d] = _fresh_array_solve(p, level, range(d))
            assert u.ndview().tobytes() == want.tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_workspace_reuse_bit_identical(d):
    # Grids solved one after another into one workspace's two buffers, in
    # ascending, descending and shuffled order, give the bits of a fresh
    # solve_at_points and of the solve with a new array at every stage,
    # although the workspace runs the FFT-path DST-I in place with its 1/2
    # folded into the denominator. The longest directions take the FFT path
    # (m >= 127) and the direct one, and the grid sizes go up and down; the
    # buffers end at exactly the largest grid's size.
    rng = np.random.default_rng(20 + d)
    pts = rng.uniform(0.0, 1.0, size=(7, d))
    levels = sorted({
        LevelIndex(rng.permutation([top, *rng.integers(1, 4, size=d - 1)]).tolist())
        for top in (2, 6, 7, 8, 9, 7, 6)
    } | {LevelIndex((1,) * d)})
    assert any(2 ** max(lv) - 1 > DIRECT_TRANSFORM_MAX for lv in levels)
    assert any(1 < 2 ** max(lv) - 1 <= DIRECT_TRANSFORM_MAX for lv in levels)
    for p in (builtin_sine_problem(d), *_separable_problems(d, d)):
        fresh = {lv: solve_at_points(p, lv, pts) for lv in levels}
        for lv in levels:
            assert _fresh_array_point_values(p, lv, pts).tobytes() == fresh[lv].tobytes()
        shuffled = [levels[i] for i in rng.permutation(len(levels))]
        for order in (levels, levels[::-1], shuffled):
            table, work = _PointTable(pts), _Workspace()
            for lv in order:
                assert _solve_at_table(p, lv, table, work).tobytes() == fresh[lv].tobytes()
            assert work._size == max(lv.interior_count() for lv in levels)


@st.composite
def _fft_levels(draw):
    # A level of at most 2**20 interior nodes at d = 2..4 whose longest
    # direction takes the FFT path, with no tie, with l0 == l1, or with its
    # maximum in direction 2 and in one of directions 0 and 1.
    d = draw(st.integers(min_value=2, max_value=4))
    top = draw(st.integers(min_value=7, max_value=10))
    level = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=d, max_size=d))
    level[draw(st.integers(min_value=0, max_value=d - 1))] = top
    tie = draw(st.sampled_from(["none", "l0 == l1", "maximum in direction 2"]))
    if tie == "l0 == l1":
        level[0] = level[1] = max(level[:2])
    elif tie == "maximum in direction 2" and d > 2:
        level[2] = level[draw(st.integers(min_value=0, max_value=1))] = top
    level = LevelIndex(level)
    assume(level.interior_count() <= 2 ** 20)
    return level


def _solve_counted(p, level, table, work):
    # _solve_at_table and the number of _solve_along calls it made.
    with mock.patch.object(pde, "_solve_along", wraps=pde._solve_along) as spy:
        values = _solve_at_table(p, level, table, work)
    return values, spy.call_count


@pytest.mark.bits
@settings(max_examples=40, deadline=None)
@given(_fft_levels(), st.integers(min_value=0, max_value=2 ** 31 - 1))
# The rows of this level's partner, transposed, are summed by np.matmul in
# another order unless put in C order.
@example(LevelIndex((3, 5, 9)), 0)
# Its own swap: transposed, its nodal array would be transformed along the
# wrong direction.
@example(LevelIndex((7, 7)), 0)
def test_partner_nodal_array_bit_identical(level, seed):
    # An FFT-path level solved right after its partner (the level with its
    # first two directions swapped) reads the partner's nodal array with
    # those axes exchanged instead of solving, and its values have the bytes
    # of a cold solve: for the built-in problem and for separable data whose
    # factors agree in directions 0 and 1 only. A level with l0 == l1 has no
    # partner and is solved again.
    rng = np.random.default_rng(seed)
    pts = np.vstack([_probe_points(level, rng), rng.uniform(size=(30, level.dim))])
    for p in (builtin_sine_problem(level.dim), _separable_problems(level.dim, seed, True)[0]):
        cold = _solve_at_table(p, level, _PointTable(pts), _Workspace())
        table, work = _PointTable(pts), _Workspace()
        _solve_at_table(p, LevelIndex(_swapped(level)), table, work)
        warm, solves = _solve_counted(p, level, table, work)
        assert solves == (level[0] == level[1])
        assert warm.tobytes() == cold.tobytes()


@pytest.mark.bits
def test_partner_with_other_factors_is_solved():
    # Separable data whose factors differ in directions 0 and 1: a level
    # solved right after its partner is solved itself and matches the
    # assembled oracle.
    rng = np.random.default_rng(5)
    for level in (LevelIndex((7, 2)), LevelIndex((2, 7, 1)), LevelIndex((1, 2, 7))):
        p, _ = _separable_problems(level.dim, 11)
        pts = _probe_points(level, rng)
        table, work = _PointTable(pts), _Workspace()
        _solve_at_table(p, LevelIndex(_swapped(level)), table, work)
        got, solves = _solve_counted(p, level, table, work)
        assert solves == 1
        ref = solve_assembled(p, level)
        want = [interp_corners(ref, level, x) for x in pts]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * float(np.max(np.abs(ref))))


@pytest.mark.bits
def test_partner_slot_cleared_by_other_solves():
    # Between a level and its partner, a direct-path solve, an FFT-path solve
    # of another problem or grown buffers leave the partner's nodal array
    # unusable; so does a partner solved for another problem with the same
    # factors. The level is then solved and keeps the bytes of a cold solve.
    p = builtin_sine_problem(3)
    c, g = p.rhs_factors
    sampled = ProblemSpec(dim=3, rhs=p.rhs, rhs_grid=p.rhs_grid)
    level = LevelIndex((2, 7, 1))
    pts = _probe_points(level, np.random.default_rng(3))
    cold = _solve_at_table(p, level, _PointTable(pts), _Workspace())
    # (problem the partner is solved for, what runs between the two solves)
    cases = (
        (p, lambda table, work: _solve_at_table(p, LevelIndex((3, 3, 2)), table, work)),
        (p, lambda table, work: _solve_at_table(sampled, LevelIndex((1, 7, 2)), table, work)),
        (p, lambda table, work: work.reserve(4 * level.interior_count())),
        (dataclasses.replace(p, rhs_factors=(2 * c, g)), lambda table, work: None),
    )
    for first, between in cases:
        table, work = _PointTable(pts), _Workspace()
        _solve_at_table(first, LevelIndex(_swapped(level)), table, work)
        between(table, work)
        warm, solves = _solve_counted(p, level, table, work)
        assert solves == 1
        assert warm.tobytes() == cold.tobytes()


@pytest.mark.bits
def test_partner_factor_of_wrong_shape_raises():
    # A level solved right after its partner still samples its own factors,
    # so one of the wrong shape raises as in a cold solve.
    base = builtin_sine_problem(2)
    c, g = base.rhs_factors

    def short(j, v):
        return g(j, v)[:-1] if (j, v) == (0, 2) else g(j, v)

    p = dataclasses.replace(base, rhs_factors=(c, short))
    table, work = _PointTable(np.array([[0.3, 0.6]])), _Workspace()
    _solve_at_table(p, LevelIndex((7, 2)), table, work)
    with pytest.raises(ValueError, match=r"shape \(2,\) for direction 0 of level \(2, 7\)"):
        _solve_at_table(p, LevelIndex((2, 7)), table, work)


def test_builtin_grid_values_match_decimal_closed_form():
    # Every grid of the HOSG d = 3 plans for n <= 8 (level shift 1) at the
    # default point, against the built-in problem's closed-form grid value in
    # 60-digit arithmetic. The rms of the relative errors was 2.56e-16 when
    # the right-hand side was transformed as a sampled grid; the factors'
    # transforms in extended precision give 1.75e-16 (x86-64), and 2.1-2.4e-16
    # where np.longdouble is float64.
    p = builtin_sine_problem(3)
    x = default_eval_point(3)
    levels = {
        lv for n in range(1, 9) for lv in method_plan("HOSG", 3, n, 1).terms if min(lv) > 0
    }
    errors = []
    for level in sorted(levels):
        ref = builtin_grid_value_decimal(level, x)
        errors.append(float((decimal.Decimal(solve_at_points(p, level, x)[0]) - ref) / ref))
    rms = math.sqrt(math.fsum(e * e for e in errors) / len(errors))
    assert len(errors) == 517
    assert rms < 2.6e-16
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        assert rms < 2.0e-16


# ---------------------------------------------------------------------------
# apply_operator


def test_apply_operator_quadratic_exact():
    # The operator is the plain sum of second differences: u = x(1-x) has
    # u'' = -2 exactly, and the 3-point stencil is exact for quadratics.
    x = np.linspace(0.0, 1.0, 5)
    g = GridFunction((2,), x * (1.0 - x))
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
