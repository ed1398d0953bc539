import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecombine.grid import (
    GridFunction,
    LevelIndex,
    multilinear_eval,
)

from oracles import interp_corners


def sampled(level, fn) -> GridFunction:
    # The grid function of fn's values at the nodes of ``level``; fn takes the
    # d full coordinate arrays of np.meshgrid as one sequence x.
    axes = [np.linspace(0.0, 1.0, m) for m in LevelIndex(level).points_per_direction()]
    return GridFunction(level, fn(np.meshgrid(*axes, indexing="ij")))


def mesh_widths(level) -> tuple[float, ...]:
    # The node spacing per direction, from the node counts.
    return tuple(1.0 / (m - 1) for m in LevelIndex(level).points_per_direction())


# ---------------------------------------------------------------------------
# LevelIndex


def test_mesh_widths_examples():
    assert mesh_widths((0, 0)) == (1.0, 1.0)
    assert mesh_widths((3,)) == (0.125,)
    assert mesh_widths((2, 5, 1)) == (0.25, 0.03125, 0.5)


def test_refine_examples():
    assert LevelIndex((2, 2)).refine(set()) == (2, 2)
    assert LevelIndex((2, 2)).refine({0}) == (3, 2)
    assert LevelIndex((1, 0, 4)).refine({0, 2}) == (2, 0, 5)


def test_refine_out_of_range():
    with pytest.raises(IndexError):
        LevelIndex((1, 1)).refine({2})


def test_level_validation():
    with pytest.raises(ValueError):
        LevelIndex(())
    with pytest.raises(ValueError):
        LevelIndex((1, -1))


@pytest.mark.parametrize(
    "bad", [1.7, 2.0, "3", None, np.float64(2.0)], ids=["1.7", "2.0", "str", "None", "np.float64"]
)
def test_level_entries_must_be_integers(bad):
    # A float is not truncated and a string is not parsed: either raises
    # ValueError naming the entry.
    with pytest.raises(ValueError, match=re.escape(f"level entry {bad!r} is not an integer")):
        LevelIndex((bad, 2))


def test_level_accepts_numpy_integers():
    lv = LevelIndex(np.array([3, 1], dtype=np.int64))
    assert lv == (3, 1)
    assert all(type(v) is int for v in lv)


def test_shifted():
    lv = LevelIndex((0, 3))
    assert lv.shifted(2) == (2, 5)
    assert type(lv.shifted(2)) is LevelIndex


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6)
)
def test_counts_match_closed_forms(levels):
    lv = LevelIndex(levels)
    node = 1
    interior = 1
    for v in levels:
        node *= 2 ** v + 1
        interior *= 2 ** v - 1
    assert lv.node_count() == node
    assert lv.interior_count() == interior
    assert mesh_widths(lv) == tuple(2.0 ** -v for v in levels)


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    st.data(),
)
def test_refine_halves_widths(levels, data):
    lv = LevelIndex(levels)
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=lv.dim - 1)))
    fine = lv.refine(subset)
    for j in range(lv.dim):
        factor = 0.5 if j in subset else 1.0
        assert mesh_widths(fine)[j] == factor * mesh_widths(lv)[j]


def test_enumerate_matches_values_order():
    # Values are flat in lexicographic (C) order of the node index tuple.
    g = sampled((2, 1), lambda x: 10 * x[0] + x[1])
    h = mesh_widths(g.level)
    indices = list(np.ndindex(*g.shape))
    assert len(indices) == g.values.size == 15
    assert indices[0] == (0, 0) and indices[-1] == (4, 2)
    for flat, idx in zip(g.values, indices):
        pt = tuple(i * w for i, w in zip(idx, h))
        assert flat == 10 * pt[0] + pt[1]


# ---------------------------------------------------------------------------
# GridFunction


def test_gridfunction_immutability():
    g = GridFunction((2, 2), np.zeros(25))
    with pytest.raises((ValueError, RuntimeError)):
        g.values[0] = 1.0
    with pytest.raises(AttributeError):
        g.level = LevelIndex((1, 1))


def test_gridfunction_size_validation():
    with pytest.raises(ValueError):
        GridFunction((2,), np.zeros(4))


def test_ndview_shape():
    g = GridFunction((3, 1), np.zeros(27))
    assert g.ndview().shape == (9, 3)
    assert g.shape == (9, 3)


# ---------------------------------------------------------------------------
# multilinear_eval


def test_constant_reproduced():
    g = GridFunction((2, 2), np.full(25, 3.25))
    for pt in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.9), (0.5, 0.25)]:
        assert multilinear_eval(g, pt) == pytest.approx(3.25, abs=1e-15)


def test_linear_segment_midpoint():
    g = GridFunction((1,), [0.0, 0.5, 0.0])
    assert multilinear_eval(g, (0.25,)) == pytest.approx(0.25, abs=1e-15)


def test_bilinear_product_frozen():
    # x*y is bilinear on every cell, so interpolation reproduces it; at
    # (0.3, 0.7) the exact value is 0.21.
    g = sampled((1, 1), lambda x: x[0] * x[1])
    assert multilinear_eval(g, (0.3, 0.7)) == pytest.approx(0.21, abs=1e-15)


def test_eval_exact_at_nodes():
    g = sampled((2, 3), lambda x: np.cos(x[0] + 2 * x[1]))
    h = mesh_widths(g.level)
    for idx in np.ndindex(*g.shape):
        pt = tuple(i * w for i, w in zip(idx, h))
        assert multilinear_eval(g, pt) == g.ndview()[idx]


def test_eval_outside_cube_rejected():
    g = GridFunction((1, 1), np.zeros(9))
    with pytest.raises(ValueError):
        multilinear_eval(g, (0.5, 1.2))
    with pytest.raises(ValueError):
        multilinear_eval(g, (-0.1, 0.5))


def test_eval_dimension_mismatch():
    g = GridFunction((1, 1), np.zeros(9))
    with pytest.raises(ValueError):
        multilinear_eval(g, (0.5,))


@pytest.mark.bits
@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_batched_eval_matches_single_points(d, seed):
    # A (K, d) array gives, bit for bit, the K values of K one-point calls,
    # including the faces x_j = 0 and 1 and grid nodes.
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 5, size=d)
    g = GridFunction(levels, rng.standard_normal(LevelIndex(levels).node_count()))
    pts = rng.uniform(0.0, 1.0, size=(12, d))
    pts[0] = 0.0
    pts[1] = 1.0
    pts[2] = rng.integers(0, 2 ** levels + 1) * 2.0 ** -levels
    pts[3, rng.integers(0, d)] = rng.integers(0, 2)
    batched = multilinear_eval(g, pts)
    singles = [multilinear_eval(g, tuple(q)) for q in pts]
    assert all(type(v) is float for v in singles)
    assert batched.shape == (12,)
    assert batched.tolist() == singles


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0.5, 1.2), "coordinate 1 = 1.2 outside [0, 1]"),
        ((-0.1, 0.5), "coordinate 0 = -0.1 outside [0, 1]"),
        ((float("nan"), 0.5), "coordinate 0 = nan outside [0, 1]"),
        ((0.5,), "point has 1 coords, expected 2"),
    ],
)
def test_bad_point_same_error_alone_or_in_array(bad, message):
    g = GridFunction((1, 1), np.zeros(9))
    good = (0.25,) if len(bad) == 1 else (0.25, 0.5)
    for x in (bad, [good, bad, good]):
        with pytest.raises(ValueError, match=re.escape(message)):
            multilinear_eval(g, x)


def test_eval_rejects_empty_and_nested_point_arrays():
    g = GridFunction((1, 1), np.zeros(9))
    with pytest.raises(ValueError, match="no evaluation point"):
        multilinear_eval(g, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="one point or a"):
        multilinear_eval(g, np.zeros((3, 2, 2)))


def test_boundary_points_use_last_cell():
    g = sampled((2,), lambda x: 3.0 * x[0] - 1.0)
    assert multilinear_eval(g, (1.0,)) == pytest.approx(2.0, abs=1e-15)
    assert multilinear_eval(g, (0.0,)) == pytest.approx(-1.0, abs=1e-15)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_multilinear_functions_reproduced(d, seed):
    # Products of per-direction affine factors are multilinear on every cell,
    # so the interpolant must reproduce them to rounding at random points.
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(d, 2))
    levels = rng.integers(0, 4, size=d)

    def fn(x):
        out = 1.0
        for j, xj in enumerate(x):
            out *= coeffs[j, 0] + coeffs[j, 1] * xj
        return out

    g = sampled(levels, fn)
    for _ in range(25):
        pt = tuple(rng.uniform(0.0, 1.0, size=d))
        expected = fn(pt)
        got = multilinear_eval(g, pt)
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)


@settings(max_examples=25)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_eval_matches_corner_oracle(levels, seed):
    rng = np.random.default_rng(seed)
    lv = LevelIndex(levels)
    g = GridFunction(lv, rng.standard_normal(lv.node_count()))
    for _ in range(10):
        pt = tuple(rng.uniform(0.0, 1.0, size=lv.dim))
        assert multilinear_eval(g, pt) == pytest.approx(
            interp_corners(g.ndview(), lv, pt), rel=1e-13, abs=1e-13
        )


@pytest.mark.parametrize("d,n_range", [(1, range(4, 9)), (2, range(4, 9)), (3, range(4, 6))])
def test_interpolation_error_second_order(d, n_range):
    # Sampling u = prod sin(pi x_j) on isotropic levels n and n+1: the max
    # interpolation error over random points drops by a factor in [3.2, 4.8].
    # d = 3 is sampled on a reduced level range to keep the grids desk-sized.
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(0.0, 1.0, size=(1000, d))

    def u_vec(x):
        out = 1.0
        for a in x:
            out = out * np.sin(np.pi * a)
        return out

    def u_pt(x):
        out = 1.0
        for xj in x:
            out *= math.sin(math.pi * xj)
        return out

    def max_err(n):
        g = sampled((n,) * d, u_vec)
        return max(abs(multilinear_eval(g, tuple(p)) - u_pt(p)) for p in pts)

    for n in n_range:
        ratio = max_err(n) / max_err(n + 1)
        assert 3.2 <= ratio <= 4.8
