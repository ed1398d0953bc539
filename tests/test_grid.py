import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecombine.grid import (
    GridFunction,
    LevelIndex,
    enumerate_nodes,
    multilinear_eval,
)

from oracles import interp_corners


# ---------------------------------------------------------------------------
# LevelIndex


def test_mesh_widths_examples():
    assert LevelIndex((0, 0)).mesh_widths() == (1.0, 1.0)
    assert LevelIndex((3,)).mesh_widths() == (0.125,)
    assert LevelIndex((2, 5, 1)).mesh_widths() == (0.25, 0.03125, 0.5)


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


def test_shifted():
    assert LevelIndex((0, 3)).shifted(2) == (2, 5)


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
    assert lv.mesh_widths() == tuple(2.0 ** -v for v in levels)


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
        assert fine.mesh_widths()[j] == factor * lv.mesh_widths()[j]


# ---------------------------------------------------------------------------
# enumerate_nodes


def test_enumerate_nodes_1d():
    nodes = list(enumerate_nodes((1,)))
    assert nodes == [((0,), (0.0,)), ((1,), (0.5,)), ((2,), (1.0,))]


def test_enumerate_nodes_corners():
    nodes = list(enumerate_nodes((0, 0)))
    assert len(nodes) == 4
    assert {pt for _, pt in nodes} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumerate_nodes_order_and_count():
    nodes = list(enumerate_nodes((2, 1)))
    assert len(nodes) == 15
    assert nodes[0] == ((0, 0), (0.0, 0.0))
    assert nodes[-1] == ((4, 2), (1.0, 1.0))


def test_enumerate_matches_values_order():
    g = GridFunction.from_callable((2, 1), lambda x: 10 * x[0] + x[1])
    for flat, (_, pt) in zip(g.values, enumerate_nodes((2, 1))):
        assert flat == 10 * pt[0] + pt[1]


# ---------------------------------------------------------------------------
# GridFunction


def test_gridfunction_immutability():
    g = GridFunction.zeros((2, 2))
    with pytest.raises((ValueError, RuntimeError)):
        g.values[0] = 1.0
    with pytest.raises(AttributeError):
        g.level = LevelIndex((1, 1))


def test_gridfunction_size_validation():
    with pytest.raises(ValueError):
        GridFunction((2,), np.zeros(4))


def test_ndview_shape():
    g = GridFunction.zeros((3, 1))
    assert g.ndview().shape == (9, 3)
    assert g.shape == (9, 3)


def test_from_callable_vectorized_agrees():
    fn = lambda x: math.sin(x[0]) + 2.0 * x[1]
    vec = lambda a, b: np.sin(a) + 2.0 * b
    g1 = GridFunction.from_callable((3, 2), fn)
    g2 = GridFunction.from_callable((3, 2), vec, vectorized=True)
    np.testing.assert_array_equal(g1.values, g2.values)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_serialization_roundtrip(levels, seed):
    lv = LevelIndex(levels)
    rng = np.random.default_rng(seed)
    g = GridFunction(lv, rng.standard_normal(lv.node_count()))
    back = GridFunction.from_bytes(g.to_bytes())
    assert back.level == g.level
    np.testing.assert_array_equal(back.values, g.values)


def test_serialization_file_roundtrip(tmp_path):
    g = GridFunction.from_callable((2, 3), lambda x: x[0] * x[1])
    path = tmp_path / "grid.bin"
    g.save(path)
    back = GridFunction.load(path)
    np.testing.assert_array_equal(back.values, g.values)
    assert back.level == g.level


def test_serialization_header_layout():
    g = GridFunction.zeros((1, 2))
    buf = g.to_bytes()
    assert buf[:4] == (2).to_bytes(4, "little")
    assert buf[4:8] == (1).to_bytes(4, "little")
    assert buf[8:12] == (2).to_bytes(4, "little")
    assert len(buf) == 12 + 8 * 15


def test_serialization_truncation_detected():
    g = GridFunction.zeros((2,))
    with pytest.raises(ValueError):
        GridFunction.from_bytes(g.to_bytes()[:-1])


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
    g = GridFunction.from_callable((1, 1), lambda x: x[0] * x[1])
    assert multilinear_eval(g, (0.3, 0.7)) == pytest.approx(0.21, abs=1e-15)


def test_eval_exact_at_nodes():
    g = GridFunction.from_callable((2, 3), lambda x: math.cos(x[0] + 2 * x[1]))
    for idx, pt in enumerate_nodes(g.level):
        assert multilinear_eval(g, pt) == g.ndview()[idx]


def test_eval_outside_cube_rejected():
    g = GridFunction.zeros((1, 1))
    with pytest.raises(ValueError):
        multilinear_eval(g, (0.5, 1.2))
    with pytest.raises(ValueError):
        multilinear_eval(g, (-0.1, 0.5))


def test_eval_dimension_mismatch():
    g = GridFunction.zeros((1, 1))
    with pytest.raises(ValueError):
        multilinear_eval(g, (0.5,))


def test_boundary_points_use_last_cell():
    g = GridFunction.from_callable((2,), lambda x: 3.0 * x[0] - 1.0)
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

    g = GridFunction.from_callable(levels, fn)
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

    def u_vec(*axes):
        out = 1.0
        for a in axes:
            out = out * np.sin(np.pi * a)
        return out

    def u_pt(x):
        out = 1.0
        for xj in x:
            out *= math.sin(math.pi * xj)
        return out

    def max_err(n):
        g = GridFunction.from_callable((n,) * d, u_vec, vectorized=True)
        return max(abs(multilinear_eval(g, tuple(p)) - u_pt(p)) for p in pts)

    for n in n_range:
        ratio = max_err(n) / max_err(n + 1)
        assert 3.2 <= ratio <= 4.8
