"""Finite-difference Poisson solves on anisotropic tensor grids.

The operator is the second-order central discretization of sum_k d^2/dx_k^2
(note the sign: not the negative Laplacian) with homogeneous Dirichlet data on
the unit cube. The primary solver is tensor-product fast diagonalization: the
interior operator is a Kronecker sum of 1D second-difference matrices whose
eigenvectors are discrete sine modes, so a solve is one forward sine transform
per direction, a pointwise division by summed eigenvalues, and the inverse
transforms. Exact to rounding, no iteration tuning.

The forward transforms and the division give the solution's sine
coefficients; ``solve_poisson`` turns them into the nodal grid with the
inverse transforms. ``solve_at_points`` never forms that grid: the
multilinear interpolant is linear in the nodal values and every nodal value
is a sine sum. It applies one inverse transform, along the longest
direction, blends each point's two node rows there and contracts the other
directions' coefficients with one sine weight vector per point and
direction. Those rows, blend weights and sine weight vectors depend only on
the points and on one (direction, level) pair, so grids evaluated at the same
points share them through one point table (``_PointTable``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

from ._lazy import np
from .grid import GridFunction, LevelIndex, Point, _checked_points

__all__ = [
    "ProblemSpec",
    "SolverReport",
    "DegenerateGridError",
    "SolverConvergenceError",
    "builtin_sine_problem",
    "solve_poisson",
    "solve_at_points",
    "apply_operator",
    "sine_transform",
    "inverse_sine_transform",
]

# Largest 1D size solved with the direct O(M^2) sine matrix; larger sizes use
# the FFT-based fast transform. Both paths agree to 1e-12 on overlap.
DIRECT_TRANSFORM_MAX = 64

# The work arrays of one chunk of points hold about max(N, _CHUNK_ENTRIES)
# entries, N being the grid's interior size. A point table keeps per-point
# sine weight blocks of at most _TABLE_ENTRIES entries in all.
_CHUNK_ENTRIES = 2 ** 14
_TABLE_ENTRIES = 64 * _CHUNK_ENTRIES


class DegenerateGridError(ValueError):
    """Raised for grids with no interior node in some direction (l_j = 0)."""


class SolverConvergenceError(RuntimeError):
    """Iterative fallback failed to converge; carries the residual reached."""

    def __init__(self, message: str, residual_inf: float) -> None:
        super().__init__(message)
        self.residual_inf = residual_inf


@dataclass(frozen=True)
class ProblemSpec:
    """A Poisson problem sum_k u_xkxk = f on [0,1]^d with u = 0 on the boundary.

    ``rhs`` maps a point to f(x). ``exact`` (optional) is the true solution,
    used only by studies and tests. ``rhs_grid`` (optional) is a vectorized
    fast path: given a LevelIndex it returns f sampled on the interior nodes
    as an array of shape (2**l_0 - 1, ..., 2**l_{d-1} - 1); it must agree with
    ``rhs`` pointwise.
    """

    dim: int
    rhs: Callable[[Point], float]
    exact: Optional[Callable[[Point], float]] = None
    name: str = "custom"
    rhs_grid: Optional[Callable[[LevelIndex], np.ndarray]] = None


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one grid solve.

    ``residual_inf``, the max-norm interior residual of ``grid`` against the
    interior right-hand side ``rhs``, is computed when it is first read, so a
    caller that never reads it never pays for the stencil.
    """

    level: LevelIndex
    solve_seconds: float
    rhs: np.ndarray = field(repr=False, compare=False)
    grid: GridFunction = field(repr=False, compare=False)

    @cached_property
    def residual_inf(self) -> float:
        inv_h2 = tuple(4.0 ** v for v in self.level)
        residual = _stencil_interior(self.grid.ndview(), inv_h2) - self.rhs
        return float(np.max(np.abs(residual)))


def builtin_sine_problem(d: int) -> ProblemSpec:
    """The separable benchmark: f = d pi^2 prod sin(pi x_i), u = -prod sin(pi x_i)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")

    def rhs(x: Point) -> float:
        prod = 1.0
        for xj in x:
            prod *= np.sin(np.pi * xj)
        return d * np.pi ** 2 * prod

    def exact(x: Point) -> float:
        prod = 1.0
        for xj in x:
            prod *= np.sin(np.pi * xj)
        return -prod

    def rhs_grid(level: LevelIndex) -> np.ndarray:
        out = _outer(np.multiply, [_interior_sines(v) for v in level])
        if len(level) == 1:  # out is the cached vector itself
            return out * (d * np.pi ** 2)
        out *= d * np.pi ** 2
        return out

    return ProblemSpec(dim=d, rhs=rhs, exact=exact, name=f"sine-{d}d", rhs_grid=rhs_grid)


def _interior_axes(level: LevelIndex) -> list[np.ndarray]:
    """Interior node coordinates per direction: (1..2**l-1) * h."""
    return [np.arange(1, 2 ** v) * (2.0 ** -v) for v in level]


@lru_cache(maxsize=32)
def _interior_sines(v: int) -> np.ndarray:
    # sin(pi x) at the interior nodes of a direction at level v, read-only.
    out = np.sin(np.pi * _interior_axes((v,))[0])
    out.setflags(write=False)
    return out


def _outer(op, vectors: list[np.ndarray]) -> np.ndarray:
    """The d-dimensional array (v0[i0] op v1[i1]) op ... op v_{d-1}[i_{d-1}],
    folded from the left by broadcasting; a single vector is returned as is."""
    d = len(vectors)
    out = vectors[0].reshape((-1,) + (1,) * (d - 1))
    for j in range(1, d):
        out = op(out, vectors[j].reshape((-1,) + (1,) * (d - 1 - j)))
    return out


# pi as the sum of two doubles: the float64 pi and its rounding error.
_PI = (math.pi, 1.2246467991473532e-16)


def _double_double(q: Fraction) -> tuple[float, float]:
    hi = float(q)
    return hi, float(q - Fraction(hi))


# 1 / ((2k)(2k+1)) for k = 17 .. 1: the Horner factors of the sine series,
# which on [0, pi/2] is exact to 1e-36 after these terms.
_SINE_SERIES = [_double_double(Fraction(1, 2 * k * (2 * k + 1))) for k in range(17, 0, -1)]


def _split(a):
    # a = hi + lo with both halves at most 26 bits wide (Dekker).
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_mul(x, y):
    """Product of two double-doubles (hi, lo), to about 2**-104 relative."""
    (xh, xl), (yh, yl) = x, y
    p = xh * yh
    (ah, al), (bh, bl) = _split(xh), _split(yh)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += xh * yl + xl * yh
    hi = p + e
    return hi, e - (hi - p)


def _sine_quadrant(n: int) -> np.ndarray:
    """sin(pi q / n) for q = 0 .. n // 2, correctly rounded.

    The angles and the sine series are summed in double-double arithmetic,
    which uses only IEEE additions and multiplications and so gives the
    same bits on every platform. A float64 sine of pi q / n loses accuracy
    to the rounding of pi, by up to about q ulps; even one ulp off in an
    entry such as sin(pi/4) biases every value read at that node, and the
    higher-order combination, whose coefficients reach |c| ~ 6 at d = 3,
    turns such biases into visible noise in its surpluses.
    """
    q = np.arange(n // 2 + 1, dtype=np.float64)
    u_hi = q / n
    p, e = _dd_mul((u_hi, 0.0), (float(n), 0.0))
    x = _dd_mul(_PI, (u_hi, ((q - p) - e) / n))
    x2 = _dd_mul(x, x)
    series = (np.ones_like(q), np.zeros_like(q))
    for factor in _SINE_SERIES:
        t_hi, t_lo = _dd_mul(_dd_mul(x2, series), factor)
        hi = 1.0 - t_hi
        lo = ((1.0 - hi) - t_hi) - t_lo
        series = (hi + lo, lo - ((hi + lo) - hi))
    return _dd_mul(x, series)[0]


@lru_cache(maxsize=32)
def _sine_table(n: int) -> np.ndarray:
    # sin(pi r / n) for r = 0 .. 2n-1, built from the first quadrant by the
    # symmetries of the sine, with exact zeros at r = 0 and r = n.
    quadrant = _sine_quadrant(n)
    half = np.concatenate([quadrant, quadrant[(n - 1) // 2 : 0 : -1]])
    table = np.concatenate([half, -half])
    table[n] = 0.0
    table.setflags(write=False)
    return table


def _sine_rows(m: int, nodes: np.ndarray) -> np.ndarray:
    """Rows of the m x m sine matrix extended to node indices 0 .. m+1: row
    i is sin(i k pi / (m+1)) for k = 1 .. m, zero at the boundary nodes."""
    n = m + 1
    index = np.multiply.outer(nodes, np.arange(1, n))
    np.remainder(index, 2 * n, out=index)
    return _sine_table(n).take(index)


@lru_cache(maxsize=None)
def _sine_matrix(m: int) -> np.ndarray:
    # Symmetric matrix of discrete sine modes: S[j, k] = sin((j+1)(k+1) pi / (m+1)).
    matrix = _sine_rows(m, np.arange(1, m + 1))
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def _scipy_fft():
    # Imported at the first FFT-path transform, so plans and identity checks
    # never load scipy.
    import scipy.fft

    return scipy.fft


@lru_cache(maxsize=None)
def _axis_order(ndim: int, source: int, dest: int) -> tuple[int, ...]:
    # The permutation np.moveaxis(a, source, dest) transposes by: the same
    # view, without its per-call argument normalisation.
    source %= ndim
    order = [j for j in range(ndim) if j != source]
    order.insert(dest % ndim, source)
    return tuple(order)


def sine_transform(a: np.ndarray, axis: int) -> np.ndarray:
    """Forward discrete sine transform along ``axis``.

    out[..., k, ...] = sum_j a[..., j, ...] * sin((j+1)(k+1) pi / (m+1)).
    Small sizes use the direct matrix, larger ones the FFT-based transform.
    """
    m = a.shape[axis]
    if m <= DIRECT_TRANSFORM_MAX:
        last = a.ndim - 1
        moved = a.transpose(_axis_order(a.ndim, axis, last))
        return (moved @ _sine_matrix(m)).transpose(_axis_order(a.ndim, last, axis))
    return 0.5 * _scipy_fft().dst(a, type=1, axis=axis)


def inverse_sine_transform(a: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`sine_transform` (the transform is 2/(m+1) times unitary)."""
    m = a.shape[axis]
    return (2.0 / (m + 1)) * sine_transform(a, axis)


@lru_cache(maxsize=None)
def _eigenvalues_1d(level: int) -> np.ndarray:
    # Eigenvalues of the 1D second-difference operator (u'' convention, so
    # negative): -4 sin^2(k pi h / 2) / h^2 for k = 1 .. 2**level - 1.
    h = 2.0 ** -level
    k = np.arange(1, 2 ** level)
    out = -4.0 * np.sin(np.pi * k * h / 2.0) ** 2 / h ** 2
    out.setflags(write=False)
    return out


def _sine_coefficients(f_int: np.ndarray, level: LevelIndex) -> np.ndarray:
    """Sine coefficients of the discrete solution for interior data ``f_int``.

    Applying :func:`sine_transform` along every direction to the result gives
    the interior nodal values. A direction at level 1 has one interior node
    and a 1x1 sine matrix equal to the identity, so it is not transformed.
    ``f_int`` is not modified.
    """
    work = f_int
    for axis, v in enumerate(level):
        if v > 1:
            work = sine_transform(work, axis)
    # The inverse transforms' factors 2/(m+1) = 2**(1-l) multiply into one
    # power of two on the denominator, which scales every rounding exactly.
    scale = 2.0 ** (sum(level) - level.dim)
    denom = _outer(np.add, [scale * _eigenvalues_1d(v) for v in level])
    if work is f_int:
        return work / denom
    np.divide(work, denom, out=work)
    return work


def _fast_solve_interior(f_int: np.ndarray, level: LevelIndex) -> np.ndarray:
    work = _sine_coefficients(f_int, level)
    for axis, v in enumerate(level):
        if v > 1:
            work = sine_transform(work, axis)
    return work


def _sine_weights(m: int, cells: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Per-point sine weight vectors of a direction with m interior nodes:
    row k is (1 - t) s(c) + t s(c + 1) for the point's cell c and fraction t,
    s(i) being row i of the sine matrix (zero at the boundary nodes)."""
    t = fracs[:, None]
    rows = _sine_rows(m, cells + np.array([[0], [1]]))
    weights = (1.0 - t) * rows[0]
    weights += t * rows[1]
    return weights


class _PointTable:
    """The per-point data of one checked (K, d) point set that every grid
    evaluated at it shares, built per (direction, level) pair at first use.

    ``cells`` gives each point's lower node index and its offset from that
    node in mesh widths (as ``grid._cell_coordinates``); ``blend`` the rows
    of the two nodes a point blends when the direction is a grid's longest
    (row i holds node i + 1) and their weights, zeroed for the boundary
    nodes 0 and m + 1, which hold 0; ``weights`` the K x m sine
    weight vectors of :func:`_sine_weights`, or None once the table's blocks
    would exceed ``_TABLE_ENTRIES`` entries, so that its memory does not grow
    with K beyond the O(K) pieces. Every entry is computed point by point, so
    it holds the bits a grid's own computation would give.
    """

    def __init__(self, pts: np.ndarray) -> None:
        self.pts = pts
        self._cells: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._blends: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._weights: dict[tuple[int, int], Optional[np.ndarray]] = {}
        self._room = _TABLE_ENTRIES

    def cells(self, j: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self._cells.get((j, v))
        if entry is None:
            n = 2 ** v  # cells per direction; the scaling is exact
            t = self.pts[:, j] * n
            c = np.minimum(t.astype(np.intp), n - 1)
            entry = self._cells[j, v] = (c, t - c)
        return entry

    def blend(self, j: int, v: int) -> tuple[np.ndarray, ...]:
        entry = self._blends.get((j, v))
        if entry is None:
            c, f = self.cells(j, v)
            m = 2 ** v - 1
            entry = self._blends[j, v] = (
                np.maximum(c - 1, 0),
                np.where(c > 0, 1.0 - f, 0.0),
                np.minimum(c, m - 1),
                np.where(c < m, f, 0.0),
            )
        return entry

    def weights(self, j: int, v: int) -> Optional[np.ndarray]:
        key = (j, v)
        if key not in self._weights:
            size = len(self.pts) * (2 ** v - 1)
            block = None
            if size <= self._room:
                self._room -= size
                block = _sine_weights(2 ** v - 1, *self.cells(j, v))
            self._weights[key] = block
        return self._weights[key]


def _interpolate_coefficients(
    coeffs: np.ndarray, level: LevelIndex, table: _PointTable
) -> np.ndarray:
    """Values of the multilinear interpolant of the grid with sine coefficients
    ``coeffs`` at the points of ``table``.

    The longest direction is turned into nodal values by one sine transform,
    shared by all points, and each point blends the two node rows around it.
    In every other direction a point's sine weight vector is contracted by
    one stacked product over the points. Each point runs the same
    fixed-shape operations, so its value does not depend on the other
    points. Points are taken in chunks whose work arrays are no larger than
    the grid (or ``_CHUNK_ENTRIES``), whatever their number; the table's
    per-point arrays are sliced per chunk, and weight vectors it does not
    keep are built per chunk.
    """
    a = level.index(max(level))
    m = 2 ** level[a] - 1
    # Values at the interior nodes 1 .. m of the longest direction (moved to
    # the front), over the sine coefficients of the others.
    nodal = (sine_transform(coeffs, a) if m > 1 else coeffs).transpose(
        _axis_order(level.dim, a, 0)
    )
    lower, lower_w, upper, upper_w = table.blend(a, level[a])
    others = [
        (j, level[j], table.weights(j, level[j]))
        for j in reversed(range(level.dim))
        if j != a
    ]
    per_point = (-1,) + (1,) * len(others)
    step = max(nodal.size, _CHUNK_ENTRIES) * m // nodal.size
    out = np.empty(len(table.pts))
    for start in range(0, len(out), step):
        stop = start + step
        # Each point blends its two node rows. Indexing gives fresh C-ordered
        # rows whatever the number of points (a strided view can send a lone
        # point's np.matmul down another summation path).
        work = nodal[lower[start:stop]]
        k = len(work)
        work *= lower_w[start:stop].reshape(per_point)
        up = nodal[upper[start:stop]]
        up *= upper_w[start:stop].reshape(per_point)
        work += up
        del up
        for j, v, block in others:
            if block is None:
                c, f = table.cells(j, v)
                weights = _sine_weights(2 ** v - 1, c[start:stop], f[start:stop])
            else:
                weights = block[start:stop]
            work = np.matmul(work.reshape(k, -1, weights.shape[1]), weights[:, :, None])
        out[start:stop] = work.reshape(k)
    return out


def _stencil_interior(full: np.ndarray, inv_h2: tuple[float, ...]) -> np.ndarray:
    """Apply the 2d+1-point stencil to a full nodal array; returns interior values."""
    d = full.ndim
    core = tuple(slice(1, -1) for _ in range(d))
    acc: Optional[np.ndarray] = None
    for k in range(d):
        lo = list(core)
        hi = list(core)
        lo[k] = slice(0, -2)
        hi[k] = slice(2, None)
        term = (full[tuple(hi)] - 2.0 * full[core] + full[tuple(lo)]) * inv_h2[k]
        acc = term if acc is None else acc + term
    assert acc is not None
    return acc


def _sample_interior_rhs(p: ProblemSpec, level: LevelIndex) -> np.ndarray:
    if p.rhs_grid is not None:
        arr = np.asarray(p.rhs_grid(level), dtype=np.float64)
        expected = tuple(2 ** v - 1 for v in level)
        if arr.shape != expected:
            raise ValueError(
                f"rhs_grid returned shape {arr.shape}, expected {expected}"
            )
        return arr
    axes = _interior_axes(level)
    shape = tuple(2 ** v - 1 for v in level)
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        out[idx] = p.rhs(tuple(axes[j][i] for j, i in enumerate(idx)))
    return out


def _cg_solve_interior(f_int: np.ndarray, level: LevelIndex) -> np.ndarray:
    import scipy.sparse.linalg  # only the CG solver needs scipy.sparse

    inv_h2 = tuple(4.0 ** v for v in level)
    shape = f_int.shape
    n = f_int.size
    full_shape = tuple(m + 2 for m in shape)
    core = tuple(slice(1, -1) for _ in shape)

    def matvec(vec: np.ndarray) -> np.ndarray:
        full = np.zeros(full_shape)
        full[core] = vec.reshape(shape)
        return _stencil_interior(full, inv_h2).reshape(-1)

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec)
    b = f_int.reshape(-1)
    try:
        sol, info = scipy.sparse.linalg.cg(op, b, rtol=1e-12, atol=0.0, maxiter=10 * n)
    except TypeError:  # older scipy spells the relative tolerance "tol"
        sol, info = scipy.sparse.linalg.cg(op, b, tol=1e-12, atol=0.0, maxiter=10 * n)
    if info != 0:
        res = float(np.max(np.abs(matvec(sol) - b)))
        raise SolverConvergenceError(
            f"CG did not converge on grid {tuple(level)} (info={info}), "
            f"residual_inf={res:.3e}",
            residual_inf=res,
        )
    return sol.reshape(shape)


def _solvable_level(p: ProblemSpec, l) -> LevelIndex:
    level = LevelIndex(l)
    if p.dim != level.dim:
        raise ValueError(f"problem is {p.dim}-dimensional, level {tuple(level)}")
    if any(v == 0 for v in level):
        raise DegenerateGridError(
            f"degenerate grid {tuple(level)}: no interior node in some direction"
        )
    return level


def solve_poisson(
    p: ProblemSpec, l, method: str = "fast"
) -> tuple[GridFunction, SolverReport]:
    """Solve the discrete problem on the grid at level ``l``.

    Returns the nodal solution (boundary entries exactly 0) and a report whose
    max-norm interior residual is measured when first read (``solve_seconds``
    does not include it). Both solver paths produce the solution in
    a single pass: the fast path is a direct method, exact up to rounding, so
    re-solving against the measured residual cannot improve the stored
    solution and is never attempted. The reported residual is the honestly
    measured value; note that evaluating the stencil in float64 scales nodal
    values by h_k^-2 before cancellation, so on strongly anisotropic grids
    (max l_j >= ~12) the measurement itself saturates near
    eps * sum_k h_k^-2 * (1 + max|u_h|) even though the solution is accurate.
    """
    level = _solvable_level(p, l)
    if method not in ("fast", "cg"):
        raise ValueError(f"unknown solver method {method!r}")

    t0 = time.perf_counter()
    f_int = _sample_interior_rhs(p, level)
    solve = _fast_solve_interior if method == "fast" else _cg_solve_interior
    full = np.zeros(level.points_per_direction())
    full[tuple(slice(1, -1) for _ in level)] = solve(f_int, level)
    grid = GridFunction._from_owned(level, full)
    report = SolverReport(
        level=level, solve_seconds=time.perf_counter() - t0, rhs=f_int, grid=grid
    )
    return grid, report


def solve_at_points(p: ProblemSpec, l, x) -> np.ndarray:
    """Values at ``x`` of the multilinear interpolant of the fast solution on
    the grid at level ``l``, without forming the nodal grid.

    ``x`` is one point or a (K, d) array of points; K values are returned.
    The solve is the one :func:`solve_poisson` makes up to its sine
    coefficients. Of the inverse transforms only the one along the longest
    direction is applied; the other directions are contracted with each
    point's interpolation weights. The values agree with
    ``multilinear_eval(solve_poisson(p, l)[0], x)`` to rounding, and each
    one is bit-identical whatever other points are evaluated with it. Points
    are taken in chunks, so temporaries stay within a few times the grid's
    interior size for any K; the per-point work is about the grid's size
    divided by its longest direction's node count, so for K far above that
    count the nodal grid of :func:`solve_poisson` is the cheaper route.
    """
    level = _solvable_level(p, l)
    return _solve_at_table(p, level, _PointTable(_checked_points(x, level.dim)))


def _solve_at_table(p: ProblemSpec, level: LevelIndex, table: _PointTable) -> np.ndarray:
    """:func:`solve_at_points` for a solvable ``level`` of ``p`` at the points
    of ``table``, which the grids evaluated at those points share."""
    coeffs = _sine_coefficients(_sample_interior_rhs(p, level), level)
    return _interpolate_coefficients(coeffs, level, table)


def apply_operator(g: GridFunction) -> GridFunction:
    """Apply the discrete operator to ``g``: interior stencil values, boundary 0."""
    level = g.level
    if any(v == 0 for v in level):
        raise DegenerateGridError(
            f"degenerate grid {tuple(level)}: operator needs interior nodes"
        )
    inv_h2 = tuple(4.0 ** v for v in level)
    out = np.zeros(level.points_per_direction())
    core = tuple(slice(1, -1) for _ in level)
    out[core] = _stencil_interior(g.ndview(), inv_h2)
    return GridFunction._from_owned(level, out)
