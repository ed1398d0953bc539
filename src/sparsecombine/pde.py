"""Finite-difference Poisson solves on anisotropic tensor grids.

The operator is the second-order central discretization of sum_k d^2/dx_k^2
(note the sign: not the negative Laplacian) with homogeneous Dirichlet data on
the unit cube. The primary solver is tensor-product fast diagonalization: the
interior operator is a Kronecker sum of 1D second-difference matrices whose
eigenvectors are discrete sine modes, so a solve is one forward sine transform
per direction, a pointwise division by summed eigenvalues, and the inverse
transforms. Exact to rounding, no iteration tuning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Callable, Optional

import numpy as np
import scipy.fft
import scipy.sparse.linalg

from .grid import GridFunction, LevelIndex, Point

__all__ = [
    "ProblemSpec",
    "SolverReport",
    "DegenerateGridError",
    "SolverConvergenceError",
    "builtin_sine_problem",
    "solve_poisson",
    "apply_operator",
    "sine_transform",
    "inverse_sine_transform",
]

# Largest 1D size solved with the direct O(M^2) sine matrix; larger sizes use
# the FFT-based fast transform. Both paths agree to 1e-12 on overlap.
DIRECT_TRANSFORM_MAX = 64



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
        sines = [np.sin(np.pi * ax) for ax in _interior_axes(level)]
        out = reduce(np.multiply, np.ix_(*sines))
        out *= d * np.pi ** 2
        return out

    return ProblemSpec(dim=d, rhs=rhs, exact=exact, name=f"sine-{d}d", rhs_grid=rhs_grid)


def _interior_axes(level: LevelIndex) -> list[np.ndarray]:
    """Interior node coordinates per direction: (1..2**l-1) * h."""
    return [np.arange(1, 2 ** v) * (2.0 ** -v) for v in level]


@lru_cache(maxsize=None)
def _sine_matrix(m: int) -> np.ndarray:
    # Symmetric matrix of discrete sine modes: S[j, k] = sin((j+1)(k+1) pi / (m+1)).
    j = np.arange(1, m + 1)
    return np.sin(np.pi / (m + 1) * np.outer(j, j))


def sine_transform(a: np.ndarray, axis: int) -> np.ndarray:
    """Forward discrete sine transform along ``axis``.

    out[..., k, ...] = sum_j a[..., j, ...] * sin((j+1)(k+1) pi / (m+1)).
    Small sizes use the direct matrix, larger ones the FFT-based transform.
    """
    m = a.shape[axis]
    if m <= DIRECT_TRANSFORM_MAX:
        moved = np.moveaxis(a, axis, -1)
        return np.moveaxis(moved @ _sine_matrix(m), -1, axis)
    return 0.5 * scipy.fft.dst(a, type=1, axis=axis)


def inverse_sine_transform(a: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`sine_transform` (the transform is 2/(m+1) times unitary)."""
    m = a.shape[axis]
    return (2.0 / (m + 1)) * sine_transform(a, axis)


def _eigenvalues_1d(level: int) -> np.ndarray:
    # Eigenvalues of the 1D second-difference operator (u'' convention, so
    # negative): -4 sin^2(k pi h / 2) / h^2 for k = 1 .. 2**level - 1.
    h = 2.0 ** -level
    k = np.arange(1, 2 ** level)
    return -4.0 * np.sin(np.pi * k * h / 2.0) ** 2 / h ** 2


def _fast_solve_interior(f_int: np.ndarray, level: LevelIndex) -> np.ndarray:
    work = np.asarray(f_int, dtype=np.float64)
    for axis in range(level.dim):
        work = sine_transform(work, axis)
    # The inverse transforms' factors 2/(m+1) = 2**(1-l) multiply into one
    # power of two on the denominator, which scales every rounding exactly.
    scale = 2.0 ** (sum(level) - level.dim)
    denom = reduce(np.add, np.ix_(*[scale * _eigenvalues_1d(v) for v in level]))
    np.divide(work, denom, out=work)
    for axis in range(level.dim):
        work = sine_transform(work, axis)
    return work


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
    level = LevelIndex(l)
    if p.dim != level.dim:
        raise ValueError(f"problem is {p.dim}-dimensional, level {tuple(level)}")
    if any(v == 0 for v in level):
        raise DegenerateGridError(
            f"degenerate grid {tuple(level)}: no interior node in some direction"
        )
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
