"""Finite-difference Poisson solves on anisotropic tensor grids.

The operator is the second-order central discretization of sum_k d^2/dx_k^2
(note the sign: not the negative Laplacian) with homogeneous Dirichlet data on
the unit cube. The solver is tensor-product fast diagonalization: the
interior operator is a Kronecker sum of 1D second-difference matrices whose
eigenvectors are discrete sine modes, so a solve is one forward sine transform
per direction, a pointwise division by summed eigenvalues, and the inverse
transforms. Exact to rounding, no iteration tuning.

One stage solves every grid (``_solve_along``): the sine coefficients, the
division and at most one inverse transform. ``solve_poisson`` transforms its
quotient back along every direction into the nodal grid. ``solve_at_points``
never forms that grid: the multilinear interpolant is linear in the nodal
values and every nodal value is a sine sum. It asks for the longest
direction only, blends each point's two node rows there and contracts the
other directions' coefficients with one sine weight vector per point and
direction. Those rows, blend weights and sine weight vectors depend only on
the points and on one (direction, level) pair, so grids evaluated at the
same points share them through one point table (``_PointTable``).

For separable data f = c * prod_j g_j(x_j) (``ProblemSpec.rhs_factors``) the
right-hand side's sine coefficients are the outer product of the factors' 1-D
sine transforms, so no N-sized array is transformed before the division.
Those 1-D transforms are computed in ``np.longdouble`` and rounded once to
float64, and grids evaluated together share them per (direction, level).
Where ``np.longdouble`` is float64 (Windows, macOS on arm64) they have
float64 accuracy.

A solve forms the quotient of the right-hand side's sine coefficients by the
summed eigenvalues in the two float64 buffers of a workspace
(``_Workspace``), shared with the factor transforms by the grids solved one
after another. The numerator (the factors' outer product times c) and the
eigenvalue denominator are each formed in one of them by one broadcast of
the fold over the first d-1 directions with the last, in the fold's
association order (a fold over d-1 directions is at most a third of the
grid; a last direction with one node is applied in place); the quotient
overwrites the denominator. At most one inverse stage runs there, along the
longest direction: a matmul into the other buffer, or an unscaled DST-I in
place on buffers laid out with that direction last in memory, its 1/2 folded
with the inverse transforms' factors into one power of two
2**-(|l|_1 - d + 1) on c (or on the quotient of sampled data), which scales
every rounding exactly. Sampled data's forward transforms (in the
workspace's FFT chunk buffers) and ``solve_poisson``'s inverse ones run
stage by stage through ``sine_transform``'s body into new arrays. Every
DST-I works through chunks of lines (``_FFT_CHUNK_ENTRIES``). So every value
keeps the bits of ``sine_transform`` applied to a new array at every stage,
and sampled data is never written.

The DST-I (``_dst1``) is the one pocketfft computes, run through numpy's
own pocketfft (``numpy.fft.rfft``, numpy >= 2.0 for its ``out=`` and its
``np.longdouble`` transforms), with scipy's bits. numpy is the one runtime
dependency: a solve does not import ``scipy.fft``, which loads
``scipy.special`` (about 27 MiB and 0.35 s).

The workspace also keeps the last FFT-path grid's nodal array (a view of a
buffer). The level with the first two directions swapped, solved next for
the same separable problem with byte-equal factor transforms in those two
directions, reads it with axes 0 and 1 exchanged and runs only the point
stage; its values have the bits of its own solve (``_partner_nodal``).
Plan evaluation solves each level right after that partner.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

from ._lazy import np
from .grid import GridFunction, Point, _cell_coordinates, _checked_level, _checked_points

__all__ = [
    "ProblemSpec",
    "SolverReport",
    "DegenerateGridError",
    "builtin_sine_problem",
    "solve_poisson",
    "solve_at_points",
    "apply_operator",
]

# Largest 1D size solved with the direct O(M^2) sine matrix; larger sizes use
# the FFT-based fast transform. Both paths agree to 1e-12 on overlap.
DIRECT_TRANSFORM_MAX = 64

# The work arrays of one chunk of points hold about max(N, _CHUNK_ENTRIES)
# entries, N being the grid's interior size. A point table keeps per-point
# sine weight blocks of at most _TABLE_ENTRIES entries in all.
_CHUNK_ENTRIES = 2 ** 14
_TABLE_ENTRIES = 64 * _CHUNK_ENTRIES

# The FFT-path lines of one chunk hold at most about _FFT_CHUNK_ENTRIES
# entries once extended for their DST-I (or one line when that is longer).
_FFT_CHUNK_ENTRIES = 2 ** 15


class DegenerateGridError(ValueError):
    """Raised for grids with no interior node in some direction (l_j = 0)."""


@dataclass(frozen=True)
class ProblemSpec:
    """A Poisson problem sum_k u_xkxk = f on [0,1]^d with u = 0 on the boundary.

    ``rhs`` maps a point to f(x). ``exact`` (optional) is the true solution,
    used only by studies and tests. ``rhs_grid`` (optional) is a vectorized
    fast path: given a level (a tuple of ints) it returns f sampled on the
    interior nodes as an array of shape (2**l_0 - 1, ..., 2**l_{d-1} - 1); it
    must agree with ``rhs`` pointwise.

    ``rhs_factors`` (optional) declares separable data f = c * prod_j
    g_j(x_j) as a pair ``(c, g)``: ``g(j, v)`` returns g_j at the 2**v - 1
    interior nodes of direction j at level v. The solvers then take f's sine
    coefficients from the factors' 1-D transforms (computed in
    ``np.longdouble``, which is float64 on Windows and macOS on arm64) and
    never transform a sampled grid. It must agree with ``rhs``.
    """

    dim: int
    rhs: Callable[[Point], float]
    exact: Optional[Callable[[Point], float]] = None
    name: str = "custom"
    rhs_grid: Optional[Callable[[tuple[int, ...]], np.ndarray]] = None
    rhs_factors: Optional[tuple[float, Callable[[int, int], np.ndarray]]] = None


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one grid solve.

    ``residual_inf``, the max-norm interior residual of ``grid`` against the
    interior right-hand side ``rhs``, is computed when it is first read, so a
    caller that never reads it never pays for the stencil.
    """

    level: tuple[int, ...]
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

    def rhs_grid(level: tuple[int, ...]) -> np.ndarray:
        out = np.empty(tuple(2 ** v - 1 for v in level))
        _outer_into(np.multiply, [_interior_sines(v) for v in level], out)
        out *= d * np.pi ** 2
        return out

    return ProblemSpec(
        dim=d,
        rhs=rhs,
        exact=exact,
        name=f"sine-{d}d",
        rhs_grid=rhs_grid,
        rhs_factors=(d * np.pi ** 2, lambda j, v: _interior_sines(v)),
    )


def _interior_axes(level: tuple[int, ...]) -> list[np.ndarray]:
    """Interior node coordinates per direction: (1..2**l-1) * h."""
    return [np.arange(1, 2 ** v) * (2.0 ** -v) for v in level]


@lru_cache(maxsize=32)
def _interior_sines(v: int) -> np.ndarray:
    # sin(pi x) at the interior nodes of a direction at level v, read-only.
    out = np.sin(np.pi * _interior_axes((v,))[0])
    out.setflags(write=False)
    return out


def _outer_into(op, vectors: list[np.ndarray], out: np.ndarray) -> None:
    """Write the d-dimensional array (v0[i0] op v1[i1]) op ... op
    v_{d-1}[i_{d-1}] of ``vectors`` into ``out``, in any layout: the fold
    of all but the last vector, then one broadcast with the last. Every entry
    is associated from the left, so it has the bits of the same fold
    broadcast into a new array. Only that fold over the first d-1 directions
    is allocated, laid out as ``out``'s first d-1 axes so that the broadcast
    reads it in order, and not even that when the last vector has one entry:
    the fold is then written into ``out`` and the last entry applied in
    place."""
    *head, last = vectors
    if not head:
        np.copyto(out, last)
    elif len(last) == 1:
        _outer_into(op, head, out[..., 0])
        op(out, last, out=out)
    else:
        fold = head[0]
        if len(head) > 1:
            fold = np.empty_like(out[..., 0])
            _outer_into(op, head, fold)
        op(fold[..., None], last, out=out)


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
def _rfft():
    # numpy.fft is imported at the first FFT-path transform, so plans and
    # identity checks never load it.
    return np.fft.rfft


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
    Small sizes use the direct matrix, larger ones the FFT-based transform
    (:func:`_dst1`, with the bits of 0.5 * ``scipy.fft.dst(a, type=1)``).
    """
    return _sine_transform(a, axis, None)


def _sine_transform(a: np.ndarray, axis: int, work: Optional[_Workspace]) -> np.ndarray:
    # sine_transform's body; an FFT stage runs in ``work``'s chunk buffers
    # when given.
    if a.shape[axis] <= DIRECT_TRANSFORM_MAX:
        return _direct_transform(a, axis)
    out = np.array(a, dtype=np.result_type(a, 1.0), order="C")
    _dst1(out, axis, work)
    out *= 0.5
    return out


def _lines(x: np.ndarray, axis: int) -> np.ndarray:
    # x as an (I, m, J) view holding x's lines along ``axis`` as [i, :, j]:
    # one row of unit-stride lines (I = 1) when ``axis`` is x's last in
    # memory, else C-ordered x's (x must be one of the two).
    m = x.shape[axis]
    moved = x.transpose(_axis_order(x.ndim, axis, -1))
    if moved.flags.c_contiguous:
        return moved.reshape(1, -1, m).transpose(0, 2, 1)
    return x.reshape(math.prod(x.shape[:axis]), m, -1)


def _dst1(x: np.ndarray, axis: int, work: Optional[_Workspace] = None) -> None:
    """Unscaled DST-I of ``x`` along ``axis``, in place, as pocketfft computes
    it: a line y of m entries becomes -Im(rfft([0, y, 0, -y reversed]))[1:m+1].

    ``x`` is C-ordered or has ``axis`` last in memory (:func:`_lines`). Its
    lines are copied in chunks of about ``_FFT_CHUNK_ENTRIES`` entries (or
    one line), but no more lines than a row of the view holds, so that a
    few short lines do not fill and zero a full-sized chunk, into a real
    and a complex array, ``work``'s float64 ones when given, and numpy's
    pocketfft transforms each line on its own, in
    ``x``'s precision. So a line's bits depend neither on the layout nor on
    the chunk, and match ``scipy.fft.dst(type=1)``, which runs the same code.
    """
    view = _lines(x, axis)
    count, m, width = view.shape
    n = 2 * m + 2
    rows = max(1, min(_FFT_CHUNK_ENTRIES // n, width))
    if work is not None and x.dtype == np.float64:
        ext, spec = work.fft_buffers(rows, n)
    else:
        ext = np.empty((rows, n), x.dtype)
        spec = np.empty((rows, m + 2), np.result_type(x.dtype, 1j))
    ext[:, :: m + 1] = 0.0  # columns 0 and m + 1
    body, tail, coefficients = ext[:, 1 : m + 1], ext[:, : m + 1 : -1], spec.imag[:, 1 : m + 1]
    rfft = _rfft()
    for i in range(count):
        for s in range(0, width, rows):
            block = view[i, :, s : s + rows].T
            r = len(block)
            np.copyto(body[:r], block)
            np.negative(body[:r], out=tail[:r])
            rfft(ext[:r], out=spec[:r])
            np.negative(coefficients[:r], out=block)


def _direct_transform(a: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    # sine_transform's direct path: one matmul with the sine matrix on the
    # axis moved last. ``out`` (optional) is a C-contiguous buffer of a's size
    # that receives the product, laid out as a new product array would be,
    # so the bits are the same.
    last = a.ndim - 1
    moved = a.transpose(_axis_order(a.ndim, axis, last))
    if out is not None:
        out = out.reshape(moved.shape)
    product = np.matmul(moved, _sine_matrix(a.shape[axis]), out=out)
    return product.transpose(_axis_order(a.ndim, last, axis))


@lru_cache(maxsize=None)
def _eigenvalues_1d(level: int) -> np.ndarray:
    # Eigenvalues of the 1D second-difference operator (u'' convention, so
    # negative): -4 sin^2(k pi h / 2) / h^2 for k = 1 .. 2**level - 1.
    h = 2.0 ** -level
    k = np.arange(1, 2 ** level)
    out = -4.0 * np.sin(np.pi * k * h / 2.0) ** 2 / h ** 2
    out.setflags(write=False)
    return out


def _factor_coefficients(
    p: ProblemSpec, j: int, level: tuple[int, ...], factors: dict
) -> np.ndarray:
    """The sine transform of p's factor g_j at direction j of ``level``, as
    :func:`sine_transform` defines it (0.5 DST-I), computed in
    ``np.longdouble`` by numpy's pocketfft (:func:`_dst1`; numpy >= 2.0
    transforms ``np.longdouble`` natively) and rounded once to float64; a
    level-1 direction is not transformed. Read-only, and kept in
    ``factors`` per (direction, level value), so its bits do not depend on
    what the cache held before."""
    key = (j, level[j])
    out = factors.get(key)
    if out is None:
        m = 2 ** level[j] - 1
        work = np.array(p.rhs_factors[1](j, level[j]), dtype=np.longdouble)
        if work.shape != (m,):
            raise ValueError(
                f"rhs_factors returned shape {work.shape} for direction {j} "
                f"of level {level}, expected {(m,)}"
            )
        if m > 1:
            _dst1(work, 0)
            work *= 0.5
        out = factors[key] = work.astype(np.float64)
        out.setflags(write=False)
    return out


def _swapped(level: tuple) -> tuple:
    # ``level`` with its first two directions exchanged (itself when d = 1).
    return level[1::-1] + level[2:]


class _Workspace:
    """What the grids solved for one problem share, whatever their points:
    the 1-D factor transforms of separable data (``factors``, per (direction,
    level value), see :func:`_factor_coefficients`) and two float64 work
    buffers that receive a solve's numerator, quotient and inverse stage
    (:func:`_solve_along`).

    The buffers grow to exactly the size reserved, and only when a larger
    grid comes, so they hold at most two copies of the largest grid. What
    :meth:`buffers` returns is overwritten by the next grid. Every FFT stage
    run with the workspace reuses a real and a complex chunk buffer
    (:meth:`fft_buffers`), at most about ``_FFT_CHUNK_ENTRIES`` entries each
    or one extended line.

    ``last`` is (level, problem, nodal array) of the last grid solved, its
    nodal array being a view of a buffer, when that grid took the FFT path,
    and None otherwise; growing the buffers clears it too (see
    :func:`_partner_nodal`).
    """

    def __init__(self) -> None:
        self.factors: dict[tuple[int, int], np.ndarray] = {}
        self.last: Optional[tuple[tuple[int, ...], ProblemSpec, np.ndarray]] = None
        self._pair: tuple = ()
        self._size = 0
        self._fft: tuple = (np.empty(0), np.empty(0, complex))

    def reserve(self, size: int) -> None:
        if size > self._size:
            self.last = None
            self._pair = ()  # the old pair is freed before the new one exists
            self._pair = (np.empty(size), np.empty(size))
            self._size = size

    def buffers(
        self, shape: tuple[int, ...], last: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two arrays of ``shape`` that share no memory, C-ordered, or with
        axis ``last`` last in memory when given."""
        size = math.prod(shape)
        self.reserve(size)
        if last is None:
            return tuple(buf[:size].reshape(shape) for buf in self._pair)
        order = _axis_order(len(shape), last, -1)
        laid = tuple(shape[j] for j in order)
        back = _axis_order(len(shape), -1, last)
        return tuple(buf[:size].reshape(laid).transpose(back) for buf in self._pair)

    def fft_buffers(self, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """A real (rows, n) and a complex (rows, n // 2 + 1) array for
        :func:`_dst1`, grown to the largest chunk asked for."""
        real, spec = self._fft
        if real.size < rows * n or spec.size < rows * (n // 2 + 1):
            real, spec = self._fft = np.empty(rows * n), np.empty(rows * (n // 2 + 1), complex)
        return real[: rows * n].reshape(rows, n), spec[: rows * (n // 2 + 1)].reshape(rows, -1)


def _uses_fft(m: int) -> bool:
    # The transform path of a direction with m nodes: FFT above the direct max.
    return m > DIRECT_TRANSFORM_MAX


def _solve_along(
    p: ProblemSpec, level: tuple[int, ...], work: _Workspace, axis: Optional[int], f_int=None
) -> np.ndarray:
    """The discrete solution of ``p`` on ``level`` in sine coefficients,
    transformed back to nodal values along ``axis`` unless it is None: a view
    of one of ``work``'s buffers, overwritten by the next solve.

    The right-hand side's coefficients are, for separable data, c times the
    outer product of its factors' transforms (:func:`_factor_coefficients`,
    cached in ``work.factors``) formed in the first buffer, otherwise the
    :func:`sine_transform` of the interior data ``f_int`` (sampled when not
    given) along every direction, stage by stage into new arrays. The summed
    eigenvalues are formed in the second buffer and the quotient overwrites
    them. The factors 2**(1-l) of the inverse transforms and the 1/2 of an
    FFT stage along ``axis`` make one power of two, 2**-(|l|_1 - d + 1) or
    2**-(|l|_1 - d) without one, which scales every rounding exactly
    (barring underflow to subnormals): it is folded into c, or for sampled
    data applied to the quotient.

    The stage along ``axis`` is a matmul into the first buffer on the direct
    path and the unscaled DST-I in place on the FFT path, whose buffers are
    laid out with ``axis`` last in memory, so its lines are contiguous; the
    folds and the division do not depend on the layout.
    """
    shape = tuple(2 ** v - 1 for v in level)
    fft = axis is not None and _uses_fft(shape[axis])
    spare, quotient = work.buffers(shape, axis if fft else None)
    scale = 2.0 ** -(sum(level) - len(level) + fft)
    if p.rhs_factors is not None:
        factors = [_factor_coefficients(p, j, level, work.factors) for j in range(len(level))]
        numer = spare
        _outer_into(np.multiply, factors, numer)
        numer *= p.rhs_factors[0] * scale
    else:
        numer = _sample_interior_rhs(p, level) if f_int is None else f_int
        for j, v in enumerate(level):
            if v > 1:  # a direction with one node is a 1x1 identity
                numer = _sine_transform(numer, j, work)
    _outer_into(np.add, [_eigenvalues_1d(v) for v in level], quotient)
    np.divide(numer, quotient, out=quotient)
    if p.rhs_factors is None:
        quotient *= scale
    if axis is None:
        return quotient
    if fft:
        _dst1(quotient, axis, work)
        return quotient
    return _direct_transform(quotient, axis, out=spare)


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
    node in mesh widths (``grid._cell_coordinates``); ``blend`` the rows
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
            entry = self._cells[j, v] = _cell_coordinates(self.pts[:, j], v)
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


def _interpolate_nodal(
    nodal: np.ndarray, level: tuple[int, ...], a: int, table: _PointTable
) -> np.ndarray:
    """Values at the points of ``table`` of the multilinear interpolant of
    the grid whose sine coefficients, transformed along its longest direction
    ``a``, are ``nodal``.

    The nodal values along direction a are shared by all points, and each
    point blends the two node rows around it. In every other direction a
    point's sine weight vector is contracted by one stacked product over the
    points. Each point runs the same fixed-shape operations, so its value
    does not depend on the other points. Points are taken in chunks whose
    work arrays are no larger than the grid (or ``_CHUNK_ENTRIES``), whatever
    their number; the table's per-point arrays are sliced per chunk, and
    weight vectors it does not keep are built per chunk.
    """
    m = 2 ** level[a] - 1
    # Values at the interior nodes 1 .. m of the longest direction (moved to
    # the front), over the sine coefficients of the others.
    nodal = nodal.transpose(_axis_order(len(level), a, 0))
    lower, lower_w, upper, upper_w = table.blend(a, level[a])
    others = [
        (j, level[j], table.weights(j, level[j]))
        for j in reversed(range(len(level)))
        if j != a
    ]
    per_point = (-1,) + (1,) * len(others)
    step = max(nodal.size, _CHUNK_ENTRIES) * m // nodal.size
    out = np.empty(len(table.pts))
    for start in range(0, len(out), step):
        stop = start + step
        # Each point blends its two node rows. Indexing gives fresh rows
        # whatever the number of points (a strided view can send a lone
        # point's np.matmul down another summation path), laid out as
        # ``nodal``'s other axes are; rows of a transposed array are put in C
        # order, which np.matmul sums as it does a solve's own rows.
        work = np.ascontiguousarray(nodal[lower[start:stop]])
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


def _sample_interior_rhs(p: ProblemSpec, level: tuple[int, ...]) -> np.ndarray:
    if p.rhs_grid is not None:
        arr = np.asarray(p.rhs_grid(level), dtype=np.float64)
        expected = tuple(2 ** v - 1 for v in level)
        if arr.shape != expected:
            raise ValueError(
                f"rhs_grid returned shape {arr.shape}, expected {expected}"
            )
        return arr
    shape = tuple(2 ** v - 1 for v in level)
    nodes = itertools.product(*_interior_axes(level))
    return np.fromiter(map(p.rhs, nodes), np.float64, count=math.prod(shape)).reshape(shape)


def _solvable_level(p: ProblemSpec, l) -> tuple[int, ...]:
    level = _checked_level(l)
    if p.dim != len(level):
        raise ValueError(f"problem is {p.dim}-dimensional, level {level}")
    if any(v == 0 for v in level):
        raise DegenerateGridError(
            f"degenerate grid {level}: no interior node in some direction"
        )
    return level


def solve_poisson(p: ProblemSpec, l) -> tuple[GridFunction, SolverReport]:
    """Solve the discrete problem on the grid at level ``l``.

    Returns the nodal solution (boundary entries exactly 0) and a report whose
    max-norm interior residual is measured when first read (``solve_seconds``
    does not include it). The solve is the quotient of :func:`_solve_along`,
    formed in the two buffers of a fresh workspace, transformed back along
    every direction by :func:`sine_transform` stage by stage, its FFT stages
    numpy's (scipy is not imported): a direct method, exact up to rounding,
    so re-solving against the measured residual cannot improve the stored
    solution and is never attempted. The reported residual is the honestly
    measured value; note that evaluating the stencil in float64 scales nodal
    values by h_k^-2 before cancellation, so on strongly anisotropic grids
    (max l_j >= ~12) the measurement itself saturates near
    eps * sum_k h_k^-2 * (1 + max|u_h|) even though the solution is accurate.
    """
    level = _solvable_level(p, l)
    # numpy.fft is loaded before the clock starts, so that a process's first
    # solve does not time its import: for separable data's factor transforms
    # and for FFT-path stages.
    if any(_uses_fft(2 ** v - 1) or (p.rhs_factors is not None and v > 1) for v in level):
        _rfft()
    t0 = time.perf_counter()
    f_int = _sample_interior_rhs(p, level)
    # The quotient's workspace is dropped when _solve_along returns, and each
    # stage's input once the next stage is formed, so that the sampled data,
    # a stage's input and its output are the only grid-sized arrays live.
    interior = _solve_along(p, level, _Workspace(), None, f_int)
    for j, v in enumerate(level):
        if v > 1:
            interior = sine_transform(interior, j)
    full = np.zeros(tuple(2 ** v + 1 for v in level))
    full[tuple(slice(1, -1) for _ in level)] = interior
    grid = GridFunction._no_copy(level, full)
    report = SolverReport(
        level=level, solve_seconds=time.perf_counter() - t0, rhs=f_int, grid=grid
    )
    return grid, report


def solve_at_points(p: ProblemSpec, l, x) -> np.ndarray:
    """Values at ``x`` of the multilinear interpolant of the solution on
    the grid at level ``l``, without forming the nodal grid.

    ``x`` is one point or a (K, d) array of points; K values are returned.
    The solve is the one :func:`solve_poisson` makes up to its sine
    coefficients; for separable data (``p.rhs_factors``) those come from the
    factors' 1-D transforms in ``np.longdouble`` (float64 on Windows and
    macOS on arm64), and the right-hand side is never sampled on the grid.
    Of the inverse transforms only the one along the longest
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
    table = _PointTable(_checked_points(x, len(level)))
    return _solve_at_table(p, level, table, _Workspace())


def _solve_at_table(
    p: ProblemSpec,
    level: tuple[int, ...],
    table: _PointTable,
    work: _Workspace,
) -> np.ndarray:
    """:func:`solve_at_points` for a solvable ``level`` of ``p`` at the points
    of ``table``, which the grids evaluated at those points share, as they
    share the factor transforms and work buffers of ``work``:
    :func:`_solve_along` with the inverse transform along the longest
    direction. On the FFT path the level's nodal array is read from
    ``work.last`` when it holds it (:func:`_partner_nodal`), and either way
    kept there.
    """
    a = level.index(max(level))
    fft = _uses_fft(2 ** level[a] - 1)
    nodal = _partner_nodal(p, level, work) if fft else None
    if nodal is None:
        work.last = None
        nodal = _solve_along(p, level, work, a)
    if fft:
        work.last = (level, p, nodal)
    return _interpolate_nodal(nodal, level, a, table)


def _partner_nodal(
    p: ProblemSpec, level: tuple[int, ...], work: _Workspace
) -> Optional[np.ndarray]:
    """The nodal array of an FFT-path ``level`` read from ``work.last``, or
    None when that does not hold it.

    It does when ``work.last`` holds the level's partner, the level with its
    first two directions swapped (none when l_0 = l_1), solved for the same
    separable problem ``p`` whose factor transforms in those two directions
    are byte-equal to the level's, crossed. The outer products of
    :func:`_solve_along` fold from the left in direction order and IEEE
    + and * commute, so the level's coefficients and denominator are the
    partner's with axes 0 and 1 exchanged, entry by entry. As l_0 != l_1, the
    longest directions are exchanged too, and pocketfft transforms their
    DST-I lines alike in any layout. The partner's nodal array with axes 0
    and 1 exchanged thus holds the bits of a solve.
    """
    last = work.last
    if last is None or last[1] is not p or p.rhs_factors is None:
        return None
    partner, _, nodal = last
    if partner == level or partner != _swapped(level):
        return None
    for j in (0, 1):
        mine = _factor_coefficients(p, j, level, work.factors)
        theirs = _factor_coefficients(p, 1 - j, partner, work.factors)
        if mine.tobytes() != theirs.tobytes():
            return None
    return nodal.swapaxes(0, 1)


def apply_operator(g: GridFunction) -> GridFunction:
    """Apply the discrete operator to ``g``: interior stencil values, boundary 0."""
    level = g.level
    if any(v == 0 for v in level):
        raise DegenerateGridError(
            f"degenerate grid {level}: operator needs interior nodes"
        )
    inv_h2 = tuple(4.0 ** v for v in level)
    out = np.zeros(tuple(2 ** v + 1 for v in level))
    core = tuple(slice(1, -1) for _ in level)
    out[core] = _stencil_interior(g.ndview(), inv_h2)
    return GridFunction._no_copy(level, out)
