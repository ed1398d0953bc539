"""Tensor-product grids on the unit cube and piecewise-multilinear interpolation.

A grid is described by a level multi-index l = (l_0, ..., l_{d-1}): direction j
has mesh width 2**-l[j] and 2**l[j] + 1 nodes, boundary included. Node values
are stored flat in lexicographic (C) order by index tuple, so the node with
index (j_0, ..., j_{d-1}) sits at x = (j_0 * h_0, ..., j_{d-1} * h_{d-1}).

Direction indices are 0-based throughout the package.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from ._lazy import np

__all__ = [
    "LevelIndex",
    "GridFunction",
    "Point",
    "multilinear_eval",
]

# A point in the closed unit cube, given as a sequence of d floats.
Point = Sequence[float]


class LevelIndex(tuple):
    """Per-direction dyadic refinement depths of a tensor grid on [0,1]^d.

    Behaves as a plain tuple of non-negative ints with grid-geometry helpers.
    Each entry must be an integer (anything ``operator.index`` takes, numpy
    integers included); a float or a string raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, levels: Iterable[int]):
        lv = []
        for v in levels:
            try:
                lv.append(operator.index(v))
            except TypeError:
                raise ValueError(f"level entry {v!r} is not an integer") from None
        lv = tuple(lv)
        if not lv:
            raise ValueError("LevelIndex needs at least one direction")
        for v in lv:
            if v < 0:
                raise ValueError(f"levels must be non-negative, got {lv}")
        return super().__new__(cls, lv)

    @property
    def dim(self) -> int:
        return len(self)

    def points_per_direction(self) -> tuple[int, ...]:
        return tuple(2 ** v + 1 for v in self)

    def node_count(self) -> int:
        """Total number of nodes, boundary included: prod(2**l_j + 1)."""
        count = 1
        for v in self:
            count *= 2 ** v + 1
        return count

    def interior_count(self) -> int:
        """Number of interior nodes: prod(2**l_j - 1), zero if any l_j = 0."""
        count = 1
        for v in self:
            count *= 2 ** v - 1
        return count

    def refine(self, directions: Iterable[int] = ()) -> "LevelIndex":
        """Bisect the mesh in the given 0-based directions (duplicates ignored)."""
        dirs = set(directions)
        for j in dirs:
            if not 0 <= j < len(self):
                raise IndexError(f"direction {j} out of range for dim {len(self)}")
        return LevelIndex(v + 1 if j in dirs else v for j, v in enumerate(self))

    def shifted(self, offset: int) -> "LevelIndex":
        """Add a constant offset to every direction's level."""
        return LevelIndex(v + offset for v in self)

    def __repr__(self) -> str:
        return f"LevelIndex{tuple(self)!r}"


class GridFunction:
    """Immutable nodal values on a tensor grid, boundary nodes included.

    The value buffer is flat, C-ordered by node index tuple, and marked
    read-only, so instances are safe to share across threads.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: Iterable[int], values) -> None:
        lv = LevelIndex(level)
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size != lv.node_count():
            raise ValueError(
                f"value buffer has {arr.size} entries, grid {tuple(lv)} "
                f"needs {lv.node_count()}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "level", lv)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _from_owned(cls, level: LevelIndex, arr: np.ndarray) -> "GridFunction":
        # Internal no-copy constructor: the caller hands over ownership.
        self = object.__new__(cls)
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        flat.setflags(write=False)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "values", flat)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("GridFunction is immutable")

    @property
    def dim(self) -> int:
        return self.level.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.level.points_per_direction()

    def ndview(self) -> np.ndarray:
        """Read-only view shaped (2**l_0 + 1, ..., 2**l_{d-1} + 1)."""
        return self.values.reshape(self.shape)

    def __repr__(self) -> str:
        return f"GridFunction(level={tuple(self.level)}, nodes={self.values.size})"


def _checked_points(x, d: int) -> np.ndarray:
    """``x`` as a fresh (K, d) float array: one point of d coordinates gives K = 1.

    Raises ValueError for a point whose length is not d, a coordinate outside
    [0, 1] (NaN included), or an empty point set.
    """
    pts = np.array(x, dtype=np.float64, ndmin=2)
    if pts.ndim != 2:
        raise ValueError(f"expected one point or a (K, d) array, got shape {pts.shape}")
    if pts.shape[1] != d:
        raise ValueError(f"point has {pts.shape[1]} coords, expected {d}")
    if pts.shape[0] == 0:
        raise ValueError("no evaluation point given")
    bad = ~((pts >= 0.0) & (pts <= 1.0))
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise ValueError(f"coordinate {j} = {float(pts[k, j])} outside [0, 1]")
    return pts


def _cell_coordinates(x: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, fracs) of checked coordinates ``x`` in [0, 1] along a direction
    at level ``v``.

    cells[k] = min(int(x[k] * 2**v), 2**v - 1) is the index of the lower node
    of the cell holding x[k], and fracs[k] in [0, 1] its offset from that node
    in mesh widths. Both are exact (the scaling is by a power of two).
    """
    n = 2 ** v  # cells in the direction
    t = x * n
    cells = np.minimum(t.astype(np.intp), n - 1)
    return cells, t - cells


def multilinear_eval(g: GridFunction, x):
    """Evaluate the piecewise-multilinear interpolant of ``g`` at ``x``.

    ``x`` is one point (a float is returned) or a (K, d) array of points (an
    array of K values is returned); every point goes through the same
    per-axis reduction, so a value does not depend on the other points.
    Exact at grid nodes and for any function that is d-linear on each cell.
    Points on a cell boundary use the lower cell; x_j = 1 uses the last cell
    (the interpolant is continuous, so the choice is unobservable).
    """
    lv = g.level
    pts = _checked_points(x, lv.dim)
    k, d = pts.shape
    cells = [_cell_coordinates(pts[:, j], v) for j, v in enumerate(lv)]
    # Gather the 2**d corner values of each point's cell: shape (K, 2, ..., 2).
    corners = []
    for j, (c, _) in enumerate(cells):
        shape = [k] + [1] * d
        shape[j + 1] = 2
        corners.append((c[:, None] + (0, 1)).reshape(shape))
    block = g.ndview()[tuple(corners)]
    for j, (_, f) in enumerate(cells):
        tj = f.reshape((k,) + (1,) * (d - 1 - j))
        block = (1.0 - tj) * block[:, 0] + tj * block[:, 1]
    return float(block[0]) if np.ndim(x) == 1 else block
