"""Combination plans over grid levels and their evaluation.

A plan is a signed rational measure on level multi-indices: solve the PDE on
every grid in the plan's support, take each solution's interpolated values at
the evaluation points, and accumulate coefficient-weighted values. A grid's
values are read from its sine coefficients (as ``pde.solve_at_points``: one
inverse transform along the grid's longest direction, then per-point weights
in the others), so no nodal grid is formed and only K floats per grid
outlive the solve. The grids evaluated through one ``GridCache`` (all
records of a study) share one point table, so the points' cells and weights
are built once per (direction, level) pair, as are the 1-D transforms of a
separable right-hand side's factors; and every grid writes its coefficients
and its transform along the longest direction into the same two work
buffers, sized to the largest grid of each evaluation and grown only when a
later one needs more (``pde._Workspace``). Each level is solved right after
its partner, the level with its first two directions swapped, and reads the
partner's nodal array, transposed, when that keeps every bit
(``pde._partner_nodal``).
Coefficients are exact rationals end to end; they are converted to floating
point only at the final multiply. A grid's values do not depend on caching or
on the other points evaluated alongside, and the weighted reduction is
``math.fsum``, which is correctly rounded and so does not depend on the order
of its terms: results are bit-identical regardless of caching or the other
points.

The constructors cover the classical sparse-grid combination, 2**d-grid
multivariate extrapolation of a single level and their composition (the
higher-order combination). ``method_plan`` is the one table from a study
method (FG, HOFG, SG, HOSG, SPLIT2D) to its plan; it also holds the isotropic
Richardson and the 2D three-grid splitting extrapolations. Every constructed
plan has coefficient sum exactly 1 (partition of unity), so constants are
reproduced.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO

from ._lazy import np

# Stopgap: multilinear_eval and solve_poisson are not called here (plan
# evaluation reads grid values through _solve_at_table). They stay module
# attributes only because the benchmark's span hooks (bench/spans.py) resolve
# them on this module and its smoke check fails on a missing hook; those
# hooks therefore count 0 calls on the study path. Delete both imports in
# the benchmark change that re-points the hooks to _solve_at_table (open as a
# FOUND line in CHANGES.md).
from .grid import LevelIndex, Point, _checked_points, multilinear_eval  # noqa: F401
from .pde import (  # noqa: F401
    ProblemSpec,
    _PointTable,
    _solve_at_table,
    _swapped,
    _Workspace,
    solve_poisson,
)

__all__ = [
    "CombinationPlan",
    "EvaluationResult",
    "ConvergenceRecord",
    "GridCache",
    "BudgetExceededError",
    "PlanEvaluationError",
    "DEFAULT_NODE_BUDGET",
    "STUDY_METHODS",
    "standard_plan",
    "extrapolation_weights",
    "extrapolation_plan",
    "ho_plan",
    "method_plan",
    "evaluate_plan",
    "hierarchical_surplus_study",
    "per_level_mass",
    "plan_to_dict",
    "write_plan_json",
    "projected_dof_total",
    "observed_order",
    "surplus_order",
    "default_eval_point",
]

# Default cap on projected node totals before any solve is attempted.
DEFAULT_NODE_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """A projected node total exceeds the configured budget.

    Carries the records already completed (``records``) so callers can flush
    partial results, plus the offending projection and the budget. A study
    record refused by its grid (n+s, s, ..., s) alone carries that grid's
    node count, a lower bound of the projection, as ``projected``.
    """

    def __init__(
        self,
        message: str,
        projected: int,
        budget: int,
        records: Optional[list] = None,
        n: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.projected = projected
        self.budget = budget
        self.records = records if records is not None else []
        self.n = n


class PlanEvaluationError(RuntimeError):
    """A grid solve inside a plan evaluation failed; carries the level."""

    def __init__(self, message: str, level: LevelIndex) -> None:
        super().__init__(message)
        self.level = level


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _count_text(count: int) -> str:
    # str() of an int raises ValueError past 4300 digits.
    return str(count) if count.bit_length() <= 64 else f"over 2**{count.bit_length() - 1}"


class CombinationPlan:
    """An immutable map LevelIndex -> nonzero Fraction coefficient.

    Coefficients that accumulate to exactly zero are dropped at construction,
    so no stored coefficient is zero. Terms are stored in sorted level order,
    so ``terms`` and iteration yield levels sorted by tuple.

    ``standard_plan`` and ``ho_plan`` keep their plan as its class table (see
    ``_Band``) and build ``terms`` only on first read; ``len``,
    ``term_count``, ``repr``, ``coefficient_sum``, ``shifted``,
    ``per_level_mass``, ``write_plan_json`` and ``evaluate_plan``'s node
    total work from the table. Term counts and level masses of either form
    come from one walk, ``_groups``.
    """

    __slots__ = ("dim", "label", "_terms", "_band")

    def __init__(
        self,
        dim: int,
        terms: Mapping,
        label: str = "",
    ) -> None:
        if dim < 1:
            raise ValueError("plan dimension must be >= 1")
        clean: dict[LevelIndex, Fraction] = {}
        for lv, coeff in terms.items():
            # The builders hand over LevelIndex keys and Fraction values; only
            # other input is converted (and thereby validated).
            if type(lv) is not LevelIndex:
                lv = LevelIndex(lv)
            if len(lv) != dim:
                raise ValueError(f"level {tuple(lv)} does not have dimension {dim}")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[lv] = coeff
        if not all(map(operator.lt, clean, islice(clean, 1, None))):
            clean = {lv: clean[lv] for lv in sorted(clean)}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_terms", MappingProxyType(clean))
        object.__setattr__(self, "_band", None)

    @classmethod
    def _from_band(cls, dim: int, label: str, band: "_Band") -> "CombinationPlan":
        # A band plan keeps its class table and builds its terms on first read.
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_band", band)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CombinationPlan is immutable")

    @property
    def terms(self) -> Mapping[LevelIndex, Fraction]:
        """Read-only map level -> coefficient in sorted level order."""
        if self._terms is None:
            object.__setattr__(self, "_terms", MappingProxyType(self._band.terms()))
        return self._terms

    def __len__(self) -> int:
        return self.term_count()

    def term_count(self) -> int:
        """The number of terms, also beyond ``len``'s limit of sys.maxsize."""
        return sum(count for _, count, _ in self._groups())

    def _groups(self) -> Iterator[tuple[int, int, Fraction]]:
        # (|l|_1, level count, coefficient) of every group of levels that
        # share a diagonal and a coefficient: a band plan's classes in
        # increasing |l|_1 (offset included), any other plan's terms one by one.
        band = self._band
        if band is None:
            return ((sum(lv), 1, c) for lv, c in self._terms.items())
        shift = band.d * band.offset
        return ((t + shift, count, c) for t, _, count, c in band.classes())

    def __iter__(self) -> Iterator[LevelIndex]:
        return iter(self.terms)

    def coefficient_sum(self) -> Fraction:
        return sum(per_level_mass(self).values(), Fraction(0))

    def shifted(self, offset: int) -> "CombinationPlan":
        """The same plan with every level shifted by a constant offset."""
        # A band plan records the offset while its total offset stays
        # nonnegative. Any other plan is rebuilt by the public constructor,
        # so a negative level raises.
        offset = operator.index(offset)
        label = f"{self.label}+shift{offset}" if self.label else f"shift{offset}"
        band = self._band
        if band is not None and band.offset + offset >= 0:
            band = band._replace(offset=band.offset + offset)
            return CombinationPlan._from_band(self.dim, label, band)
        return CombinationPlan(
            self.dim, {lv.shifted(offset): c for lv, c in self.terms.items()}, label
        )

    def __repr__(self) -> str:
        return f"CombinationPlan(dim={self.dim}, terms={self.term_count()}, label={self.label!r})"


class _Band(NamedTuple):
    """The class table of a band plan.

    Every level l with n <= |l|_1 <= top, plus ``offset`` in each direction,
    has coefficient ``table[|l|_1][p]``, p being the number of nonzero entries
    of l before the offset (see ho_plan); levels whose coefficient is zero
    are left out. The top diagonal is ``len(table) - 1``. ``terms`` builds
    the terms for evaluation; ``export_blocks`` renders the export's text
    straight from the table.
    """

    d: int
    n: int
    table: list[list[Fraction]]
    offset: int

    def classes(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """(|l|_1, p, level count, coefficient) of every class with levels
        and a nonzero coefficient, in increasing |l|_1 before the offset.

        Diagonal t holds C(d, p) * C(t-1, p-1) levels with p nonzero entries
        (one level when t = p = 0).
        """
        d = self.d
        for t in range(self.n, len(self.table)):
            for p, coeff in enumerate(self.table[t]):
                count = comb(d, p) * comb(t - 1, p - 1) if t and p else int(t == p)
                if count and coeff:
                    yield t, p, count, coeff

    def prefixes(self, start, pieces: list, k: int) -> list[tuple]:
        """The first k levels of every level in the band in lexicographic
        order, each as ``start`` plus one of ``pieces`` per level (``pieces[v]``
        stands for level v), with its |.|_1 and nonzero count before the
        offset."""
        top = len(self.table) - 1
        prefixes = [(start, 0, 0)]
        for _ in range(k):
            prefixes = [
                (x + pieces[v], t + v, p + (v > 0))
                for x, t, p in prefixes
                for v in range(top - t + 1)
            ]
        return prefixes

    def terms(self) -> dict[LevelIndex, Fraction]:
        """The plan's terms in sorted level order.

        The last level closes each prefix; every (|prefix|_1, count) has its
        list of nonzero (last level, coefficient) pairs, so a term costs no
        table lookup or zero test. Compositions plus a nonnegative offset
        are valid levels, so LevelIndex's validation is skipped.
        """
        d, n, table, s = self
        top = len(table) - 1
        closing = [
            [
                [
                    (v + s, coeff)
                    for v in range(max(n - t, 0), top - t + 1)
                    if (coeff := table[t + v][p + (v > 0)])
                ]
                for p in range(d)
            ]
            for t in range(top + 1)
        ]
        new = tuple.__new__
        return {
            new(LevelIndex, lv + (v,)): coeff
            for lv, t, p in self.prefixes((), [(v + s,) for v in range(top + 1)], d - 1)
            for v, coeff in closing[t][p]
        }

    def export_blocks(self) -> Iterator[str]:
        """The export texts of the plan's terms, by diagonal |l|_1 and then
        level: one string per (diagonal, prefix of the first d - J levels)
        that has terms, its terms joined by ",\n", J being d//2 + 1.

        The prefix texts are rendered once, by ``prefixes``. On each
        diagonal the texts of the last J levels, closed by their coefficient,
        are rendered once per (levels left, remaining |.|_1, nonzero count so
        far) and leave out every level whose coefficient is zero, so a term
        costs one str.join step.
        """
        d, n, table, s = self
        top = len(table) - 1
        split = d // 2 + 1
        pieces = [f"{v + s},\n        " for v in range(top + 1)]
        prefixes = self.prefixes('    {\n      "levels": [\n        ', pieces, d - split)
        for t in range(n, top + 1):
            row = table[t]
            memo: dict[tuple[int, int, int], list[str]] = {}

            def suffixes(k: int, r: int, p: int) -> list[str]:
                # The texts of the last k levels with |.|_1 = r after p
                # nonzero levels.
                key = (k, r, p)
                if key not in memo:
                    if k > 1:
                        memo[key] = [
                            pieces[v] + x
                            for v in range(r + 1)
                            for x in suffixes(k - 1, r - v, p + (v > 0))
                        ]
                    elif c := row[p + (r > 0)]:
                        memo[key] = [
                            f'{r + s}\n      ],\n      "coeff": "{c.numerator}/{c.denominator}"\n    }}'
                        ]
                    else:
                        memo[key] = []
                return memo[key]

            for x, tp, p in prefixes:
                if tp <= t and (ends := suffixes(split, t - tp, p)):
                    yield x + (",\n" + x).join(ends)


def _band(d: int, n: int, step: Sequence[int], denominator: int, label: str) -> CombinationPlan:
    # The plan of every level l with n <= |l|_1 <= top and coefficient
    # c(|l|_1, #nonzero levels), kept as its table: c(t, p) is the
    # coefficient of x**(t-n) in step(x)**p (x - 1)**(d-1) / denominator,
    # ``step`` listing the coefficients of x**0, x**1, .... That is ho_plan's
    # c(t, p) = sum_k C(p, k) a_{t-k-n} alpha_k, since x**n (x - 1)**(d-1)
    # has the standard coefficients a and sum_k C(p, k) alpha_k x**k is
    # (1 + beta x)**p / denominator for alpha_k = beta**k / denominator (and
    # 1 for alpha = (1,)). One integer polynomial product per p and one
    # Fraction per cell.
    top = n + d - 1 + d * (len(step) - 1)
    zero = Fraction(0)
    table = [[zero] * (d + 1) for _ in range(top + 1)]
    poly = [(-1) ** (d - 1 - i) * comb(d - 1, i) for i in range(d)]
    for p in range(d + 1):
        for i, coeff in enumerate(poly):
            table[n + i][p] = Fraction(coeff, denominator)
        poly = [
            sum(s * poly[i - k] for k, s in enumerate(step) if 0 <= i - k < len(poly))
            for i in range(len(poly) + len(step) - 1)
        ]
    return CombinationPlan._from_band(d, label, _Band(d, n, table, 0))


def standard_plan(d: int, n: int) -> CombinationPlan:
    """The classical combination plan at level ``n``.

    Support is { l >= 0 : n <= |l|_1 <= n+d-1 } with coefficient
    (-1)**(d-1-i) * C(d-1, i) on the diagonal |l|_1 = n + i.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("level must be >= 0")
    return _band(d, n, (1,), 1, f"standard(d={d},n={n})")


def extrapolation_weights(d: int) -> tuple[Fraction, ...]:
    """Exact weights (alpha_0, ..., alpha_d) with alpha_k = (-4)**k / (-3)**d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return tuple(Fraction((-4) ** k, (-3) ** d) for k in range(d + 1))


def extrapolation_plan(l) -> CombinationPlan:
    """The 2**d-term multivariate extrapolation of the grid at level ``l``.

    Every subset S of directions contributes the grid refined in S with
    weight alpha_|S|. Grids with a zero level in some direction are permitted
    (they evaluate to zero under the Dirichlet completion, see evaluate_plan);
    callers who need every grid solvable should pass l_j >= 1.
    """
    base = LevelIndex(l)
    d = base.dim
    weights = extrapolation_weights(d)
    return CombinationPlan(
        d,
        {
            base.refine(subset): weights[k]
            for k in range(d + 1)
            for subset in combinations(range(d), k)
        },
        label=f"extrapolation(l={tuple(base)})",
    )


def ho_plan(d: int, n: int) -> CombinationPlan:
    """The higher-order combination plan: the standard plan at level ``n``
    with every grid replaced by its 2**d-grid extrapolation.

    Level l receives a_{|l|-|S|-n} * alpha_|S| from every subset S of its
    nonzero directions (the base grid l - e_S lies on diagonal |l| - |S|), so
    its coefficient depends only on t = |l|_1 and the count p of nonzero
    levels: c(t, p) = sum_k C(p, k) * a_{t-k-n} * alpha_k, a_i being the
    standard-plan coefficient on diagonal n + i (zero outside 0 <= i < d).
    The standard plan is the case alpha = (1,). Levels whose coefficient is
    exactly zero are dropped. The support lies in { l : n <= |l|_1 <= n+2d-1 }.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 1:
        raise ValueError("higher-order plan needs n >= 1")
    # extrapolation_weights(d): alpha_k = (-4)**k / (-3)**d.
    return _band(d, n, (1, -4), (-3) ** d, f"ho(d={d},n={n})")


def _export_fields(plan: CombinationPlan, n: Optional[int], masses: dict[int, Fraction]) -> dict:
    # The export's fields in their order, with its terms left empty.
    return {
        "d": plan.dim,
        "n": n,
        "label": plan.label,
        "terms": [],
        "coefficient_sum": _frac_str(sum(masses.values(), Fraction(0))),
        "level_mass": {str(t): _frac_str(m) for t, m in masses.items()},
    }


def per_level_mass(plan: CombinationPlan) -> dict[int, Fraction]:
    """Total coefficient mass per diagonal |l|_1, in increasing |l|_1.

    Sums level count times coefficient over the plan's groups of equal
    terms: a band plan's classes, or any other plan's terms. A diagonal that
    cancels keeps its entry, with mass 0.
    """
    masses: dict[int, Fraction] = {}
    for t, count, coeff in plan._groups():
        masses[t] = masses.get(t, 0) + count * coeff
    return dict(sorted(masses.items()))


def plan_to_dict(plan: CombinationPlan, n: Optional[int] = None) -> dict:
    """JSON-ready dump: terms ordered by (|l|_1, l), with exact "p/q"
    coefficient strings. :func:`write_plan_json` writes its JSON text."""
    payload = _export_fields(plan, n, per_level_mass(plan))
    # The terms are stored in level order, so a stable sort by |l|_1 gives
    # the order (|l|_1, l).
    payload["terms"] = [
        {"levels": list(lv), "coeff": _frac_str(coeff)}
        for lv, coeff in sorted(plan.terms.items(), key=lambda item: sum(item[0]))
    ]
    return payload


# Characters of term text gathered per write of the plan export.
_EXPORT_CHUNK_CHARS = 1 << 16


def write_plan_json(plan: CombinationPlan, out: TextIO, n: Optional[int] = None) -> None:
    """Write the bytes of ``json.dump(plan_to_dict(plan, n), out, indent=2)``
    and a newline.

    A band plan's terms are rendered from its class table by
    ``_Band.export_blocks``, without building the plan's terms, and written
    in chunks of about ``_EXPORT_CHUNK_CHARS`` characters (a chunk ends
    with the block that reaches it), so no dict per term is built and the
    text is never joined into one string (with an indent, ``json.dump``
    runs its pure-Python encoder at one write per token). ``json`` lays out
    everything else (label escaping included); the first '"terms": []' in
    its text is the key, because a quote inside an encoded string is always
    escaped. Any other plan is written by exactly that ``json.dump``.
    """
    if plan._band is None:
        json.dump(plan_to_dict(plan, n), out, indent=2)
        out.write("\n")
        return
    masses = per_level_mass(plan)
    fields = _export_fields(plan, n, masses)
    head, _, tail = json.dumps(fields, indent=2).partition('"terms": []')
    out.write(head + ('"terms": [\n' if masses else '"terms": ['))
    chunk, size = [], 0
    for block in plan._band.export_blocks():
        chunk.append(block)
        size += len(block)
        if size >= _EXPORT_CHUNK_CHARS:
            out.write(",\n".join(chunk))
            # The join of the next chunk starts with the separator.
            chunk, size = [""], 0
    out.write(",\n".join(chunk))
    out.write(("\n  ]" if masses else "]") + tail + "\n")


def _level_sums(d: int, top: int, weight: Callable[[int], int]) -> list[list[int]]:
    # sums[t][p] for t <= top: the sum of prod_j weight(l_j) over the levels
    # l in N^d with |l|_1 = t and p nonzero entries, i.e. C(d, p) *
    # weight(0)**(d-p) times the coefficient of x**t in Q(x)**p, where
    # Q(x) = sum_{v>=1} weight(v) x**v: one truncated product per p.
    q = [0] + [weight(v) for v in range(1, top + 1)]
    power = [1] + [0] * top
    sums = [[0] * (d + 1) for _ in range(top + 1)]
    for p in range(d + 1):
        scale = comb(d, p) * weight(0) ** (d - p)
        for t in range(p, top + 1):
            sums[t][p] = scale * power[t]
        if p < d:  # Q**p has no term below x**p; Q**d is the last power read.
            power = [sum(power[i] * q[t - i] for i in range(p, t)) for t in range(top + 1)]
    return sums


def _node_total(plan: CombinationPlan) -> int:
    # The plan's node count summed over its terms, boundary included. A band
    # plan sums its classes' level sums without building its terms.
    band = plan._band
    if band is None:
        return sum(lv.node_count() for lv in plan.terms)
    s = band.offset
    sums = _level_sums(band.d, len(band.table) - 1, lambda v: 2 ** (v + s) + 1)
    return sum(sums[t][p] for t, p, _, _ in band.classes())


# A GridCache key: a level and the bytes of the (K, d) evaluation points.
CacheKey = tuple[LevelIndex, bytes]


class GridCache:
    """Insert-or-get store of grid values at a set of points.

    A key is (level, point set) and its entry is the tuple of the K values
    the grid's interpolant takes at those points; the cache never holds a
    grid. A level looked up with another point set is a different key. A
    solve that raises stores nothing. A cache serves one problem, the first
    it evaluates: its keys do not name the problem, so evaluating another one
    (by identity) through it raises ValueError.

    Besides the values, the cache keeps what the grids evaluated through it
    share: one workspace for all point sets (the factor transforms, two work
    buffers the size of the largest grid solved and the last FFT-path grid's
    nodal array, a view of one of them, ``pde._Workspace``) and the point
    table of the point set it last evaluated, so what it keeps is bounded by
    the largest grid however many point sets it has seen.
    Evaluations through one cache write into the same buffers, so they must
    not run concurrently.
    """

    def __init__(self) -> None:
        self._entries: dict[CacheKey, tuple[float, ...]] = {}
        self._problem: Optional[ProblemSpec] = None
        self._work = _Workspace()
        self._points: Optional[bytes] = None
        self._table: Optional[_PointTable] = None

    def _context(
        self, p: ProblemSpec, pts: np.ndarray, points_key: bytes
    ) -> tuple[_PointTable, _Workspace]:
        # The point table of ``pts`` (whose bytes are ``points_key``) and the
        # workspace, for the grids of ``p`` evaluated at ``pts``.
        if self._problem is None:
            self._problem = p
        elif p is not self._problem:
            raise ValueError("this GridCache holds the values of another problem")
        if points_key != self._points:
            self._table, self._points = _PointTable(pts), points_key
        return self._table, self._work

    def get_or_solve(
        self, key: CacheKey, solver: Callable[[CacheKey], tuple[float, ...]]
    ) -> tuple[tuple[float, ...], bool]:
        """Return (entry, newly_solved); runs ``solver(key)`` only on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            return entry, False
        entry = self._entries[key] = solver(key)
        return entry, True

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one plan evaluation.

    ``values`` holds the combined value at each evaluation point, in the
    order given; ``value`` is the first of them. dof_total sums node counts
    over the plan's terms; dof_unique counts only the grids newly solved by
    this call (grids reused from the cache, and zero-level grids that need
    no solve, contribute nothing), so repeated evaluations against a warm
    cache report dof_unique = 0.
    """

    values: tuple[float, ...]
    dof_total: int
    dof_unique: int
    grids_solved: int

    @property
    def value(self) -> float:
        return self.values[0]


def default_eval_point(d: int) -> tuple[float, ...]:
    """The studies' default interior evaluation point (0.25, 0.5, 0.25, ...)."""
    return tuple(0.25 if j % 2 == 0 else 0.5 for j in range(d))


def evaluate_plan(
    p: ProblemSpec,
    plan: CombinationPlan,
    x,
    cache: Optional[GridCache] = None,
    *,
    node_budget: Optional[int] = None,
) -> EvaluationResult:
    """Combine the plan's grid values at one point or at a (K, d) point array.

    Each grid's values at the points are computed from its sine coefficients
    as by ``solve_at_points`` (or fetched from ``cache``), all grids reading
    one table of the points' cells and weights and, for separable data, one
    cache of the factors' 1-D transforms, and all writing their quotients
    and inverse stages into the same two buffers, all kept by ``cache`` for
    its later evaluations; no nodal grid is formed.
    Grids with a zero level in some direction have no interior unknown under
    homogeneous Dirichlet data; their value is exactly 0.0, so they are
    neither solved nor summed. The other levels are solved one after another,
    sorted by (the smaller of the level and its partner, the level), the
    partner being the level with its first two directions swapped: each
    level right after its partner, the smaller first, so that on the FFT
    path the second of a pair can read the first's nodal array
    (``pde._partner_nodal``). Each point's weighted reduction runs over the
    levels in that solve order, with exact coefficients converted to float
    at the multiply; ``math.fsum`` is correctly rounded, so the order does
    not change the result, and every value is bit-identical whatever the
    cache state or the other points evaluated alongside.
    """
    if p.dim != plan.dim:
        raise ValueError(f"problem is {p.dim}-dimensional, plan is {plan.dim}")
    pts = _checked_points(x, plan.dim)

    dof_total = _node_total(plan)
    if node_budget is not None and dof_total > node_budget:
        raise BudgetExceededError(
            f"plan {plan.label or '<unnamed>'} needs {dof_total} nodes, "
            f"budget is {node_budget}",
            projected=dof_total,
            budget=node_budget,
        )

    if cache is None:
        cache = GridCache()
    points_key = pts.tobytes()
    table, work = cache._context(p, pts, points_key)
    # The work buffers are grown once per evaluation, to its largest grid.
    largest = max(map(LevelIndex.interior_count, plan.terms), default=0)

    def values_at(key: CacheKey) -> tuple[float, ...]:
        work.reserve(largest)
        return tuple(_solve_at_table(p, key[0], table, work).tolist())

    # The zero-level terms would only add exact zeros, which leave a
    # correctly rounded sum as is.
    solvable = [(lv, c) for lv, c in plan.terms.items() if min(lv) >= 1]
    solvable.sort(key=lambda term: (min(term[0], _swapped(term[0])), term[0]))
    weighted: list[tuple[float, tuple[float, ...]]] = []
    newly_solved: list[LevelIndex] = []
    for level, coeff in solvable:
        try:
            entry, mine = cache.get_or_solve((level, points_key), values_at)
        except Exception as exc:
            raise PlanEvaluationError(
                f"while solving level {tuple(level)} "
                f"for plan {plan.label or '<unnamed>'}: "
                f"{str(exc) or type(exc).__name__}",
                level=level,
            ) from exc
        weighted.append((float(coeff), entry))
        if mine:
            newly_solved.append(level)

    return EvaluationResult(
        values=tuple(
            math.fsum(c * entry[k] for c, entry in weighted) for k in range(len(pts))
        ),
        dof_total=dof_total,
        dof_unique=sum(lv.node_count() for lv in newly_solved),
        grids_solved=len(newly_solved),
    )


def _isotropic(d: int, n: int) -> LevelIndex:
    return LevelIndex((n,) * d)


def _fg_plan(d: int, n: int, s: int) -> CombinationPlan:
    return CombinationPlan(d, {_isotropic(d, n + s): 1}, label=f"fg(n={n})")


def _hofg_plan(d: int, n: int, s: int) -> CombinationPlan:
    # Isotropic Richardson extrapolation (4*u_{n+1} - u_n) / 3.
    return CombinationPlan(
        d,
        {
            _isotropic(d, n + s): Fraction(-1, 3),
            _isotropic(d, n + 1 + s): Fraction(4, 3),
        },
        label=f"hofg(n={n})",
    )


def _split2d_plan(d: int, n: int, s: int) -> CombinationPlan:
    # The 2D three-grid formula 4/3 u^(1) + 4/3 u^(2) - 5/3 u_h, u^(k) being
    # the solution with direction k refined once; fourth order on isotropic
    # grids only.
    base = _isotropic(2, n + s)
    return CombinationPlan(
        2,
        {
            base: Fraction(-5, 3),
            base.refine((0,)): Fraction(4, 3),
            base.refine((1,)): Fraction(4, 3),
        },
        label=f"split2d(n={n})",
    )


# Study method -> plan builder (d, n, level_shift). SG and HOSG look up
# standard_plan/ho_plan by name at call time, so a wrapper installed on those
# module attributes (the benchmark's span hooks) sees every build.
_METHOD_PLANS: dict[str, Callable[[int, int, int], CombinationPlan]] = {
    "FG": _fg_plan,
    "HOFG": _hofg_plan,
    "SG": lambda d, n, s: standard_plan(d, n).shifted(s),
    "HOSG": lambda d, n, s: ho_plan(d, n).shifted(s),
    "SPLIT2D": _split2d_plan,
}

STUDY_METHODS = tuple(_METHOD_PLANS)


def method_plan(method: str, d: int, n: int, level_shift: int) -> CombinationPlan:
    """The plan a study evaluates for ``method`` at level ``n``.

    Every level is offset by ``level_shift``, 0 or 1. FG is the isotropic
    grid n, HOFG its Richardson extrapolation from grids n and n+1, SG the
    standard plan, HOSG the higher-order plan, and SPLIT2D (d = 2 only) the
    three-grid splitting extrapolation of grid (n, n). ``method`` is
    case-insensitive; an unknown method or shift raises ValueError.
    """
    build = _plan_builder(method, d)
    _check_level_shift(level_shift)
    return build(d, n, level_shift)


def _plan_builder(method: str, d: int) -> Callable[[int, int, int], CombinationPlan]:
    # The plan builder of ``method`` in d dimensions; ValueError for an
    # unknown method or a dimension it does not take.
    build = _METHOD_PLANS.get(method.upper())
    if build is None:
        raise ValueError(f"unknown method {method!r}; expected one of {STUDY_METHODS}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if build is _split2d_plan and d != 2:
        raise ValueError("method SPLIT2D requires dim = 2")
    return build


def _check_level_shift(level_shift) -> None:
    # operator.index also rejects a float such as 1.0, which compares equal
    # to 1 but is no level offset.
    try:
        valid = operator.index(level_shift) in (0, 1)
    except TypeError:
        valid = False
    if not valid:
        raise ValueError("level_shift must be 0 or 1")


def projected_dof_total(method: str, d: int, n: int, level_shift: int = 1) -> int:
    """Projected node total of one study record.

    Exact for every method but HOSG: the node total of the method's plan,
    SG's taken from its class table without building its terms. For HOSG it
    counts every (base grid, refinement subset) pair without building the
    plan, an upper bound on the plan's dof_total (measured overshoot between
    1.7x and 3.4x for d <= 5): the guard is conservative by design, and a
    larger budget is the escape hatch for configurations it refuses.
    """
    if method.upper() != "HOSG":
        return _node_total(method_plan(method, d, n, level_shift))
    _check_level_shift(level_shift)
    s = level_shift
    # Each direction counts nodes at both the level and the level + 1 (the
    # node total of all 2**d subset-refinements of a grid), summed over the
    # base grids n <= |l|_1 <= n+d-1.
    sums = _level_sums(d, n + d - 1, lambda v: 2 ** (v + s) + 1 + 2 ** (v + s + 1) + 1)
    return sum(map(sum, sums[n:]))


@dataclass
class ConvergenceRecord:
    """One study row. ``surplus`` is |value(n+1) - value(n)| (or, in the
    multi-point robustness mode, the max over the sample points) and is absent
    on the last record."""

    method: str
    d: int
    n: int
    dof_unique: int
    dof_total: int
    value: float
    surplus: Optional[float] = None
    runtime_s: float = 0.0


def hierarchical_surplus_study(
    p: ProblemSpec,
    method: str,
    d: int,
    n_max: int,
    x: Optional[Point] = None,
    *,
    n_min: int = 1,
    level_shift: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
    surplus_points: int = 0,
    seed: int = 1234,
) -> list[ConvergenceRecord]:
    """Run a convergence study over n = n_min..n_max with a shared value cache.

    Grids are built at the configured level shift (default 1: every level in
    the plan is offset by one so all grids are solvable without the Dirichlet
    zero completion). Within each record, dof_unique counts only the nodes of
    grids first solved for that record, so summing dof_unique over records
    gives the study's total unique work.

    ``surplus_points = 0`` reproduces the single-point surplus
    |value_{n+1}(x) - value_n(x)|. With ``surplus_points = k > 0`` the surplus
    is the max over k fixed sample points drawn once from ``seed`` (robustness
    mode); the ``value`` field still reports the evaluation at ``x``. Each
    record is one ``evaluate_plan`` call over x and the sample points, so a
    grid is solved once and read at all k + 1 points.

    Raises BudgetExceededError (with the completed records attached) before
    solving any record whose projected node total exceeds ``node_budget``.
    """
    method = method.upper()
    if p.dim != d:
        raise ValueError(f"problem is {p.dim}-dimensional, study asks d={d}")
    if n_min > n_max:
        raise ValueError(f"n_min={n_min} exceeds n_max={n_max}")
    if n_min < 0:
        raise ValueError("n_min must be >= 0")
    _check_level_shift(level_shift)
    build = _plan_builder(method, d)
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
    if surplus_points < 0:
        raise ValueError("surplus_points must be >= 0")

    pts = _checked_points(x if x is not None else default_eval_point(d), d)
    if pts.shape[0] != 1:
        raise ValueError("a study evaluates at one point x")
    cache = GridCache()
    if surplus_points > 0:
        rng = np.random.default_rng(seed)
        pts = np.vstack([pts, rng.uniform(0.05, 0.95, size=(surplus_points, d))])

    records: list[ConvergenceRecord] = []
    prev_vec: Optional[np.ndarray] = None
    for n in range(n_min, n_max + 1):
        # Grid (n+s, s, ..., s), a term of the SG and HOSG plans and no larger
        # than a term of the others, refuses a hopeless record in O(d) work.
        projected = LevelIndex((n + level_shift,) + (level_shift,) * (d - 1)).node_count()
        if projected <= node_budget:
            projected = projected_dof_total(method, d, n, level_shift)
        if projected > node_budget:
            raise BudgetExceededError(
                f"{method} d={d} n={n} (shift {level_shift}) projects "
                f"{_count_text(projected)} nodes, budget is {node_budget}; "
                f"{len(records)} records completed",
                projected=projected,
                budget=node_budget,
                records=records,
                n=n,
            )
        t0 = time.perf_counter()
        plan = build(d, n, level_shift)
        result = evaluate_plan(p, plan, pts, cache)
        # The surplus compares the sample points' values, or the value at x.
        vec = np.array(result.values[1:] if surplus_points else result.values)
        runtime = time.perf_counter() - t0
        if records:
            records[-1].surplus = float(np.max(np.abs(vec - prev_vec)))
        records.append(
            ConvergenceRecord(
                method=method,
                d=d,
                n=n,
                dof_unique=result.dof_unique,
                dof_total=result.dof_total,
                value=result.value,
                runtime_s=runtime,
            )
        )
        prev_vec = vec
    return records


def observed_order(pairs: Iterable[tuple[float, float]]) -> float:
    """Least-squares convergence order from (n, error) pairs.

    Fits log2(error) = a - order * n and returns the order (the negated
    slope). Needs at least two pairs with strictly positive errors.
    """
    pts = [(float(n), float(e)) for n, e in pairs]
    if len(pts) < 2:
        raise ValueError("need at least two (n, error) pairs")
    if any(e <= 0.0 for _, e in pts):
        raise ValueError("errors must be positive to fit a log-slope")
    ns = np.array([n for n, _ in pts])
    logs = np.log2([e for _, e in pts])
    slope = np.polyfit(ns, logs, 1)[0]
    return float(-slope)


def surplus_order(records: Sequence[ConvergenceRecord]) -> float:
    """Observed order fitted to the surpluses of a study's records."""
    return observed_order(
        (r.n, r.surplus) for r in records if r.surplus is not None
    )
