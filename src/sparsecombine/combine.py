"""Combination plans over grid levels and their evaluation.

A plan is a signed rational measure on level multi-indices: solve the PDE on
every grid in the plan's support, take each solution's interpolated values at
the evaluation points, and accumulate coefficient-weighted values. A grid's
values are read from its sine coefficients (as ``pde.solve_at_points``: one
inverse transform along the grid's longest direction, then per-point weights
in the others), so no nodal grid is formed and only K floats per grid
outlive the solve. The grids of one evaluation share one point table, so the
points' cells and weights are built once per (direction, level) pair.
Coefficients are exact rationals end to end; they are converted to floating
point only at the final multiply, and the weighted reduction runs in a fixed
sorted level order so results are bit-identical regardless of caching or the
other points evaluated alongside.

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
from collections import defaultdict
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
from .pde import ProblemSpec, _PointTable, _solve_at_table, solve_poisson  # noqa: F401

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
    partial results, plus the offending projection and the budget.
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


class CombinationPlan:
    """An immutable map LevelIndex -> nonzero Fraction coefficient.

    Coefficients that accumulate to exactly zero are dropped at construction,
    so no stored coefficient is zero. Terms are stored in sorted level order
    (the canonical reduction order), so ``terms``, ``items()``, ``support()``
    and iteration all yield levels sorted by tuple.

    ``standard_plan`` and ``ho_plan`` keep their plan as its class table (see
    ``_Band``) and build ``terms`` only on first read; ``len``,
    ``term_count``, ``repr``, ``coefficient_sum``, ``shifted``,
    ``per_level_mass``, ``write_plan_json`` and ``evaluate_plan``'s node
    total work from the table.
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
    def _from_sorted(
        cls,
        dim: int,
        terms: Optional[dict[LevelIndex, Fraction]],
        label: str,
        band: Optional["_Band"] = None,
    ) -> "CombinationPlan":
        # For builder output only: ``terms`` already maps valid LevelIndex
        # keys of dimension ``dim``, in sorted order, to nonzero Fractions,
        # and the plan takes it over without the per-term checks. A band
        # plan passes None and its class table instead.
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_terms", None if terms is None else MappingProxyType(terms))
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
        if self._band is not None:
            return sum(count for _, _, count, _ in self._band.classes())
        return len(self._terms)

    def __iter__(self) -> Iterator[LevelIndex]:
        return iter(self.terms)

    def items(self) -> list[tuple[LevelIndex, Fraction]]:
        """Term list sorted by level tuple (the canonical reduction order)."""
        return list(self.terms.items())

    def support(self) -> list[LevelIndex]:
        return list(self.terms)

    def coefficient_sum(self) -> Fraction:
        return sum(per_level_mass(self).values(), Fraction(0))

    def shifted(self, offset: int) -> "CombinationPlan":
        """The same plan with every level shifted by a constant offset."""
        # A constant offset keeps the sorted order. A band plan records it
        # while its total offset stays nonnegative. Otherwise a nonnegative
        # offset keeps every level valid, so its keys skip LevelIndex's
        # validation; a negative one is checked, a negative level raises.
        offset = operator.index(offset)
        label = f"{self.label}+shift{offset}" if self.label else f"shift{offset}"
        band = self._band
        if band is not None and band.offset + offset >= 0:
            band = band._replace(offset=band.offset + offset)
            return CombinationPlan._from_sorted(self.dim, None, label, band)
        if offset >= 0:
            new = tuple.__new__
            shifted_terms = {
                new(LevelIndex, [v + offset for v in lv]): c for lv, c in self.terms.items()
            }
        else:
            shifted_terms = {lv.shifted(offset): c for lv, c in self.terms.items()}
        return CombinationPlan._from_sorted(self.dim, shifted_terms, label)

    def __repr__(self) -> str:
        return f"CombinationPlan(dim={self.dim}, terms={self.term_count()}, label={self.label!r})"


class _Band(NamedTuple):
    """The class table of a band plan.

    Every level l with n <= |l|_1 <= top, plus ``offset`` in each direction,
    has coefficient ``table[|l|_1][p]``, p being the number of nonzero entries
    of l before the offset (see ho_plan); levels whose coefficient is zero
    are left out. The top diagonal is ``len(table) - 1``.
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

    def masses(self) -> dict[int, Fraction]:
        """Coefficient mass per diagonal |l|_1, as ``per_level_mass``."""
        shift = self.d * self.offset
        masses: dict[int, Fraction] = {}
        for t, _, count, coeff in self.classes():
            masses[t + shift] = masses.get(t + shift, 0) + count * coeff
        return masses

    def prefixes(self, start, pieces: list) -> list[tuple]:
        """The first d-1 levels of every level in the band in lexicographic
        order, each as ``start`` plus one of ``pieces`` per level (``pieces[v]``
        stands for level v), with its |.|_1 and nonzero count before the
        offset."""
        top = len(self.table) - 1
        prefixes = [(start, 0, 0)]
        for _ in range(self.d - 1):
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
            for lv, t, p in self.prefixes((), [(v + s,) for v in range(top + 1)])
            for v, coeff in closing[t][p]
        }

    def export_texts(self) -> Iterator[str]:
        """The export text of every term, by diagonal |l|_1 and then level.

        On diagonal t every prefix with |prefix|_1 <= t, in lexicographic
        order, is closed by the last level t - |prefix|_1 unless that cell's
        coefficient is zero. A prefix's text is rendered once, and a closing
        text once per diagonal and (|prefix|_1, count).
        """
        d, n, table, s = self
        top = len(table) - 1
        head = '    {\n      "levels": [\n        '
        pieces = [f"{v + s},\n        " for v in range(top + 1)]
        # k = |prefix|_1 * d + count indexes a diagonal's closing texts.
        walk = [(text, t * d + p) for text, t, p in self.prefixes(head, pieces)]
        for t in range(n, top + 1):
            ends = [
                f'{t - tp + s}\n      ],\n      "coeff": "{c.numerator}/{c.denominator}"\n    }}'
                if (c := table[t][p + (tp < t)])
                else ""
                for tp in range(t + 1)
                for p in range(d)
            ]
            limit = len(ends)
            yield from (text + end for text, k in walk if k < limit and (end := ends[k]))


def _band(d: int, n: int, alpha: Sequence, label: str) -> CombinationPlan:
    # The plan of every level l with n <= |l|_1 <= n+d+len(alpha)-2 and
    # coefficient c(|l|_1, #nonzero levels) (see ho_plan), kept as its
    # table; a maps each diagonal to its standard-plan coefficient.
    top = n + d + len(alpha) - 2
    a = {n + i: (-1) ** (d - 1 - i) * comb(d - 1, i) for i in range(d)}

    def c(t: int, p: int) -> Fraction:
        terms = (comb(p, k) * a.get(t - k, 0) * w for k, w in enumerate(alpha[: p + 1]))
        return sum(terms, Fraction(0))

    table = [[c(t, p) for p in range(d + 1)] for t in range(top + 1)]
    return CombinationPlan._from_sorted(d, None, label, _Band(d, n, table, 0))


def standard_plan(d: int, n: int) -> CombinationPlan:
    """The classical combination plan at level ``n``.

    Support is { l >= 0 : n <= |l|_1 <= n+d-1 } with coefficient
    (-1)**(d-1-i) * C(d-1, i) on the diagonal |l|_1 = n + i.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("level must be >= 0")
    return _band(d, n, (1,), f"standard(d={d},n={n})")


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
    if n < 1:
        raise ValueError("higher-order plan needs n >= 1")
    return _band(d, n, extrapolation_weights(d), f"ho(d={d},n={n})")


def _diagonals(
    plan: CombinationPlan,
) -> tuple[dict[int, list[tuple[LevelIndex, Fraction]]], dict[int, Fraction]]:
    # One pass over the terms: each (level, coefficient) item goes to the
    # bucket of its diagonal |l|_1, in the stored level order, and the
    # integer numerators add up per diagonal and denominator. Returns the
    # buckets and the masses, both in increasing |l|_1.
    buckets: defaultdict[int, list] = defaultdict(list)
    numerators: defaultdict[int, defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
    for item in plan.terms.items():
        t = sum(item[0])
        buckets[t].append(item)
        num, den = item[1].as_integer_ratio()
        numerators[t][den] += num
    masses = {
        t: sum((Fraction(num, den) for den, num in numerators[t].items()), Fraction(0))
        for t in sorted(numerators)
    }
    return {t: buckets[t] for t in masses}, masses


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

    A band plan sums level count times coefficient over its classes. Any
    other plan sums exactly over integer numerators: each diagonal adds the
    numerators of its coefficients per distinct denominator, and only those
    few partial sums become Fractions. A diagonal that cancels keeps its
    entry, with mass 0.
    """
    if plan._band is not None:
        return plan._band.masses()
    return _diagonals(plan)[1]


def plan_to_dict(plan: CombinationPlan, n: Optional[int] = None) -> dict:
    """JSON-ready dump: terms ordered by (|l|_1, l), with exact "p/q"
    coefficient strings. :func:`write_plan_json` writes its JSON text."""
    buckets, masses = _diagonals(plan)
    payload = _export_fields(plan, n, masses)
    payload["terms"] = [
        {"levels": list(lv), "coeff": _frac_str(coeff)}
        for bucket in buckets.values()
        for lv, coeff in bucket
    ]
    return payload


# Terms rendered per write of the plan export.
_EXPORT_CHUNK_TERMS = 512


def write_plan_json(plan: CombinationPlan, out: TextIO, n: Optional[int] = None) -> None:
    """Write the bytes of ``json.dump(plan_to_dict(plan, n), out, indent=2)``
    and a newline.

    A band plan's terms are rendered from its class table, one diagonal
    after another, without building the plan's terms, in chunks of a
    bounded number of terms, so no dict per term is built and the text is
    never joined into one string (with an indent, ``json.dump`` runs its
    pure-Python encoder at one write per token). ``json`` lays out
    everything else (label escaping included); the first '"terms": []' in
    its text is the key, because a quote inside an encoded string is always
    escaped. Any other plan is written by exactly that ``json.dump``.
    """
    if plan._band is None:
        json.dump(plan_to_dict(plan, n), out, indent=2)
        out.write("\n")
        return
    masses = plan._band.masses()
    texts = plan._band.export_texts()
    fields = _export_fields(plan, n, masses)
    head, _, tail = json.dumps(fields, indent=2).partition('"terms": []')
    out.write(head + '"terms": [')
    sep = "\n"
    while chunk := list(islice(texts, _EXPORT_CHUNK_TERMS)):
        out.write(sep + ",\n".join(chunk))
        sep = ",\n"
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
        power = [sum(power[i] * q[t - i] for i in range(t)) for t in range(top + 1)]
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
    solve that raises stores nothing.
    """

    def __init__(self) -> None:
        self._entries: dict[CacheKey, tuple[float, ...]] = {}

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
    seconds: float

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
    one table of the points' cells and weights; no nodal grid is formed.
    Grids with a zero level in some direction have no interior unknown under
    homogeneous Dirichlet data; their value is exactly 0.0, so they are
    neither solved nor summed. The other levels are solved one after another
    in sorted order; each point's weighted reduction runs over sorted levels
    with exact coefficients converted to float at the multiply, so every
    value is bit-identical whatever the cache state or the other points
    evaluated alongside.
    """
    if p.dim != plan.dim:
        raise ValueError(f"problem is {p.dim}-dimensional, plan is {plan.dim}")
    pts = _checked_points(x, plan.dim)
    t0 = time.perf_counter()

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
    table = _PointTable(pts)

    def values_at(key: CacheKey) -> tuple[float, ...]:
        return tuple(_solve_at_table(p, key[0], table).tolist())

    entries: dict[LevelIndex, tuple[float, ...]] = {}
    newly_solved: list[LevelIndex] = []
    for level in plan.terms:
        if min(level) < 1:
            continue
        try:
            entries[level], mine = cache.get_or_solve((level, points_key), values_at)
        except Exception as exc:
            raise PlanEvaluationError(
                f"while solving level {tuple(level)} "
                f"for plan {plan.label or '<unnamed>'}: {exc}",
                level=level,
            ) from exc
        if mine:
            newly_solved.append(level)

    # entries holds the solvable levels in sorted order; the zero-level terms
    # would only add exact zeros, which leave a correctly rounded sum as is.
    terms = plan.terms
    weighted = [(float(terms[lv]), entry) for lv, entry in entries.items()]
    return EvaluationResult(
        values=tuple(
            math.fsum(c * entry[k] for c, entry in weighted) for k in range(len(pts))
        ),
        dof_total=dof_total,
        dof_unique=sum(lv.node_count() for lv in newly_solved),
        grids_solved=len(newly_solved),
        seconds=time.perf_counter() - t0,
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
    if d != 2:
        raise ValueError("method SPLIT2D requires dim = 2")
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
    build = _METHOD_PLANS.get(method.upper())
    if build is None:
        raise ValueError(f"unknown method {method!r}; expected one of {STUDY_METHODS}")
    _check_level_shift(level_shift)
    return build(d, n, level_shift)


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
    cache: Optional[GridCache] = None,
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
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
    if surplus_points < 0:
        raise ValueError("surplus_points must be >= 0")

    pts = _checked_points(x if x is not None else default_eval_point(d), d)
    if pts.shape[0] != 1:
        raise ValueError("a study evaluates at one point x")
    if cache is None:
        cache = GridCache()
    if surplus_points > 0:
        rng = np.random.default_rng(seed)
        pts = np.vstack([pts, rng.uniform(0.05, 0.95, size=(surplus_points, d))])

    records: list[ConvergenceRecord] = []
    prev_vec: Optional[np.ndarray] = None
    for n in range(n_min, n_max + 1):
        projected = projected_dof_total(method, d, n, level_shift)
        if projected > node_budget:
            raise BudgetExceededError(
                f"{method} d={d} n={n} (shift {level_shift}) projects "
                f"{projected} nodes, budget is {node_budget}; "
                f"{len(records)} records completed",
                projected=projected,
                budget=node_budget,
                records=records,
                n=n,
            )
        t0 = time.perf_counter()
        plan = method_plan(method, d, n, level_shift)
        result = evaluate_plan(p, plan, pts, cache, node_budget=node_budget)
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
                surplus=None,
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
