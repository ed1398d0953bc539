"""Independent reference implementations used to pin expected values.

Everything here deliberately takes a different route than the package: the
solver assembles the interior matrix explicitly and factorizes it, the
combination coefficients come from a Pascal-triangle recurrence, the
extrapolation weights are re-derived by exact Gaussian elimination of their
defining linear system, interpolation loops over cell corners, and the
higher-order equivalence is evaluated as a literal double sum, and the
built-in problem's grid values come in closed form. Agreement between the
package and these slower routes is what the tests assert.
"""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from sparsecombine.verify import IdentityReport


# ---------------------------------------------------------------------------
# Assembled-matrix Poisson solve


def interior_matrix(level) -> sp.csr_matrix:
    """Kronecker-sum assembly of the interior second-difference operator."""
    level = tuple(int(v) for v in level)
    mats = []
    for v in level:
        m = 2 ** v - 1
        t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m), format="csr")
        mats.append(t * (4.0 ** v))
    d = len(level)
    total = None
    for k in range(d):
        factors = [
            mats[k] if j == k else sp.identity(2 ** level[j] - 1, format="csr")
            for j in range(d)
        ]
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


def solve_assembled(p, level) -> np.ndarray:
    """Direct solve of the assembled interior system; returns the full nodal array.

    The right-hand side is sampled by looping the scalar callable over the
    interior nodes, independently of any vectorized fast path the problem may
    carry.
    """
    level = tuple(int(v) for v in level)
    shape = tuple(2 ** v - 1 for v in level)
    widths = [2.0 ** -v for v in level]
    rhs = np.empty(shape)
    for idx in np.ndindex(*shape):
        rhs[idx] = p.rhs(tuple((i + 1) * h for i, h in zip(idx, widths)))
    mat = interior_matrix(level)
    n = rhs.size
    if n <= 1500:
        sol = np.linalg.solve(mat.toarray(), rhs.reshape(-1))
    else:
        sol = scipy.sparse.linalg.spsolve(mat.tocsc(), rhs.reshape(-1))
    full = np.zeros(tuple(2 ** v + 1 for v in level))
    core = tuple(slice(1, -1) for _ in level)
    full[core] = sol.reshape(shape)
    return full


# ---------------------------------------------------------------------------
# Corner-loop multilinear interpolation


def interp_corners(full: np.ndarray, level, x) -> float:
    """Tensor-product interpolation via an explicit sum over the 2**d corners."""
    level = tuple(int(v) for v in level)
    cells = []
    fracs = []
    for j, xj in enumerate(x):
        m = 2 ** level[j]
        t = float(xj) * m
        i = min(int(t), m - 1)
        cells.append(i)
        fracs.append(t - i)
    total = 0.0
    for corner in product((0, 1), repeat=len(level)):
        w = 1.0
        for j, bit in enumerate(corner):
            w *= fracs[j] if bit else 1.0 - fracs[j]
        idx = tuple(cells[j] + corner[j] for j in range(len(level)))
        total += w * float(full[idx])
    return total


# ---------------------------------------------------------------------------
# New-array outer products


def outer(op, vectors: list[np.ndarray]) -> np.ndarray:
    """The d-dimensional array (v0[i0] op v1[i1]) op ... op v_{d-1}[i_{d-1}],
    folded from the left by broadcasting; always a new array. The reference
    for the solver's in-buffer outer products (``pde._outer_into``)."""
    d = len(vectors)
    out = vectors[0].reshape((-1,) + (1,) * (d - 1))
    for j in range(1, d):
        out = op(out, vectors[j].reshape((-1,) + (1,) * (d - 1 - j)))
    return out if d > 1 else out.copy()


# ---------------------------------------------------------------------------
# Closed-form grid values of the built-in problem


def _node_sine(i: int, n: int) -> float:
    # sin(pi i / n) at node i of a 1-D grid with n cells; 0 on the boundary.
    return 0.0 if i in (0, n) else math.sin(math.pi * i / n)


def builtin_grid_value(level, x) -> float:
    """Value at ``x`` of the multilinear interpolant of the discrete solution
    of the built-in problem f = d pi^2 prod_j sin(pi x_j) on the grid at
    ``level``, without a solve.

    sin(pi .) is an eigenvector of the 1-D second difference: at spacing
    2**-v its eigenvalue is mu(v) = -4**(v+1) sin^2(pi / 2**(v+1)). So the
    grid's solution at its nodes is d pi^2 / sum_j mu(l_j) times
    prod_j sin(pi x_j), and its interpolant at x is that factor times the
    product of the 1-D linear interpolants of sin(pi .) at each x_j. A grid
    with a zero level has only boundary nodes and gives 0.
    """
    d = len(level)
    mu = sum(-(4.0 ** (v + 1)) * math.sin(math.pi / 2 ** (v + 1)) ** 2 for v in level)
    value = d * math.pi ** 2 / mu
    for v, xj in zip(level, x):
        n = 2 ** v
        i = min(int(xj * n), n - 1)
        t = xj * n - i
        value *= (1.0 - t) * _node_sine(i, n) + t * _node_sine(i + 1, n)
    return value


# pi to 60 digits, for sines in decimal arithmetic.
PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494"


def decimal_sine(q, n) -> decimal.Decimal:
    """sin(pi q / n) from its Taylor series in 60-digit decimal arithmetic,
    for 0 <= q <= n (q may be a Decimal)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(PI_DIGITS) * q / n
        term, total, k = x, x, 1
        while abs(term) > decimal.Decimal(10) ** -55:
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return total


def builtin_grid_value_decimal(level, x) -> decimal.Decimal:
    """:func:`builtin_grid_value` in 60-digit decimal arithmetic, from the
    float coordinates of ``x`` taken exactly: a reference that measures the
    rounding of a grid's float value rather than estimating it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        mu = sum(-(4 ** (v + 1)) * decimal_sine(1, 2 ** (v + 1)) ** 2 for v in level)
        value = len(level) * decimal.Decimal(PI_DIGITS) ** 2 / mu
        for v, xj in zip(level, x):
            n = 2 ** v
            i = min(int(xj * n), n - 1)
            t = decimal.Decimal(xj) * n - i
            value *= (1 - t) * decimal_sine(i, n) + t * decimal_sine(i + 1, n)
        return value


# ---------------------------------------------------------------------------
# Coefficient oracles


def pascal_row(m: int) -> list[int]:
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def standard_coeffs(d: int) -> list[Fraction]:
    """a_i for i = 0..d-1 from the Pascal recurrence (no math.comb)."""
    row = pascal_row(d - 1)
    return [Fraction((-1) ** (d - 1 - i) * row[i]) for i in range(d)]


def weights_by_elimination(d: int) -> list[Fraction]:
    """Re-derive the extrapolation weights from their defining linear system.

    Unknowns x_0..x_d; equations: sum_k C(d,k) x_k = 1 (consistency) and, for
    every m = 1..d, sum_k x_k sum_l 4**(-l) C(m,l) C(d-m,k-l) = 0 (each group
    of second-order error terms cancels). Solved by exact Gaussian
    elimination with Fractions.
    """
    size = d + 1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    rows.append([Fraction(comb(d, k)) for k in range(size)])
    rhs.append(Fraction(1))
    for m in range(1, d + 1):
        row = []
        for k in range(size):
            acc = Fraction(0)
            for l in range(max(0, m + k - d), min(m, k) + 1):
                acc += Fraction(comb(m, l) * comb(d - m, k - l), 4 ** l)
            row.append(acc)
        rows.append(row)
        rhs.append(Fraction(0))

    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return rhs


def class_table_by_sums(d: int, n: int, alpha) -> list[list[Fraction]]:
    """The class table c(t, p) = sum_k C(p, k) a_{t-k-n} alpha_k for
    t <= n + d + len(alpha) - 2 and p <= d, one Fraction sum per cell, a_i
    being the standard coefficient on diagonal n + i (zero outside
    0 <= i < d)."""
    a = standard_coeffs(d)
    return [
        [
            sum(
                (comb(p, k) * a[t - k - n] * w for k, w in enumerate(alpha[: p + 1])
                 if 0 <= t - k - n < d),
                Fraction(0),
            )
            for p in range(d + 1)
        ]
        for t in range(n + d + len(alpha) - 1)
    ]


# ---------------------------------------------------------------------------
# Higher-order combination: accumulated coefficients and literal double sum


def ho_plan_by_accumulation(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Extrapolate every grid of the classical plan, sum the coefficients per
    level, and drop exact zeros: the higher-order plan built term by term."""
    a = standard_coeffs(d)
    alpha = weights_by_elimination(d)
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(d):
        for base in compositions(n + i, d):
            for bits in product((0, 1), repeat=d):
                refined = tuple(v + b for v, b in zip(base, bits))
                acc[refined] = acc.get(refined, Fraction(0)) + a[i] * alpha[sum(bits)]
    return {lv: c for lv, c in acc.items() if c != 0}


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def double_sum_ho(p, d: int, n: int, x, level_shift: int = 0, solve=None) -> float:
    """Extrapolate each grid of the classical plan, then combine: the literal
    a-weighted sum over diagonals of alpha-weighted subset refinements.

    ``solve`` maps a level tuple to the full nodal array (memoized by the
    caller); grids with a zero level in some direction contribute 0 under the
    homogeneous Dirichlet completion.
    """
    a = standard_coeffs(d)
    alpha = [Fraction((-4) ** k, (-3) ** d) for k in range(d + 1)]

    def value_at(level: tuple[int, ...]) -> float:
        if min(level) == 0:
            return 0.0
        return interp_corners(solve(level), level, x)

    total = 0.0
    for i in range(d):
        for base in compositions(n + i, d):
            shifted = tuple(v + level_shift for v in base)
            for bits in product((0, 1), repeat=d):
                refined = tuple(v + b for v, b in zip(shifted, bits))
                total += float(a[i] * alpha[sum(bits)]) * value_at(refined)
    return total


# ---------------------------------------------------------------------------
# Exact per-diagonal mass and the randomized telescoping check


def level_mass_by_fraction_sum(terms) -> dict[int, Fraction]:
    """Coefficient mass per diagonal |l|_1, one Fraction addition per term,
    in increasing |l|_1; a diagonal that cancels keeps its entry."""
    masses: dict[int, Fraction] = {}
    for lv, coeff in terms.items():
        t = sum(lv)
        masses[t] = masses.get(t, Fraction(0)) + coeff
    return dict(sorted(masses.items()))


def lemma_cancel_literal(d: int, trials: int = 100, seed: int = 0, weights=None):
    """The randomized telescoping check as a literal triple loop over trials,
    bit vectors and weights, in Fraction arithmetic, with the given weights
    or else those from elimination. Returns the IdentityReport the package's
    check must equal field for field."""
    alpha = list(weights) if weights is not None else weights_by_elimination(d)
    alpha_f = [float(a) for a in alpha]
    rng = random.Random(seed)
    bit_vectors = list(product((0, 1), repeat=d))
    table_keys = list(product((0, 1), repeat=d - 1))

    worst_rational = Fraction(0)
    for _ in range(trials):
        beta = {
            key: Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            for key in table_keys
        }
        total = Fraction(0)
        for bits in bit_vectors:
            k = sum(bits)
            total += alpha[k] * Fraction(1, 4 ** bits[0]) * beta[bits[1:]]
        worst_rational = max(worst_rational, abs(total))

    worst_float = 0.0
    for _ in range(trials):
        beta_f = {key: rng.uniform(-1.0, 1.0) for key in table_keys}
        total_f = 0.0
        for bits in bit_vectors:
            k = sum(bits)
            total_f += alpha_f[k] * 0.25 ** bits[0] * beta_f[bits[1:]]
        worst_float = max(worst_float, abs(total_f))

    passed = worst_rational == 0 and worst_float <= 1e-12 * 2 ** d
    defect = worst_rational if worst_rational != 0 else worst_float
    return IdentityReport(
        d=d, identity="lemma_cancel", max_abs_defect=defect, passed=passed, seed=seed
    )
