"""Verification of the extrapolation weights and their cancellation structure.

Three identity checks run in exact rational arithmetic end to end (the
randomized check also has a float64 phase, which checks that the weights
rounded to float64 still cancel each random table to within 1e-12 * 2**d):

- normalization: sum_k alpha_k C(d,k) = 1,
- the cancellation system: for every m = 1..d the weighted subgrid sums of the
  second-order error terms vanish,
- the randomized telescoping check: for arbitrary tables beta over {0,1}^(d-1),
  sum_k alpha_k sum_{|i|=k} 4**(-i_0) beta(i_1..i_{d-1}) = 0.

Synthetic expansions model a solver's error as
U(x; h) = u(x) - sum_j beta_j(x, h_others) h_j^2 - sum_S gamma_S(x, h_S) prod h_j^4
with closed-form beta and gamma (no PDE solve involved), so applying the
2**d-term extrapolation operator isolates the weights' algebra: all h^2 terms
must cancel and the residual must be a bounded combination of the quartic
terms.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, Mapping, Optional, Sequence, Union

from .combine import extrapolation_weights
from .grid import Point

__all__ = [
    "IdentityReport",
    "SyntheticExpansion",
    "check_normalization",
    "check_cancellation_system",
    "check_lemma_cancel",
    "model_value",
    "extrapolated_value",
    "synthetic_expansion_check",
    "residual_bound",
    "random_expansion",
]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    ``passed`` means defect exactly 0 for rational checks, or within the
    stated tolerance for the floating phase of the randomized check. (The
    field is named ``passed`` because ``pass`` is reserved in Python.)
    """

    d: int
    identity: str
    max_abs_defect: Union[Fraction, float]
    passed: bool
    seed: Optional[int] = None

    def __str__(self) -> str:
        defect = self.max_abs_defect
        shown = f"{defect}" if isinstance(defect, Fraction) else f"{defect:.3e}"
        status = "pass" if self.passed else "FAIL"
        return f"{self.identity:<20} d={self.d:<3} defect={shown:<12} {status}"


def _weights_for(d: int, weights: Optional[Sequence[Fraction]]) -> list[Fraction]:
    if weights is None:
        return list(extrapolation_weights(d))
    w = [Fraction(v) for v in weights]
    if len(w) != d + 1:
        raise ValueError(f"need {d + 1} weights for dimension {d}, got {len(w)}")
    return w


def check_normalization(
    d: int, weights: Optional[Sequence[Fraction]] = None
) -> IdentityReport:
    """Exact check of sum_k alpha_k C(d,k) = 1."""
    if not 1 <= d <= 64:
        raise ValueError("normalization check supports 1 <= d <= 64")
    alpha = _weights_for(d, weights)
    defect = sum(alpha[k] * comb(d, k) for k in range(d + 1)) - 1
    return IdentityReport(
        d=d, identity="normalization", max_abs_defect=abs(defect), passed=defect == 0
    )


def check_cancellation_system(
    d: int, weights: Optional[Sequence[Fraction]] = None
) -> IdentityReport:
    """Exact check that every second-order error group cancels.

    For each m = 1..d the weighted sum over refinement counts,
    sum_k alpha_k sum_l 4**(-l) C(m,l) C(d-m,k-l), must vanish: the inner sum
    counts the subgrids refining l of the m directions carrying the error
    term, each contributing a factor 4**(-l) from the squared mesh widths.
    """
    if not 1 <= d <= 32:
        raise ValueError("cancellation check supports 1 <= d <= 32")
    alpha = _weights_for(d, weights)
    worst = Fraction(0)
    for m in range(1, d + 1):
        total = Fraction(0)
        for k in range(d + 1):
            inner = Fraction(0)
            for l in range(max(0, m + k - d), min(m, k) + 1):
                inner += Fraction(comb(m, l) * comb(d - m, k - l), 4 ** l)
            total += alpha[k] * inner
        worst = max(worst, abs(total))
    return IdentityReport(
        d=d,
        identity="cancellation_system",
        max_abs_defect=worst,
        passed=worst == 0,
    )


# The randomized tables' entries are p/q with |p| <= _TABLE_MAX_NUM and
# 1 <= q <= _TABLE_MAX_DEN, so each is an integer multiple of 1/_TABLE_LCM;
# _TABLE_SCALE[q - 1] is _TABLE_LCM / q.
_TABLE_MAX_NUM = 99
_TABLE_MAX_DEN = 40
_TABLE_LCM = math.lcm(*range(1, _TABLE_MAX_DEN + 1))
_TABLE_SCALE = [_TABLE_LCM // q for q in range(1, _TABLE_MAX_DEN + 1)]


def check_lemma_cancel(
    d: int,
    trials: int = 100,
    seed: int = 0,
    weights: Optional[Sequence[Fraction]] = None,
) -> IdentityReport:
    """Randomized telescoping check with arbitrary tables beta: {0,1}^(d-1) -> values.

    Runs ``trials`` random tables twice: with small rational entries (defect
    must be exactly 0; summed in integer arithmetic over a common
    denominator) and with float entries in [-1, 1] and float64 weights
    (defect must stay within 1e-12 * 2**d). ``trials`` must be at
    least 1: a check that draws no table would pass vacuously.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    alpha = _weights_for(d, weights)
    alpha_f = [float(a) for a in alpha]
    rng = random.Random(seed)
    bit_vectors = list(product((0, 1), repeat=d))
    n_keys = 2 ** (d - 1)
    # Each bit vector's weight alpha_|b| * 4**(-b_0), exact and in float;
    # the float terms keep the left-to-right product (alpha * 4**(-b_0)) *
    # beta. The two weights sharing a key stay separate terms:
    # alpha_k + alpha_{k+1}/4 = 0, so folding them would make the check
    # vacuous.
    weights_q = [alpha[sum(b)] * Fraction(1, 4 ** b[0]) for b in bit_vectors]
    weights_f = [alpha_f[sum(b)] * 0.25 ** b[0] for b in bit_vectors]

    # The exact phase runs in integers: the weights scaled by D, the lcm of
    # their denominators, and each table entry p/q by _TABLE_LCM. Bit vector
    # i's table key b_1..b_{d-1} is entry i mod 2**(d-1) of each table.
    scale = math.lcm(*(c.denominator for c in weights_q))
    weights_z = [c.numerator * (scale // c.denominator) for c in weights_q]
    key_index = [i % n_keys for i in range(len(bit_vectors))]
    # The draws below consume the stream of rng.randint(-_TABLE_MAX_NUM,
    # _TABLE_MAX_NUM), then rng.randint(1, _TABLE_MAX_DEN), and of
    # rng.uniform(-1.0, 1.0), value for value: random.Random draws an integer
    # below n by rejection on n.bit_length() random bits.
    getrandbits, random_float = rng.getrandbits, rng.random
    num_span = 2 * _TABLE_MAX_NUM + 1
    num_bits, den_bits = num_span.bit_length(), _TABLE_MAX_DEN.bit_length()
    worst = 0
    for _ in range(trials):
        beta_z = []
        for _ in range(n_keys):
            a = getrandbits(num_bits)
            while a >= num_span:
                a = getrandbits(num_bits)
            b = getrandbits(den_bits)
            while b >= _TABLE_MAX_DEN:
                b = getrandbits(den_bits)
            # The entry p/q with p = a - _TABLE_MAX_NUM and q = b + 1.
            beta_z.append((a - _TABLE_MAX_NUM) * _TABLE_SCALE[b])
        total = sum(map(operator.mul, weights_z, map(beta_z.__getitem__, key_index)))
        worst = max(worst, abs(total))
    worst_rational = Fraction(worst, scale * _TABLE_LCM)

    worst_float = 0.0
    for _ in range(trials):
        beta_f = [-1.0 + 2.0 * random_float() for _ in range(n_keys)]
        total_f = 0.0
        for c, k in zip(weights_f, key_index):
            total_f += c * beta_f[k]
        worst_float = max(worst_float, abs(total_f))

    float_tol = 1e-12 * 2 ** d
    passed = worst_rational == 0 and worst_float <= float_tol
    defect: Union[Fraction, float]
    defect = worst_rational if worst_rational != 0 else worst_float
    return IdentityReport(
        d=d,
        identity="lemma_cancel",
        max_abs_defect=defect,
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Synthetic error expansions


@dataclass(frozen=True)
class SyntheticExpansion:
    """A closed-form model of a second-order solver's error expansion.

    ``beta[j]`` maps (x, h_others) to the coefficient of h_j**2, where
    h_others are the mesh widths of the other directions in ascending
    direction order. ``gamma`` maps a sorted direction tuple S to a callable
    (x, h_S) for the coefficient of prod_{j in S} h_j**4. ``gamma_bound`` is a
    certified upper bound on |gamma_S| over the unit cube and h <= 1, used by
    the residual-bound check.
    """

    dim: int
    base: Callable[[Point], float]
    beta: Sequence[Callable[[Point, tuple[float, ...]], float]]
    gamma: Mapping[tuple[int, ...], Callable[[Point, tuple[float, ...]], float]]
    gamma_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.beta) != self.dim:
            raise ValueError(f"need {self.dim} beta coefficients")
        for subset in self.gamma:
            if not subset or tuple(sorted(set(subset))) != tuple(subset):
                raise ValueError(
                    f"gamma key {subset!r} must be a sorted nonempty direction tuple"
                )
            if any(not 0 <= j < self.dim for j in subset):
                raise ValueError(f"gamma key {subset!r} out of range")


def model_value(se: SyntheticExpansion, x: Point, h: Sequence[float]) -> float:
    """U(x; h) = u(x) - sum_j beta_j h_j^2 - sum_S gamma_S prod_{j in S} h_j^4."""
    h = tuple(float(v) for v in h)
    if len(h) != se.dim:
        raise ValueError(f"need {se.dim} mesh widths, got {len(h)}")
    value = se.base(x)
    for j in range(se.dim):
        h_others = h[:j] + h[j + 1 :]
        value -= se.beta[j](x, h_others) * h[j] ** 2
    for subset, gamma_fn in se.gamma.items():
        h_sub = tuple(h[j] for j in subset)
        quartic = 1.0
        for v in h_sub:
            quartic *= v ** 4
        value -= gamma_fn(x, h_sub) * quartic
    return value


def extrapolated_value(se: SyntheticExpansion, x: Point, h: Sequence[float]) -> float:
    """Apply the 2**d-term extrapolation operator to the model at base widths h."""
    h = tuple(float(v) for v in h)
    alpha = [float(a) for a in extrapolation_weights(se.dim)]
    total = 0.0
    for bits in product((0, 1), repeat=se.dim):
        refined = tuple(v / 2 if b else v for v, b in zip(h, bits))
        total += alpha[sum(bits)] * model_value(se, x, refined)
    return total


def default_expansion_point(d: int) -> tuple[float, ...]:
    """A fixed generic interior point for expansion checks."""
    return tuple(0.3 + 0.4 * (j + 1) / (d + 1) for j in range(d))


def synthetic_expansion_check(
    se: SyntheticExpansion, base_h_levels: Sequence[int]
) -> list[tuple[float, float]]:
    """Extrapolation residuals u(x) - Utilde(x; h) over isotropic h = 2**-n,
    at x = default_expansion_point(se.dim).

    Returns one (h, residual) row per level in ``base_h_levels`` (at least 3
    levels required). A correct weight set cancels every h^2 term exactly, so
    the residual is the surviving quartic combination: fourth order in h.
    """
    levels = list(base_h_levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 levels to measure a decay rate")
    pt = default_expansion_point(se.dim)
    exact = se.base(pt)
    rows: list[tuple[float, float]] = []
    for n in levels:
        h = (2.0 ** -n,) * se.dim
        rows.append((h[0], exact - extrapolated_value(se, pt, h)))
    return rows


def residual_bound(se: SyntheticExpansion, h: float) -> float:
    """The guaranteed residual envelope (5/3)**d * gamma_bound * sum_S h^(4|S|)
    at the isotropic mesh width ``h``.

    The subset sum runs over all nonempty S, i.e. (1 + h^4)**d - 1.
    """
    subset_sum = math.prod([1.0 + float(h) ** 4] * se.dim) - 1.0
    return (5.0 / 3.0) ** se.dim * se.gamma_bound * subset_sum


def random_expansion(d: int, seed: int) -> SyntheticExpansion:
    """A randomized SyntheticExpansion with smooth closed-form coefficients.

    Every beta_j depends on x and on the other directions' mesh widths (the
    hardest case the telescoping identity must cancel); every nonempty subset
    S carries a gamma_S with amplitude in [0.2, 1], so the quartic residual
    cannot degenerate to zero. ``gamma_bound`` is set to the certified sup of
    the generated gammas.
    """
    rng = random.Random(seed)
    base_c0 = rng.uniform(-1.0, 1.0)
    base_c = [rng.uniform(-1.0, 1.0) for _ in range(d)]

    def base(x: Point) -> float:
        return base_c0 + sum(c * math.sin(math.pi * xj) for c, xj in zip(base_c, x))

    def make_beta(j: int) -> Callable[[Point, tuple[float, ...]], float]:
        b0 = rng.uniform(-1.0, 1.0)
        b1 = rng.uniform(-1.0, 1.0)
        b2 = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)

        def beta(x: Point, h_others: tuple[float, ...]) -> float:
            return b0 + b1 * math.cos(x[j] + phase) + b2 * sum(v ** 2 for v in h_others)

        return beta

    beta = [make_beta(j) for j in range(d)]

    gamma: dict[tuple[int, ...], Callable[[Point, tuple[float, ...]], float]] = {}
    max_amp = 0.0
    subsets = [
        tuple(sorted(s))
        for k in range(1, d + 1)
        for s in combinations(range(d), k)
    ]
    for subset in subsets:
        amp = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        max_amp = max(max_amp, abs(amp))

        def gamma_fn(
            x: Point,
            h_sub: tuple[float, ...],
            amp: float = amp,
            phase: float = phase,
            subset: tuple[int, ...] = subset,
        ) -> float:
            osc = 0.25 * math.sin(2.0 * math.pi * sum(x[j] for j in subset) + phase)
            damp = 0.25 * math.cos(3.0 * sum(h_sub))
            return amp * (1.0 + osc + damp)

        gamma[subset] = gamma_fn

    return SyntheticExpansion(
        dim=d, base=base, beta=beta, gamma=gamma, gamma_bound=1.5 * max_amp
    )

