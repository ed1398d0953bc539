"""Verification of the extrapolation weights and their cancellation structure.

Three identity checks run in exact rational arithmetic end to end (the
randomized check also has a float64 phase, which checks that the weights
rounded to float64 still cancel each random table to within 1e-12 * 2**d):

- normalization: sum_k alpha_k C(d,k) = 1,
- the cancellation system: for every m = 1..d the weighted subgrid sums of the
  second-order error terms vanish,
- the randomized telescoping check: for arbitrary tables beta over {0,1}^(d-1),
  sum_k alpha_k sum_{|i|=k} 4**(-i_0) beta(i_1..i_{d-1}) = 0.

The exact sums run in integers over the weights' common denominator, with one
Fraction per report. The randomized check reads its rational tables off
random.Random's stream of 32-bit words in bulk. It rests on three facts of
that stream, which the tests pin against a literal draw-by-draw oracle:
getrandbits(k) for k <= 32 is the top k bits of one word (getrandbits(32 * W)
holds the next W words, the first in the lowest bits); randint(a, b) draws
getrandbits(n.bit_length()), n = b - a + 1, until the value is below n; and
random() takes two words.

Synthetic expansions model a solver's error as
U(x; h) = u(x) - sum_j beta_j(x, h_others) h_j^2 - sum_S gamma_S(x, h_S) prod h_j^4
with closed-form beta and gamma (no PDE solve involved), so applying the
2**d-term extrapolation operator isolates the weights' algebra: all h^2 terms
must cancel and the residual must be a bounded combination of the quartic
terms.
"""

from __future__ import annotations

import math
import random
import re
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


def _integer_weights(alpha: Sequence[Fraction]) -> tuple[list[int], int]:
    """The weights times the lcm D of their denominators, as integers, and D."""
    scale = math.lcm(*(a.denominator for a in alpha))
    return [a.numerator * (scale // a.denominator) for a in alpha], scale


def check_normalization(
    d: int, weights: Optional[Sequence[Fraction]] = None
) -> IdentityReport:
    """Exact check of sum_k alpha_k C(d,k) = 1, summed in integers over the
    weights' common denominator."""
    if not 1 <= d <= 64:
        raise ValueError("normalization check supports 1 <= d <= 64")
    alpha_z, scale = _integer_weights(_weights_for(d, weights))
    defect = sum(a * comb(d, k) for k, a in enumerate(alpha_z)) - scale
    return IdentityReport(d, "normalization", Fraction(abs(defect), scale), defect == 0)


def check_cancellation_system(
    d: int, weights: Optional[Sequence[Fraction]] = None
) -> IdentityReport:
    """Exact check that every second-order error group cancels.

    For each m = 1..d the weighted sum over refinement counts,
    sum_k alpha_k sum_l 4**(-l) C(m,l) C(d-m,k-l), must vanish: the inner sum
    counts the subgrids refining l of the m directions carrying the error
    term, each contributing a factor 4**(-l) from the squared mesh widths.
    Summed in integers: the weights times their common denominator D, the
    inner sums times 4**m, the worst group over D * 4**d.
    """
    if not 1 <= d <= 32:
        raise ValueError("cancellation check supports 1 <= d <= 32")
    alpha_z, scale = _integer_weights(_weights_for(d, weights))
    worst = 0
    for m in range(1, d + 1):
        refined = [comb(m, l) << 2 * (m - l) for l in range(m + 1)]
        total = sum(
            a * sum(
                refined[l] * comb(d - m, k - l)
                for l in range(max(0, m + k - d), min(m, k) + 1)
            )
            for k, a in enumerate(alpha_z)
        )
        worst = max(worst, abs(total) << 2 * (d - m))
    return IdentityReport(
        d, "cancellation_system", Fraction(worst, scale << 2 * d), worst == 0
    )


# The randomized tables' entries are p/q with |p| <= _TABLE_MAX_NUM and
# 1 <= q <= _TABLE_MAX_DEN, so each is an integer multiple of 1/_TABLE_LCM;
# _TABLE_SCALE[q - 1] is _TABLE_LCM / q.
_TABLE_MAX_NUM = 99
_TABLE_MAX_DEN = 40
_TABLE_LCM = math.lcm(*range(1, _TABLE_MAX_DEN + 1))
_TABLE_SCALE = [_TABLE_LCM // q for q in range(1, _TABLE_MAX_DEN + 1)]

# An entry p/q is drawn as p = randint(-_TABLE_MAX_NUM, _TABLE_MAX_NUM), then
# q = randint(1, _TABLE_MAX_DEN): each a run of rejected words and one word
# accepted by its top byte, below _NUM_OK (199) for p and _DEN_OK (160) for q.
# _ENTRY matches one entry in the words' top bytes; _ONE_ENTRY captures both.
_NUM_SPAN = 2 * _TABLE_MAX_NUM + 1
_NUM_SHIFT = 8 - _NUM_SPAN.bit_length()
_DEN_SHIFT = 8 - _TABLE_MAX_DEN.bit_length()
_NUM_OK = _NUM_SPAN << _NUM_SHIFT
_DEN_OK = _TABLE_MAX_DEN << _DEN_SHIFT
_DRAWS = (
    rb"[\x%02x-\xff]*" % _NUM_OK, rb"[\x00-\x%02x]" % (_NUM_OK - 1),
    rb"[\x%02x-\xff]*" % _DEN_OK, rb"[\x00-\x%02x]" % (_DEN_OK - 1),
)
_ENTRY = b"%s%s%s%s" % _DRAWS
_ONE_ENTRY = re.compile(b"%s(%s)%s(%s)" % _DRAWS)
_RUN = 1 << 14  # entries per match at most; each holds ~200 B of the matcher's stack
# Words skipped per getrandbits call at most: one call builds an integer of
# all the words it draws, 4 MiB here.
_SKIP_WORDS = 1 << 20


def check_lemma_cancel(
    d: int,
    trials: int = 100,
    seed: int = 0,
    weights: Optional[Sequence[Fraction]] = None,
) -> IdentityReport:
    """Randomized telescoping check with arbitrary tables beta: {0,1}^(d-1) -> values.

    Runs ``trials`` random tables twice: with small rational entries (defect
    must be exactly 0) and with float entries in [-1, 1] and float64 weights
    (defect must stay within 1e-12 * 2**d). ``trials`` must be at least 1: a
    check that draws no table would pass vacuously; it is at most 100,000,
    which keeps ``verify --d-max 8`` within seconds; ``d`` is at most 16.

    The exact phase folds bit vectors (0, key) and (1, key) into one integer
    weight, alpha_|key| + alpha_(|key|+1) / 4 over a common denominator (0 for
    every key with the true weights). It reads the table draws from bulk
    getrandbits(32 * W) calls, decodes only the entries of nonzero-weight keys
    and skips each run of zero-weight keys, across trials too, in one regular
    expression match. The float phase then reseeds and skips exactly the words
    consumed, in blocks of at most ``_SKIP_WORDS``, so its draws are those of
    drawing every entry one by one. Its weights stay unfolded, since folded
    ones cancel before any entry enters, and its terms are summed left to
    right in bit-vector order.
    """
    if not 1 <= d <= 16:
        raise ValueError("lemma_cancel check supports 1 <= d <= 16")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 100_000:
        raise ValueError("trials must be <= 100000")
    alpha = _weights_for(d, weights)
    try:
        alpha_f = [float(a) for a in alpha]
    except OverflowError:
        raise ValueError("weights must be within the float64 range") from None
    alpha_z, scale = _integer_weights(alpha)
    n_keys = 2 ** (d - 1)
    counts = [k.bit_count() for k in range(n_keys)]

    # The nonzero folded weights over 4 * scale, each with the number of
    # zero-weight keys before it in a table.
    hot, last = [], -1
    for k, c in enumerate(counts):
        if w := 4 * alpha_z[c] + alpha_z[c + 1]:
            hot.append((w, k - last - 1))
            last = k
    tail = n_keys - 1 - last

    draws = random.Random(seed).getrandbits
    words = 3 * min(trials * n_keys, _RUN) + 64  # an entry takes 2.89 words on average
    top, pos, consumed = b"", 0, 0

    def read(pattern: re.Pattern) -> re.Match:
        nonlocal top, pos, consumed
        while (match := pattern.match(top, pos)) is None:
            fresh = draws(32 * words).to_bytes(4 * words, "little")
            top, consumed, pos = top[pos:] + fresh[3::4], consumed + pos, 0
        pos = match.end()
        return match

    def skip(entries: int) -> None:
        while entries:
            run = min(entries, _RUN)
            read(re.compile(b"(?:%s){%d}" % (_ENTRY, run)))
            entries -= run

    worst = gap = 0
    for _ in range(trials):
        total = 0
        for w, before in hot:
            skip(gap + before)
            gap = 0
            num, den = read(_ONE_ENTRY).groups()
            p = (num[0] >> _NUM_SHIFT) - _TABLE_MAX_NUM
            total += w * p * _TABLE_SCALE[den[0] >> _DEN_SHIFT]
        gap += tail
        worst = max(worst, abs(total))
    skip(gap)

    rng = random.Random(seed)
    for start in range(0, consumed + pos, _SKIP_WORDS):
        rng.getrandbits(32 * min(_SKIP_WORDS, consumed + pos - start))
    random_float = rng.random
    # Bit vector (b_0, key) has the weight alpha_|b| * 4**(-b_0).
    weights_f = [alpha_f[c] for c in counts] + [alpha_f[c + 1] * 0.25 for c in counts]
    worst_float = 0.0
    for _ in range(trials):
        beta_f = [-1.0 + 2.0 * random_float() for _ in range(n_keys)]
        total_f = 0.0
        for c, b in zip(weights_f, beta_f + beta_f):
            total_f += c * b
        worst_float = max(worst_float, abs(total_f))

    passed = worst == 0 and worst_float <= 1e-12 * 2 ** d
    defect = Fraction(worst, 4 * scale * _TABLE_LCM) if worst else worst_float
    return IdentityReport(d, "lemma_cancel", defect, passed, seed)


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

