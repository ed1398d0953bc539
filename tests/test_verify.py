import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sparsecombine.combine import extrapolation_weights, ho_plan, plan_to_dict
from sparsecombine.verify import (
    IdentityReport,
    SyntheticExpansion,
    check_cancellation_system,
    check_lemma_cancel,
    check_normalization,
    default_expansion_point,
    extrapolated_value,
    model_value,
    random_expansion,
    residual_bound,
    synthetic_expansion_check,
)
from sparsecombine.combine import observed_order

from oracles import cancellation_literal, lemma_cancel_literal


# ---------------------------------------------------------------------------
# Exact weight identities


@pytest.mark.parametrize("d", range(1, 11))
def test_normalization_exact(d):
    rep = check_normalization(d)
    assert rep.passed
    assert rep.max_abs_defect == 0
    assert rep.identity == "normalization"


@pytest.mark.parametrize("d", range(1, 11))
def test_cancellation_system_exact(d):
    rep = check_cancellation_system(d)
    assert rep.passed
    assert rep.max_abs_defect == 0


def _alpha1_scaled(d, factor):
    w = list(extrapolation_weights(d))
    w[1] *= factor
    return w


_FACTORS = (Fraction(1), Fraction(10001, 10000), Fraction(3, 2), Fraction(0))


@pytest.mark.parametrize("factor", _FACTORS)
@pytest.mark.parametrize("d", range(1, 33))
def test_cancellation_system_matches_literal(d, factor):
    # Integer sums over the common denominator report the Fraction of the
    # literal Fraction loop, zero included.
    w = _alpha1_scaled(d, factor)
    got = check_cancellation_system(d, weights=w)
    want = cancellation_literal(d, weights=w)
    assert got == want
    assert type(got.max_abs_defect) is Fraction
    assert got.passed is (factor == 1)


@pytest.mark.parametrize("factor", _FACTORS)
def test_normalization_matches_fraction_sum(factor):
    for d in range(1, 65):
        w = _alpha1_scaled(d, factor)
        defect = sum(w[k] * math.comb(d, k) for k in range(d + 1)) - 1
        rep = check_normalization(d, weights=w)
        assert rep == IdentityReport(d, "normalization", abs(defect), defect == 0)
        assert type(rep.max_abs_defect) is Fraction


def test_cancellation_d1_hand_value():
    # d = 1, the single mixed-order row m = 1:
    # alpha_0 * 1 + alpha_1 * (1/4) = -1/3 + 4/3 * 1/4 = 0.
    w = extrapolation_weights(1)
    assert w[0] * 1 + w[1] * Fraction(1, 4) == 0
    assert check_cancellation_system(1).passed


@pytest.mark.parametrize("d", range(1, 9))
def test_lemma_cancel_rational_exact(d):
    rep = check_lemma_cancel(d, trials=100, seed=0)
    assert rep.passed
    assert rep.seed == 0
    # All-rational defect must be exactly zero; the reported value is then
    # the float-path worst case, within its tolerance.
    assert float(rep.max_abs_defect) <= 1e-12 * 2 ** d


@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("d", range(1, 9))
def test_lemma_cancel_matches_literal_triple_loop(d, seed):
    # Integer sums over a common denominator and weights hoisted out of the
    # trial loops keep the RNG draw order, the exact rationals and the float
    # rounding: the report is unchanged.
    got = check_lemma_cancel(d, trials=100, seed=seed)
    want = lemma_cancel_literal(d, trials=100, seed=seed)
    assert got == want
    assert type(got.max_abs_defect) is type(want.max_abs_defect)


@pytest.mark.parametrize("factor", (Fraction(10001, 10000), Fraction(3, 2)))
@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("d", range(1, 9))
def test_lemma_cancel_matches_literal_with_perturbed_weights(d, seed, factor):
    # A corrupted alpha_1 leaves a nonzero exact defect; the integer sums
    # over a common denominator must report the same Fraction as the literal
    # Fraction arithmetic.
    w = list(extrapolation_weights(d))
    w[1] *= factor
    got = check_lemma_cancel(d, trials=100, seed=seed, weights=w)
    want = lemma_cancel_literal(d, trials=100, seed=seed, weights=w)
    assert got == want
    assert type(got.max_abs_defect) is Fraction
    assert got.max_abs_defect != 0
    assert not got.passed


_WEIGHT = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def _telescoping(first, steps):
    # A step of None continues the chain alpha_(p+1) = -4 alpha_p, which
    # gives every key with |key| = p a folded weight of 0.
    alpha = [first]
    for v in steps:
        alpha.append(-4 * alpha[-1] if v is None else v)
    return alpha


@st.composite
def _dimension_and_weights(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    steps = st.lists(st.none() | _WEIGHT, min_size=d, max_size=d)
    return d, _telescoping(draw(_WEIGHT), draw(steps))


@settings(max_examples=80, deadline=None)
@given(
    case=_dimension_and_weights(),
    trials=st.integers(min_value=1, max_value=4),
    seed=st.integers(),
)
# Only the keys with |key| = 1 are nonzero: zero-weight runs inside a table
# and across the boundary of two tables.
@example(
    case=(4, _telescoping(Fraction(1), [None, Fraction(2), None, None])), trials=3, seed=5
)
# A nonzero folded weight on every key.
@example(case=(3, [Fraction(1)] * 4), trials=2, seed=0)
def test_lemma_cancel_matches_literal_random_weights(case, trials, seed):
    # Any weight vector and seed: the entries the bulk reader decodes and the
    # runs it skips give the draw-by-draw oracle's report, and the float phase
    # starts where the oracle's does.
    d, w = case
    got = check_lemma_cancel(d, trials=trials, seed=seed, weights=w)
    want = lemma_cancel_literal(d, trials=trials, seed=seed, weights=w)
    assert got == want
    assert type(got.max_abs_defect) is type(want.max_abs_defect)


def test_lemma_cancel_seed_reproducible():
    a = check_lemma_cancel(3, trials=50, seed=7)
    b = check_lemma_cancel(3, trials=50, seed=7)
    assert a == b


@pytest.mark.parametrize("trials", [0, -5])
def test_lemma_cancel_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_lemma_cancel(2, trials=trials)


@pytest.mark.parametrize("trials", [100_001, 10 ** 11])
def test_lemma_cancel_rejects_trials_above_bound(trials):
    with pytest.raises(ValueError, match="trials must be <= 100000"):
        check_lemma_cancel(8, trials=trials)


def test_lemma_cancel_rejects_weights_beyond_float64():
    # The float phase cannot round such a weight, so the check refuses it.
    w = list(extrapolation_weights(2))
    w[1] *= Fraction(10) ** 400
    with pytest.raises(ValueError, match="weights must be within the float64 range"):
        check_lemma_cancel(2, trials=1, weights=w)


@pytest.mark.parametrize(
    "checker", [check_normalization, check_cancellation_system, check_lemma_cancel]
)
def test_perturbed_weights_fail(checker):
    for d in (1, 2, 3):
        w = list(extrapolation_weights(d))
        w[1] *= Fraction(1001, 1000)
        rep = checker(d, weights=w) if checker is not check_lemma_cancel else checker(
            d, trials=20, seed=0, weights=w
        )
        assert not rep.passed
        assert rep.max_abs_defect != 0


def test_dimension_bounds_enforced():
    with pytest.raises(ValueError):
        check_normalization(0)
    with pytest.raises(ValueError):
        check_normalization(65)
    with pytest.raises(ValueError):
        check_cancellation_system(33)
    with pytest.raises(ValueError):
        check_lemma_cancel(0)
    # 2**16 bit vectors at most; the bound is checked before anything is built.
    check_lemma_cancel(16, trials=1)
    for d in (17, 40):
        with pytest.raises(ValueError, match="1 <= d <= 16"):
            check_lemma_cancel(d)


def test_identity_report_str():
    rep = IdentityReport(d=3, identity="normalization", max_abs_defect=Fraction(0), passed=True)
    text = str(rep)
    assert "normalization" in text
    assert "d=3" in text
    assert text.endswith("pass")
    rep2 = IdentityReport(d=2, identity="lemma_cancel", max_abs_defect=0.5, passed=False, seed=4)
    assert "FAIL" in str(rep2)


# ---------------------------------------------------------------------------
# SyntheticExpansion mechanics


def test_expansion_validation():
    with pytest.raises(ValueError):
        SyntheticExpansion(dim=0, base=lambda x: 0.0, beta=[], gamma={})
    with pytest.raises(ValueError):
        SyntheticExpansion(
            dim=2, base=lambda x: 0.0, beta=[lambda x, h: 0.0], gamma={}
        )
    with pytest.raises(ValueError):
        SyntheticExpansion(
            dim=2,
            base=lambda x: 0.0,
            beta=[lambda x, h: 0.0] * 2,
            gamma={(0, 5): lambda x, h: 0.0},
        )


def test_model_value_assembles_terms():
    se = SyntheticExpansion(
        dim=2,
        base=lambda x: 10.0,
        beta=[lambda x, h: 1.0, lambda x, h: 2.0],
        gamma={(0, 1): lambda x, h: 3.0},
        gamma_bound=3.0,
    )
    h = (0.5, 0.25)
    expected = 10.0 - (1.0 * 0.25 + 2.0 * 0.0625) - 3.0 * (0.5 ** 4) * (0.25 ** 4)
    assert model_value(se, (0.3, 0.4), h) == pytest.approx(expected, rel=1e-15)


def test_trivial_expansion_extrapolates_exactly():
    # No error terms at all: every subset sample equals the base value and the
    # weights sum to one, so the residual is exactly zero.
    se = SyntheticExpansion(
        dim=2, base=lambda x: 4.5, beta=[lambda x, h: 0.0] * 2, gamma={}
    )
    rows = synthetic_expansion_check(se, [1, 2, 3])
    assert all(r == 0.0 for _, r in rows)


def test_constant_beta_cancelled_to_rounding():
    # beta independent of x and h is the textbook case: the h^2 terms cancel
    # and no gamma terms exist, so the residual is pure rounding noise.
    se = SyntheticExpansion(
        dim=3,
        base=lambda x: 1.0 + x[0],
        beta=[lambda x, h: 2.0, lambda x, h: -1.5, lambda x, h: 0.75],
        gamma={},
    )
    for _, residual in synthetic_expansion_check(se, [1, 2, 3, 4]):
        assert abs(residual) <= 1e-13


def test_single_direction_quartic_rate():
    # One singleton gamma term: the surviving residual is a weighted
    # combination of h^4 samples, so the log-log slope is about -4.
    se = SyntheticExpansion(
        dim=1,
        base=lambda x: 2.0,
        beta=[lambda x, h: 1.0],
        gamma={(0,): lambda x, h: 1.0},
        gamma_bound=1.0,
    )
    rows = synthetic_expansion_check(se, [1, 2, 3, 4, 5])
    slope = -observed_order([(n, abs(r)) for n, (_, r) in zip(range(1, 6), rows)])
    assert slope <= -3.7


def test_pair_gamma_gives_eighth_order():
    # A gamma supported only on the pair yields h^4 * h^4 = h^8 isotropically;
    # the residual decays twice as fast as the generic quartic envelope.
    se = SyntheticExpansion(
        dim=2,
        base=lambda x: 1.0,
        beta=[lambda x, h: 1.0 + h[0] ** 2, lambda x, h: math.cos(h[0])],
        gamma={(0, 1): lambda x, h: 1.0},
        gamma_bound=1.0,
    )
    rows = synthetic_expansion_check(se, [1, 2, 3, 4, 5])
    fit = [(n, abs(r)) for n, (_, r) in zip(range(1, 6), rows)]
    slope = -observed_order(fit)
    assert slope <= -3.7
    # and, more precisely, close to -8
    assert slope == pytest.approx(-8.0, abs=0.5)


def test_check_requires_three_levels():
    se = SyntheticExpansion(
        dim=1, base=lambda x: 1.0, beta=[lambda x, h: 1.0], gamma={}
    )
    with pytest.raises(ValueError):
        synthetic_expansion_check(se, [2, 3])


def test_default_expansion_point_interior():
    for d in range(1, 6):
        pt = default_expansion_point(d)
        assert len(pt) == d
        assert all(0.0 < v < 1.0 for v in pt)


def test_residual_bound_formula():
    se = SyntheticExpansion(
        dim=2,
        base=lambda x: 0.0,
        beta=[lambda x, h: 0.0] * 2,
        gamma={},
        gamma_bound=2.0,
    )
    h = 0.25
    expected = (5.0 / 3.0) ** 2 * 2.0 * ((1 + h ** 4) ** 2 - 1)
    assert residual_bound(se, h) == pytest.approx(expected, rel=1e-15)
    # The width is one isotropic h; per-direction widths are not taken.
    with pytest.raises(TypeError):
        residual_bound(se, (0.25, 0.25))


@pytest.mark.parametrize("d,seed", [(1, 3), (2, 11), (2, 12), (3, 5)])
def test_random_expansion_residuals_within_bound(d, seed):
    se = random_expansion(d, seed)
    rows = synthetic_expansion_check(se, [2, 3, 4, 5])
    for h, residual in rows:
        assert abs(residual) <= residual_bound(se, h) * (1.0 + 1e-10)


def test_random_expansion_deterministic():
    a = random_expansion(2, 99)
    b = random_expansion(2, 99)
    pt = default_expansion_point(2)
    h = (0.125, 0.25)
    assert model_value(a, pt, h) == model_value(b, pt, h)
    assert extrapolated_value(a, pt, h) == extrapolated_value(b, pt, h)


# ---------------------------------------------------------------------------
# High-order plan export: per-diagonal masses


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_hosg_export_consistency(d, n):
    export = plan_to_dict(ho_plan(d, n))
    masses = export["level_mass"]
    assert sum(map(Fraction, masses.values())) == 1
    assert export["coefficient_sum"] == "1/1"
    diagonals = sorted(int(t) for t in masses)
    assert diagonals[0] == n and diagonals[-1] == n + 2 * d - 1


def test_hosg_export_preconditions():
    with pytest.raises(ValueError):
        ho_plan(2, 0)
