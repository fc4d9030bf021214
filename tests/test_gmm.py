import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbounds import gmm
from plbounds.errors import BracketingFailure, LengthMismatch, NonConvergence, WeightSumViolation
from plbounds.gmm import (
    GaussianMixture,
    ProtectionLevelQuery,
    gmm_cdf,
    gmm_quantile,
    protection_level,
    protection_levels_all,
    std_normal_cdf,
)

import oracles

# z, Phi(z) pairs frozen from the math.erf reference implementation
NORMAL_TABLE = [
    (0.0, 0.5),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.6448536269514722, 0.95),
    (1.959963984540054, 0.975),
    (2.3263478740408408, 0.99),
    (2.5758293035489004, 0.995),
    (3.090232306167813, 0.999),
    (-1.0, 0.15865525393145707),
    (-2.0, 0.02275013194817921),
]

Z_975 = 1.9599639845400536
Z_995 = 2.5758293035489


def test_std_normal_cdf_reference_table():
    for z, phi in NORMAL_TABLE:
        assert abs(float(std_normal_cdf(z)) - phi) <= 1e-15
        assert abs(float(std_normal_cdf(z)) - oracles.normal_cdf(z)) <= 1e-15


def test_std_normal_cdf_vectorized():
    zs = np.array([z for z, _ in NORMAL_TABLE])
    assert np.allclose(std_normal_cdf(zs), [p for _, p in NORMAL_TABLE], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# mixture construction and CDF


def test_mixture_validation():
    with pytest.raises(LengthMismatch):
        GaussianMixture(np.zeros(3), np.ones(2), np.full(3, 1 / 3))
    with pytest.raises(LengthMismatch):
        GaussianMixture(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(LengthMismatch):
        GaussianMixture(np.zeros(()), np.ones(()), np.ones(()))
    with pytest.raises(WeightSumViolation):  # a (2, 2) stack is two mixtures, each summing to 0.5
        GaussianMixture(np.zeros((2, 2)), np.ones((2, 2)), np.full((2, 2), 0.25))
    with pytest.raises(WeightSumViolation):
        GaussianMixture(np.zeros(2), np.ones(2), np.array([0.5, 0.5 + 1e-9]))
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros(2), np.array([1.0, 0.0]), np.full(2, 0.5))
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros(2), np.ones(2), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([np.nan, 0.0]), np.ones(2), np.full(2, 0.5))


def test_mixture_accepts_weight_sum_within_tolerance():
    GaussianMixture(np.zeros(2), np.ones(2), np.array([0.5, 0.5 + 1e-13]))


def test_cdf_matches_oracle_and_is_scalar_for_scalars():
    m = GaussianMixture([-1.0, 2.0], [0.5, 2.0], [0.3, 0.7])
    val = gmm_cdf(m, 0.7)
    assert isinstance(val, float)
    want = oracles.mixture_cdf(0.7, [-1.0, 2.0], np.sqrt([0.5, 2.0]), [0.3, 0.7])
    assert abs(val - want) <= 1e-15
    xs = np.linspace(-6.0, 8.0, 41)
    vals = gmm_cdf(m, xs)
    assert vals.shape == (41,)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] < 1e-6 and vals[-1] > 1.0 - 1e-3


def test_single_component_cdf_reduces_to_normal():
    m = GaussianMixture([2.0], [4.0], [1.0])
    for z, phi in NORMAL_TABLE:
        assert abs(gmm_cdf(m, 2.0 + 2.0 * z) - phi) <= 1e-15


# ---------------------------------------------------------------------------
# quantile solver


def test_quantile_standard_normal():
    m = GaussianMixture([0.0], [1.0], [1.0])
    assert abs(gmm_quantile(m, 0.975) - Z_975) <= 2e-4
    assert abs(gmm_quantile(m, 0.025) + Z_975) <= 2e-4
    assert abs(gmm_quantile(m, 0.5)) <= 2e-4


def test_quantile_shift_scale_equivariance():
    m0 = GaussianMixture([0.0, 1.0], [1.0, 4.0], [0.4, 0.6])
    m1 = GaussianMixture([3.0, 3.0 + 2.0 * 1.0], [4.0 * 1.0, 4.0 * 4.0], [0.4, 0.6])
    for p in (0.01, 0.25, 0.9, 0.995):
        q0 = gmm_quantile(m0, p, tolerance=1e-10)
        q1 = gmm_quantile(m1, p, tolerance=1e-10)
        assert abs(q1 - (3.0 + 2.0 * q0)) <= 1e-8


def test_quantile_negation_symmetry():
    m_pos = GaussianMixture([-1.0, 2.0], [0.5, 1.5], [0.25, 0.75])
    m_neg = GaussianMixture([1.0, -2.0], [0.5, 1.5], [0.25, 0.75])
    for p in (0.005, 0.1, 0.5, 0.9, 0.995):
        a = gmm_quantile(m_pos, p, tolerance=1e-9)
        b = gmm_quantile(m_neg, 1.0 - p, tolerance=1e-9)
        assert abs(a + b) <= 1e-7


def test_quantile_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        means = rng.normal(0.0, 2.0, size=n)
        sigmas = rng.uniform(0.05, 1.5, size=n)
        weights = rng.uniform(0.2, 1.0, size=n)
        weights /= weights.sum()
        m = GaussianMixture(means, sigmas**2, weights)
        for p in (0.005, 0.025, 0.5, 0.975, 0.995):
            got = gmm_quantile(m, p)
            want = oracles.grid_quantile(means, sigmas, weights, p, fine=1e-5)
            assert abs(got - want) <= 1e-4 + 1e-5 + 1e-6


def test_quantile_probability_domain():
    m = GaussianMixture([0.0], [1.0], [1.0])
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gmm_quantile(m, bad)


def test_quantile_non_convergence():
    m = GaussianMixture([0.0], [1.0], [1.0])
    with pytest.raises(NonConvergence):
        gmm_quantile(m, 0.975, tolerance=1e-12, max_iterations=1)


def test_a_bracket_beyond_the_float_range_fails_cleanly():
    # 1e305 m is finite, but not in lattice units of 1e-4 m: the solver
    # names the probability it could not bracket, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for means in ([1e305], [1e305, 0.0], [-1e305, 1e305]):
            n = len(means)
            mixture = GaussianMixture(means, [0.01] * n, [1.0 / n] * n)
            with pytest.raises(BracketingFailure, match="could not bracket probability 0.995"):
                protection_level(mixture)
            with pytest.raises(BracketingFailure, match="could not bracket probability 0.5"):
                gmm_quantile(mixture, 0.5)


def _random_mixtures(rng, count, n):
    mixtures = []
    for _ in range(count):
        weights = rng.uniform(0.01, 1.0, n)
        variances = rng.uniform(0.01, 2.0, n) ** 2
        mixtures.append(GaussianMixture(rng.normal(0.0, 3.0, n), variances, weights / weights.sum()))
    return mixtures


def _stacks(mixtures):
    """The (K, N) means, standard deviations and weights of equal-length mixtures."""
    return [np.stack([getattr(m, name) for m in mixtures]) for name in ("means", "sigmas", "weights")]


def test_brackets_match_scalar_loop_bit_for_bit():
    # rows converge after different numbers of steps (different widths and
    # probabilities).  Half the targets are the CDF at a lattice point inside
    # the bracket, the first midpoint, where cdf(mid) >= p is an equality
    # that a last-bit change in the stacked CDF would flip.
    rng = np.random.default_rng(17)
    for trial in range(150):
        mixtures = _random_mixtures(rng, 6, int(rng.integers(1, 40)))
        probabilities = rng.choice([1e-9, 0.005, 0.025, 0.3, 0.5, 0.975, 0.995], 6)
        tolerance = float(rng.choice([1e-2, 1e-4, 1e-7]))
        for k in range(0, 6, 2):
            m = mixtures[k]
            lo, hi = gmm._start(m.means, m.sigmas, probabilities[k], tolerance)
            probabilities[k] = gmm_cdf(m, float((lo + hi) // 2 * tolerance))
        lo, hi = gmm._brackets(*_stacks(mixtures), probabilities, tolerance, 200)
        for k, (m, p) in enumerate(zip(mixtures, probabilities)):
            want = oracles.scalar_bisection(m.means, m.variances, m.weights, p, tolerance, 200)
            assert (lo[k], hi[k]) == want


def test_components_whose_spread_squared_overflows_solve_without_a_warning():
    # the search's first probe squares the components' distances from the
    # mixture mean, which overflow here; the brackets are still the scalar
    # bisection's
    for means in ([0.0, 3e160], [-2e160, 1e160, 3e160]):
        n = len(means)
        m = GaussianMixture(means, [1e300] * n, [1.0 / n] * n)
        for p in (0.005, 0.5, 0.995):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = gmm._brackets(*_stacks([m]), [p], 1e158, 200)
            assert hi[0] - lo[0] == pytest.approx(1e158)
            assert (lo[0], hi[0]) == oracles.scalar_bisection(m.means, m.variances, m.weights, p, 1e158, 200)


def test_one_failing_row_fails_the_solve():
    # components at -5 and +5 span 1e13 cells of 1e-12: 44 steps, beyond 40
    narrow = GaussianMixture([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
    wide = GaussianMixture([-5.0, 5.0], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(NonConvergence):
        gmm._brackets(*_stacks([narrow, wide]), [0.975, 0.5], 1e-12, 40)
    gmm._brackets(*_stacks([narrow, narrow]), [0.975, 0.5], 1e-12, 40)
    # the CDF tops out at the weight sum, 1 - 5e-13, below this target
    m = GaussianMixture([0.0], [1.0], [1.0])
    short = GaussianMixture([1.0], [1.0], [1.0 - 5e-13])
    with pytest.raises(BracketingFailure):
        gmm._brackets(*_stacks([m, short]), [0.5, 1.0 - 1e-14], 1e-4, 200)


# ---------------------------------------------------------------------------
# protection levels


def test_protection_level_is_the_outer_bracket_edge():
    # the bracket midpoint gives 2.575 here, below the exact 2.5758
    m = GaussianMixture([0.0], [1.0], [1.0])
    query = ProtectionLevelQuery(integrity_risk=0.01, tolerance=1e-2)
    assert protection_level(m, query) >= Z_995
    assert protection_levels_all(np.zeros((2, 3)), np.ones((2, 3)), np.full((2, 3), 0.5), query)[0] >= Z_995
    assert abs(gmm_quantile(m, 0.995, tolerance=1e-2) - 2.575) <= 1e-3


def test_protection_level_standard_normal():
    m = GaussianMixture([0.0], [1.0], [1.0])
    assert abs(protection_level(m, ProtectionLevelQuery(integrity_risk=0.05)) - Z_975) <= 1e-3
    assert abs(protection_level(m, ProtectionLevelQuery(integrity_risk=0.01)) - Z_995) <= 1e-3


def test_protection_level_two_tight_components():
    # nearly point masses at -2 and +2: both tail quantiles land at
    # magnitude 2 for any reasonable risk
    m = GaussianMixture([-2.0, 2.0], [1e-12, 1e-12], [0.5, 0.5])
    assert abs(protection_level(m, ProtectionLevelQuery(integrity_risk=0.01)) - 2.0) <= 2e-4


def test_protection_level_dominated_by_wider_tail():
    narrow = GaussianMixture([0.0], [1.0], [1.0])
    shifted = GaussianMixture([0.0, 3.0], [1.0, 1.0], [0.9, 0.1])
    q = ProtectionLevelQuery(integrity_risk=0.01)
    assert protection_level(shifted, q) > protection_level(narrow, q)


def test_protection_level_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        means = rng.normal(0.0, 1.5, size=n)
        sigmas = rng.uniform(0.1, 1.0, size=n)
        weights = rng.uniform(0.2, 1.0, size=n)
        weights /= weights.sum()
        m = GaussianMixture(means, sigmas**2, weights)
        got = protection_level(m, ProtectionLevelQuery(integrity_risk=0.01))
        want = oracles.grid_protection_level(means, sigmas, weights, 0.01, fine=1e-5)
        assert abs(got - want) <= 2e-4 + 1e-5


def test_query_validation():
    with pytest.raises(ValueError):
        ProtectionLevelQuery(integrity_risk=0.0)
    with pytest.raises(ValueError):
        ProtectionLevelQuery(integrity_risk=1.0)
    with pytest.raises(ValueError):
        ProtectionLevelQuery(tolerance=0.0)
    with pytest.raises(ValueError):
        ProtectionLevelQuery(max_iterations=0)


def test_protection_levels_all_matches_per_column():
    rng = np.random.default_rng(13)
    means = rng.normal(size=(6, 3))
    variances = rng.uniform(0.01, 1.0, size=(6, 3))
    weights = rng.uniform(0.1, 1.0, size=(6, 3))
    weights /= weights.sum(axis=0, keepdims=True)
    q = ProtectionLevelQuery(integrity_risk=0.05)
    pls = protection_levels_all(means, variances, weights, q)
    assert pls.shape == (3,)
    for d, value in enumerate(pls):
        single = protection_level(GaussianMixture(means[:, d], variances[:, d], weights[:, d]), q)
        assert value == single


def test_protection_levels_all_shape_check():
    with pytest.raises(LengthMismatch):
        protection_levels_all(np.zeros((4, 2)), np.ones((4, 2)), np.full((4, 2), 0.25))
    with pytest.raises(LengthMismatch):
        protection_levels_all(np.zeros((4, 3)), np.ones((4, 3)), np.full((3, 3), 1 / 3))


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-5.0, 5.0),
            st.floats(0.05, 2.0),
            st.floats(0.1, 1.0),
        ),
        min_size=1,
        max_size=5,
    ),
    risk=st.sampled_from([0.05, 0.01, 0.002]),
)
def test_protection_level_bounded_by_support(data, risk):
    means = np.array([d[0] for d in data])
    sigmas = np.array([d[1] for d in data])
    weights = np.array([d[2] for d in data])
    weights /= weights.sum()
    m = GaussianMixture(means, sigmas**2, weights)
    pl = protection_level(m, ProtectionLevelQuery(integrity_risk=risk))
    assert 0.0 <= pl <= np.max(np.abs(means)) + 10.0 * sigmas.max() + 1e-3


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-5.0, 5.0),
            st.floats(0.05, 2.0),
            st.floats(0.1, 1.0),
        ),
        min_size=1,
        max_size=6,
    ),
    mirrored=st.booleans(),
    risk=st.sampled_from([0.05, 0.01, 0.002]),
    tolerance=st.sampled_from([1e-2, 1e-4]),
)
@example(data=[(0.0, 1.0, 1.0)], mirrored=False, risk=0.01, tolerance=1e-2)
def test_tail_mass_beyond_protection_level_within_risk(data, mirrored, risk, tolerance):
    # a mirrored mixture puts the same mass in both tails, so neither tail
    # can make up for a bound the other one under-reports
    if mirrored:
        data = data + [(-m, s, w) for m, s, w in data]
    means = np.array([d[0] for d in data])
    sigmas = np.array([d[1] for d in data])
    weights = np.array([d[2] for d in data])
    weights /= weights.sum()
    m = GaussianMixture(means, sigmas**2, weights)
    pl = protection_level(m, ProtectionLevelQuery(integrity_risk=risk, tolerance=tolerance))
    # 1e-15 covers the rounding of 1 - risk/2 and of the CDF itself
    assert gmm_cdf(m, -pl) + (1.0 - gmm_cdf(m, pl)) <= risk + 1e-15


_MIXTURE = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 2.0), st.floats(0.1, 1.0)), min_size=1, max_size=6
)


@settings(max_examples=80, deadline=None)
@given(
    columns=st.lists(_MIXTURE, min_size=3, max_size=3),
    risk=st.floats(2e-9, 0.5),
    shrink=st.one_of(st.just(0.0), st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]), st.floats(0.0, 0.99)),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
)
@example(columns=[[(0.0, 1.0, 1.0)]] * 3, risk=0.01, shrink=1e-15, tolerance=1e-2)
@example(  # all mass below zero, above zero, and on both sides
    columns=[[(-4.0, 0.1, 1.0)], [(4.0, 0.1, 1.0)], [(-1.0, 1.0, 0.5), (1.0, 1.0, 0.5)]],
    risk=0.3,
    shrink=0.0,
    tolerance=1e-4,
)
def test_protection_level_never_falls_as_the_risk_falls(columns, risk, shrink, tolerance):
    # shrink 0 takes the next float below the risk, the nearest risk there is
    smaller = max(np.nextafter(risk, 0.0) if shrink == 0.0 else risk * (1.0 - shrink), 1e-9)
    n = max(len(c) for c in columns)
    columns = [c + [c[-1]] * (n - len(c)) for c in columns]  # equal lengths: repeat the last component
    means, sigmas, weights = (np.array([[row[k] for row in c] for c in columns]).T for k in range(3))
    weights /= weights.sum(axis=0)
    loose, tight = (ProtectionLevelQuery(integrity_risk=r, tolerance=tolerance) for r in (risk, smaller))
    before = protection_levels_all(means, sigmas**2, weights, loose)
    after = protection_levels_all(means, sigmas**2, weights, tight)
    assert (after >= before).all()
    m = GaussianMixture(means[:, 0], sigmas[:, 0] ** 2, weights[:, 0])
    assert protection_level(m, tight) >= protection_level(m, loose)


def _axes(columns):
    """(N, 3) means, sigmas and weights from three per-axis mixtures, the
    shorter ones padded by repeating their last component."""
    n = max(len(c) for c in columns)
    columns = [c + [c[-1]] * (n - len(c)) for c in columns]
    means, sigmas, weights = (np.array([[row[k] for row in c] for c in columns]).T for k in range(3))
    return means, sigmas, weights / weights.sum(axis=0)


@settings(max_examples=80, deadline=None)
@given(
    columns=st.lists(_MIXTURE, min_size=3, max_size=3),
    risk=st.sampled_from([0.05, 0.01, 0.002]),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
    data=st.data(),
)
def test_permuting_the_candidates_moves_no_bound_past_two_tolerances(columns, risk, tolerance, data):
    # a candidate is one row of means, variances and weights; reordering the
    # rows reorders the sums, so two bisection paths may part at one step
    means, sigmas, weights = _axes(columns)
    order = data.draw(st.permutations(range(len(means))))
    query = ProtectionLevelQuery(integrity_risk=risk, tolerance=tolerance)
    before = protection_levels_all(means, sigmas**2, weights, query)
    after = protection_levels_all(means[order], sigmas[order] ** 2, weights[order], query)
    assert (np.abs(after - before) <= 2.0 * tolerance).all()


@settings(max_examples=80, deadline=None)
@given(
    columns=st.lists(_MIXTURE, min_size=3, max_size=3),
    scale=st.floats(1e-2, 1e2),
    risk=st.sampled_from([0.05, 0.01, 0.002]),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
)
@example(columns=[[(0.5, 1.0, 1.0)], [(-1.0, 0.2, 0.5), (1.0, 0.3, 0.5)], [(0.0, 2.0, 1.0)]], scale=7.0, risk=0.01, tolerance=1e-2)
def test_scaling_means_and_sigmas_scales_the_bounds(columns, scale, risk, tolerance):
    # each bound brackets its own quantile to within two tolerances, the
    # unscaled one's k times that after scaling
    means, sigmas, weights = _axes(columns)
    query = ProtectionLevelQuery(integrity_risk=risk, tolerance=tolerance)
    base = protection_levels_all(means, sigmas**2, weights, query)
    scaled = protection_levels_all(scale * means, (scale * sigmas) ** 2, weights, query)
    assert (np.abs(scaled - scale * base) <= 2.0 * max(1.0, scale) * tolerance).all()


def test_mixture_stack_raises_the_first_failing_rows_error():
    good = (np.zeros(2), np.ones(2), np.full(2, 0.5))
    bad_rows = [
        (np.array([np.nan, 0.0]), np.ones(2), np.full(2, 0.5)),
        (np.zeros(2), np.array([1.0, 0.0]), np.full(2, 0.5)),
        (np.zeros(2), np.ones(2), np.array([1.5, -0.5])),
        (np.zeros(2), np.ones(2), np.array([0.5, 0.5 + 1e-9])),
    ]
    for k, bad in enumerate(bad_rows):
        with pytest.raises(Exception) as alone:
            GaussianMixture(*bad)
        for at in range(3):
            rows = [good, good, good]
            rows[at] = bad
            for later in range(at + 1, 3):  # a later failing row of another kind does not count
                rows[later] = bad_rows[(k + 1) % len(bad_rows)]
            with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
                GaussianMixture(*(np.array([row[k] for row in rows]) for k in range(3)))
    with pytest.raises(LengthMismatch, match=re.escape("got (0,), (0,), (0,)")):
        GaussianMixture(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(LengthMismatch):
        GaussianMixture(np.zeros((2, 3)), np.ones((3, 2)), np.full((2, 3), 1 / 3))
    GaussianMixture(*(np.array([row[k] for row in (good, good)]) for k in range(3)))


def test_stacked_protection_levels_match_one_at_a_time():
    rng = np.random.default_rng(23)
    means = rng.normal(size=(7, 9, 3))
    variances = rng.uniform(0.01, 1.0, size=(7, 9, 3))
    weights = rng.uniform(0.1, 1.0, size=(7, 9, 3))
    weights /= weights.sum(axis=1, keepdims=True)
    q = ProtectionLevelQuery(integrity_risk=0.01, tolerance=1e-6)
    stacked = protection_levels_all(means, variances, weights, q)
    assert stacked.shape == (7, 3)
    assert [row.tobytes() for row in stacked] == [
        protection_levels_all(means[t], variances[t], weights[t], q).tobytes() for t in range(7)
    ]
    rows = GaussianMixture(means[..., 0], variances[..., 0], weights[..., 0])
    alone = [GaussianMixture(means[t, :, 0], variances[t, :, 0], weights[t, :, 0]) for t in range(7)]
    assert protection_level(rows, q).tolist() == [protection_level(m, q) for m in alone]


# ---------------------------------------------------------------------------
# one mixture type for one mixture and for stacks

_BAD_KINDS = ("nan", "zero_variance", "negative_weight", "weight_sum")


def _good_stack(rng, shape):
    """Valid (..., N) means, variances and weights, one mixture per row."""
    weights = rng.uniform(0.1, 1.0, shape)
    weights /= weights.sum(axis=-1, keepdims=True)
    return rng.normal(0.0, 2.0, shape), rng.uniform(0.01, 2.0, shape), weights


def _error_alone(means, variances, weights):
    try:
        GaussianMixture(means, variances, weights)
    except Exception as exc:
        return exc
    return None


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_stack_raises_the_error_of_its_first_bad_row_alone(lead, n, seed, data):
    rng = np.random.default_rng(seed)
    means, variances, weights = _good_stack(rng, (*lead, n))
    rows = list(np.ndindex(*lead))
    planted = data.draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(_BAD_KINDS), st.integers(0, n - 1))))
    for row, kind, k in planted:
        if kind == "nan":
            data.draw(st.sampled_from((means, variances, weights)))[row][k] = np.nan
        elif kind == "zero_variance":
            variances[row][k] = 0.0
        elif kind == "negative_weight":
            weights[row][k] = -abs(weights[row][k])
        else:
            weights[row][k] += 1e-9
    first = next(
        (exc for exc in (_error_alone(means[r], variances[r], weights[r]) for r in rows) if exc is not None), None
    )
    assert (first is None) == (not planted)
    if first is None:
        GaussianMixture(means, variances, weights)
    else:
        with pytest.raises(type(first), match=f"^{re.escape(str(first))}$"):
            GaussianMixture(means, variances, weights)


@settings(max_examples=40, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
)
def test_a_stack_bounds_each_row_as_it_bounds_the_row_alone(lead, n, seed, tolerance):
    rng = np.random.default_rng(seed)
    query = ProtectionLevelQuery(integrity_risk=0.01, tolerance=tolerance)
    means, variances, weights = _good_stack(rng, (*lead, n))
    bounds = protection_level(GaussianMixture(means, variances, weights), query)
    assert isinstance(bounds, np.ndarray) and bounds.shape == tuple(lead)
    for row in np.ndindex(*lead):
        alone = protection_level(GaussianMixture(means[row], variances[row], weights[row]), query)
        assert isinstance(alone, float) and bounds[row].tobytes() == np.float64(alone).tobytes()
    # the (T, 3, N) view of (T, N, 3) candidates that protection_levels_all solves
    candidates = [np.ascontiguousarray(np.swapaxes(a, -1, -2)) for a in _good_stack(rng, (lead[0], 3, n))]
    axes = [np.swapaxes(a, -1, -2) for a in candidates]
    bounds = protection_level(GaussianMixture(*axes), query)
    assert bounds.shape == (lead[0], 3)
    assert bounds.tobytes() == protection_levels_all(*candidates, query).tobytes()
    for row in np.ndindex(lead[0], 3):
        alone = protection_level(GaussianMixture(*(a[row] for a in axes)), query)
        assert bounds[row].tobytes() == np.float64(alone).tobytes()


def test_cdf_and_quantile_take_one_mixture_only():
    stack = GaussianMixture(np.zeros((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(LengthMismatch, match=re.escape("got a stack of shape (2, 1)")):
        gmm_cdf(stack, 0.0)
    with pytest.raises(LengthMismatch, match=re.escape("got a stack of shape (2, 1)")):
        gmm_quantile(stack, 0.5)


# ---------------------------------------------------------------------------
# the lattice solver: start brackets and the tail that sets the bound


def _wide_stack(seed, shape, spread=100.0):
    """(..., N) means, standard deviations from 1e-3 to 1e3 (log-uniform)
    and weights, one mixture per row."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 1.0, shape)
    weights /= weights.sum(axis=-1, keepdims=True)
    return rng.uniform(-spread, spread, shape), 10.0 ** rng.uniform(-3.0, 3.0, shape), weights


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    mirrored=st.booleans(),
    risk=st.floats(1e-9, 0.5),
    tolerance=st.floats(1e-7, 1e-2),
)
@example(rows=1, n=1, seed=0, mirrored=True, risk=0.01, tolerance=1e-2)
def test_protection_level_has_the_bits_of_both_tails_solved(rows, n, seed, mirrored, risk, tolerance):
    means, sigmas, weights = _wide_stack(seed, (rows, n), spread=5.0)
    if mirrored:  # equal mass in both tails, so that neither dominates
        means, sigmas, weights = np.concatenate((means, -means), 1), np.tile(sigmas, 2), np.tile(0.5 * weights, 2)
    query = ProtectionLevelQuery(integrity_risk=risk, tolerance=tolerance)
    half = 0.5 * risk
    tails = [np.repeat(a, 2, axis=0) for a in (means, sigmas, weights)]
    lo, hi = gmm._brackets(*tails, np.tile([1.0 - half, half], rows), tolerance, query.max_iterations)
    upper, lower = np.abs(hi[0::2]), np.abs(lo[1::2])
    want = np.where(lower > upper, lower, upper)
    got = protection_level(GaussianMixture(means, sigmas**2, weights), query)
    assert got.tobytes() == want.tobytes()


def test_protection_level_bisects_only_the_tail_that_sets_the_bound(monkeypatch):
    solved, search = [], gmm._search

    def counted(means, *rest):
        solved.append(len(means))  # rows searched
        return search(means, *rest)

    monkeypatch.setattr(gmm, "_search", counted)
    query = ProtectionLevelQuery(integrity_risk=0.01, tolerance=1e-4)
    for means, tails in (([4.0, 4.2], 1), ([-4.0, -4.2], 1), ([-1.0, 1.0], 2)):
        solved.clear()
        m = GaussianMixture(means, [0.01, 0.01], [0.5, 0.5])
        bound = protection_level(m, query)
        assert solved == [tails]
        assert gmm_cdf(m, -bound) + (1.0 - gmm_cdf(m, bound)) <= 0.01


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 96),
    seed=st.integers(0, 2**32 - 1),
    risk=st.floats(1e-9, 0.5),
    upper=st.booleans(),
    # on the 2^-60 lattice the ends are the extreme component quantiles
    # themselves, unrounded: x / 2^-60 is an integer for |x| above 2^-8
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7, 2.0**-60]),
    weight_sum=st.sampled_from([1.0 - 9e-13, 1.0, 1.0 + 9e-13]),
)
@example(n=1, seed=0, risk=1e-9, upper=False, tolerance=1e-7, weight_sum=1.0 + 9e-13)
@example(n=1, seed=0, risk=0.01, upper=True, tolerance=2.0**-60, weight_sum=1.0 - 9e-13)
def test_the_start_bracket_holds_the_crossing(n, seed, risk, upper, tolerance, weight_sum):
    means, sigmas, weights = _wide_stack(seed, (1, n))
    weights *= weight_sum
    GaussianMixture(means, sigmas**2, weights)  # still a valid mixture
    p = np.array([1.0 - 0.5 * risk if upper else 0.5 * risk])
    lo, hi = gmm._start(means, sigmas, p, tolerance)
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert gmm._cdf(means, sigmas, weights, lo * tolerance) < p
    assert gmm._cdf(means, sigmas, weights, hi * tolerance) >= p


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    risk=st.floats(1e-9, 0.5),
    upper=st.booleans(),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
    below=st.integers(0, 10**6),
    above=st.integers(0, 10**6),
)
def test_a_wider_start_bracket_ends_in_the_same_cell(n, seed, risk, upper, tolerance, below, above):
    means, sigmas, weights = _wide_stack(seed, (1, n), spread=5.0)
    p = np.array([1.0 - 0.5 * risk if upper else 0.5 * risk])
    lo, hi = gmm._start(means, sigmas, p, tolerance)
    want = gmm._search(means, sigmas, weights, p, lo, hi, tolerance, 200)
    got = gmm._search(means, sigmas, weights, p, lo - below, hi + above, tolerance, 200)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


_SEARCH_CASES = dict(
    n=st.integers(1, 96),
    seed=st.integers(0, 2**32 - 1),
    risk=st.floats(1e-9, 0.5),
    tolerance=st.sampled_from([1e-2, 1e-4, 1e-7]),
    below=st.integers(0, 10**6),
    above=st.integers(0, 10**6),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), **_SEARCH_CASES)
def test_the_search_ends_on_the_scalar_bisection_cell(rows, n, seed, risk, tolerance, below, above):
    # rows of both tails solved together, from start brackets widened by up
    # to a million cells, end where a scalar bisection from its own start does
    means, sigmas, weights = _wide_stack(seed, (rows, n))
    p = np.where(np.arange(rows) % 2 == 0, 1.0 - 0.5 * risk, 0.5 * risk)
    lo, hi = gmm._start(means, sigmas, p, tolerance)
    lo, hi = gmm._search(means, sigmas, weights, p, lo - below, hi + above, tolerance, 200)
    for k in range(rows):
        want = oracles.scalar_bisection(means[k], sigmas[k] ** 2, weights[k], p[k], tolerance, 200)
        assert (lo[k] * tolerance, hi[k] * tolerance) == want


@settings(max_examples=60, deadline=None)
@given(upper=st.booleans(), **_SEARCH_CASES)
def test_no_row_takes_more_rounds_than_its_budget(n, seed, risk, upper, tolerance, below, above):
    # one CDF evaluation per round; a row's rounds depend on it alone
    means, sigmas, weights = _wide_stack(seed, (1, n))
    p = np.array([1.0 - 0.5 * risk if upper else 0.5 * risk])
    lo, hi = gmm._start(means, sigmas, p, tolerance)
    lo, hi = lo - below, hi + above
    with mock.patch.object(gmm, "_cdf", wraps=gmm._cdf) as cdf:
        end = gmm._search(means, sigmas, weights, p, lo, hi, tolerance, 200)
    assert end[1] - end[0] == 1.0
    assert cdf.call_count <= (int(hi[0] - lo[0]) - 1).bit_length() + gmm._ITP_SLACK
