"""Means, covariance, correlation and the downside semicovariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from portopt.errors import InsufficientHistory, ZeroVariance
from portopt.market_data import ReturnsMatrix
from portopt.risk_models import (
    AnnualizationConvention,
    RiskKind,
    RiskModel,
    build_risk_model,
    correlation,
    covariance,
    mean_returns,
    quadratic_form,
    semicovariance_estrada,
    semivariance_exact,
)

PSD_FLOOR = -1e-10


def matrix(values, names=None) -> ReturnsMatrix:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = names or tuple(f"A{i}" for i in range(values.shape[1]))
    return ReturnsMatrix(assets=tuple(names), values=values)


returns_panels = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(3, 40), st.integers(1, 6)),
    elements=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)


class TestMeanReturns:
    def test_symmetric_pair(self):
        assert mean_returns(matrix([[0.1], [-0.1]]))[0] == pytest.approx(0.0, abs=1e-18)

    def test_constant(self):
        assert mean_returns(matrix([[0.02], [0.02], [0.02]]))[0] == pytest.approx(0.02)


class TestCovariance:
    def test_identical_columns(self):
        r = matrix(np.column_stack([[0.1, -0.2, 0.05]] * 2))
        cov = covariance(r)
        assert cov[0, 0] == pytest.approx(cov[0, 1])
        assert cov[1, 1] == pytest.approx(cov[1, 0])

    def test_constant_column_is_zero(self):
        cov = covariance(matrix(np.column_stack([[0.1, -0.2, 0.05], [0.01] * 3])))
        np.testing.assert_allclose(cov[1], [0.0, 0.0], atol=1e-18)

    def test_hand_case_divisor(self):
        # x=[1,-1,0], y=[-1,1,0]: divisor T-1=2 gives unit diagonals.
        cov = covariance(matrix(np.column_stack([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])))
        np.testing.assert_allclose(cov, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_needs_two_periods(self):
        with pytest.raises(InsufficientHistory):
            covariance(matrix([[0.1, 0.2]]))


class TestCorrelation:
    def test_perfect_positive(self):
        x = np.array([0.1, -0.2, 0.05, 0.0])
        rho = correlation(matrix(np.column_stack([x, 2 * x])))
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.array([0.1, -0.2, 0.05, 0.0])
        rho = correlation(matrix(np.column_stack([x, -x])))
        assert rho[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_named(self):
        with pytest.raises(ZeroVariance) as err:
            correlation(matrix(np.column_stack([[0.1, -0.1, 0.0], [0.01] * 3]), ("X", "FLAT")))
        assert err.value.asset == "FLAT"

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(5)
        r = matrix(rng.normal(size=(10_000, 2)) * 0.01)
        assert abs(correlation(r)[0, 1]) < 0.05


class TestSemicovariance:
    def test_no_downside_gives_zero_matrix(self):
        r = matrix(np.full((5, 3), 0.01))
        np.testing.assert_array_equal(semicovariance_estrada(r, 0.0), np.zeros((3, 3)))

    def test_single_asset_kernel(self):
        r = matrix([[-1.0], [1.0]])
        assert semicovariance_estrada(r, 0.0)[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_returns_half_population_variance(self):
        # Symmetric about the mean with B at the mean: the downside matrix
        # diagonal is exactly half the divisor-T variance.
        x = np.array([0.03, -0.03, 0.01, -0.01, 0.02, -0.02])
        r = matrix(x[:, None])
        pop_var = float(np.mean((x - x.mean()) ** 2))
        diag = semicovariance_estrada(r, float(x.mean()))[0, 0]
        assert pop_var == pytest.approx(2.0 * diag, abs=1e-12)


class TestSemivarianceExact:
    def test_no_shortfall(self):
        r = matrix(np.full((4, 2), 0.02))
        assert semivariance_exact(r, np.array([0.5, 0.5]), 0.0) == 0.0

    def test_single_asset_matches_estrada(self):
        rng = np.random.default_rng(11)
        r = matrix(rng.normal(size=(50, 1)) * 0.02)
        exact = semivariance_exact(r, np.array([1.0]), 0.0)
        approx = semicovariance_estrada(r, 0.0)[0, 0]
        assert exact == pytest.approx(approx, abs=1e-18)

    def test_approximation_quality(self):
        # Factor-correlated panel, the regime the approximation targets.
        # Observed relative gap for this instance: 0.0439.
        rng = np.random.default_rng(23)
        common = rng.normal(size=(500, 1)) * 0.008
        r = matrix(common + rng.normal(size=(500, 3)) * 0.006 + 0.0005)
        w = np.array([0.5, 0.3, 0.2])
        exact = semivariance_exact(r, w, 0.0)
        approx = float(w @ semicovariance_estrada(r, 0.0) @ w)
        assert exact > 0
        observed_gap = abs(exact - approx) / exact
        assert observed_gap < 0.25  # approximation, not an identity


class TestBuildRiskModel:
    def test_variance_dispatch(self, rng):
        r = matrix(rng.normal(size=(30, 3)) * 0.01)
        model = build_risk_model(r, RiskKind.VARIANCE)
        np.testing.assert_allclose(model.sigma, covariance(r), atol=1e-18)
        np.testing.assert_allclose(model.mu, mean_returns(r))

    def test_semivariance_dispatch_default_zero(self, rng):
        r = matrix(rng.normal(size=(30, 3)) * 0.01)
        model = build_risk_model(r, RiskKind.SEMIVARIANCE)
        assert model.threshold_b == 0.0
        np.testing.assert_allclose(model.sigma, semicovariance_estrada(r, 0.0), atol=1e-18)

    def test_parameter_count(self, rng):
        n = 95
        r = matrix(rng.normal(size=(120, n)) * 0.01)
        model = build_risk_model(r)
        unique = n * (n + 1) // 2
        assert unique == 4560
        iu = np.triu_indices(n)
        assert model.sigma[iu].shape[0] == unique

    def test_convention_validation(self):
        with pytest.raises(ValueError):
            AnnualizationConvention(daily_to_annual_expectation=0)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 2.5, {}])
    @pytest.mark.parametrize("field", ["daily_to_annual_expectation", "evaluation_periods"])
    def test_period_counts_must_be_whole(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and integral"):
            AnnualizationConvention(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_non_finite_inputs_rejected(self, field, value):
        mu = np.array([0.001, 0.002])
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        if field == "mu":
            mu[0] = value
        else:
            sigma[0, 1] = sigma[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            RiskModel(assets=("A", "B"), mu=mu, sigma=sigma)


# --- property tests ----------------------------------------------------------


@given(values=returns_panels, threshold=st.floats(-0.1, 0.1))
@settings(max_examples=100, deadline=None)
def test_estrada_matrix_always_psd(values, threshold):
    sigma = semicovariance_estrada(matrix(values), threshold)
    floor = PSD_FLOOR * max(float(np.diag(sigma).max()), 0.0)
    assert np.linalg.eigvalsh(sigma).min() >= floor


@given(values=returns_panels)
@settings(max_examples=60, deadline=None)
def test_correlation_consistent_with_covariance(values):
    r = matrix(values)
    cov = covariance(r)
    sd = np.sqrt(np.diag(cov))
    if (sd == 0).any():
        return
    rho = correlation(r)
    np.testing.assert_allclose(rho * np.outer(sd, sd), cov, atol=1e-12)


@given(values=returns_panels, data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_semivariance_below_variance_at_mean(values, data):
    r = matrix(values)
    raw = np.array(
        [data.draw(st.floats(0.0, 1.0)) for _ in range(values.shape[1])]
    )
    if raw.sum() == 0:
        raw = np.ones_like(raw)
    w = raw / raw.sum()
    series = values @ w
    mean = float(series.mean())
    exact = semivariance_exact(r, w, mean)
    pop_var = float(np.mean((series - mean) ** 2))
    assert exact <= pop_var + 1e-15


@given(values=returns_panels, data=st.data())
@settings(max_examples=60, deadline=None)
def test_portfolio_variance_decomposition(values, data):
    r = matrix(values)
    cov = covariance(r)
    raw = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(values.shape[1])])
    if raw.sum() == 0:
        raw = np.ones_like(raw)
    w = raw / raw.sum()
    quad = float(w @ cov @ w)
    diag_part = float((w**2 * np.diag(cov)).sum())
    off = cov - np.diag(np.diag(cov))
    cross_part = float(w @ off @ w)
    assert quad == pytest.approx(diag_part + cross_part, abs=1e-12)


def test_symmetric_variance_identity_exact():
    # Exact identity at 1e-12: divisor-T variance equals twice the
    # downside matrix diagonal when B sits at the mean of symmetric data.
    rng = np.random.default_rng(3)
    half = rng.uniform(0.001, 0.05, size=25)
    x = np.concatenate([half, -half])
    r = matrix(x[:, None])
    var_t = float(np.mean((x - x.mean()) ** 2))
    diag = semicovariance_estrada(r, float(x.mean()))[0, 0]
    assert abs(var_t - 2.0 * diag) < 1e-12


@pytest.mark.parametrize("n_assets", [1, 2, 3, 8, 30, 100, 150, 400])
def test_quadratic_form_scores_every_row(n_assets):
    # a lone row and a population may sum in different orders, so every
    # score is held to the row's own w @ sigma @ w, not to another call
    rng = np.random.default_rng(n_assets)
    sigma = np.cov(rng.normal(0.0, 0.01, size=(n_assets, 60))).reshape(n_assets, n_assets)
    for size in (2, 3, 7, 64, 101):
        pool = rng.random((2 * size, n_assets))
        for population in (pool[:size], pool[::2], np.asfortranarray(pool[:size])):
            expected = [w @ sigma @ w for w in population]
            lone = [quadratic_form(w, sigma) for w in population]
            assert all(np.ndim(score) == 0 for score in lone)
            for scores in (quadratic_form(population, sigma), lone):
                np.testing.assert_allclose(scores, expected, rtol=1e-15, atol=0.0)
        stacked = quadratic_form(pool.reshape(2, size, n_assets), sigma)
        assert stacked.shape == (2, size)
        np.testing.assert_allclose(
            stacked.ravel(), quadratic_form(pool, sigma), rtol=1e-15, atol=0.0
        )
