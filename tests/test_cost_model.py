"""Tests for the alpha-beta cost model and fitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.network.cost_model import AlphaBeta, fit_alpha_beta


class TestAlphaBeta:
    def test_bandwidth_is_inverse_beta(self):
        ab = AlphaBeta(alpha=0.0, beta=1e-10)
        assert ab.bandwidth == pytest.approx(1e10)

    def test_zero_beta_bandwidth_infinite(self):
        assert AlphaBeta(0.0, 0.0).bandwidth == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ProfilingError):
            AlphaBeta(-1e-6, 1e-9)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(float("nan"), 1e-9), (0.0, float("nan")), (float("inf"), 1e-9), (-0.0, -1e-9)],
    )
    def test_nan_and_infinite_alpha_rejected(self, alpha, beta):
        """A NaN compares false everywhere: let through, it made the link
        look faster than any real one to every min/max downstream."""
        with pytest.raises(ProfilingError, match="alpha must be finite"):
            AlphaBeta(alpha, beta)

    def test_infinite_beta_is_a_zero_capacity_link(self):
        ab = AlphaBeta(1e-5, float("inf"))
        assert ab.bandwidth == 0.0

    def test_check_names_where_the_estimate_came_from(self):
        ab = AlphaBeta(1e-5, 1e-9)
        ab.check("edge n0->n1")  # a valid estimate passes silently
        object.__setattr__(ab, "beta", float("nan"))
        with pytest.raises(ProfilingError, match="^edge n0->n1: "):
            ab.check("edge n0->n1")


class TestFit:
    def synthesize(self, alpha, beta, plan):
        """Noiseless measurements exactly following the model."""
        measurements = []
        for n, s in plan:
            measurements.append((n, s, n * (alpha + beta * s)))
            measurements.append((1, n * s, alpha + beta * n * s))
        return measurements

    def test_exact_recovery(self):
        truth = AlphaBeta(alpha=3e-6, beta=8e-11)
        fit = fit_alpha_beta(self.synthesize(truth.alpha, truth.beta, [(8, 65536), (2, 2**21)]))
        assert fit.alpha == pytest.approx(truth.alpha, rel=1e-6)
        assert fit.beta == pytest.approx(truth.beta, rel=1e-6)

    def test_requires_two_measurements(self):
        with pytest.raises(ProfilingError):
            fit_alpha_beta([(1, 100.0, 1.0)])

    def test_rejects_degenerate_rows(self):
        # Proportional (n, n*s) rows cannot separate alpha from beta.
        with pytest.raises(ProfilingError):
            fit_alpha_beta([(1, 100.0, 1.0), (2, 100.0, 2.0)])

    @pytest.mark.parametrize(
        "measurements",
        [
            # Every row one message of one size: a single direction, repeated.
            [(1, 4096.0, 1e-5), (1, 4096.0, 1.1e-5), (1, 4096.0, 0.9e-5)],
            # Proportional rows at several repeat counts.
            [(1, 512.0, 1.0), (2, 512.0, 2.0), (4, 512.0, 4.1), (8, 512.0, 7.9)],
        ],
        ids=["one-size-n1", "proportional"],
    )
    def test_rejects_rank_deficient_sets(self, measurements):
        import numpy as np

        rows = np.array([(n, n * s) for n, s, _t in measurements], dtype=float)
        assert np.linalg.matrix_rank(rows) == 1  # what the fit's rank check must see
        with pytest.raises(ProfilingError, match="degenerate"):
            fit_alpha_beta(measurements)

    def test_rejects_invalid_measurement(self):
        with pytest.raises(ProfilingError):
            fit_alpha_beta([(0, 100.0, 1.0), (1, 100.0, 1.0)])

    def test_noise_tolerance(self):
        import numpy as np

        rng = np.random.default_rng(7)
        truth = AlphaBeta(alpha=5e-6, beta=1e-10)
        measurements = []
        for n, s in [(8, 65536), (4, 524288), (2, 2**21)]:
            t = n * (truth.alpha + truth.beta * s)
            measurements.append((n, s, t * (1 + rng.normal(0, 0.01))))
            t = truth.alpha + truth.beta * n * s
            measurements.append((1, n * s, t * (1 + rng.normal(0, 0.01))))
        fit = fit_alpha_beta(measurements)
        assert fit.alpha == pytest.approx(truth.alpha, rel=0.25)  # small, noise-sensitive
        assert fit.beta == pytest.approx(truth.beta, rel=0.05)

    def test_fit_ignores_measurement_order(self):
        rows = self.synthesize(2e-6, 1e-10, [(8, 65536), (4, 2**19), (2, 2**21)])
        forward, backward = fit_alpha_beta(rows), fit_alpha_beta(rows[::-1])
        assert forward.alpha == pytest.approx(backward.alpha, rel=1e-9)
        assert forward.beta == pytest.approx(backward.beta, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-7, max_value=1e-4),
        beta=st.floats(min_value=1e-12, max_value=1e-8),
    )
    def test_property_noiseless_recovery(self, alpha, beta):
        fit = fit_alpha_beta(self.synthesize(alpha, beta, [(8, 65536), (2, 2**21)]))
        assert fit.alpha == pytest.approx(alpha, rel=1e-4)
        assert fit.beta == pytest.approx(beta, rel=1e-4)
