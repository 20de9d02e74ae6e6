"""Tests for the alpha-beta cost model and fitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilingError
from repro.network.cost_model import AlphaBeta, fit_alpha_beta, relative_error


class TestAlphaBeta:
    def test_transfer_time(self):
        ab = AlphaBeta(alpha=1e-5, beta=1e-9)
        assert ab.transfer_time(1e6) == pytest.approx(1e-5 + 1e-3)

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
        assert ab.transfer_time(1e6) == float("inf")

    def test_chunked_time_counts_alpha_per_chunk(self):
        ab = AlphaBeta(alpha=1e-5, beta=1e-9)
        t = ab.chunked_time(total_bytes=10e6, chunk_bytes=1e6)
        assert t == pytest.approx(10 * 1e-5 + 10e6 * 1e-9)

    def test_chunked_time_zero_total(self):
        ab = AlphaBeta(alpha=1e-5, beta=1e-9)
        assert ab.chunked_time(0, 1e6) == 0.0

    def test_chunked_time_rejects_bad_chunk(self):
        with pytest.raises(ProfilingError):
            AlphaBeta(0, 0).chunked_time(1e6, 0)

    def test_transfer_time_rejects_negative(self):
        with pytest.raises(ProfilingError):
            AlphaBeta(0, 0).transfer_time(-1)


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
        a_err, b_err = relative_error(fit, truth)
        assert a_err < 1e-6
        assert b_err < 1e-6

    def test_requires_two_measurements(self):
        with pytest.raises(ProfilingError):
            fit_alpha_beta([(1, 100.0, 1.0)])

    def test_rejects_degenerate_rows(self):
        # Proportional (n, n*s) rows cannot separate alpha from beta.
        with pytest.raises(ProfilingError):
            fit_alpha_beta([(1, 100.0, 1.0), (2, 100.0, 2.0)])

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
        a_err, b_err = relative_error(fit, truth)
        assert a_err < 0.25  # alpha is small and noise-sensitive
        assert b_err < 0.05

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-7, max_value=1e-4),
        beta=st.floats(min_value=1e-12, max_value=1e-8),
    )
    def test_property_noiseless_recovery(self, alpha, beta):
        fit = fit_alpha_beta(self.synthesize(alpha, beta, [(8, 65536), (2, 2**21)]))
        a_err, b_err = relative_error(fit, AlphaBeta(alpha, beta))
        assert a_err < 1e-4
        assert b_err < 1e-4
