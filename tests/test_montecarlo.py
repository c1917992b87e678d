import concurrent.futures
import math
import os

import numpy as np
import pytest

from foamlab.constants import default_constants
from foamlab.errors import DomainError
from foamlab.laws import UncertaintyLaw
from foamlab.montecarlo import (
    ADJACENT_CORRELATION,
    OUTER_CORRELATION,
    McConfig,
    eigenvalues,
    _psd_factor,
    ngvandam_covariance,
    verify_curvature_uncertainty,
)
from foamlab.wigner import VARIANCE_RATIO, TripletCovariance, curvature_uncertainty

CORRELATION = TripletCovariance(
    sigma2=1.0,
    cov12=ADJACENT_CORRELATION,
    cov23=ADJACENT_CORRELATION,
    cov13=OUTER_CORRELATION,
)


def closed_form_spectrum() -> tuple[float, float, float]:
    """Independent eigenvalue oracle for [[1,a,b],[a,1,a],[b,a,1]].

    The (1, 0, -1) eigenvector gives 1 - b; the (1, x, 1) family gives
    the roots of a x^2 + b x - 2a = 0 with eigenvalue 1 + b + a x.
    """
    a, b = ADJACENT_CORRELATION, OUTER_CORRELATION
    root = math.sqrt(b * b + 8 * a * a)
    x_plus = (-b + root) / (2 * a)
    x_minus = (-b - root) / (2 * a)
    values = sorted((1 - b, 1 + b + a * x_plus, 1 + b + a * x_minus), reverse=True)
    return tuple(values)


class TestCovarianceConstruction:
    def test_correlations(self):
        assert ADJACENT_CORRELATION == pytest.approx(-0.2062994740159002, rel=1e-12)
        assert OUTER_CORRELATION == pytest.approx(-0.047359140442247316, rel=1e-12)

    def test_sigma_matches_time_law(self):
        cs = default_constants()
        cov = ngvandam_covariance(1.0, cs)
        sigma = UncertaintyLaw(cs).time_uncertainty(1.0 / cs.c)
        assert cov.sigma2 == pytest.approx(sigma**2, rel=1e-12)

    def test_interval_variance_constraints(self):
        cov = ngvandam_covariance(2.5)
        s2 = cov.sigma2
        # single, adjacent pair, full triple
        assert cov.cov12 == cov.cov23
        assert 2 * s2 + 2 * cov.cov12 == pytest.approx(2 ** (2 / 3) * s2, rel=1e-12)
        total = 3 * s2 + 2 * (cov.cov12 + cov.cov23 + cov.cov13)
        assert total == pytest.approx(3 ** (2 / 3) * s2, rel=1e-12)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            ngvandam_covariance(0.0)

    def test_variance_ratio_identity_bridge(self):
        # two routes to the same ratio: the interval-variance form and the
        # direct quadratic form in the correlations
        closed = 15.0 - 6.0 * 2.0 ** (2.0 / 3.0) + 3.0 ** (2.0 / 3.0)
        quadratic = 6.0 - 8.0 * ADJACENT_CORRELATION + 2.0 * OUTER_CORRELATION
        assert closed == pytest.approx(VARIANCE_RATIO, rel=1e-12)
        assert quadratic == pytest.approx(VARIANCE_RATIO, rel=1e-12)


class TestEigenvalues:
    def test_correlation_spectrum_matches_closed_form(self):
        expected = closed_form_spectrum()
        spectrum = eigenvalues(CORRELATION)
        for got, want in zip(spectrum, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_correlation_spectrum_bounds_and_trace(self):
        spectrum = eigenvalues(CORRELATION)
        assert spectrum[0] < 1.27
        assert spectrum[2] > 0.68
        assert sum(spectrum) == pytest.approx(3.0, abs=1e-12)

    def test_identity_and_rank_one(self):
        identity = TripletCovariance(sigma2=1.0, cov12=0.0, cov23=0.0, cov13=0.0)
        assert eigenvalues(identity) == pytest.approx((1.0, 1.0, 1.0))
        ones = TripletCovariance(sigma2=1.0, cov12=1.0, cov23=1.0, cov13=1.0)
        spectrum = eigenvalues(ones)
        assert spectrum[0] == pytest.approx(3.0, rel=1e-12)
        assert abs(spectrum[1]) < 1e-12 and abs(spectrum[2]) < 1e-12


class TestSampling:
    @pytest.mark.parametrize(
        "cov",
        [ngvandam_covariance(1.0), TripletCovariance(sigma2=1.0, cov12=1.0, cov23=1.0, cov13=1.0)],
        ids=["cube-root", "all-ones"],
    )
    def test_factor_reproduces_covariance(self, cov):
        factor = _psd_factor(cov)
        matrix = cov.matrix()
        assert np.max(np.abs(factor @ factor.T - matrix)) <= 1e-12 * np.max(np.abs(matrix))

    def test_rejects_indefinite_covariance(self):
        bad = TripletCovariance(sigma2=1.0, cov12=-0.8, cov23=-0.8, cov13=-0.8)
        with pytest.raises(DomainError, match="eigenvalue"):
            verify_curvature_uncertainty(
                McConfig(l=1.0, n_samples=10, seed=0), cov_override=bad
            )

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(l=-1.0, n_samples=10, seed=0).validate()
        with pytest.raises(DomainError):
            McConfig(l=1.0, n_samples=0, seed=0).validate()
        with pytest.raises(DomainError):
            McConfig(l=1.0, n_samples=10, seed=-1).validate()
        with pytest.raises(DomainError):
            McConfig(l=1.0, n_samples=10, seed=0, n_partitions=0).validate()


class TestVerification:
    def test_seed42_reproduces_closed_form(self):
        result = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=1_000_000, seed=42))
        assert result.relative_error < 0.01
        ratio = result.empirical_variance / result.sigma2
        assert ratio == pytest.approx(VARIANCE_RATIO, rel=0.01)
        assert result.empirical_delta_c == pytest.approx(result.closed_form_delta_c, rel=0.01)

    def test_closed_form_delta_c_bit_identical_to_law(self):
        result = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=100, seed=5))
        assert result.closed_form_delta_c == curvature_uncertainty(1.0)

    def test_identity_override_baseline(self):
        sigma2 = ngvandam_covariance(1.0).sigma2
        identity = TripletCovariance(sigma2=sigma2, cov12=0.0, cov23=0.0, cov13=0.0)
        result = verify_curvature_uncertainty(
            McConfig(l=1.0, n_samples=1_000_000, seed=7), cov_override=identity
        )
        assert result.empirical_variance / sigma2 == pytest.approx(6.0, rel=0.01)
        assert result.closed_form_variance == pytest.approx(6.0 * sigma2, rel=1e-12)

    def test_bit_stable_for_fixed_seed_and_partitions(self):
        config = McConfig(l=1.0, n_samples=50_000, seed=11, n_partitions=8)
        first = verify_curvature_uncertainty(config)
        second = verify_curvature_uncertainty(config)
        assert first == second

    def test_partition_count_statistically_stable(self):
        single = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=1_000_000, seed=42))
        split = verify_curvature_uncertainty(
            McConfig(l=1.0, n_samples=1_000_000, seed=42, n_partitions=8)
        )
        assert split == single

    def test_partition_invariant_across_blocks(self):
        # 2.5e6 samples span three blocks; with two or more cores, two and
        # eight partitions run them on worker threads, one on this thread.
        results = [
            verify_curvature_uncertainty(
                McConfig(l=1.0, n_samples=2_500_000, seed=5, n_partitions=partitions)
            )
            for partitions in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("cpus, requested", [(1, []), (2, [2]), (64, [3])])
    def test_workers_capped_by_cpus_and_blocks(self, monkeypatch, cpus, requested):
        asked = []

        class SerialExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        # three blocks, and far more partitions than blocks or cores
        verify_curvature_uncertainty(
            McConfig(l=1.0, n_samples=2_000_001, seed=3, n_partitions=10**9)
        )
        assert asked == requested

    def test_convergence_scales_as_inverse_sqrt(self):
        # rms relative error over 10 seeds should drop ~10x from 1e4 to 1e6 samples
        def rms_error(n: int) -> float:
            errors = [
                verify_curvature_uncertainty(McConfig(l=1.0, n_samples=n, seed=s)).relative_error
                for s in range(10)
            ]
            return math.sqrt(sum(e * e for e in errors) / len(errors))

        ratio = rms_error(10_000) / rms_error(1_000_000)
        assert 10 / 3 < ratio < 30
