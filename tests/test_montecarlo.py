import math
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.errors import DomainError
from foamlab.laws import time_uncertainty
from foamlab import montecarlo
from foamlab.montecarlo import (
    ADJACENT_CORRELATION,
    OUTER_CORRELATION,
    McConfig,
    _second_difference_scale,
    ngvandam_covariance,
    verify_curvature_uncertainty,
)
from foamlab.report import _eigenvalues
from foamlab.wigner import (
    VARIANCE_RATIO,
    TripletCovariance,
    curvature_uncertainty,
    second_difference_variance,
)

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
        assert ADJACENT_CORRELATION == pytest.approx(-0.2062994740159002, rel=1e-12, abs=0)
        assert OUTER_CORRELATION == pytest.approx(-0.047359140442247316, rel=1e-12, abs=0)

    def test_sigma_matches_time_law(self):
        cs = DEFAULT_CONSTANTS
        cov = ngvandam_covariance(1.0)
        sigma = time_uncertainty(1.0 / cs.c)
        assert cov.sigma2 == pytest.approx(sigma**2, rel=1e-12, abs=0)

    def test_interval_variance_constraints(self):
        cov = ngvandam_covariance(2.5)
        s2 = cov.sigma2
        # single, adjacent pair, full triple
        assert cov.cov12 == cov.cov23
        assert 2 * s2 + 2 * cov.cov12 == pytest.approx(2 ** (2 / 3) * s2, rel=1e-12, abs=0)
        total = 3 * s2 + 2 * (cov.cov12 + cov.cov23 + cov.cov13)
        assert total == pytest.approx(3 ** (2 / 3) * s2, rel=1e-12, abs=0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            ngvandam_covariance(0.0)

    def test_variance_ratio_identity_bridge(self):
        # two routes to the same ratio: the interval-variance form and the
        # direct quadratic form in the correlations
        closed = 15.0 - 6.0 * 2.0 ** (2.0 / 3.0) + 3.0 ** (2.0 / 3.0)
        quadratic = 6.0 - 8.0 * ADJACENT_CORRELATION + 2.0 * OUTER_CORRELATION
        assert closed == pytest.approx(VARIANCE_RATIO, rel=1e-12, abs=0)
        assert quadratic == pytest.approx(VARIANCE_RATIO, rel=1e-12, abs=0)


class TestEigenvalues:
    def test_correlation_spectrum_matches_closed_form(self):
        expected = closed_form_spectrum()
        spectrum = _eigenvalues(CORRELATION)
        for got, want in zip(spectrum, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_correlation_spectrum_bounds_and_trace(self):
        spectrum = _eigenvalues(CORRELATION)
        assert spectrum[0] < 1.27
        assert spectrum[2] > 0.68
        assert sum(spectrum) == pytest.approx(3.0, abs=1e-12)

    def test_identity_and_rank_one(self):
        identity = TripletCovariance(sigma2=1.0, cov12=0.0, cov23=0.0, cov13=0.0)
        assert _eigenvalues(identity) == pytest.approx((1.0, 1.0, 1.0), abs=0)
        ones = TripletCovariance(sigma2=1.0, cov12=1.0, cov23=1.0, cov13=1.0)
        spectrum = _eigenvalues(ones)
        assert spectrum[0] == pytest.approx(3.0, rel=1e-12, abs=0)
        assert abs(spectrum[1]) < 1e-12 and abs(spectrum[2]) < 1e-12


class TestSampling:
    CUBE_ROOT = pytest.mark.parametrize(
        "cov",
        [ngvandam_covariance(1.0), ngvandam_covariance(3.9e-199), ngvandam_covariance(1.2e171)],
        ids=["cube-root", "cube-root-shortest", "cube-root-longest"],
    )

    @CUBE_ROOT
    def test_factor_reproduces_covariance(self, cov):
        # Cholesky alone factors the cube-root matrix here and near both ends
        # (3.71e-199, 1.30e171 cm) of the l at which delta_C is a normal double.
        matrix = cov.matrix()
        factor = np.linalg.cholesky(matrix)
        assert np.max(np.abs(factor @ factor.T - matrix)) <= 1e-12 * np.max(np.abs(matrix))

    @CUBE_ROOT
    def test_scale_squared_is_second_difference_variance(self, cov):
        variance = second_difference_variance(cov)
        assert abs(_second_difference_scale(cov) ** 2 - variance) <= 8 * math.ulp(variance)

    def test_validates_covariance_once(self, monkeypatch):
        calls = []
        validate = TripletCovariance.validate

        def counted(cov):
            calls.append(cov)
            validate(cov)

        monkeypatch.setattr(TripletCovariance, "validate", counted)
        verify_curvature_uncertainty(McConfig(l=1.0, n_samples=100, seed=1))
        assert len(calls) == 1

    def test_config_validation(self):
        # 10**400 exceeds every double; True is a bool, not the number 1.
        for bad in (-1.0, 10**400, True):
            with pytest.raises(DomainError, match="^l must be"):
                McConfig(l=bad, n_samples=10, seed=0).validate()
        for field in ("n_samples", "seed", "n_partitions"):
            with pytest.raises(DomainError, match=f"^{field} must be"):
                McConfig(l=1.0, n_samples=10, seed=0)._replace(**{field: True}).validate()
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
        assert ratio == pytest.approx(VARIANCE_RATIO, rel=0.01, abs=0)
        assert result.empirical_delta_c == pytest.approx(
            result.closed_form_delta_c, rel=0.01, abs=0
        )

    @pytest.mark.parametrize("seed", range(100, 105))
    def test_relative_error_within_seven_sigma(self, seed):
        # Each sample is one Gaussian, so the sample variance has relative SE sqrt(2/(n-1)).
        n = 100_000
        result = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=n, seed=seed))
        assert result.relative_error <= 7 * math.sqrt(2 / (n - 1))

    def test_closed_form_delta_c_bit_identical_to_law(self):
        result = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=100, seed=5))
        assert result.closed_form_delta_c == curvature_uncertainty(1.0)

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

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_workers_capped_by_cpus_and_blocks(self, monkeypatch, cpus):
        # three blocks, and far more partitions than blocks or cores
        workers = min(10**9, cpus, 3)
        # Each thread's first block waits for the others, so every thread takes one.
        barrier = threading.Barrier(workers, timeout=10)
        threads = set()
        block = montecarlo._block_moments

        def recorded(*args):
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                barrier.wait()
            return block(*args)

        monkeypatch.setattr(montecarlo, "_block_moments", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        verify_curvature_uncertainty(
            McConfig(l=1.0, n_samples=2_000_001, seed=3, n_partitions=10**9)
        )
        assert len(threads) == workers
        assert threading.get_ident() in threads

    def test_every_block_once_under_contention(self, monkeypatch):
        # More threads than cores and a short switch interval, so a block
        # lost or taken twice from the shared index iterator would show.
        taken = []

        def cheap(seed, scale, index, rows):
            taken.append(index)
            return rows, float(index), float(rows)

        monkeypatch.setattr(montecarlo, "_block_moments", cheap)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        config = McConfig(l=1.0, n_samples=64 * montecarlo.BLOCK_ROWS, seed=1, n_partitions=16)
        expected = verify_curvature_uncertainty(config._replace(n_partitions=1))
        taken.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [verify_curvature_uncertainty(config) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == sorted(list(range(64)) * 20)
        assert results == [expected] * 20

    def test_block_error_stops_the_other_threads(self, monkeypatch):
        taken = []

        def failing_first(seed, scale, index, rows):
            taken.append(index)
            if index == 0:
                raise ZeroDivisionError("block failed")
            time.sleep(0.01)
            return rows, 0.0, float(rows)

        monkeypatch.setattr(montecarlo, "_block_moments", failing_first)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = McConfig(l=1.0, n_samples=50 * montecarlo.BLOCK_ROWS, seed=1, n_partitions=2)
        with pytest.raises(ZeroDivisionError, match="block failed"):
            verify_curvature_uncertainty(config)
        # The other thread finishes the block it holds and takes no more.
        assert len(taken) < 50

    @pytest.mark.parametrize("samples, partitions", [(100, 1), (2_500_000, 2)])
    def test_block_error_is_raised_on_caller_after_join(self, monkeypatch, samples, partitions):
        def failing(*args):
            raise ZeroDivisionError("block failed")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_block_moments", failing)
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="block failed"):
            verify_curvature_uncertainty(
                McConfig(l=1.0, n_samples=samples, seed=1, n_partitions=partitions)
            )
        assert threading.active_count() == threads

    def test_interrupt_while_joining_stops_blocks(self, monkeypatch):
        # The calling thread's first block waits until the worker holds one,
        # and the worker's block waits until the calling thread joins it.
        # The first join raises Ctrl-C; only the second lets the worker go.
        caller = threading.get_ident()
        started, taken, interrupted = [], [], []
        worker_block, joining = threading.Event(), threading.Event()

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

            def join(self, timeout=None):
                if not interrupted:
                    interrupted.append(True)
                    raise KeyboardInterrupt
                joining.set()
                super().join(timeout)

        def held(seed, scale, index, rows):
            taken.append((threading.get_ident() == caller, index))
            if threading.get_ident() == caller:
                worker_block.wait(10.0)
            else:
                worker_block.set()
                joining.wait(10.0)
            return rows, 0.0, float(rows)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_block_moments", held)
        monkeypatch.setattr(montecarlo, "threading", types.SimpleNamespace(Thread=Thread))
        with pytest.raises(KeyboardInterrupt):
            verify_curvature_uncertainty(
                McConfig(l=1.0, n_samples=2_500_000, seed=1, n_partitions=2)
            )
        assert len(started) == 1
        assert not started[0].is_alive()
        # Every block was taken once; the worker held one when Ctrl-C came.
        assert sorted(index for _, index in taken) == [0, 1, 2]
        assert [on_caller for on_caller, _ in taken].count(False) >= 1

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
