import math

import pytest

from foamlab import bounce
from foamlab.bounce import (
    BounceModel,
    estimator_response,
    mirror_separation,
    simulate_round_trips,
    solve_outbound,
)
from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.errors import DomainError
from foamlab.wigner import PulseTriplet, estimate_curvature

C = DEFAULT_CONSTANTS.c


def second_difference(times) -> float:
    return times[0] - 2.0 * times[1] + times[2]


class TestModel:
    def test_guard_rejects_strong_curvature(self):
        with pytest.raises(DomainError, match="guard"):
            BounceModel(k=0.05, l=1.0)  # |K| (l/2)^2 = 0.0125

    def test_guard_without_overflow_at_huge_separation(self):
        assert BounceModel(k=0.0, l=1e300).l == 1e300
        with pytest.raises(DomainError, match="guard"):
            BounceModel(k=1e-300, l=1e300)

    def test_rejects_bad_separation(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                BounceModel(k=0.0, l=bad)


class TestMirrorSeparation:
    def test_flat_space_is_constant(self):
        model = BounceModel(k=0.0, l=2.0)
        for t in (0.0, 1e-11, 5.0):
            assert mirror_separation(model, t) == 1.0

    def test_initial_condition_at_rest(self):
        for k in (-1e-4, 0.0, 1e-4):
            model = BounceModel(k=k, l=1.0)
            assert mirror_separation(model, 0.0) == 0.5

    def test_quarter_period_closes_the_gap(self):
        model = BounceModel(k=1e-4, l=1.0)
        quarter = math.pi / (2.0 * model.omega())
        assert abs(mirror_separation(model, quarter)) < 1e-15 * model.l

    def test_negative_curvature_grows(self):
        model = BounceModel(k=-1e-4, l=1.0)
        assert mirror_separation(model, 1e-9) > 0.5

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            mirror_separation(BounceModel(k=0.0, l=1.0), -1.0)


class TestRoundTrips:
    def test_flat_space_trips_are_exact(self):
        record = simulate_round_trips(BounceModel(k=0.0, l=1.0), 5)
        for trip in record.times:
            assert trip == pytest.approx(1.0 / C, rel=1e-12, abs=0)
        assert abs(record.estimated_curvature) < 1e-10 / 1.0

    def test_epochs_are_cumulative(self):
        record = simulate_round_trips(BounceModel(k=4e-6, l=1.0), 4)
        assert record.emission_epochs[0] == 0.0
        running = 0.0
        for trip, epoch in zip(record.times, record.emission_epochs):
            assert epoch == running
            running += trip

    def test_positive_curvature_shrinks_trips(self):
        record = simulate_round_trips(BounceModel(k=4e-6, l=1.0), 3)
        assert record.times[0] > record.times[1] > record.times[2]
        assert second_difference(record.times) < 0
        assert record.estimated_curvature < 0

    def test_negative_curvature_grows_trips(self):
        record = simulate_round_trips(BounceModel(k=-4e-6, l=1.0), 3)
        assert record.times[0] < record.times[1] < record.times[2]
        assert second_difference(record.times) > 0

    def test_second_difference_tracks_minus_k_l_cubed(self):
        k = 4e-6
        record = simulate_round_trips(BounceModel(k=k, l=1.0), 3)
        assert second_difference(record.times) == pytest.approx(-k * 1.0**3 / C, rel=1e-3, abs=0)

    def test_halving_curvature_halves_second_difference(self):
        full = simulate_round_trips(BounceModel(k=8e-6, l=1.0), 3)
        half = simulate_round_trips(BounceModel(k=4e-6, l=1.0), 3)
        ratio = second_difference(full.times) / second_difference(half.times)
        assert ratio == pytest.approx(2.0, rel=0.01, abs=0)

    def test_doubling_separation_scales_by_eight(self):
        small = simulate_round_trips(BounceModel(k=4e-6, l=1.0), 3)
        large = simulate_round_trips(BounceModel(k=4e-6, l=2.0), 3)
        ratio = second_difference(large.times) / second_difference(small.times)
        assert ratio == pytest.approx(8.0, rel=0.01, abs=0)

    def test_sign_flip_antisymmetry(self):
        # The model has a genuine O(K^2) even term (~31.7 |K| (l/2)^2
        # relative), so the antisymmetry is tested at a small K where it
        # sits just above the float noise floor.
        k = 4e-8  # |K| (l/2)^2 = 1e-8
        plus = simulate_round_trips(BounceModel(k=k, l=1.0), 3).estimated_curvature
        minus = simulate_round_trips(BounceModel(k=-k, l=1.0), 3).estimated_curvature
        assert abs(plus + minus) / abs(plus) < 1e-6

    def test_window_guard_rejects_long_runs(self):
        with pytest.raises(DomainError, match="window"):
            simulate_round_trips(BounceModel(k=8e-3, l=1.0), 12)

    def test_requires_three_pulses(self):
        with pytest.raises(DomainError):
            simulate_round_trips(BounceModel(k=0.0, l=1.0), 2)


class TestRootFinder:
    @pytest.mark.parametrize("k", [0.0, 4e-6, -4e-6, 8e-3, -8e-3])
    def test_residual_contract(self, k):
        model = BounceModel(k=k, l=1.0)
        epoch = 0.0
        for _ in range(3):
            u = solve_outbound(model, epoch)
            residual = abs(C * u - mirror_separation(model, epoch + u))
            assert residual < 1e-13 * model.l
            epoch += u + mirror_separation(model, epoch + u) / C

    def test_bracket_straddles_root(self):
        model = BounceModel(k=4e-6, l=1.0)
        half = model.l / 2.0
        assert C * 0.0 - mirror_separation(model, 0.0) < 0
        hi = 4.0 * half / C
        assert C * hi - mirror_separation(model, hi) > 0


def reference_round_trips(model, n_pulses):
    """The per-pulse loop with xi(t) and the gap evaluated afresh on every call.

    simulate_round_trips resolves the model once per run; its times,
    epochs and estimate must match this loop bit for bit.
    """

    def xi(t):
        half = model.l / 2.0
        if model.k > 0:
            return half * math.cos(model.omega() * t)
        if model.k < 0:
            return half * math.cosh(model.omega() * t)
        return half

    def solve(t_emit):
        def gap(u):
            return C * u - xi(t_emit + u)

        lo, hi = 0.0, 4.0 * (model.l / 2.0) / C
        gap_lo, gap_hi = gap(lo), gap(hi)
        assert gap_lo < 0.0 < gap_hi
        for _ in range(bounce.MAX_ROOT_ITERATIONS):
            u = hi - gap_hi * (hi - lo) / (gap_hi - gap_lo)
            if not (lo < u < hi):
                u = 0.5 * (lo + hi)
            gap_u = gap(u)
            if abs(gap_u) < bounce.ROOT_RESIDUAL_RTOL * model.l:
                return u
            if gap_u < 0.0:
                lo, gap_lo = u, gap_u
            else:
                hi, gap_hi = u, gap_u
        raise AssertionError("reference root did not converge")

    times, epochs, epoch = [], [], 0.0
    for _ in range(n_pulses):
        epochs.append(epoch)
        outbound = solve(epoch)
        trip = outbound + xi(epoch + outbound) / C
        times.append(trip)
        epoch += trip
    estimate = estimate_curvature(PulseTriplet(*times[:3]), model.constants)
    return tuple(times), tuple(epochs), estimate


class TestResolvedModel:
    # l = 0.1 keeps 2,000 pulses at |K| = 4e-6 inside the window guard.
    @pytest.mark.parametrize("k", [4e-6, -4e-6, 0.0, 1e-9])
    @pytest.mark.parametrize("l, n_pulses", [(1.0, 3), (0.1, 2000)])
    def test_matches_reference_loop_bit_for_bit(self, k, l, n_pulses):
        model = BounceModel(k=k, l=l)
        record = simulate_round_trips(model, n_pulses)
        times, epochs, estimate = reference_round_trips(model, n_pulses)
        assert record.times == times
        assert record.emission_epochs == epochs
        assert record.estimated_curvature == estimate

    def test_non_convergence_is_domain_error(self, monkeypatch):
        monkeypatch.setattr(bounce, "MAX_ROOT_ITERATIONS", 1)
        model = BounceModel(k=4e-6, l=1.0)
        with pytest.raises(DomainError, match="did not converge within 1 iterations"):
            simulate_round_trips(model, 3)
        with pytest.raises(DomainError, match="did not converge within 1 iterations"):
            solve_outbound(model, 0.0)


class TestEstimatorResponse:
    def test_all_zero_grid(self):
        report = estimator_response([0.0] * 5, 1.0)
        assert report.slope == 0.0
        assert report.max_relative_residual == 0.0

    def test_decade_grid_slope_and_linearity(self):
        grid = [4e-6 * 10 ** (i / 4) for i in range(5)]  # decade in |K|
        report = estimator_response(grid, 1.0)
        # toy-model regression value: slope -> -l/11 at leading order
        assert report.slope * 11.0 / 1.0 == pytest.approx(-1.0, rel=1e-3, abs=0)
        assert report.max_relative_residual < 1e-3

    def test_needs_five_points(self):
        with pytest.raises(DomainError, match="5"):
            estimator_response([1e-6, 2e-6, 4e-6], 1.0)

    def test_needs_decade_span(self):
        with pytest.raises(DomainError, match="decade"):
            estimator_response([1e-6, 2e-6, 3e-6, 4e-6, 5e-6], 1.0)

    def test_mixed_sign_grid(self):
        grid = [-4e-5, -4e-6, 4e-6, 1.2e-5, 4e-5]
        report = estimator_response(grid, 1.0)
        assert report.slope == pytest.approx(-1.0 / 11.0, rel=2e-3, abs=0)
