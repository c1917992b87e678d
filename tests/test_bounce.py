import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, strategies as st

from foamlab import bounce
from foamlab.bounce import BounceModel, simulate_round_trips
from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.errors import DomainError

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
        # 10**400 exceeds every double; True is a bool, not the number 1.  K may be
        # negative, but the same refusals hold for it.
        for bad in (0.0, -1.0, float("nan"), 10**400, True):
            with pytest.raises(DomainError, match="^l must be"):
                BounceModel(k=0.0, l=bad)
        for bad in (float("nan"), float("inf"), 10**400, -(10**400), True):
            with pytest.raises(DomainError, match="^K must be"):
                BounceModel(k=bad, l=0.1)  # K = 1 would pass the guard here


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


def displacement(model, s):
    """xi(s) - l/2 at 40 digits, from the Taylor series of cos or cosh minus one."""
    with localcontext() as ctx:
        ctx.prec = 40
        x2 = (Decimal(model.omega()) * s) ** 2
        sign = -1 if model.k > 0 else 1
        term, total = Decimal(1), Decimal(0)
        for n in range(1, 40):
            term *= sign * x2 / ((2 * n - 1) * (2 * n))
            total += term
        return Decimal(model.l) / 2 * total


class TestRootFinder:
    """Each pulse's deviation delta is the fixed point c delta = xi(s) - l/2."""

    @staticmethod
    def assert_residual_is_a_few_ulps(model, n_pulses):
        record = simulate_round_trips(model, n_pulses)
        half_leg = Decimal(model.l) / (2 * Decimal(C))
        for epoch, trip, delta in zip(record.emission_epochs, record.times, record.deviations):
            assert trip == model.l / C + 2.0 * delta
            s = Decimal(epoch) + half_leg + Decimal(delta)
            expected = float(displacement(model, s) / Decimal(C))
            assert abs(delta - expected) <= 16.0 * math.ulp(expected)

    @pytest.mark.parametrize("k", [0.0, 4e-6, -4e-6, 8e-3, -8e-3])
    def test_residual_contract(self, k):
        self.assert_residual_is_a_few_ulps(BounceModel(k=k, l=1.0), 10)

    # l = 0.1 keeps 2,000 pulses at |K| = 4e-6 inside the window guard.
    @pytest.mark.parametrize("k, l", [(4e-6, 0.1), (-4e-6, 0.1), (1e-9, 1.0)])
    def test_residual_contract_over_long_runs(self, k, l):
        self.assert_residual_is_a_few_ulps(BounceModel(k=k, l=l), 2000)

    # Stopping only when delta repeats exactly leaves some K in a last-bit
    # 2-cycle: the last two here, and the first two under other rounding of
    # the same map.  The relative step rule must end every pulse.
    @pytest.mark.parametrize(
        "k",
        [
            1.1241781305784196e-09, 8.007522770373264e-10,
            8.868221790069522e-10, 9.821330880821531e-10,
        ],
    )
    def test_last_bit_two_cycle_converges(self, k):
        record = simulate_round_trips(BounceModel(k=k, l=1.0), 20000)
        assert len(record.times) == 20000
        assert abs(record.estimated_curvature / (-k / 11.0) - 1.0) <= 4.0 * k + 1e-12

    @given(
        strength=st.floats(-30.0, -4.0).map(lambda e: 10.0**e),
        l=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @example(strength=1e-20, l=1.0, sign=1.0)  # the estimate read exactly 0
    @example(strength=1e-15, l=0.1, sign=1.0)  # K = 1e-13, once 21% off
    def test_estimate_within_model_term(self, strength, l, sign):
        k = sign * strength / l / l
        estimate = simulate_round_trips(BounceModel(k=k, l=l), 3).estimated_curvature
        assert abs(estimate / (-l * k / 11.0) - 1.0) <= 4.0 * abs(k) * l * l + 1e-12

    # A subnormal l/c, or a second difference K l^3 / c below the normal
    # doubles, keeps too few bits for the trips or the estimate.
    @pytest.mark.parametrize(
        "k, l, match",
        [
            (0.0, 1e-313, "representable"), (1e300, 1e-300, "representable"),
            (1e100, 1e-200, "unresolvable"), (1e-300, 1.0, "unresolvable"),
            (-1e-300, 1.0, "unresolvable"),
        ],
    )
    def test_subnormal_times_are_domain_errors(self, k, l, match):
        with pytest.raises(DomainError, match=match):
            simulate_round_trips(BounceModel(k=k, l=l), 3)

    def test_non_convergence_is_domain_error(self, monkeypatch):
        monkeypatch.setattr(bounce, "MAX_ROOT_ITERATIONS", 1)
        with pytest.raises(DomainError, match="did not converge within 1 iterations"):
            simulate_round_trips(BounceModel(k=4e-6, l=1.0), 3)

