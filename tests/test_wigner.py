import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.errors import DomainError
from foamlab.wigner import (
    CURVATURE_NOISE_COEFF,
    PSD_RTOL,
    VARIANCE_RATIO,
    TripletCovariance,
    _spectrum,
    curvature_from_second_difference,
    curvature_uncertainty,
    density_fluctuation,
    riemann_scalar_fluctuation,
    second_difference_variance,
)

# Frozen oracles (direct evaluation with CODATA Planck units).
# 2**-20 / (11 c), correctly rounded: the bump 2**-20 is exact in binary,
# so the second difference of (1, 1, 1 + 2**-20) carries no rounding.
ESTIMATE_MICRO_BUMP = 2.8919228224160634e-18
DELTA_C_1CM = 3.44152250099432e-23
DELTA_R_1E5 = 8.803996281587535e-28
DELTA_RHO_1E5 = 11.85538146570642


def random_correlation(rng) -> TripletCovariance:
    raw = rng.standard_normal((3, 3))
    gram = raw @ raw.T
    scale = np.sqrt(np.diag(gram))
    corr = gram / np.outer(scale, scale)
    return TripletCovariance(
        sigma2=1.0,
        cov12=float(corr[0, 1]),
        cov23=float(corr[1, 2]),
        cov13=float(corr[0, 2]),
    )


def matrix(cov: TripletCovariance) -> np.ndarray:
    s, c12, c23, c13 = cov
    return np.array([[s, c12, c13], [c12, s, c23], [c13, c23, s]])


def estimate(t1, t2, t3):
    """The estimate from three flight times: the second difference, then the estimator."""
    return curvature_from_second_difference(t1 - 2.0 * t2 + t3, t2)


class TestEstimateCurvature:
    def test_equal_times_give_zero(self):
        assert estimate(2.5, 2.5, 2.5) == 0.0

    def test_exact_linear_drift_gives_zero(self):
        # binary-exact drift: the second difference cancels without rounding
        assert estimate(1.5, 1.0, 0.5) == 0.0

    def test_decimal_linear_drift_is_noise_level(self):
        assert abs(estimate(1.1, 1.0, 0.9)) < 1e-25

    def test_micro_bump_value(self):
        assert curvature_from_second_difference(2**-20, 1.0) == pytest.approx(
            ESTIMATE_MICRO_BUMP, rel=1e-12, abs=0
        )
        assert estimate(1.0, 1.0, 1.0 + 2**-20) == pytest.approx(
            ESTIMATE_MICRO_BUMP, rel=1e-12, abs=0
        )

    def test_sign_follows_second_difference(self):
        assert curvature_from_second_difference(1e-6, 1.0) > 0
        assert curvature_from_second_difference(-1e-6, 1.0) < 0
        assert estimate(1.0, 1.0 + 1e-6, 1.0) < 0

    @given(
        second_difference=st.floats(min_value=-1.0, max_value=1.0),
        bump=st.floats(min_value=1e-6, max_value=0.1),
    )
    def test_linear_in_outer_times(self, second_difference, bump):
        # Linear in the second difference at fixed t2, so in t1 and t3 alike.
        cs = DEFAULT_CONSTANTS
        base = curvature_from_second_difference(second_difference, 1.0)
        bumped = curvature_from_second_difference(second_difference + bump, 1.0)
        assert bumped - base == pytest.approx(bump / (11.0 * cs.c), rel=1e-9, abs=0)

    def test_subnormal_times(self):
        # t2**2 underflows to zero here; dividing by t2 twice does not.
        assert estimate(1e-311, 1e-311, 1e-311) == 0.0
        assert curvature_from_second_difference(1e-311, 1e-311) == pytest.approx(
            1.0 / (11.0 * DEFAULT_CONSTANTS.c) / 1e-311, rel=1e-3, abs=0
        )

    def test_rejects_nonpositive_times(self):
        for t2 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="t2"):
                curvature_from_second_difference(0.0, t2)


class TestSecondDifferenceVariance:
    def test_uncorrelated_triplet(self):
        cov = TripletCovariance(sigma2=0.7, cov12=0.0, cov23=0.0, cov13=0.0)
        assert second_difference_variance(cov) == pytest.approx(6 * 0.7, rel=1e-12, abs=0)

    def test_perfectly_correlated_triplet_cancels(self):
        cov = TripletCovariance(sigma2=0.3, cov12=0.3, cov23=0.3, cov13=0.3)
        assert abs(second_difference_variance(cov)) <= 1e-12 * 0.3

    def test_cube_root_covariance_ratio(self):
        from foamlab.montecarlo import ngvandam_covariance

        cov = ngvandam_covariance(1.0)
        assert second_difference_variance(cov) / cov.sigma2 == pytest.approx(
            VARIANCE_RATIO, rel=1e-12, abs=0
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_identity_for_random_psd_matrices(self, seed):
        cov = random_correlation(np.random.default_rng(seed))
        weights = np.array([1.0, -2.0, 1.0])
        oracle = float(weights @ matrix(cov) @ weights)
        assert second_difference_variance(cov) == pytest.approx(oracle, rel=1e-10, abs=1e-13)

    def test_rejects_indefinite_matrix(self):
        cov = TripletCovariance(sigma2=1.0, cov12=-0.8, cov23=-0.8, cov13=-0.8)
        with pytest.raises(DomainError, match="eigenvalue"):
            second_difference_variance(cov)

    def test_rejects_nonpositive_sigma2(self):
        with pytest.raises(DomainError, match="sigma2"):
            second_difference_variance(
                TripletCovariance(sigma2=0.0, cov12=0.0, cov23=0.0, cov13=0.0)
            )

    # 10**400 exceeds every double, 10**5000 is too long for repr, and True is
    # a bool, not the number 1.
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 10**400, 10**5000, True],
        ids=["nan", "inf", "10**400", "10**5000", "True"],
    )
    def test_rejects_non_finite_entry(self, bad):
        for entries in ((bad, 0.0, 0.0, 0.0), (1.0, 0.0, bad, 0.0)):
            with pytest.raises(DomainError, match="must be a finite number"):
                second_difference_variance(TripletCovariance(*entries))

    # Finite PSD entries whose variance leaves the double range: 6 sigma2
    # overflows, and with every entry 1e308 both routes take inf - inf.
    @pytest.mark.parametrize(
        "entries", [(1e308, 0.0, 0.0, 0.0), (1e308, 1e308, 1e308, 1e308)], ids=["inf", "nan"]
    )
    def test_rejects_non_finite_variance(self, entries):
        with pytest.raises(DomainError, match="not a finite double"):
            second_difference_variance(TripletCovariance(*entries))


class TestSpectrum:
    # Two roots 2**-40 apart, where an arccos of q / (2 r^3) loses half the digits.
    @pytest.mark.parametrize(
        "entries", [(1.0, 0.5, 0.5, 0.5 + 2**-40), (1.0, 0.3, -0.3 + 2**-40, -0.3)]
    )
    def test_close_roots_keep_their_digits(self, entries):
        reference = np.linalg.eigvalsh(matrix(entries))[::-1]
        assert max(abs(got - want) for got, want in zip(_spectrum(*entries), reference)) <= 4e-15

    @given(
        sigma2=st.floats(min_value=1e-300, max_value=1e300),
        correlations=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
    )
    def test_matches_eigvalsh_and_validate_follows_it(self, sigma2, correlations):
        cov = TripletCovariance(sigma2, *(rho * sigma2 for rho in correlations))
        reference = np.linalg.eigvalsh(matrix(cov))[::-1]
        spectrum = _spectrum(*cov)
        assert max(abs(got - want) for got, want in zip(spectrum, reference)) <= 1e-13 * sigma2
        # validate takes the smallest eigenvalue from _spectrum; away from its
        # -PSD_RTOL * sigma2 bound it accepts and rejects as eigvalsh would.
        margin = reference[2] + PSD_RTOL * sigma2
        if margin > 1e-13 * sigma2:
            cov.validate()
        elif margin < -1e-13 * sigma2:
            with pytest.raises(DomainError, match="eigenvalue"):
                cov.validate()


class TestClosedFormChain:
    def test_coefficient(self):
        assert CURVATURE_NOISE_COEFF == pytest.approx(
            math.sqrt(VARIANCE_RATIO) / 11, rel=1e-15, abs=0
        )
        assert abs(CURVATURE_NOISE_COEFF - 0.2498866) <= 1e-6

    def test_coefficient_extraction(self):
        cs = DEFAULT_CONSTANTS
        for l in (1e-5, 1.0, 1e5):
            extracted = curvature_uncertainty(l) * l * (l / cs.l_planck) ** (2 / 3)
            assert extracted == pytest.approx(CURVATURE_NOISE_COEFF, rel=1e-12, abs=0)

    def test_delta_c_at_1cm(self):
        assert curvature_uncertainty(1.0) == pytest.approx(DELTA_C_1CM, rel=1e-12, abs=0)

    def test_delta_c_scaling(self):
        assert curvature_uncertainty(8.0) / curvature_uncertainty(1.0) == pytest.approx(
            1 / 32, rel=1e-12, abs=0
        )

    def test_riemann_scalar_fixed_point_and_value(self):
        cs = DEFAULT_CONSTANTS
        lp = cs.l_planck
        assert riemann_scalar_fluctuation(lp) == pytest.approx(lp**-2, rel=1e-12, abs=0)
        assert riemann_scalar_fluctuation(1e-5) == pytest.approx(DELTA_R_1E5, rel=1e-12, abs=0)

    def test_riemann_scalar_scaling(self):
        ratio = riemann_scalar_fluctuation(1e3 * 2.0) / riemann_scalar_fluctuation(2.0)
        assert ratio == pytest.approx(1e-10, rel=1e-9, abs=0)

    def test_density_value_and_pairings(self):
        assert density_fluctuation(1e-5) == pytest.approx(DELTA_RHO_1E5, rel=1e-12, abs=0)
        assert density_fluctuation(1.052385e4) == pytest.approx(1e-29, rel=1e-3, abs=0)

    @given(l=st.floats(min_value=1e-8, max_value=1e8))
    def test_density_two_form_identity(self, l):
        cs = DEFAULT_CONSTANTS
        direct = density_fluctuation(l)
        via_scalar = (cs.c**2 / cs.G) * riemann_scalar_fluctuation(l)
        assert via_scalar == pytest.approx(direct, rel=1e-12, abs=0)

    def test_scalar_to_curvature_ratio_is_constant(self):
        ratios = [
            riemann_scalar_fluctuation(l) / curvature_uncertainty(l) ** 2
            for l in np.logspace(-3, 3, 13)
        ]
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1e-9, abs=0)

    # 10**400 exceeds every double; True is a bool, not the length 1.
    @pytest.mark.parametrize(
        "bad", [0.0, -2.0, float("nan"), float("inf"), pytest.param(10**400, id="10**400"), True]
    )
    def test_domain_errors(self, bad):
        for op in (curvature_uncertainty, riemann_scalar_fluctuation, density_fluctuation):
            with pytest.raises(DomainError):
                op(bad)

    @pytest.mark.parametrize("l", [5e-324, 1e-300, 1e-200, 1e300, 1.7e308])
    def test_unrepresentable_lengths_are_domain_errors(self, l):
        # Each law leaves the normal doubles, or overflows on the way, at these lengths.
        for op in (curvature_uncertainty, riemann_scalar_fluctuation, density_fluctuation):
            with pytest.raises(DomainError, match="l = "):
                op(l)

    @pytest.mark.parametrize("l", [1e-200, 1e155, 1e300])
    def test_scalar_error_names_no_direction(self, l):
        # l**2 overflows from 1.34e154 cm, where delta_R underflows; 1/l**2
        # divides by an underflowed zero at 1e-200 cm, where delta_R overflows.
        with pytest.raises(DomainError, match="is not a representable double") as error:
            riemann_scalar_fluctuation(l)
        assert "overflow" not in str(error.value) and "underflow" not in str(error.value)
