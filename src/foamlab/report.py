"""Machine-readable reproduction report for the toolkit's claim set.

Each row recomputes one quantitative claim that follows from pushing the
cube-root uncertainty law through the three-pulse curvature protocol,
compares it against the published figure at a documented tolerance, and
records a status:

    reproduced    computed value meets the row's tolerance
    unreproduced  it does not (kept in the report as documentation)

The one expected unreproduced row is the quoted ~1e16 g clock mass for a
one-second interval: the cube-root clock-mass law itself gives 5.8e9 g
for l = c * 1 s, so the quoted figure is inconsistent with the law as
stated and is reported rather than guessed around.

A `basis` column records how each number is obtained (closed-form law,
order-of-magnitude law, Monte Carlo, or toy simulation).  Given a seed
the report is pure: no timestamps, fixed iteration orders, and all
randomness drawn from the seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import __version__
from .constants import DEFAULT_CONSTANTS, ConstantSet, checked_record
from .errors import DomainError
from .laws import clock_mass, length_uncertainty, max_length_for_density
from .montecarlo import (
    ADJACENT_CORRELATION, OUTER_CORRELATION, McConfig, verify_curvature_uncertainty,
)
from .wigner import (
    CURVATURE_NOISE_COEFF, _density_forms, _spectrum, _variance_routes, curvature_uncertainty,
    density_fluctuation,
)
from . import bounce

# Spawn key for the random-covariance batch, disjoint from the Monte
# Carlo partition substreams (those use small partition indices).
_IDENTITY_BATCH_KEY = 1_000_003
_IDENTITY_BATCH_SIZE = 10_000
# Matrices drawn and checked at a time; divides _IDENTITY_BATCH_SIZE.  It
# bounds the batch's peak memory (about 0.2 MB, against 1.8 MB for
# the whole batch at once) without changing a single value.
_IDENTITY_SLICE = 1_000

# Quoted eigenvalues of the round-trip correlation matrix.  They sum to 3.000002, so they are
# not the spectrum of this trace-3 matrix, which is 1.2690313, 1.0473591 and 0.6836095; the
# row passes at 85% of its 1e-5 bound.  No figure or bound is changed here.
_EXPECTED_EIGENVALUES = (1.269025, 1.047359, 0.683618)


class ClaimRow(NamedTuple):
    claim_id: str
    description: str
    published_value: str
    computed_value: float
    unit: str
    status: str
    tolerance: str
    basis: str


class ClaimReport(checked_record("ClaimReport", "version seed samples partitions constants rows")):
    """Claim rows plus the provenance needed to reproduce them."""

    __slots__ = ()

    def __new__(
        cls, version: str, seed: int, samples: int, partitions: int, constants: ConstantSet,
        rows: tuple[ClaimRow, ...],
    ) -> ClaimReport:
        ids = [row.claim_id for row in rows]
        if len(ids) != len(set(ids)):
            raise DomainError(f"claim ids are not unique: {ids!r}")
        return super().__new__(cls, version, seed, samples, partitions, constants, rows)


def build_claim_report(seed: int = 42, samples: int = 1_000_000, partitions: int = 1) -> ClaimReport:
    """Recompute every claim row in DEFAULT_CONSTANTS, which the report records."""
    # The identity batch below draws from the seed too, so check it first.
    mc_config = McConfig(l=1.0, n_samples=samples, seed=seed, n_partitions=partitions)
    mc_config.validate()
    rows: list[ClaimRow] = []

    def add(claim_id, description, published_value, computed_value, unit, ok, tolerance, basis):
        status = "reproduced" if ok else "unreproduced"
        rows.append(ClaimRow(claim_id, description, published_value, computed_value, unit, status,
                             tolerance, basis))

    # Clock masses from the cube-root law.
    mass_1cm = clock_mass(1.0)
    add(
        "clock-mass-1cm",
        "optimal clock mass for measuring a 1 cm length",
        "~1e6 g",
        mass_1cm,
        "g",
        abs(math.log10(mass_1cm / 1e6)) <= 0.5,
        "same decade: |log10(computed/1e6)| <= 0.5",
        "closed-form",
    )
    mass_1s = clock_mass(2.998e10)
    add(
        "clock-mass-1s",
        "optimal clock mass for a 1 s interval (l = c * 1 s = 2.998e10 cm); "
        "the quoted figure is inconsistent with the clock-mass law itself",
        "~1e16 g",
        mass_1s,
        "g",
        abs(math.log10(mass_1s / 1e16)) <= 0.5,
        "same decade: |log10(computed/1e16)| <= 0.5",
        "closed-form",
    )

    # Closed-form curvature-noise prefactor, 0.24988721: the row passes at 61% of its bound.
    add(
        "second-difference-coefficient",
        "prefactor sqrt(15 - 6*2^(2/3) + 3^(2/3))/11 of the curvature noise law",
        "0.2498866",
        CURVATURE_NOISE_COEFF,
        "-",
        abs(CURVATURE_NOISE_COEFF - 0.2498866) <= 1e-6,
        "|computed - 0.2498866| <= 1e-6",
        "closed-form",
    )

    # Variance-decomposition identity over random covariance matrices.  It
    # draws from a SeedSequence key disjoint from the Monte Carlo's blocks.
    identity_gap = _max_identity_gap(seed)
    add(
        "variance-identity",
        "max relative gap between direct and six-term second-difference "
        f"variance over {_IDENTITY_BATCH_SIZE} random covariance matrices",
        "0 (algebraic identity)",
        identity_gap,
        "-",
        identity_gap <= 1e-12,
        "<= 1e-12 relative",
        "closed-form",
    )

    # Monte Carlo reproduction at l = 1 cm.
    mc = verify_curvature_uncertainty(mc_config)
    variance_ratio = mc.empirical_variance / mc.sigma2
    add(
        "variance-ratio-mc",
        f"Monte Carlo Var(t1 - 2 t2 + t3)/sigma^2 at l = 1 cm ({samples} samples)",
        "7.5557",
        variance_ratio,
        "-",
        abs(variance_ratio - 7.5557) / 7.5557 <= 0.01,
        "within 1% of 7.5557",
        "monte-carlo",
    )
    add(
        "delta-c-mc",
        "Monte Carlo curvature noise at l = 1 cm",
        "3.441e-23 1/cm",
        mc.empirical_delta_c,
        "1/cm",
        abs(mc.empirical_delta_c - mc.closed_form_delta_c) / mc.closed_form_delta_c <= 0.01,
        "within 1% of the closed form",
        "monte-carlo",
    )

    # Correlation-matrix spectrum, in closed form.
    spectrum = _spectrum(1.0, ADJACENT_CORRELATION, ADJACENT_CORRELATION, OUTER_CORRELATION)
    eigen_gap = max(abs(a - b) for a, b in zip(spectrum, _EXPECTED_EIGENVALUES))
    add(
        "correlation-eigenvalues",
        "max |eigenvalue - expected| of the round-trip correlation matrix "
        "{1.269025, 1.047359, 0.683618}",
        "0",
        eigen_gap,
        "-",
        eigen_gap <= 1e-5,
        "each eigenvalue within 1e-5",
        "closed-form",
    )
    trace = sum(spectrum)
    add(
        "correlation-trace",
        "trace of the round-trip correlation matrix",
        "3",
        trace,
        "-",
        abs(trace - 3.0) <= 1e-12,
        "|computed - 3| <= 1e-12",
        "closed-form",
    )

    # Density-fluctuation claims (order-of-magnitude laws).
    rho_water = density_fluctuation(1e-5)
    add(
        "water-density",
        "energy-density fluctuation at averaging length l = 1e-5 cm",
        "order of water density (~1 g/cm3)",
        rho_water,
        "g/cm3",
        abs(math.log10(rho_water / 1.0)) <= 1.5,
        "within 1.5 decades of 1 g/cm3",
        "order-of-magnitude",
    )
    threshold = max_length_for_density(1e-29)
    add(
        "density-threshold",
        "largest averaging length whose density fluctuation stays below "
        "the cosmological bound 1e-29 g/cm3",
        "~1e4 cm (about 100 m)",
        threshold,
        "cm",
        abs(math.log10(threshold / 1e4)) <= 0.5,
        "within half a decade of 1e4 cm",
        "order-of-magnitude",
    )
    roundtrip_gap = max(
        abs(max_length_for_density(density_fluctuation(l)) / l - 1.0)
        for l in np.logspace(-8.0, 8.0, 81)
    )
    add(
        "threshold-round-trip",
        "max relative error of max_length_for_density(density_fluctuation(l)) "
        "over l in [1e-8, 1e8] cm",
        "0 (exact inverse)",
        roundtrip_gap,
        "-",
        roundtrip_gap <= 1e-9,
        "<= 1e-9 relative",
        "closed-form",
    )
    two_form_gap = max(
        abs(direct - via_scalar) / direct
        for direct, via_scalar in map(_density_forms, np.logspace(-3.0, 3.0, 61))
    )
    add(
        "density-two-form",
        "max relative gap between the hbar/c and c^2/G density-fluctuation "
        "forms over six decades of l",
        "0 (algebraic identity)",
        two_form_gap,
        "-",
        two_form_gap <= 1e-12,
        "<= 1e-12 relative",
        "closed-form",
    )

    # Toy bounce simulator checks.
    flat = bounce.simulate_round_trips(bounce.BounceModel(k=0.0, l=1.0), 6)
    flat_gap = max(abs(t * DEFAULT_CONSTANTS.c / 1.0 - 1.0) for t in flat.times)
    add(
        "bounce-flat",
        "max relative deviation of flat-space round trips from l/c (K = 0, 6 pulses)",
        "0 (flat space)",
        flat_gap,
        "-",
        flat_gap <= 1e-10,
        "<= 1e-10 relative",
        "toy-simulation",
    )
    # |K| (l/2)^2 up to 1e-5: the model's own quadratic term nears a 1e-3 residual at 1e-4.
    linearity_residual = _linearity_residual(
        [k * 4.0 for k in (1e-6, 1.78e-6, 3.16e-6, 5.62e-6, 1e-5)]
    )
    add(
        "bounce-linearity",
        "max relative residual of the three-pulse estimate against a linear "
        "response over a decade of K",
        "0 (linear response)",
        linearity_residual,
        "-",
        linearity_residual < 1e-3,
        "< 1e-3 relative",
        "toy-simulation",
    )
    scaling_ratio = _second_difference_doubling_ratio()
    add(
        "bounce-tau-cubed",
        "second-difference ratio when doubling the separation at fixed K",
        "8 (tau^3 scaling)",
        scaling_ratio,
        "-",
        abs(scaling_ratio / 8.0 - 1.0) <= 0.01,
        "within 1% of 8",
        "toy-simulation",
    )

    # Power-law scaling identities.
    scaling_gap = max(
        abs(length_uncertainty(k**3 * l) / (k * length_uncertainty(l)) - 1.0)
        for k in (2.0, 10.0, 100.0)
        for l in (1e-6, 1.0, 1e4)
    )
    add(
        "scaling-cube-root",
        "max relative error of delta_l(k^3 l) = k delta_l(l) for k in {2, 10, 100}",
        "0",
        scaling_gap,
        "-",
        scaling_gap <= 1e-12,
        "<= 1e-12 relative",
        "closed-form",
    )
    curvature_scaling_gap = abs(
        curvature_uncertainty(8.0) / curvature_uncertainty(1.0) * 32.0 - 1.0
    )
    add(
        "scaling-curvature-noise",
        "relative error of delta_C(8 l)/delta_C(l) = 1/32",
        "0",
        curvature_scaling_gap,
        "-",
        curvature_scaling_gap <= 1e-12,
        "<= 1e-12 relative",
        "closed-form",
    )

    return ClaimReport(__version__, seed, samples, partitions, DEFAULT_CONSTANTS, tuple(rows))


def _max_identity_gap(seed: int) -> float:
    """Worst relative gap between the library's two variance routes over random matrices.

    Each matrix is the correlation matrix of the Gram matrix of a 3x3
    standard-normal draw, so it is PSD by construction and is not
    validated.  The batch is drawn and checked in slices of
    _IDENTITY_SLICE matrices from the one generator, which bounds its
    peak memory; successive (n, 3, 3) draws are the same stream as N
    draws of (3, 3).  Every step is elementwise IEEE arithmetic, so the
    value is that of a per-matrix loop in the same operation order, bit
    for bit (tests/test_report.py keeps one), whatever the BLAS.  NumPy
    takes the maximum, so a NaN gap comes through to the row's bound.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_IDENTITY_BATCH_KEY,)))
    return float(np.max([
        _slice_identity_gap(rng.standard_normal((_IDENTITY_SLICE, 3, 3)))
        for _ in range(_IDENTITY_BATCH_SIZE // _IDENTITY_SLICE)
    ]))


def _slice_identity_gap(raw: np.ndarray) -> float:
    """Largest identity gap over an (n, 3, 3) stack; the rows of each draw give one Gram matrix."""
    x, y, z = raw[:, 0], raw[:, 1], raw[:, 2]

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]

    xx, yy, zz = dot(x, x), dot(y, y), dot(z, z)
    direct, six_term = _variance_routes(
        1.0,
        dot(x, y) / np.sqrt(xx * yy),
        dot(y, z) / np.sqrt(yy * zz),
        dot(x, z) / np.sqrt(xx * zz),
    )
    gap = abs(direct - six_term) / np.maximum(np.maximum(abs(direct), abs(six_term)), 1.0)
    return float(gap.max())


def _linearity_residual(ks: list[float]) -> float:
    """Largest relative residual of the l = 1 cm estimates about their fit through the origin."""
    estimates = [
        bounce.simulate_round_trips(bounce.BounceModel(k, 1.0), 3).estimated_curvature
        for k in ks
    ]
    slope = sum(c * k for c, k in zip(estimates, ks)) / sum(k * k for k in ks)
    return max(abs(c - slope * k) / abs(slope * k) for c, k in zip(estimates, ks))


def _second_difference_doubling_ratio() -> float:
    k = 4e-6  # |K| (l/2)^2 = 1e-6 at l = 1 cm, 4e-6 at l = 2 cm

    def second_difference(l: float) -> float:
        # From the deviations, as the estimate takes it: the absolute times cancel digits.
        record = bounce.simulate_round_trips(bounce.BounceModel(k=k, l=l), 3)
        d1, d2, d3 = record.deviations
        return 2.0 * ((d1 - d2) - (d2 - d3))

    return second_difference(2.0) / second_difference(1.0)
