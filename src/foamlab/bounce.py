"""Toy clock-mirror light-bounce simulator at constant sectional curvature.

The mirror starts at rest a distance l/2 from the clock and moves on the
geodesic-deviation trajectory of a constant-curvature model:

    xi(t) = (l/2) * cos(omega t)   for K > 0, omega = c sqrt(K)
    xi(t) = (l/2) * cosh(omega t)  for K < 0, omega = c sqrt(-K)
    xi(t) = l/2                    for K = 0

while light travels at coordinate speed c on a flat background.  This is
deliberately a TOY: it reproduces the structure of the three-pulse
estimator (linearity in K, the tau^3 scaling of the second difference)
but does not propagate light through curved space, so the estimator's
1/11 normalization is not expected to be recovered.  Numerically the
model's small-K response is

    t1 - 2 t2 + t3  ->  -K l^3 / c,    estimate -> -(l/11) K

and the regression slope is pinned against -l/11 as a toy-model value,
not as a physical claim.

Each outbound leg solves c (s - T) = xi(s) by a bracketing-safe
bisection/secant hybrid to an absolute residual below 1e-13 * l; the
return leg completes at s + xi(s)/c.  The weak-curvature guard
|K| (l/2)^2 < 0.01 plus a simulated-window cap keep the outbound root
unique and the mirror away from the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .constants import (
    DEFAULT_CONSTANTS,
    ConstantSet,
    Curvature2,
    Length,
    TimeInterval,
    require_positive_finite,
)
from .errors import ConsistencyError, DomainError
from .wigner import PulseTriplet, estimate_curvature

# Model validity guard and root-finder contract.
CURVATURE_GUARD = 0.01          # |K| (l/2)^2 must stay below this
WINDOW_GUARD = 1.0              # omega * (n_pulses + 1) * (l/c) must stay below this
ROOT_RESIDUAL_RTOL = 1e-13      # |c (s - T) - xi(s)| < this * l
MAX_ROOT_ITERATIONS = 200

# Grid regime in which the fitted response is asserted linear to 1e-3.
# The model's own quadratic term reaches ~1e-3 relative residual already
# at |K| (l/2)^2 = 1e-4, so the hard assertion applies a decade lower.
LINEARITY_ASSERT_GUARD = 3e-5
LINEARITY_MAX_RESIDUAL = 1e-3


@dataclass(frozen=True)
class BounceModel:
    """Constant sectional curvature K (1/cm^2) and clock-mirror setup.

    constants defaults to DEFAULT_CONSTANTS.
    """

    k: Curvature2
    l: Length
    constants: ConstantSet = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        require_positive_finite("l", self.l)
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k)):
            raise DomainError(f"K must be a finite curvature, got {self.k!r}")
        # Left to right, never (l/2)**2: K = 0 gives 0 and a huge l gives
        # inf, where the power would raise OverflowError above ~1e154 cm.
        strength = abs(self.k) * (self.l / 2.0) * (self.l / 2.0)
        if strength >= CURVATURE_GUARD:
            raise DomainError(
                f"|K| (l/2)^2 = {strength:.3e} violates the weak-curvature guard {CURVATURE_GUARD}"
            )

    def omega(self) -> float:
        return self.constants.c * math.sqrt(abs(self.k))


@dataclass(frozen=True)
class BounceRecord:
    """Simulated round trips, their emission epochs, and the estimate."""

    times: tuple[TimeInterval, ...]
    emission_epochs: tuple[TimeInterval, ...]
    estimated_curvature: float


@dataclass(frozen=True)
class ResponseReport:
    """Linear-response fit of the estimator over a curvature grid."""

    slope: float
    max_relative_residual: float
    k_grid: tuple[float, ...]
    estimates: tuple[float, ...]


def mirror_separation(model: BounceModel, t: TimeInterval) -> Length:
    """Clock-mirror separation xi(t) at coordinate time t >= 0."""
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0):
        raise DomainError(f"t must be a finite non-negative time, got {t!r}")
    return _separation(model)(t)


def _separation(model: BounceModel) -> Callable[[float], float]:
    """xi(t) of the model, with its branch, omega and l/2 resolved once; t is not checked."""
    half = model.l / 2.0
    if model.k == 0:
        return lambda t: half
    omega = model.omega()
    wave = math.cos if model.k > 0 else math.cosh
    return lambda t: half * wave(omega * t)


def simulate_round_trips(model: BounceModel, n_pulses: int) -> BounceRecord:
    """Simulate n_pulses consecutive round trips; estimate from the first three.

    Pulse n leaves at epoch T_{n-1}, reaches the mirror at the root of
    c (s - T_{n-1}) = xi(s), and returns at T_n = s + xi(s)/c.  The
    projected window must stay inside the weak-curvature guard so the
    outbound root is unique.
    """
    if not (isinstance(n_pulses, int) and n_pulses >= 3):
        raise DomainError(f"n_pulses must be an integer >= 3, got {n_pulses!r}")
    cs = model.constants
    if model.k != 0:
        window = model.omega() * (n_pulses + 1) * (model.l / cs.c)
        if window > WINDOW_GUARD:
            raise DomainError(
                f"simulated window omega*T = {window:.3e} exceeds the guard {WINDOW_GUARD}; "
                "reduce n_pulses or |K|"
            )
    xi = _separation(model)
    times: list[float] = []
    epochs: list[float] = []
    epoch = 0.0
    for _ in range(n_pulses):
        epochs.append(epoch)
        outbound = _solve_outbound(xi, model.l, cs.c, epoch)
        trip = outbound + xi(epoch + outbound) / cs.c
        times.append(trip)
        epoch += trip
    estimate = estimate_curvature(PulseTriplet(times[0], times[1], times[2]), cs)
    return BounceRecord(
        times=tuple(times), emission_epochs=tuple(epochs), estimated_curvature=estimate
    )


def solve_outbound(model: BounceModel, t_emit: TimeInterval) -> TimeInterval:
    """One-way flight time u solving c u = xi(t_emit + u).

    Bracketed on (0, 4 (l/2)/c), where the left end is below the root
    (light has not reached the mirror) and the right end above it under
    the guard; bisection with secant proposals converges to an absolute
    residual below ROOT_RESIDUAL_RTOL * l.
    """
    def xi(t: float) -> float:
        return mirror_separation(model, t)

    return _solve_outbound(xi, model.l, model.constants.c, t_emit)


def _solve_outbound(
    xi: Callable[[float], float], l: Length, c: float, t_emit: TimeInterval
) -> TimeInterval:
    """solve_outbound for the separation xi; the pulse loop passes _separation's xi."""
    half = l / 2.0
    lo, hi = 0.0, 4.0 * half / c
    gap_lo, gap_hi = c * lo - xi(t_emit + lo), c * hi - xi(t_emit + hi)
    if not (gap_lo < 0.0 < gap_hi):
        raise DomainError(
            "outbound bracket failure (mirror reached the clock within the window): "
            f"gap({lo!r}) = {gap_lo!r}, gap({hi!r}) = {gap_hi!r}"
        )
    tolerance = ROOT_RESIDUAL_RTOL * l
    u = 0.5 * (lo + hi)
    for _ in range(MAX_ROOT_ITERATIONS):
        u = hi - gap_hi * (hi - lo) / (gap_hi - gap_lo)
        if not (lo < u < hi):
            u = 0.5 * (lo + hi)
        gap_u = c * u - xi(t_emit + u)
        if abs(gap_u) < tolerance:
            return u
        if gap_u < 0.0:
            lo, gap_lo = u, gap_u
        else:
            hi, gap_hi = u, gap_u
    raise DomainError(
        f"outbound root did not converge within {MAX_ROOT_ITERATIONS} iterations "
        f"(last residual {gap_u!r})"
    )


def estimator_response(
    k_grid: list[float] | tuple[float, ...],
    l: Length,
    constants: ConstantSet = DEFAULT_CONSTANTS,
    n_pulses: int = 3,
) -> ResponseReport:
    """Fit estimate = slope * K through the origin over a curvature grid.

    Requires at least five grid points spanning a decade in |K| (an
    all-zero grid short-circuits to a zero report).  Reports the fitted
    slope and the maximum relative residual over nonzero points; inside
    the LINEARITY_ASSERT_GUARD regime a residual at or above
    LINEARITY_MAX_RESIDUAL raises ConsistencyError.  constants defaults to
    DEFAULT_CONSTANTS.
    """
    ks = [float(k) for k in k_grid]
    if len(ks) < 5:
        raise DomainError(f"need at least 5 grid points, got {len(ks)}")
    nonzero = [abs(k) for k in ks if k != 0.0]
    if not nonzero:
        return ResponseReport(
            slope=0.0,
            max_relative_residual=0.0,
            k_grid=tuple(ks),
            estimates=tuple(0.0 for _ in ks),
        )
    if max(nonzero) / min(nonzero) < 10.0 * (1.0 - 1e-12):
        raise DomainError(
            f"grid must span at least a decade in |K|; got {min(nonzero):.3e}..{max(nonzero):.3e}"
        )
    estimates = [
        simulate_round_trips(
            BounceModel(k=k, l=l, constants=constants), n_pulses
        ).estimated_curvature
        for k in ks
    ]
    slope = sum(c * k for c, k in zip(estimates, ks)) / sum(k * k for k in ks)
    residuals = [
        abs(c - slope * k) / abs(slope * k) for c, k in zip(estimates, ks) if k != 0.0
    ]
    max_residual = max(residuals)
    if max(nonzero) * (l / 2.0) ** 2 <= LINEARITY_ASSERT_GUARD and (
        max_residual >= LINEARITY_MAX_RESIDUAL
    ):
        raise ConsistencyError(
            f"estimator response is not linear in K: max relative residual {max_residual:.3e}"
        )
    return ResponseReport(
        slope=slope,
        max_relative_residual=max_residual,
        k_grid=tuple(ks),
        estimates=tuple(estimates),
    )
