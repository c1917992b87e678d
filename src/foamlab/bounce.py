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

and each estimate is pinned against -(l/11) K as a toy-model value, not
as a physical claim; the report's bounce-linearity row checks linearity.

Each pulse is solved for its deviation delta from the flat leg l/(2c),
not for its absolute flight time, whose leading digits the second
difference would cancel.  With xi(s) - l/2 written without cancellation
(-l sin^2(omega s/2) for K > 0, +l sinh^2(omega s/2) for K < 0, 0 for
K = 0), delta is the fixed point of delta -> (xi(T + l/(2c) + delta) - l/2)/c,
iterated until a step moves it by at most STEP_RTOL relative.  The three
pulses the estimate reads start from the previous pulse's delta, the
fourth from the linear extrapolation 2 delta_{n-1} - delta_{n-2}, and each
later one from the quadratic 3 delta_{n-1} - 3 delta_{n-2} + delta_{n-3},
which takes about 2.0 steps a pulse where the previous delta took 3.9 (a
cubic start amplifies the deltas' last-bit noise and takes more).  Each
round trip is l/c + 2 delta, and the estimate takes its second difference
from the deltas.  The weak-curvature
guard |K| (l/2)^2 < 0.01 plus a simulated-window cap keep the mirror away
from the clock and the map's slope below (l/2) sqrt|K| sinh(1) < 0.12.
K = 0 or a tiny |K| meets no window cap, so MAX_PULSES bounds every run.
Light travels at the CODATA-2018 c of DEFAULT_CONSTANTS.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .constants import (
    DEFAULT_CONSTANTS,
    Curvature2,
    Length,
    TimeInterval,
    checked_record,
    is_number,
    require_positive_finite,
    require_representable,
    shown,
)
from .errors import DomainError
from .wigner import curvature_from_second_difference

# Model validity guard and root-finder contract.
CURVATURE_GUARD = 0.01          # |K| (l/2)^2 must stay below this
WINDOW_GUARD = 1.0              # omega * (n_pulses + 1) * (l/c) must stay below this
STEP_RTOL = 4.0 * sys.float_info.epsilon  # stop once |delta_new - delta| <= this * |delta_new|
MAX_ROOT_ITERATIONS = 200
# Rendered as JSON, a pulse takes about 690 B of peak memory (tracemalloc, at
# 100,000 pulses) and 240 B of output, so a million pulses come to about
# 690 MB and 240 MB.
MAX_PULSES = 1_000_000


class BounceModel(checked_record("BounceModel", "k l")):
    """Constant sectional curvature K (1/cm^2) and clock-mirror separation l (cm)."""

    __slots__ = ()

    def __new__(cls, k: Curvature2, l: Length) -> BounceModel:
        require_positive_finite("l", l)
        # Exact for an int of any size, and false for NaN.
        if not (is_number(k) and abs(k) <= sys.float_info.max):
            raise DomainError(f"K must be a finite curvature, got {shown(k)}")
        # Left to right, never (l/2)**2: K = 0 gives 0 and a huge l gives
        # inf, where the power would raise OverflowError above ~1e154 cm.
        strength = abs(k) * (l / 2.0) * (l / 2.0)
        if strength >= CURVATURE_GUARD:
            raise DomainError(
                f"|K| (l/2)^2 = {strength:.3e} violates the weak-curvature guard {CURVATURE_GUARD}"
            )
        return super().__new__(cls, k, l)

    def omega(self) -> float:
        return DEFAULT_CONSTANTS.c * math.sqrt(abs(self.k))


class BounceRecord(NamedTuple):
    """Round trips l/c + 2 delta, their emission epochs, the estimate, and each pulse's delta."""

    times: tuple[TimeInterval, ...]
    emission_epochs: tuple[TimeInterval, ...]
    estimated_curvature: float
    deviations: tuple[TimeInterval, ...]


def simulate_round_trips(model: BounceModel, n_pulses: int) -> BounceRecord:
    """Simulate n_pulses consecutive round trips; estimate from the first three.

    Pulse n leaves at epoch T_{n-1}, reaches the mirror after l/(2c) + delta_n,
    where c delta_n = xi(s) - l/2 at s = T_{n-1} + l/(2c) + delta_n, and is
    back at T_n = T_{n-1} + l/c + 2 delta_n.  The projected window must stay
    inside the weak-curvature guard so the fixed-point map contracts.
    """
    if not (isinstance(n_pulses, int) and 3 <= n_pulses <= MAX_PULSES):
        raise DomainError(
            f"n_pulses must be an integer in [3, {MAX_PULSES}], got {shown(n_pulses)}"
        )
    leg = require_representable("the flat round trip l/c", model.l / DEFAULT_CONSTANTS.c, model.l)
    # (xi(s) - l/2) / c = scale * wave(half_omega * s)**2, which is 0 for K = 0.
    scale, half_omega, wave = 0.0, 0.0, math.sin
    if model.k != 0:
        omega = model.omega()
        window = omega * (n_pulses + 1) * leg
        if window > WINDOW_GUARD:
            raise DomainError(
                f"simulated window omega*T = {window:.3e} exceeds the guard {WINDOW_GUARD}; "
                "reduce n_pulses or |K|"
            )
        scale, wave = (-leg, math.sin) if model.k > 0 else (leg, math.sinh)
        half_omega = omega / 2.0
    half_leg = model.l / (2.0 * DEFAULT_CONSTANTS.c)
    times: list[float] = []
    epochs: list[float] = []
    deviations: list[float] = []
    epoch = delta = 0.0
    for pulse in range(n_pulses):
        epochs.append(epoch)
        arrival = epoch + half_leg
        if pulse > 3:  # extrapolate the last three; the estimator's three start as before
            delta = 3.0 * (delta - deviations[-2]) + deviations[-3]
        elif pulse == 3:
            delta = 2.0 * delta - deviations[-2]
        for _ in range(MAX_ROOT_ITERATIONS):
            step = scale * wave(half_omega * (arrival + delta)) ** 2
            converged = abs(step - delta) <= STEP_RTOL * abs(step)
            delta = step
            if converged:
                break
        else:
            raise DomainError(
                f"outbound root did not converge within {MAX_ROOT_ITERATIONS} iterations "
                f"(last deviation {delta!r} s)"
            )
        deviations.append(delta)
        trip = leg + 2.0 * delta
        times.append(trip)
        epoch += trip
    d1, d2, d3 = deviations[:3]
    second_difference = 2.0 * ((d1 - d2) - (d2 - d3))
    if model.k != 0 and not abs(second_difference) >= sys.float_info.min:
        raise DomainError(
            f"the second difference {second_difference!r} s at K = {model.k!r}/cm2, "
            f"l = {model.l!r} cm is not a normal double; the estimate is unresolvable"
        )
    estimate = curvature_from_second_difference(second_difference, times[1])
    return BounceRecord(tuple(times), tuple(epochs), estimate, tuple(deviations))
