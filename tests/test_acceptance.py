"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single [PASS] line (visible with `pytest -s`); the
per-criterion pass/fail status is the test outcome itself under
`pytest -v`.
"""

import json
import math
import time

import numpy as np
import pytest

from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.montecarlo import (
    ADJACENT_CORRELATION,
    OUTER_CORRELATION,
    McConfig,
    verify_curvature_uncertainty,
)
from foamlab.report import build_claim_report
from foamlab.wigner import (
    CURVATURE_NOISE_COEFF,
    TripletCovariance,
    _spectrum,
    curvature_uncertainty,
    density_fluctuation,
    riemann_scalar_fluctuation,
    second_difference_variance,
)
from foamlab import bounce, laws


@pytest.fixture(scope="module")
def report():
    return build_claim_report()


@pytest.fixture(scope="module")
def report_rows(report):
    return {row.claim_id: row for row in report.rows}


def _op_runtime(op, *args) -> float:
    """Median single-call runtime in seconds."""
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        op(*args)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def test_c01_clock_mass_1cm(run_cli, report_rows):
    code, out, _ = run_cli(["clock-mass", "--length", "1cm", "--format", "json"])
    assert code == 0
    value = json.loads(out)["rows"][0]["value"]
    assert value == pytest.approx(1.854e6, rel=0.005, abs=0)
    row = report_rows["clock-mass-1cm"]
    assert row.status == "reproduced"
    assert "1e6" in row.published_value
    runtime = _op_runtime(laws.clock_mass, 1.0)
    assert runtime < 1e-3
    print(f"[PASS] c01 clock mass at 1 cm = {value:.6g} g (runtime {runtime * 1e6:.1f} us)")


def test_c02_clock_mass_discrepancy(run_cli, report_rows):
    code, out, _ = run_cli(["clock-mass", "--length", "2.998e10cm", "--format", "json"])
    assert code == 0
    value = json.loads(out)["rows"][0]["value"]
    assert value == pytest.approx(5.76e9, rel=0.005, abs=0)
    row = report_rows["clock-mass-1s"]
    assert row.status == "unreproduced"
    assert "1e16" in row.published_value
    runtime = _op_runtime(laws.clock_mass, 2.998e10)
    assert runtime < 1e-3
    print(f"[PASS] c02 clock mass at c*1s = {value:.6g} g, quoted 1e16 g unreproduced")


def test_c03_closed_form_coefficient():
    coefficient = math.sqrt(15.0 - 6.0 * 2.0 ** (2.0 / 3.0) + 3.0 ** (2.0 / 3.0)) / 11.0
    assert abs(coefficient - 0.2498866) <= 1e-6
    assert CURVATURE_NOISE_COEFF == coefficient
    print(f"[PASS] c03 coefficient = {coefficient:.9f} within 1e-6 of 0.2498866")


def test_c04_variance_identity_suite():
    # the same 10k matrices as one (10_000, 3, 3) draw, one scalar call each
    rng = np.random.default_rng(20260808)
    weights = np.array([1.0, -2.0, 1.0])
    pair_12 = np.array([1.0, 1.0, 0.0])
    pair_23 = np.array([0.0, 1.0, 1.0])
    total = np.array([1.0, 1.0, 1.0])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        raw = rng.standard_normal((3, 3))
        gram = raw @ raw.T
        scale = np.sqrt(np.diag(gram))
        corr = gram / np.outer(scale, scale)
        cov = TripletCovariance(
            sigma2=1.0, cov12=float(corr[0, 1]), cov23=float(corr[1, 2]), cov13=float(corr[0, 2])
        )
        # library route (internally cross-checked) vs matrix quadratic forms
        direct = second_difference_variance(cov)
        s, c12, c23, c13 = cov
        matrix = np.array([[s, c12, c13], [c12, s, c23], [c13, c23, s]])
        six_term = float(
            3.0 * matrix[0, 0] + 9.0 * matrix[1, 1] + 3.0 * matrix[2, 2]
            - 3.0 * (pair_12 @ matrix @ pair_12)
            - 3.0 * (pair_23 @ matrix @ pair_23)
            + total @ matrix @ total
        )
        oracle = float(weights @ matrix @ weights)
        scale_ref = max(abs(direct), abs(six_term), 1.0)
        worst = max(worst, abs(direct - six_term) / scale_ref, abs(direct - oracle) / scale_ref)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"[PASS] c04 identity gap {worst:.3e} over 1e4 matrices in {elapsed:.2f} s")


def test_c05_monte_carlo_reproduction(run_cli):
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["mc", "--length", "1cm", "--samples", "1000000", "--seed", "42", "--format", "json"]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
    ratio = rows["variance_ratio_empirical"]
    assert ratio == pytest.approx(7.5557, rel=0.01, abs=0)
    assert rows["empirical_delta_c"] == pytest.approx(3.441e-23, rel=0.01, abs=0)
    assert rows["empirical_delta_c"] == pytest.approx(rows["closed_form_delta_c"], rel=0.01, abs=0)
    assert elapsed < 30.0
    print(f"[PASS] c05 MC ratio {ratio:.5f} vs 7.5557, delta_C within 1% ({elapsed:.2f} s)")


def test_c06_covariance_psd():
    spectrum = _spectrum(1.0, ADJACENT_CORRELATION, ADJACENT_CORRELATION, OUTER_CORRELATION)
    expected = (1.269025, 1.047359, 0.683618)
    for got, want in zip(spectrum, expected):
        assert abs(got - want) <= 1e-5
    assert abs(sum(spectrum) - 3.0) <= 1e-12
    print(f"[PASS] c06 eigenvalues {tuple(round(v, 6) for v in spectrum)} within 1e-5")


def test_c07_water_density_claim(run_cli, report_rows):
    code, out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "json"])
    assert code == 0
    rows = {row["quantity"]: row for row in json.loads(out)["rows"]}
    value = rows["delta_rho"]["value"]
    assert value == pytest.approx(11.86, rel=0.01, abs=0)
    assert report_rows["water-density"].status == "reproduced"
    print(f"[PASS] c07 delta_rho(1e-5 cm) = {value:.4f} g/cm3, reproduced")


def test_c08_threshold_claim(run_cli):
    code, out, _ = run_cli(["threshold", "--density", "1e-29g/cm3", "--format", "json"])
    assert code == 0
    value = json.loads(out)["rows"][0]["value"]
    assert value == pytest.approx(1.052e4, rel=0.005, abs=0)
    worst = max(
        abs(laws.max_length_for_density(density_fluctuation(l)) / l - 1.0)
        for l in np.logspace(-8, 8, 161)
    )
    assert worst <= 1e-9
    print(f"[PASS] c08 threshold {value:.6g} cm; inverse round-trip gap {worst:.2e}")


def test_c09_density_two_form_identity():
    cs = DEFAULT_CONSTANTS
    worst = 0.0
    for l in np.logspace(-3, 3, 121):
        direct = density_fluctuation(l)
        via_scalar = (cs.c**2 / cs.G) * riemann_scalar_fluctuation(l)
        worst = max(worst, abs(direct - via_scalar) / direct)
    assert worst <= 1e-12
    print(f"[PASS] c09 two-form gap {worst:.2e} over six decades")


def test_c10_bounce_simulator():
    start = time.perf_counter()
    cs = DEFAULT_CONSTANTS
    flat = bounce.simulate_round_trips(bounce.BounceModel(k=0.0, l=1.0), 6)
    flat_gap = max(abs(t * cs.c - 1.0) for t in flat.times)
    assert flat_gap <= 1e-10

    # Linear response: the estimates fitted through the origin over a decade of K.
    grid = [4e-6 * 10 ** (i / 6) for i in range(7)]
    estimates = [
        bounce.simulate_round_trips(bounce.BounceModel(k=k, l=1.0), 3)
        .estimated_curvature
        for k in grid
    ]
    slope = sum(e * k for e, k in zip(estimates, grid)) / sum(k * k for k in grid)
    residual = max(abs(e - slope * k) / abs(slope * k) for e, k in zip(estimates, grid))
    assert residual < 1e-3

    small = bounce.simulate_round_trips(bounce.BounceModel(k=4e-6, l=1.0), 3)
    large = bounce.simulate_round_trips(bounce.BounceModel(k=4e-6, l=2.0), 3)
    second = lambda ts: ts[0] - 2 * ts[1] + ts[2]
    ratio = second(large.times) / second(small.times)
    assert ratio == pytest.approx(8.0, rel=0.01, abs=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[PASS] c10 flat gap {flat_gap:.2e}, residual {residual:.2e}, "
        f"doubling ratio {ratio:.4f} ({elapsed:.2f} s)"
    )


def test_c11_scaling_laws():
    worst = max(
        abs(laws.length_uncertainty(k**3 * l) / (k * laws.length_uncertainty(l)) - 1.0)
        for k in (2.0, 10.0, 100.0)
        for l in (1e-6, 1e-2, 1.0, 1e3)
    )
    assert worst <= 1e-12
    curvature_gap = abs(curvature_uncertainty(8.0) / curvature_uncertainty(1.0) * 32.0 - 1.0)
    assert curvature_gap <= 1e-12
    print(f"[PASS] c11 scaling gaps {worst:.2e} (cube root), {curvature_gap:.2e} (1/32)")


def test_c12_determinism(run_cli):
    _, first, _ = run_cli(["report", "--format", "json"])
    _, second, _ = run_cli(["report", "--format", "json"])
    assert first == second

    single = verify_curvature_uncertainty(McConfig(l=1.0, n_samples=1_000_000, seed=42))
    split = verify_curvature_uncertainty(
        McConfig(l=1.0, n_samples=1_000_000, seed=42, n_partitions=8)
    )
    assert split == single
    split_again = verify_curvature_uncertainty(
        McConfig(l=1.0, n_samples=1_000_000, seed=42, n_partitions=8)
    )
    assert split_again == split
    print("[PASS] c12 report byte-identical; partitions 1 and 8 give equal results")
