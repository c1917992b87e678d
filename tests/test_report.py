import math
import tracemalloc

import numpy as np
import pytest

from foamlab import report as report_module
from foamlab.errors import DomainError
from foamlab.report import (
    _IDENTITY_BATCH_KEY,
    _IDENTITY_BATCH_SIZE,
    _linearity_residual,
    _max_identity_gap,
    build_claim_report,
)
from foamlab.wigner import _variance_routes

EXPECTED_IDS = {
    "clock-mass-1cm": "reproduced",
    "clock-mass-1s": "unreproduced",
    "second-difference-coefficient": "reproduced",
    "variance-identity": "reproduced",
    "variance-ratio-mc": "reproduced",
    "delta-c-mc": "reproduced",
    "correlation-eigenvalues": "reproduced",
    "correlation-trace": "reproduced",
    "water-density": "reproduced",
    "density-threshold": "reproduced",
    "threshold-round-trip": "reproduced",
    "density-two-form": "reproduced",
    "bounce-flat": "reproduced",
    "bounce-linearity": "reproduced",
    "bounce-tau-cubed": "reproduced",
    "scaling-cube-root": "reproduced",
    "scaling-curvature-noise": "reproduced",
}


@pytest.fixture(scope="module")
def report():
    return build_claim_report(samples=200_000)


def test_claim_ids_unique_and_complete(report):
    ids = [row.claim_id for row in report.rows]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(EXPECTED_IDS)


def test_statuses(report):
    for row in report.rows:
        assert row.status == EXPECTED_IDS[row.claim_id], row.claim_id


def test_every_row_documents_a_tolerance(report):
    for row in report.rows:
        assert row.tolerance.strip()
        assert row.published_value.strip()
        assert row.basis in {"closed-form", "order-of-magnitude", "monte-carlo", "toy-simulation"}


def test_spot_values(report):
    rows = {row.claim_id: row for row in report.rows}
    assert rows["clock-mass-1cm"].computed_value == pytest.approx(1.854566e6, rel=1e-6, abs=0)
    assert rows["clock-mass-1s"].computed_value == pytest.approx(5.761287e9, rel=1e-6, abs=0)
    assert rows["water-density"].computed_value == pytest.approx(11.855381, rel=1e-6, abs=0)
    assert rows["density-threshold"].computed_value == pytest.approx(10523.85, rel=1e-6, abs=0)
    assert rows["second-difference-coefficient"].computed_value == pytest.approx(
        0.2498872, rel=1e-6, abs=0
    )
    assert rows["variance-identity"].computed_value <= 1e-12
    assert rows["bounce-tau-cubed"].computed_value == pytest.approx(8.0, rel=0.01, abs=0)


def test_provenance_fields(report):
    assert report.seed == 42
    assert report.samples == 200_000
    assert report.partitions == 1
    assert report.version
    assert report.constants.c == 2.99792458e10


def test_report_is_pure_given_seed(report):
    again = build_claim_report(samples=200_000)
    assert again == report


def test_seed_changes_monte_carlo_rows(report):
    other = build_claim_report(seed=43, samples=200_000)
    rows = {row.claim_id: row for row in report.rows}
    other_rows = {row.claim_id: row for row in other.rows}
    assert (
        other_rows["variance-ratio-mc"].computed_value
        != rows["variance-ratio-mc"].computed_value
    )
    # closed forms are seed-independent
    assert (
        other_rows["second-difference-coefficient"].computed_value
        == rows["second-difference-coefficient"].computed_value
    )


def test_negative_seed_is_domain_error():
    # The identity batch draws from the seed before the Monte Carlo run does.
    with pytest.raises(DomainError, match="seed"):
        build_claim_report(seed=-3)


def reference_max_identity_gap(seed):
    """The identity row as a per-matrix loop on Python floats; the batch matches it bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_IDENTITY_BATCH_KEY,)))

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    worst = 0.0
    for _ in range(_IDENTITY_BATCH_SIZE):
        x, y, z = rng.standard_normal((3, 3)).tolist()
        xx, yy, zz = dot(x, x), dot(y, y), dot(z, z)
        direct, six_term = _variance_routes(
            1.0,
            dot(x, y) / math.sqrt(xx * yy),
            dot(y, z) / math.sqrt(yy * zz),
            dot(x, z) / math.sqrt(xx * zz),
        )
        worst = max(worst, abs(direct - six_term) / max(abs(direct), abs(six_term), 1.0))
    return worst


@pytest.mark.parametrize("seed", [42, 7])
def test_identity_batch_matches_per_matrix_loop(seed):
    assert _max_identity_gap(seed) == reference_max_identity_gap(seed)


def test_identity_batch_peak_memory_is_bounded():
    # Drawn and checked in slices: about 0.2 MB, against 1.8 MB for all
    # 10,000 matrices at once.  NumPy reports its buffers to tracemalloc.
    # The first call imports numpy.random (about 0.8 MB), so trace the second.
    _max_identity_gap(42)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _max_identity_gap(42)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_linearity_residual_on_the_report_grid(report):
    # The bounce-linearity row's grid: a decade of K at l = 1 cm.
    grid = [k * 4.0 for k in (1e-6, 1.78e-6, 3.16e-6, 5.62e-6, 1e-5)]
    residual = _linearity_residual(grid)
    assert residual == 0.00011624640068791821
    rows = {row.claim_id: row for row in report.rows}
    assert rows["bounce-linearity"].computed_value == residual


def test_nan_identity_gap_is_not_dropped(monkeypatch, run_cli):
    # max(gap, nan) is gap in Python; the batch must let a NaN through.
    slice_gap = report_module._slice_identity_gap
    slices = _IDENTITY_BATCH_SIZE // report_module._IDENTITY_SLICE
    calls = []

    def nan_second(raw):  # NaN for the second slice of each batch
        calls.append(raw)
        return math.nan if len(calls) % slices == 2 else slice_gap(raw)

    monkeypatch.setattr(report_module, "_slice_identity_gap", nan_second)
    assert math.isnan(_max_identity_gap(42))
    rows = {row.claim_id: row for row in build_claim_report(samples=1_000).rows}
    assert rows["variance-identity"].status == "unreproduced"
    code, out, err = run_cli(["report", "--samples", "1000"])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("foamlab: error:")
