"""The public records: immutable tuples whose checks no constructor path skips."""

import pytest

from foamlab.bounce import BounceModel, BounceRecord
from foamlab.constants import DEFAULT_CONSTANTS, ConstantSet, make_constants
from foamlab.errors import DomainError
from foamlab.montecarlo import McConfig, McResult
from foamlab.report import ClaimReport, ClaimRow
from foamlab.wigner import TripletCovariance

ROW = ClaimRow("a", "a claim", "~1", 1.0, "-", "reproduced", "1%", "closed-form")

RECORDS = [
    DEFAULT_CONSTANTS,
    TripletCovariance(1.0, 0.0, 0.0, 0.0),
    BounceRecord((1.0,), (0.0,), 0.0, (0.0,)),
    McConfig(1.0, 10, 0),
    McResult(1.0, 1.0, 0.0, 1.0, 1.0, 1.0),
    ROW,
    BounceModel(k=1e-9, l=1.0),
    ClaimReport("0.1.0", 42, 10, 1, DEFAULT_CONSTANTS, (ROW,)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):  # no instance __dict__ to take a new name either
        record.note = "added"


def test_records_compare_as_tuples():
    assert TripletCovariance(1.0, 0.0, 0.0, 0.5) == (1.0, 0.0, 0.0, 0.5)
    assert make_constants(1.0, 1.0, 1.0) == (1.0,) * 6


def test_replace_rechecks_constant_set():
    with pytest.raises(DomainError, match="^m_planck"):
        DEFAULT_CONSTANTS._replace(m_planck=1.0)
    with pytest.raises(DomainError, match="^m_planck"):
        ConstantSet._make([*DEFAULT_CONSTANTS[:5], 1.0])
    natural = make_constants(1.0, 1.0, 1.0)
    assert DEFAULT_CONSTANTS._replace(**natural._asdict()) == natural


def test_replace_rechecks_bounce_model():
    with pytest.raises(DomainError, match="weak-curvature guard"):
        BounceModel(k=1e-9, l=1.0)._replace(k=1.0)
    with pytest.raises(DomainError, match="l must be"):
        BounceModel(k=1e-9, l=1.0)._replace(l=-1.0)
    assert BounceModel(k=1e-9, l=1.0)._replace(k=2e-9) == BounceModel(k=2e-9, l=1.0)


def test_replace_rechecks_claim_report():
    with pytest.raises(DomainError, match="not unique"):
        ClaimReport("0.1.0", 42, 10, 1, DEFAULT_CONSTANTS, (ROW, ROW))
    report = ClaimReport("0.1.0", 42, 10, 1, DEFAULT_CONSTANTS, (ROW,))
    with pytest.raises(DomainError, match="not unique"):
        report._replace(rows=(ROW, ROW))
    assert report._replace(rows=(ROW, ROW._replace(claim_id="b"))).rows[1].claim_id == "b"
