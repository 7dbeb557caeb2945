from __future__ import annotations

import copy
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvaudit import (
    Dataset,
    DerivedDataset,
    DerivedStats,
    OutlierFlag,
    OutlierReport,
    ParseError,
    PlotSeries,
    PoolResult,
    ReferenceLine,
    ReplicateOutcome,
    SchemaError,
    SearchSpaceEntry,
    ShapeThresholds,
    ShapeVerdict,
    SimConfig,
    SimOutcome,
    SpaceSummary,
    StudyRecord,
    Violation,
    dataset_from_json,
    dataset_to_json,
    derive_dataset,
    parse_dataset,
    serialize_dataset,
    validate_dataset,
)

CSV_OK = """author,year,comment,ref,rr,cl_low,cl_high
Alpha,1999,first,1,1.05,0.95,1.15
Beta,2004,,2,0.90,0.85,0.96
"""


def test_parse_basic_fields():
    ds = parse_dataset(CSV_OK, label="toy")
    assert len(ds) == 2
    assert ds.label == "toy"
    assert ds.confidence_level == 0.95
    rec = ds.records[0]
    assert rec.author == "Alpha"
    assert rec.year == 1999
    assert rec.ref_id == 1
    assert rec.rr == 1.05
    assert rec.cl_low == 0.95
    assert rec.cl_high == 1.15
    assert rec.comment == "first"
    assert ds.records[1].comment == ""


def test_parse_comment_column_optional():
    text = "author,year,ref,rr,cl_low,cl_high\nA,2000,1,1.0,0.9,1.1\n"
    ds = parse_dataset(text)
    assert ds.records[0].comment == ""


def test_parse_ignores_extra_columns():
    text = (
        "author,year,comment,ref,rr,cl_low,cl_high,se,z,p,rank\n"
        "A,2000,,1,1.0,0.9,1.1,0.05,0.0,1.0,1\n"
    )
    ds = parse_dataset(text)
    assert len(ds) == 1
    assert not hasattr(ds, "derived")


def test_parse_missing_column_is_schema_error():
    text = "author,year,ref,rr,cl_low\nA,2000,1,1.0,0.9\n"
    with pytest.raises(SchemaError) as err:
        parse_dataset(text)
    assert "cl_high" in str(err.value)
    assert err.value.missing == ("cl_high",)


def test_parse_empty_text_is_schema_error():
    with pytest.raises(SchemaError):
        parse_dataset("")


def test_parse_malformed_number_names_row_and_field():
    text = "author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,oops,0.9,1.1\n"
    with pytest.raises(ParseError) as err:
        parse_dataset(text)
    assert err.value.row == 0
    assert err.value.field == "rr"


def test_parse_non_finite_number_rejected():
    text = "author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,nan,0.9,1.1\n"
    with pytest.raises(ParseError):
        parse_dataset(text)


def test_parse_interval_violation_names_rule():
    text = "author,year,comment,ref,rr,cl_low,cl_high\nA,2000,,1,1.0,1.2,1.4\n"
    with pytest.raises(ParseError) as err:
        parse_dataset(text)
    assert err.value.row == 0
    assert err.value.field == "cl_low"
    assert "cl_low exceeds rr" in str(err.value)


def test_parse_second_row_reports_index_one():
    text = (
        "author,year,comment,ref,rr,cl_low,cl_high\n"
        "A,2000,,1,1.0,0.9,1.1\n"
        "B,2001,,2,1.0,0.9,bad\n"
    )
    with pytest.raises(ParseError) as err:
        parse_dataset(text)
    assert err.value.row == 1
    assert err.value.field == "cl_high"


def test_validate_clean_dataset_has_no_violations():
    ds = parse_dataset(CSV_OK)
    assert validate_dataset(ds) == []


def test_validate_rr_zero_reports_single_violation():
    rec = StudyRecord(author="A", year=2000, ref_id=1, rr=0.0, cl_low=0.9, cl_high=1.1)
    ds = Dataset(records=(rec,))
    violations = validate_dataset(ds)
    assert len(violations) == 1
    assert violations[0].row == 0
    assert violations[0].field == "rr"
    assert "positive" in violations[0].rule


def test_validate_degenerate_interval():
    rec = StudyRecord(author="A", year=2000, ref_id=1, rr=1.0, cl_low=1.0, cl_high=1.0)
    ds = Dataset(records=(rec,))
    violations = validate_dataset(ds)
    assert len(violations) == 1
    assert violations[0].field == "cl_high"


_REC = StudyRecord(author="A", year=2000, ref_id=1, rr=1.0, cl_low=0.9, cl_high=1.1)
_VERDICT = ShapeVerdict("indeterminate", 1.0, None, 0.0, 0.0, 0.0, 0.1, 0.9)
_CONFIG = SimConfig(n_studies=5)
VALUE_TYPES = [
    _REC,
    DerivedStats(0.1, 0.0, 1.0),
    Violation(0, "rr", "rr must be positive"),
    Dataset(records=(_REC,)),
    DerivedDataset(
        (_REC,), derived=(DerivedStats(0.1, 0.0, 1.0),), scale="linear", critical_value=1.96
    ),
    ReferenceLine("smallest_p_marker", (0.3,)),
    PlotSeries("pvalue_rank", ((1.0, 0.5),), (), 1),
    ShapeThresholds(),
    _VERDICT,
    OutlierFlag(0, "manual"),
    OutlierReport((OutlierFlag(0, "manual"),), 1e-3, 0.5),
    PoolResult(2, 0.1, 0.5, 0.0, 0.1, 0.05, 0.0, (0.5, 0.5), (0.5, 0.5)),
    SearchSpaceEntry(1, 1, 0, 1, 1, 1),
    SpaceSummary(1.0, 1, 1),
    _CONFIG,
    ReplicateOutcome(0, (0.5,), 0, _VERDICT),
    SimOutcome(_CONFIG, (), {}, 0.0, 0.0),
]


@pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
def test_value_types_are_frozen(value):
    first = next(iter(value._asdict()))
    before = getattr(value, first)
    with pytest.raises(AttributeError):
        setattr(value, first, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, first) is before


def test_derived_must_parallel_records():
    rec = StudyRecord(author="A", year=2000, ref_id=1, rr=1.0, cl_low=0.9, cl_high=1.1)
    one = (DerivedStats(0.1, 0.0, 1.0),)
    with pytest.raises(ValueError):
        DerivedDataset((rec,), derived=one * 2, scale="linear", critical_value=1.96)
    ds = DerivedDataset((rec,), derived=one, scale="linear", critical_value=1.96)
    with pytest.raises(ValueError):
        ds._replace(derived=one * 2)
    with pytest.raises(ValueError):
        ds._replace(records=())
    # the derived fields are required, and a parsed Dataset has none
    with pytest.raises(TypeError):
        DerivedDataset((rec,))
    with pytest.raises(TypeError):
        Dataset((rec,), derived=one)


def test_dataset_equality_hash_copy_and_pickle():
    parsed, parsed_again = parse_dataset(CSV_OK, label="t"), parse_dataset(CSV_OK, label="t")
    assert parsed != derive_dataset(parsed)
    for ds, again in (
        (parsed, parsed_again),
        (derive_dataset(parsed), derive_dataset(parsed_again)),
    ):
        assert ds == again and hash(ds) == hash(again)
        assert ds != ds._replace(label="u")
        assert ds._replace(label="u")._replace(label="t") == ds
        assert copy.copy(ds) == ds
        assert copy.deepcopy(ds) == ds
        assert pickle.loads(pickle.dumps(ds)) == ds
        name = type(ds).__name__
        assert repr(ds).startswith(f"{name}(records=(StudyRecord(author='Alpha'")
        assert ds._asdict()["label"] == "t"
        with pytest.raises(TypeError):
            ds._replace(rows=())
    assert Dataset._fields == ("records", "label", "confidence_level")
    assert DerivedDataset._fields == Dataset._fields + ("derived", "scale", "critical_value")


def test_pvalues_requires_derived():
    ds = parse_dataset(CSV_OK)
    for name in ("derived", "pvalues", "scale", "critical_value"):
        assert not hasattr(ds, name)
    derived = derive_dataset(ds)
    assert derived.pvalues == tuple(d.p for d in derived.derived)


def test_round_trip_preserves_row_order_and_values():
    ds = parse_dataset(CSV_OK, label="toy")
    again = parse_dataset(serialize_dataset(ds), label="toy")
    assert again.records == ds.records


def test_json_mirror_round_trip():
    ds = parse_dataset(CSV_OK, label="toy")
    again = dataset_from_json(dataset_to_json(ds))
    assert again.records == ds.records
    assert again.label == "toy"
    assert again.confidence_level == ds.confidence_level


def test_json_missing_field_is_row_indexed():
    text = '{"label": "x", "records": [{"author": "A", "year": 2000, "ref": 1, "rr": 1.0, "cl_low": 0.9}]}'
    with pytest.raises(ParseError) as err:
        dataset_from_json(text)
    assert err.value.row == 0
    assert err.value.field == "cl_high"


def test_json_invalid_document_is_schema_error():
    with pytest.raises(SchemaError):
        dataset_from_json("not json")
    with pytest.raises(SchemaError):
        dataset_from_json('{"no_records": []}')


_text_field = (
    st.text(alphabet=string.ascii_letters + string.digits + " .-_'", min_size=0, max_size=16)
    .map(str.strip)
)


@st.composite
def _records(draw) -> StudyRecord:
    cl_low = draw(st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    width = draw(st.floats(min_value=1e-6, max_value=10.0, allow_nan=False))
    frac = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    cl_high = cl_low + width
    rr = min(max(cl_low + frac * width, cl_low), cl_high)
    return StudyRecord(
        author=draw(_text_field.filter(bool)),
        year=draw(st.integers(min_value=1800, max_value=2100)),
        ref_id=draw(st.integers(min_value=0, max_value=9999)),
        rr=rr,
        cl_low=cl_low,
        cl_high=cl_high,
        comment=draw(_text_field),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_records(), min_size=1, max_size=8))
def test_round_trip_property(records):
    ds = Dataset(records=tuple(records))
    assert validate_dataset(ds) == []
    assert parse_dataset(serialize_dataset(ds)).records == ds.records
    assert dataset_from_json(dataset_to_json(ds)).records == ds.records
