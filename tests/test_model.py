from __future__ import annotations

import copy
import json
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
    validate_dataset,
)
from pvaudit.counting import COUNT_COLUMNS, parse_search_space_csv
from pvaudit.model import REQUIRED_COLUMNS

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
    DerivedStats(0.1, 0.0, 1.0, 1),
    Violation(0, "rr", "rr must be positive"),
    Dataset(records=(_REC,)),
    DerivedDataset(
        (_REC,), derived=(DerivedStats(0.1, 0.0, 1.0, 1),), scale="linear", critical_value=1.96
    ),
    ReferenceLine("smallest_p_marker", (0.3,)),
    PlotSeries("pvalue_rank", ((1.0, 0.5),), (), 1),
    ShapeThresholds(),
    _VERDICT,
    OutlierFlag(0, "manual"),
    OutlierReport(1e-3, 0.5, (OutlierFlag(0, "manual"),)),
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


def test_dataset_fields_cannot_be_deleted():
    ds = Dataset(records=(_REC,))
    with pytest.raises(AttributeError, match="cannot delete field 'label'"):
        del ds.label
    assert ds.label == Dataset(records=(_REC,)).label


def test_derived_must_parallel_records():
    rec = StudyRecord(author="A", year=2000, ref_id=1, rr=1.0, cl_low=0.9, cl_high=1.1)
    one = (DerivedStats(0.1, 0.0, 1.0, 1),)
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
    again = dataset_from_json(dataset_to_json(ds))
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


_JSON_ROW = '{"author": "A", "year": 2000, "comment": "c", "ref": 1, "rr": 1.1, "cl_low": 1.0, "cl_high": 1.2}'


@pytest.mark.parametrize("field", ["author", "comment"])
def test_json_null_reads_as_an_empty_cell(field):
    row = json.loads(_JSON_ROW)
    row[field] = None
    ds = dataset_from_json(json.dumps({"label": None, "records": [row]}))
    assert getattr(ds.records[0], field) == ""
    assert ds.label == ""
    # as the CSV row with that cell left empty reads
    header = ",".join(row)
    cells = ",".join("" if v is None else str(v) for v in row.values())
    assert ds.records == parse_dataset(f"{header}\n{cells}\n").records


@pytest.mark.parametrize("level", [None, [0.95], "0.95", True])
def test_json_confidence_level_must_be_a_number(level):
    text = json.dumps({"confidence_level": level, "records": [json.loads(_JSON_ROW)]})
    with pytest.raises(SchemaError, match="confidence_level"):
        dataset_from_json(text)


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
    assert dataset_from_json(dataset_to_json(ds)).records == ds.records


# ------------------------------------------- CSV row reading (both parsers)
#
# parse_dataset and parse_search_space_csv share one row reader. These pin it
# to the csv.DictReader semantics it has always had.

_STUDY_HEADER = "author,year,comment,ref,rr,cl_low,cl_high"
_COUNT_HEADER = "ref,author,year,outcomes,causes,covariates"


def _studies(text: str) -> list[tuple]:
    return [
        (r.author, r.year, r.comment, r.ref_id, r.rr, r.cl_low, r.cl_high)
        for r in parse_dataset(text).records
    ]


def _counts(text: str) -> list[tuple]:
    return [
        (e.ref_id, e.author, e.year, e.outcomes, e.causes, e.covariates)
        for e in parse_search_space_csv(text)
    ]


@pytest.mark.parametrize(
    "reader, text, field",
    [
        (
            parse_dataset,
            f"{_STUDY_HEADER}\n\nA,1999,,1,1.05,0.95,1.15\n\n\n"
            "B,2000,,2,0.9,0.85,0.96\n\nC,2001,,3,oops,1.0,1.4\n",
            "rr",
        ),
        (
            parse_search_space_csv,
            f"{_COUNT_HEADER}\n\n1,A,1999,2,3,1\n\n\n2,B,2000,1,1,0\n\n3,C,2001,x,1,1\n",
            "outcomes",
        ),
    ],
    ids=["studies", "counts"],
)
def test_blank_lines_are_skipped_and_not_counted(reader, text, field):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert (err.value.row, err.value.field) == (2, field)


@pytest.mark.parametrize(
    "reader, header, row, required",
    [
        (parse_dataset, _STUDY_HEADER, "A,1999,,1,1.05,0.95,1.15", REQUIRED_COLUMNS),
        (parse_search_space_csv, _COUNT_HEADER, "1,A,1999,2,3,1", COUNT_COLUMNS),
    ],
    ids=["studies", "counts"],
)
def test_blank_first_line_misses_every_required_column(reader, header, row, required):
    with pytest.raises(SchemaError) as err:
        reader(f"\n{header}\n{row}\n")
    assert err.value.missing == required
    assert str(err.value) == "missing required column(s): " + ", ".join(required)


def test_short_rows_read_empty_and_long_rows_drop_extras():
    studies = (
        "author,year,ref,rr,cl_low,cl_high,comment\n"
        "A,1999,1,1.05,0.95,1.15\n"
        "B,2000,2,0.9,0.85,0.96,note,extra,more\n"
    )
    assert _studies(studies) == [
        ("A", 1999, "", 1, 1.05, 0.95, 1.15),
        ("B", 2000, "note", 2, 0.9, 0.85, 0.96),
    ]
    counts = "outcomes,causes,covariates,ref,author,year\n2,3,1\n1,1,0,7,B,2000,extra\n"
    assert _counts(counts) == [(None, "", None, 2, 3, 1), (7, "B", 2000, 1, 1, 0)]


def test_header_names_are_stripped_and_the_last_duplicate_wins():
    studies = (
        "\ufeffauthor , year ,comment, ref,rr,cl_low,cl_high, rr \n"
        "A,1999,,1,oops,0.95,1.15,1.05\n"
    )
    assert _studies(studies) == [("A", 1999, "", 1, 1.05, 0.95, 1.15)]
    counts = (
        "\ufeffref , author,year,outcomes,causes,covariates,covariates\n"
        "1,A,1999,2,3,99,1\n"
    )
    assert _counts(counts) == [(1, "A", 1999, 2, 3, 1)]


def test_spaces_after_the_bom_are_stripped():
    # a BOM, then a space, then the first name
    studies = "\ufeff author,year,comment,ref,rr,cl_low,cl_high\nA,1999,,1,1.05,0.95,1.15\n"
    assert _studies(studies) == [("A", 1999, "", 1, 1.05, 0.95, 1.15)]
    counts = "\ufeff  ref,author,year,outcomes,causes,covariates\n1,A,1999,2,3,1\n"
    assert _counts(counts) == [(1, "A", 1999, 2, 3, 1)]


@pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f", " ", " \x1f\x1c "])
def test_padded_number_cells_still_parse(pad):
    # str.strip() removes U+001C..U+001F, which int() and float() refuse.
    def cell(text: str) -> str:
        return f"{pad}{text}{pad}"

    row = ("A", cell("1999"), "", cell("1"), cell("1.05"), cell("0.95"), cell("1.15"))
    want = [("A", 1999, "", 1, 1.05, 0.95, 1.15)]
    assert _studies(f"{_STUDY_HEADER}\n{','.join(row)}\n") == want
    mirror = json.dumps({"records": [dict(zip(_STUDY_HEADER.split(","), row))]})
    ds = dataset_from_json(mirror)
    assert [(r.author, r.year, r.comment, r.ref_id, r.rr, r.cl_low, r.cl_high)
            for r in ds.records] == want
    counts = f"{_COUNT_HEADER}\n{cell('1')},A,{cell('1999')},{cell('2')},{cell('3')},{cell('1')}\n"
    assert _counts(counts) == [(1, "A", 1999, 2, 3, 1)]


def test_quoted_cells_keep_commas_quotes_and_newlines():
    studies = (
        f"{_STUDY_HEADER}\n"
        '"Smith, J.\nand Co",1999,"a, ""quoted""\nnote",1,1.05,0.95,1.15\n'
        "B,2000,,2,0.9,0.85,0.96\n"
    )
    assert _studies(studies) == [
        ("Smith, J.\nand Co", 1999, 'a, "quoted"\nnote', 1, 1.05, 0.95, 1.15),
        ("B", 2000, "", 2, 0.9, 0.85, 0.96),
    ]
    counts = f'{_COUNT_HEADER}\n1,"Smith, J.\nand Co",1999,2,3,1\n2,B,2000,1,1,0\n'
    assert _counts(counts) == [
        (1, "Smith, J.\nand Co", 1999, 2, 3, 1),
        (2, "B", 2000, 1, 1, 0),
    ]
