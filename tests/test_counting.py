from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvaudit import (
    ParseError,
    SchemaError,
    parse_search_space_csv,
    search_space,
    serialize_search_space_csv,
    summarize_spaces,
)
from pvaudit.datasets import soy_ldl_search_space_csv


def test_search_space_basic():
    e = search_space(8, 5, 3)
    assert (e.tests, e.models, e.space) == (40, 8, 320)


def test_search_space_zero_covariates_means_one_model():
    e = search_space(20, 1, 0)
    assert (e.tests, e.models, e.space) == (20, 1, 20)


def test_search_space_zero_outcomes():
    e = search_space(0, 5, 2)
    assert (e.tests, e.models, e.space) == (0, 4, 0)


def test_search_space_large_covariates_exact():
    e = search_space(1, 1, 62)
    assert e.models == 2 ** 62
    assert e.space == 2 ** 62
    with pytest.raises(ValueError):
        search_space(1, 1, 63)


def test_search_space_rejects_bad_counts():
    with pytest.raises(ValueError):
        search_space(-1, 2, 0)
    with pytest.raises(ValueError):
        search_space(1, -2, 0)
    with pytest.raises(ValueError):
        search_space(1, 2, -1)
    with pytest.raises(ValueError):
        search_space(True, 2, 1)  # bool is not an acceptable count
    with pytest.raises(ValueError):
        search_space(1.0, 2, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=62),
)
def test_search_space_arithmetic_property(outcomes, causes, covariates):
    e = search_space(outcomes, causes, covariates)
    assert e.tests == outcomes * causes
    assert e.models == 2 ** covariates
    assert e.space == e.tests * e.models
    assert isinstance(e.space, int)


def test_summarize_median_conventions():
    entries = [search_space(n, 1, 0) for n in (5, 1, 9)]
    assert summarize_spaces(entries) == (5, 1, 9)
    entries = [search_space(n, 1, 0) for n in (1, 3)]
    summary = summarize_spaces(entries)
    assert summary.median == 2.0
    assert (summary.min, summary.max) == (1, 3)
    with pytest.raises(ValueError):
        summarize_spaces([])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=62),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_summarize_median_matches_statistics_median(counts):
    # the same value and type (int for an odd count, float for an even one)
    entries = [search_space(*c) for c in counts]
    want = statistics.median(e.space for e in entries)
    got = summarize_spaces(entries).median
    assert got == want and type(got) is type(want)


def test_bundled_counting_table():
    entries = parse_search_space_csv(soy_ldl_search_space_csv())
    assert len(entries) == 9
    by_author = {e.author: e for e in entries}
    assert (by_author["Bakhit"].tests, by_author["Bakhit"].models, by_author["Bakhit"].space) == (40, 8, 320)
    assert by_author["Wong"].space == 448
    assert by_author["Jenkins"].space == 14
    summary = summarize_spaces(entries)
    assert summary.median == 24
    assert (summary.min, summary.max) == (14, 448)


def test_parse_keeps_identity_fields_optional():
    text = "ref,author,year,outcomes,causes,covariates\n1,A,2000,2,3,1\n,B,,4,1,0\n"
    entries = parse_search_space_csv(text)
    assert entries[0].space == 12
    assert entries[0].ref_id == 1
    assert entries[1].ref_id is None
    assert entries[1].year is None
    assert entries[1].author == "B"
    again = parse_search_space_csv(serialize_search_space_csv(entries))
    assert again == entries


def test_parse_counting_missing_column():
    with pytest.raises(SchemaError) as err:
        parse_search_space_csv("ref,author,year,outcomes,causes\n1,A,2000,2,3\n")
    assert "covariates" in str(err.value)


def test_parse_counting_bad_integer():
    with pytest.raises(ParseError) as err:
        parse_search_space_csv(
            "ref,author,year,outcomes,causes,covariates\n1,A,2000,two,3,0\n"
        )
    assert err.value.row == 0
    assert err.value.field == "outcomes"


def test_parse_counting_negative_count():
    with pytest.raises(ParseError) as err:
        parse_search_space_csv(
            "ref,author,year,outcomes,causes,covariates\n1,A,2000,2,-3,0\n"
        )
    assert err.value.field == "causes"


def test_parse_counting_too_many_covariates():
    with pytest.raises(ParseError) as err:
        parse_search_space_csv(
            "ref,author,year,outcomes,causes,covariates\n1,A,2000,2,3,62\n2,B,2001,2,3,63\n"
        )
    assert err.value.row == 1
    assert err.value.field == "covariates"


def test_serialize_appends_derived_columns():
    entries = parse_search_space_csv(
        "ref,author,year,outcomes,causes,covariates\n1,A,2000,2,3,2\n"
    )
    text = serialize_search_space_csv(entries)
    lines = text.strip().splitlines()
    assert lines[0] == "ref,author,year,outcomes,causes,covariates,tests,models,space"
    assert lines[1] == "1,A,2000,2,3,2,6,4,24"
