"""Analysis search-space counting: how many test/model combinations a study allows."""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple

from .model import ParseError, _csv_rows, _csv_text, _parse_int

__all__ = [
    "SearchSpaceEntry",
    "SpaceSummary",
    "parse_search_space_csv",
    "search_space",
    "serialize_search_space_csv",
    "summarize_spaces",
]

COUNT_COLUMNS = ("ref", "author", "year", "outcomes", "causes", "covariates")
OUTPUT_COLUMNS = COUNT_COLUMNS + ("tests", "models", "space")

# 2**covariates must stay an exact integer; beyond 62 the doubled count would
# not even fit a signed 64-bit intermediate in downstream consumers.
MAX_COVARIATES = 62

# The summary's median is a float, so a parsed space must fit a double; at or
# below this bound neither the midpoint (a + b) / 2 nor float(median) overflows.
MAX_SPACE = int(sys.float_info.max)


class SearchSpaceEntry(NamedTuple):
    """One study's identity, its counts and the derived tests/models/space,
    in OUTPUT_COLUMNS order (ref_id under "ref")."""

    ref_id: int | None
    author: str
    year: int | None
    outcomes: int
    causes: int
    covariates: int
    tests: int
    models: int
    space: int


class SpaceSummary(NamedTuple):
    median: float
    min: int
    max: int


def _count_problem(name: str, value: int) -> str | None:
    """Why ``value`` is not a valid count for field ``name``, or None."""
    if not isinstance(value, int) or isinstance(value, bool):
        return f"must be an integer, got {value!r}"
    if value < 0:
        return f"must be non-negative, got {value}"
    if name == "covariates" and value > MAX_COVARIATES:
        return f"must be at most {MAX_COVARIATES}, got {value}"
    return None


def search_space(
    outcomes: int,
    causes: int,
    covariates: int,
    *,
    ref_id: int | None = None,
    author: str = "",
    year: int | None = None,
) -> SearchSpaceEntry:
    """tests = outcomes * causes, models = 2**covariates, space = tests * models.

    All exact integer arithmetic. Counts must be non-negative and covariates
    at most 62.
    """
    for name, value in (("outcomes", outcomes), ("causes", causes), ("covariates", covariates)):
        problem = _count_problem(name, value)
        if problem:
            raise ValueError(f"{name} {problem}")
    tests = outcomes * causes
    models = 2 ** covariates
    return SearchSpaceEntry(
        outcomes=outcomes,
        causes=causes,
        covariates=covariates,
        tests=tests,
        models=models,
        space=tests * models,
        ref_id=ref_id,
        author=author,
        year=year,
    )


def summarize_spaces(entries: Iterable[SearchSpaceEntry]) -> SpaceSummary:
    """Median (midpoint for even counts), min, and max of the space column."""
    spaces = sorted(e.space for e in entries)
    if not spaces:
        raise ValueError("summary needs at least one entry")
    mid = len(spaces) // 2
    median = spaces[mid] if len(spaces) % 2 else (spaces[mid - 1] + spaces[mid]) / 2
    return SpaceSummary(median=median, min=spaces[0], max=spaces[-1])


def parse_search_space_csv(text: str) -> list[SearchSpaceEntry]:
    """Parse a counting CSV with header ref,author,year,outcomes,causes,covariates."""
    entries = []
    for i, fields in enumerate(_csv_rows(text, COUNT_COLUMNS)):
        counts = []
        for name in ("outcomes", "causes", "covariates"):
            value = _parse_int(i, name, fields[name])
            problem = _count_problem(name, value)
            if problem:
                raise ParseError(i, name, problem)
            counts.append(value)
        ref, year = fields["ref"], fields["year"]
        entry = search_space(
            *counts,
            ref_id=_parse_int(i, "ref", ref) if ref.strip() else None,
            author=fields["author"].strip(),
            year=_parse_int(i, "year", year) if year.strip() else None,
        )
        if entry.space > MAX_SPACE:
            raise ParseError(
                i, "space", "outcomes * causes * 2**covariates exceeds the largest double"
            )
        entries.append(entry)
    return entries


def serialize_search_space_csv(entries: Iterable[SearchSpaceEntry]) -> str:
    """Write entries back out with tests, models, and space columns appended;
    a missing ref or year is an empty cell."""
    return _csv_text(OUTPUT_COLUMNS, entries)
