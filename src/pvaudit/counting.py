"""Analysis search-space counting: how many test/model combinations a study allows."""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple

from .model import ParseError, _csv_rows, _csv_text, _parse_int

__all__ = [
    "SearchSpaceEntry",
    "SpaceSummary",
    "parse_search_space_csv",
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


def summarize_spaces(entries: Iterable[SearchSpaceEntry]) -> SpaceSummary:
    """Median (midpoint for even counts), min, and max of the space column."""
    spaces = sorted(e.space for e in entries)
    if not spaces:
        raise ValueError("summary needs at least one entry")
    mid = len(spaces) // 2
    median = spaces[mid] if len(spaces) % 2 else (spaces[mid - 1] + spaces[mid]) / 2
    return SpaceSummary(median=median, min=spaces[0], max=spaces[-1])


def parse_search_space_csv(text: str) -> list[SearchSpaceEntry]:
    """Parse a counting CSV with header ref,author,year,outcomes,causes,covariates.

    Each entry adds tests = outcomes * causes, models = 2**covariates and
    space = tests * models, in exact integer arithmetic. Counts must be
    non-negative, covariates at most 62, and the space must fit a double.
    """
    entries = []
    for i, fields in enumerate(_csv_rows(text, COUNT_COLUMNS)):
        counts = []
        for name in ("outcomes", "causes", "covariates"):
            value = _parse_int(i, name, fields[name])
            if value < 0:
                raise ParseError(i, name, f"must be non-negative, got {value}")
            counts.append(value)
        outcomes, causes, covariates = counts
        if covariates > MAX_COVARIATES:
            raise ParseError(
                i, "covariates", f"must be at most {MAX_COVARIATES}, got {covariates}"
            )
        ref, year = fields["ref"], fields["year"]
        tests = outcomes * causes
        models = 2 ** covariates
        entry = SearchSpaceEntry(
            _parse_int(i, "ref", ref) if ref.strip() else None,
            fields["author"].strip(),
            _parse_int(i, "year", year) if year.strip() else None,
            *counts,
            tests,
            models,
            tests * models,
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
