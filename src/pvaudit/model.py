"""Study records, datasets, and the CSV/JSON data model shared by the audit pipeline.

Parsing gives a :class:`Dataset` of records; deriving gives a
:class:`DerivedDataset`, which adds each record's reconstructed statistics.
Everything downstream of derivation takes the derived type.
"""

from __future__ import annotations

import csv
import io
from operator import attrgetter
from typing import NamedTuple

__all__ = [
    "Dataset",
    "DerivedDataset",
    "DerivedStats",
    "ParseError",
    "SchemaError",
    "StudyRecord",
    "Violation",
    "dataset_from_json",
    "dataset_to_json",
    "parse_dataset",
    "validate_dataset",
]

CSV_COLUMNS = ("author", "year", "comment", "ref", "rr", "cl_low", "cl_high")
# A record's fields in CSV_COLUMNS order, as a tuple (ref_id under "ref").
record_values = attrgetter("author", "year", "comment", "ref_id", "rr", "cl_low", "cl_high")
REQUIRED_COLUMNS = ("author", "year", "ref", "rr", "cl_low", "cl_high")
DEFAULT_CONFIDENCE_LEVEL = 0.95


def format_number(x: float) -> str:
    """Nine significant digits, shortest form ('%.9g'); -0.0 prints as "0"."""
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is
    return format(float(x) + 0.0, ".9g")


class SchemaError(ValueError):
    """Input header (or JSON structure) does not match the expected schema."""

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        self.missing = tuple(missing)


class ParseError(ValueError):
    """A data row could not be parsed. Carries the offending row index and field."""

    def __init__(self, row: int, field: str, message: str):
        super().__init__(f"row {row}, field '{field}': {message}")
        self.row = row
        self.field = field


class StudyRecord(NamedTuple):
    """One study comparison: identity fields plus a risk ratio and its confidence limits.

    Construction does not validate; use :func:`validate_dataset` or rely on
    :func:`parse_dataset`, which rejects invalid rows.
    """

    author: str
    year: int
    ref_id: int
    rr: float
    cl_low: float
    cl_high: float
    comment: str = ""


class DerivedStats(NamedTuple):
    """Statistics reconstructed from one record's interval: se, z, two-sided p, rank.

    ``rank`` (1..n by ascending p) is always set. ``p_floored`` marks a p-value
    clamped to the smallest positive double instead of underflowing to zero.
    """

    se: float
    z: float
    p: float
    rank: int
    p_floored: bool = False


class Violation(NamedTuple):
    """One broken invariant: row index (0-based), field name, human-readable rule."""

    row: int
    field: str
    rule: str


class Dataset:
    """An immutable, ordered collection of study records, as parsing returns it.

    Row order is the source-file order and is preserved by every operation
    that does not explicitly sort. ``stats.derive_dataset`` turns a Dataset
    into a :class:`DerivedDataset`.

    Not a named tuple: ``len`` counts records, not fields. ``_asdict``,
    ``_replace``, equality, hashing, pickling and ``repr`` read the class's
    ``_fields``, so a subclass that extends them shares all of these.
    """

    _fields = ("records", "label", "confidence_level")
    __slots__ = _fields

    def __init__(
        self,
        records: tuple[StudyRecord, ...],
        label: str = "",
        confidence_level: float = DEFAULT_CONFIDENCE_LEVEL,
    ) -> None:
        for name, value in zip(Dataset._fields, (records, label, confidence_level)):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, values) -> Dataset:
        return cls(**dict(zip(cls._fields, values)))

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes) -> Dataset:
        return type(self)(**{**self._asdict(), **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __reduce__(self):
        return self._make, (tuple(self._asdict().values()),)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __len__(self) -> int:
        return len(self.records)


class DerivedDataset(Dataset):
    """A dataset with each record's derived stats, as ``stats.derive_dataset``
    returns it.

    ``derived`` parallels ``records`` one-to-one. ``scale`` and
    ``critical_value`` record how the stats were computed, so pooling,
    flagging and reports read them from here.
    """

    __slots__ = ("derived", "scale", "critical_value")
    _fields = Dataset._fields + __slots__

    def __init__(
        self,
        records: tuple[StudyRecord, ...],
        label: str = "",
        confidence_level: float = DEFAULT_CONFIDENCE_LEVEL,
        *,
        derived: tuple[DerivedStats, ...],
        scale: str,
        critical_value: float,
    ) -> None:
        if len(derived) != len(records):
            raise ValueError("derived stats must parallel records one-to-one")
        super().__init__(records, label, confidence_level)
        for name, value in zip(DerivedDataset.__slots__, (derived, scale, critical_value)):
            object.__setattr__(self, name, value)

    @property
    def pvalues(self) -> tuple[float, ...]:
        return tuple(d.p for d in self.derived)


# Validation rules are checked in this order and only the first failure per
# record is reported, so a single bad field yields a single violation.
def _record_violations(rec: StudyRecord) -> tuple[str, str] | None:
    if not rec.rr > 0:
        return ("rr", "rr must be positive")
    if not rec.cl_low > 0:
        return ("cl_low", "cl_low must be positive")
    if not rec.cl_high > 0:
        return ("cl_high", "cl_high must be positive")
    if not rec.cl_low < rec.cl_high:
        return ("cl_high", "cl_low must be strictly below cl_high")
    if rec.cl_low > rec.rr:
        return ("cl_low", "cl_low exceeds rr")
    if rec.rr > rec.cl_high:
        return ("cl_high", "rr exceeds cl_high")
    return None


def validate_dataset(ds: Dataset) -> list[Violation]:
    """Check every record's invariants; return one Violation per offending row.

    A valid dataset returns an empty list. Only the first broken rule of each
    record is reported.
    """
    out: list[Violation] = []
    for i, rec in enumerate(ds.records):
        hit = _record_violations(rec)
        if hit is not None:
            out.append(Violation(row=i, field=hit[0], rule=hit[1]))
    return out


def _parse_int(row: int, field: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(row, field, f"malformed integer {text!r}") from None


def _parse_float(row: int, field: str, text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ParseError(row, field, f"malformed number {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ParseError(row, field, f"malformed number {text!r}")
    return value


def _make_record(row: int, fields: dict) -> StudyRecord:
    rec = StudyRecord(
        author=fields["author"].strip(),
        year=_parse_int(row, "year", fields["year"]),
        ref_id=_parse_int(row, "ref", fields["ref"]),
        rr=_parse_float(row, "rr", fields["rr"]),
        cl_low=_parse_float(row, "cl_low", fields["cl_low"]),
        cl_high=_parse_float(row, "cl_high", fields["cl_high"]),
        comment=fields.get("comment", "").strip(),
    )
    hit = _record_violations(rec)
    if hit is not None:
        raise ParseError(row, hit[0], hit[1])
    return rec


def _csv_rows(text: str, required: tuple[str, ...]) -> list[dict[str, str]]:
    """CSV data rows keyed by column name, names stripped of spaces and BOM.

    Blank lines are skipped, missing cells read as "", extra cells are
    ignored and a duplicated name keeps its last column. Raises SchemaError
    when there is no header or it lacks a ``required`` column.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: no header row", missing=required)
    header = [name.strip().lstrip("\ufeff").lstrip() for name in header]
    missing = tuple(c for c in required if c not in header)
    if missing:
        raise SchemaError(
            "missing required column(s): " + ", ".join(missing), missing=missing
        )
    pad = [""] * len(header)
    return [dict(zip(header, row + pad)) for row in reader if row]


def parse_dataset(
    text: str,
    label: str = "",
    confidence_level: float = DEFAULT_CONFIDENCE_LEVEL,
) -> Dataset:
    """Parse a UTF-8 CSV with header ``author,year,comment,ref,rr,cl_low,cl_high``.

    The ``comment`` column is optional and extra columns are ignored, so a
    file produced by the derive command round-trips. Raises SchemaError when
    required columns are missing and ParseError (with 0-based row index and
    field name) on the first malformed or invariant-violating row.
    """
    records = tuple(
        _make_record(i, fields)
        for i, fields in enumerate(_csv_rows(text, REQUIRED_COLUMNS))
    )
    return Dataset(records=records, label=label, confidence_level=confidence_level)


def dataset_to_json(ds: Dataset) -> str:
    """JSON mirror of the CSV schema: label, confidence_level, records."""
    payload = {
        "label": ds.label,
        "confidence_level": ds.confidence_level,
        "records": [dict(zip(CSV_COLUMNS, record_values(rec))) for rec in ds.records],
    }
    import json

    return json.dumps(payload, indent=2) + "\n"


def _json_cell(value) -> str:
    """A JSON value as the CSV cell it mirrors; null is an empty cell."""
    return "" if value is None else str(value)


def dataset_from_json(text: str) -> Dataset:
    """Parse the JSON mirror produced by :func:`dataset_to_json`.

    A null reads as an empty cell, as a missing CSV cell does. A recorded
    ``confidence_level`` that is not a number raises SchemaError.
    """
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "records" not in payload:
        raise SchemaError("JSON input must be an object with a 'records' array")
    raw_records = payload["records"]
    if not isinstance(raw_records, list):
        raise SchemaError("'records' must be an array")
    records = []
    for i, item in enumerate(raw_records):
        if not isinstance(item, dict):
            raise ParseError(i, "record", "record must be an object")
        for field in REQUIRED_COLUMNS:
            if field not in item:
                raise ParseError(i, field, "missing required field")
        fields = {key: _json_cell(value) for key, value in item.items()}
        records.append(_make_record(i, fields))
    level = payload.get("confidence_level", DEFAULT_CONFIDENCE_LEVEL)
    if isinstance(level, bool) or not isinstance(level, (int, float)):
        raise SchemaError(f"'confidence_level' must be a number, got {level!r}")
    return Dataset(
        records=tuple(records),
        label=_json_cell(payload.get("label")),
        confidence_level=float(level),
    )
