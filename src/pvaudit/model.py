"""Study records, datasets, and the CSV/JSON data model shared by the audit pipeline."""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

__all__ = [
    "Dataset",
    "DatasetStateError",
    "DerivedStats",
    "ParseError",
    "SchemaError",
    "StudyRecord",
    "Violation",
    "dataset_from_json",
    "dataset_to_json",
    "parse_dataset",
    "serialize_dataset",
    "validate_dataset",
]

CSV_COLUMNS = ("author", "year", "comment", "ref", "rr", "cl_low", "cl_high")
REQUIRED_COLUMNS = ("author", "year", "ref", "rr", "cl_low", "cl_high")
DEFAULT_CONFIDENCE_LEVEL = 0.95


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


class DatasetStateError(RuntimeError):
    """An operation needs derived statistics that have not been computed yet."""


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

    ``rank`` is None until assigned by ranking. ``p_floored`` marks a p-value
    clamped to the smallest positive double instead of underflowing to zero.
    """

    se: float
    z: float
    p: float
    rank: int | None = None
    p_floored: bool = False


class Violation(NamedTuple):
    """One broken invariant: row index (0-based), field name, human-readable rule."""

    row: int
    field: str
    rule: str


class Dataset:
    """An immutable, ordered collection of study records plus optional derived stats.

    Row order is the source-file order and is preserved by every operation
    that does not explicitly sort. ``derived``, when present, parallels
    ``records`` one-to-one. ``scale`` and ``critical_value`` record how the
    derived stats were computed; only derivation sets them.

    Not a named tuple: ``len`` counts records, not fields.
    """

    __slots__ = ("records", "derived", "label", "confidence_level", "scale", "critical_value")

    def __init__(
        self,
        records: tuple[StudyRecord, ...],
        derived: tuple[DerivedStats, ...] | None = None,
        label: str = "",
        confidence_level: float = DEFAULT_CONFIDENCE_LEVEL,
        scale: str = "linear",
        critical_value: float | None = None,
    ) -> None:
        if derived is not None and len(derived) != len(records):
            raise ValueError("derived stats must parallel records one-to-one")
        values = (records, derived, label, confidence_level, scale, critical_value)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

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
        return type(self), tuple(self._asdict().values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __len__(self) -> int:
        return len(self.records)

    def require_derived(self) -> tuple[DerivedStats, ...]:
        if self.derived is None:
            raise DatasetStateError("derived statistics missing; derive them first")
        return self.derived

    @property
    def pvalues(self) -> tuple[float, ...]:
        return tuple(d.p for d in self.require_derived())


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
    except (ValueError, AttributeError):
        raise ParseError(row, field, f"malformed integer {text!r}") from None


def _parse_float(row: int, field: str, text: str) -> float:
    try:
        value = float(text.strip())
    except (ValueError, AttributeError):
        raise ParseError(row, field, f"malformed number {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ParseError(row, field, f"malformed number {text!r}")
    return value


def _make_record(row: int, fields: dict) -> StudyRecord:
    rec = StudyRecord(
        author=(fields.get("author") or "").strip(),
        year=_parse_int(row, "year", fields.get("year") or ""),
        ref_id=_parse_int(row, "ref", fields.get("ref") or ""),
        rr=_parse_float(row, "rr", fields.get("rr") or ""),
        cl_low=_parse_float(row, "cl_low", fields.get("cl_low") or ""),
        cl_high=_parse_float(row, "cl_high", fields.get("cl_high") or ""),
        comment=(fields.get("comment") or "").strip(),
    )
    hit = _record_violations(rec)
    if hit is not None:
        raise ParseError(row, hit[0], hit[1])
    return rec


def _csv_rows(text: str, required: tuple[str, ...]) -> list[dict[str, str]]:
    """CSV data rows keyed by column name, names stripped of spaces and BOM.

    Missing cells read as "". Raises SchemaError when there is no header or
    it lacks a ``required`` column.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError("empty input: no header row", missing=required)
    header = [name.strip().lstrip("\ufeff") for name in reader.fieldnames]
    missing = tuple(c for c in required if c not in header)
    if missing:
        raise SchemaError(
            "missing required column(s): " + ", ".join(missing), missing=missing
        )
    return [
        {k.strip().lstrip("\ufeff"): v or "" for k, v in raw.items() if k is not None}
        for raw in reader
    ]


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


def serialize_dataset(ds: Dataset) -> str:
    """Render the records back to canonical CSV text (lossless float repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in ds.records:
        writer.writerow(
            [
                rec.author,
                rec.year,
                rec.comment,
                rec.ref_id,
                repr(rec.rr),
                repr(rec.cl_low),
                repr(rec.cl_high),
            ]
        )
    return buf.getvalue()


def dataset_to_json(ds: Dataset) -> str:
    """JSON mirror of the CSV schema: label, confidence_level, records."""
    payload = {
        "label": ds.label,
        "confidence_level": ds.confidence_level,
        "records": [
            {
                "author": rec.author,
                "year": rec.year,
                "comment": rec.comment,
                "ref": rec.ref_id,
                "rr": rec.rr,
                "cl_low": rec.cl_low,
                "cl_high": rec.cl_high,
            }
            for rec in ds.records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def dataset_from_json(text: str) -> Dataset:
    """Parse the JSON mirror produced by :func:`dataset_to_json`."""
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
        fields = {key: str(value) for key, value in item.items()}
        records.append(_make_record(i, fields))
    return Dataset(
        records=tuple(records),
        label=str(payload.get("label", "")),
        confidence_level=float(payload.get("confidence_level", DEFAULT_CONFIDENCE_LEVEL)),
    )


def record_as_dict(rec: StudyRecord) -> dict:
    """Record fields keyed by the CSV column names (ref_id exposed as 'ref')."""
    d = rec._asdict()
    d["ref"] = d.pop("ref_id")
    return {k: d[k] for k in CSV_COLUMNS}
