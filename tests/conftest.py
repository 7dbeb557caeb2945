from __future__ import annotations

import csv
from pathlib import Path

import pytest
from hypothesis import settings

from pvaudit import derive_dataset
from pvaudit.datasets import load_soy_ldl_studies

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run, with no example
# database carried between runs, so a tier-1 rerun repeats byte for byte.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def golden_rows() -> list[dict]:
    """Published per-study values (se, z, p, rank) for the bundled dataset."""
    with open(DATA_DIR / "soy_ldl_golden.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 50
    return rows


@pytest.fixture(scope="session")
def soy():
    """The bundled dataset, derived and ranked with default settings."""
    return derive_dataset(load_soy_ldl_studies())
