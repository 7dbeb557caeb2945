"""Bundled example data: a 50-comparison soy-protein/LDL risk-ratio literature
and per-study analysis counts for the subset reporting them."""

from __future__ import annotations

from importlib import resources

from .model import Dataset, parse_dataset

STUDIES_FILE = "soy_ldl_studies.csv"
SEARCH_SPACE_FILE = "soy_ldl_search_space.csv"


def _read(name: str) -> str:
    return resources.files("pvaudit").joinpath("data", name).read_text(encoding="utf-8")


def soy_ldl_studies_csv() -> str:
    """Raw CSV text of the bundled study table."""
    return _read(STUDIES_FILE)


def soy_ldl_search_space_csv() -> str:
    """Raw CSV text of the bundled per-study analysis counts."""
    return _read(SEARCH_SPACE_FILE)


def load_soy_ldl_studies() -> Dataset:
    """The bundled 50-comparison dataset (95% intervals), ready to derive."""
    return parse_dataset(soy_ldl_studies_csv(), label="soy-ldl")
