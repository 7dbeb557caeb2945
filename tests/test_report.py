from __future__ import annotations

import json
import math
from collections import OrderedDict
from enum import IntEnum
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvaudit.model import format_number
from pvaudit.report import dumps


# The recursive writer that report.dumps replaced, kept verbatim as the
# oracle: dumps must give its bytes, and raise its errors, on every input.
def _emit(value: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} cannot enter a report")
        out.append(format_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            out.append(f'{pad}  {json.dumps(key)}: ')
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            raise ValueError(
                f"named tuple {type(value).__name__} must enter a report as _asdict()"
            )
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValueError(f"unsupported report value {value!r}")


def _reference_dumps(value: Any) -> str:
    out: list[str] = []
    _emit(value, 0, out)
    return "".join(out) + "\n"


_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é中😀')
    ),
    max_size=12,
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e-5, 1e16, 123456789.5, 0.1, 1e-7]
    ),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_STRUCTURES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_STRUCTURES)
def test_dumps_matches_the_recursive_writer(value):
    assert dumps(value) == _reference_dumps(value)


@settings(max_examples=60, deadline=None)
@given(_STRUCTURES)
def test_loads_then_dumps_is_byte_stable(value):
    text = dumps(value)
    assert dumps(json.loads(text)) == text


def test_negative_zero_prints_as_zero():
    # "-0" would read back as the integer 0 and re-serialize as "0", so -0.0
    # drops its sign, in both of a container's inline paths and the other one
    assert format_number(-0.0) == "0"
    value = {"x": -0.0, "y": [-0.0, np.float64(-0.0)], "z": -0.0}
    text = dumps(value)
    assert text == '{\n  "x": 0,\n  "y": [\n    0,\n    0\n  ],\n  "z": 0\n}\n'
    assert text == _reference_dumps(value)
    assert dumps(json.loads(text)) == text
    assert dumps(-0.0) == dumps(json.loads(dumps(-0.0))) == "0\n"


class _Pair(NamedTuple):
    a: int
    b: int


_REJECTED = [
    pytest.param(math.nan, "non-finite number nan cannot enter a report", id="nan"),
    pytest.param(math.inf, "non-finite number inf cannot enter a report", id="inf"),
    pytest.param(-math.inf, "non-finite number -inf cannot enter a report", id="-inf"),
    pytest.param({1: "x"}, "report keys must be strings, got 1", id="int-key"),
    pytest.param({None: 1}, "report keys must be strings, got None", id="none-key"),
    pytest.param(
        _Pair(1, 2), "named tuple _Pair must enter a report as _asdict()", id="namedtuple"
    ),
    pytest.param({1, 2}, "unsupported report value {1, 2}", id="set"),
    pytest.param(b"x", "unsupported report value b'x'", id="bytes"),
    pytest.param(np.int64(3), f"unsupported report value {np.int64(3)!r}", id="int64"),
]


def _nest(value: Any, depth: int) -> Any:
    """``value`` under ``depth`` alternating dict and list levels, each
    holding a valid sibling before it."""
    for level in range(depth):
        value = {"ok": 1.5, "bad": value} if level % 2 else ["ok", 2, value]
    return value


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("bad, message", _REJECTED)
def test_rejections_keep_their_message_at_any_depth(bad, message, depth):
    value = _nest(bad, depth)
    with pytest.raises(ValueError) as new:
        dumps(value)
    with pytest.raises(ValueError) as old:
        _reference_dumps(value)
    assert str(new.value) == str(old.value) == message


@pytest.mark.parametrize(
    "value",
    [
        {"a": math.nan, 1: 2},
        {1: math.nan},
        [[math.inf], {1: 2}],
        {"a": [b"x", {2: 3}]},
    ],
)
def test_first_rejection_in_writing_order_wins(value):
    with pytest.raises(ValueError) as new:
        dumps(value)
    with pytest.raises(ValueError) as old:
        _reference_dumps(value)
    assert str(new.value) == str(old.value)


class _Level(IntEnum):
    LOW = 1


class _Name(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        [_Level.LOW],
        {"level": _Level.LOW},
        [np.float64(0.1), {"x": np.float64(-2.5e-9)}],
        [_Name('quoted "name" é')],
        {_Name("key"): _Name("value")},
        OrderedDict([("b", 1), ("a", [OrderedDict()])]),
        {"empty": [{}, [], ()]},
    ],
)
def test_subclasses_and_empty_containers_written_as_before(value):
    assert dumps(value) == _reference_dumps(value)


def test_numpy_float64_rejected_when_non_finite():
    with pytest.raises(ValueError, match="non-finite number"):
        dumps({"x": np.float64("nan")})
