import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathineq import jsontext

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
ints = st.integers() | st.sampled_from([2**63, -(2**64) - 1, 10**300])
texts = st.text() | st.sampled_from(["é", " ", "\x00\x1f\x7f", "\ud800", "😀", '"\\/\b\f\n\r\t'])
scalars = st.none() | st.booleans() | ints | floats | texts
keys = texts | ints | floats | st.booleans() | st.none()
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(floats, max_size=8)
    | st.dictionaries(keys, inner, max_size=5),
    max_leaves=30,
)


def outcome(dumps, x, sort_keys):
    """The text, or the type of the exception raised."""
    try:
        return dumps(x, sort_keys)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(values, st.booleans())
def test_dumps_equals_json_indent_1(x, sort_keys):
    want = outcome(lambda x, k: json.dumps(x, indent=1, sort_keys=k), x, sort_keys)
    assert outcome(jsontext.dumps, x, sort_keys) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(floats, max_size=20), st.integers(0, 3))
def test_rendered_floats_are_written_as_the_floats(xs, depth):
    def wrap(x):
        for _ in range(depth):
            x = {"k": [x]}
        return x

    assert jsontext.dumps(wrap(jsontext.Rendered(list(map(float.__repr__, xs))))) == json.dumps(wrap(xs), indent=1)


def test_numpy_floats_are_written_as_floats():
    xs = [np.float64(0.1), np.float64(-np.inf), np.float64(np.nan)]
    assert jsontext.dumps({np.float64(2.5): xs, "t": (np.float64(1e300),)}) == json.dumps(
        {np.float64(2.5): xs, "t": (np.float64(1e300),)}, indent=1)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object(), [0.5, np.int64(1)], np.bool_(True),
                                   {"k": {frozenset(): 1}}, {(1, 2): 0}],
                         ids=["int64", "set", "object", "int64_after_float", "numpy_bool", "frozenset_key",
                              "tuple_key"])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_type_errors_match_json(value, sort_keys):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=1, sort_keys=sort_keys)
    with pytest.raises(TypeError) as got:
        jsontext.dumps(value, sort_keys)
    assert str(got.value) == str(want.value)

