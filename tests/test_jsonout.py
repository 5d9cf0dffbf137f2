"""`jsonout.dumps` against the stdlib encoder it replaces:
`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, and the same
exception type wherever json raises."""

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdckit.jsonout import dumps


class Name(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count(...)"


class Ratio(float):
    def __repr__(self):
        return "Ratio(...)"


class Point(NamedTuple):
    x: int
    label: str


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


texts = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600", "a\"b\\c\nd\te"])
ints = st.integers() | st.sampled_from([2 ** 63, -(2 ** 64), 10 ** 40, -1, 0])
floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, -1e-300, 5e-324])
scalars = (st.none() | st.booleans() | ints | floats | texts
           | texts.map(Name) | ints.map(Count) | floats.map(Ratio))
# key kinds: a dict of one kind sorts, one of mixed kinds raises in the
# sort, as json's does
key_kinds = (texts, texts.map(Name), ints, ints.map(Count), floats, st.booleans())
# values json cannot encode, and keys it cannot convert
unsupported = st.sets(st.integers(), max_size=2) | st.binary(max_size=2) | st.builds(object)
bad_keys = st.tuples(st.integers()) | st.frozensets(st.integers(), max_size=1)


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(k, inner, max_size=4) for k in key_kinds),
        st.dictionaries(st.none(), inner, max_size=1),
        st.builds(Point, ints, texts),
        # the cases json raises on
        st.dictionaries(st.one_of(*key_kinds, st.none()), inner, min_size=2, max_size=3),
        st.dictionaries(bad_keys, inner, min_size=1, max_size=2),
        st.lists(unsupported, min_size=1, max_size=1),
    )


values = st.recursive(scalars, containers, max_leaves=24)


@given(values)
@settings(max_examples=600, deadline=None)
def test_dumps_equals_json(obj):
    try:
        want = reference(obj)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            dumps(obj)
        return
    assert dumps(obj) == want


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, -0.0, 1e300, float("nan"), None, True, False,
    {1: "a", 10: "b", 2: "c"},          # int keys sort as numbers
    {True: 1, False: 2}, {None: [None]}, {1.5: 1, float("inf"): 2, float("nan"): 3},
    {"a": {}, "b": [], "c": ()}, [[[]], [{}]], Point(3, "é"),
    {Name("k"): Count(5), "r": Ratio(0.5)},
], ids=repr)
def test_dumps_equals_json_on_the_edges(obj):
    assert dumps(obj) == reference(obj)


def test_circular_references_raise_value_error():
    loop: list = []
    loop.append(loop)
    nest: dict = {"a": [1]}
    nest["a"].append(nest)
    for obj in (loop, nest):
        with pytest.raises(ValueError, match="Circular reference detected"):
            reference(obj)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(obj)
    shared = [1]
    assert dumps([shared, shared]) == reference([shared, shared])
