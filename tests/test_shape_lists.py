"""A list checked in bulk gives the message the walk over its items gives.

``check_shape`` accepts a list of simple items (scalars, objects of
scalar fields, tuples of scalars) with a few passes over all of them,
and walks the items one by one only where that fails; only the walk
names faults. Over every document shape the package declares, valid
documents and documents with one to three faults must raise the same
message, or none, as the walk alone.
"""

import copy
from typing import get_args

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutforge import atomic
from layoutforge.atomic import OptionalField, check_shape
from layoutforge.cli import CONFIG_SHAPE
from layoutforge.corpus import ALPHABET_SHAPE
from layoutforge.errors import ConfigError
from layoutforge.evaluator import REPORT_SHAPE
from layoutforge.layout import GEOMETRY_SHAPE, LAYOUT_SHAPE
from layoutforge.partition import PARTITION_SHAPE

SHAPES = {"partition": PARTITION_SHAPE, "layout": LAYOUT_SHAPE, "report": REPORT_SHAPE,
          "geometry": GEOMETRY_SHAPE, "alphabet": ALPHABET_SHAPE, "config": CONFIG_SHAPE}

SCALARS = {int: st.integers(-3, 3), float: st.floats(-3, 3), str: st.text("ab", max_size=2),
           bool: st.booleans(), type(None): st.none(),
           dict: st.dictionaries(st.text("ab", max_size=2), st.integers(0, 3), max_size=2)}
# For each scalar type, values of the wrong type: a bool for an int, an int
# for a float, None, a string and a container.
WRONG = {int: [True, 1.0, None, "1", []], float: [1, False, None, "1.0", {}],
         str: [1, None, ["a"]], bool: [1, None, "true"], dict: [[], None, 1]}


def scalar_types(shape) -> set[type]:
    """The types of a scalar shape: a type, or the members of a union such as ``str | None``."""
    return set(get_args(shape)) or {shape}


def valid(shape):
    """Documents of ``shape``."""
    if isinstance(shape, dict):
        return st.fixed_dictionaries(
            {name: valid(field) for name, field in shape.items()
             if not isinstance(field, OptionalField)},
            optional={name: valid(field.shape) for name, field in shape.items()
                      if isinstance(field, OptionalField)})
    if isinstance(shape, list):
        return st.lists(valid(shape[0]), max_size=6)
    if isinstance(shape, tuple):
        return st.tuples(*map(valid, shape)).map(list)
    return st.one_of([SCALARS[kind] for kind in scalar_types(shape)])


def parts(value, shape, parent=None, key=None):
    """(parent, key, shape) for ``value`` and each part of it, the parent None for the root."""
    yield parent, key, shape
    if isinstance(shape, dict) and type(value) is dict:
        for name, field in shape.items():
            if name in value:
                yield from parts(value[name], getattr(field, "shape", field), value, name)
    elif isinstance(shape, (list, tuple)) and type(value) is list:
        kinds = shape if isinstance(shape, tuple) else shape * len(value)
        for index, (item, kind) in enumerate(zip(value, kinds)):
            yield from parts(item, kind, value, index)


def mutate(data, doc: dict, shape: dict) -> None:
    """Break one part of ``doc`` in place, a part and a way to break it drawn from ``data``.

    Half the time the part is drawn from the items of lists and their
    parts, which a bulk check might let through.
    """
    every = list(parts(doc, shape))
    in_lists = [part for part in every if isinstance(part[0], list)]
    pool = data.draw(st.sampled_from([every, in_lists])) if in_lists else every
    parent, key, kind = data.draw(st.sampled_from(pool))
    value = doc if parent is None else parent[key]
    ways = []
    if isinstance(kind, dict) and type(value) is dict:
        ways.append(("extra field", lambda: value.update(extra=0)))
        ways += [(f"no {name}", lambda name=name: value.pop(name)) for name in value]
    if isinstance(kind, tuple) and type(value) is list and value:
        ways += [("one more", lambda: value.append(value[-1])), ("one less", value.pop)]
    if parent is not None:
        if isinstance(kind, (dict, list, tuple)):
            wrong = [{}] if isinstance(kind, (list, tuple)) else [[]]
        else:
            wrong = [bad for scalar in scalar_types(kind) for bad in WRONG.get(scalar, [])
                     if type(bad) not in scalar_types(kind)]
        ways += [(f"{bad!r}", lambda bad=bad: parent.__setitem__(key, bad)) for bad in wrong]
    _name, way = data.draw(st.sampled_from(ways))
    way()


def message(doc: dict, name: str, shape: dict) -> str | None:
    try:
        check_shape(doc, ConfigError, name, shape)
    except ConfigError as exc:
        return str(exc)
    return None


def walked_message(doc: dict, name: str, shape: dict) -> str | None:
    """The message of the walk over every node, with no list checked in bulk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(atomic, "_all_fit", lambda items, shape: False)
        return message(doc, name, shape)


SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(SHAPES)))
def test_a_valid_document_passes(data, name):
    doc = data.draw(valid(SHAPES[name]))
    assert message(doc, name, SHAPES[name]) is None
    assert walked_message(doc, name, SHAPES[name]) is None


@SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(SHAPES)), faults=st.integers(1, 3))
def test_a_broken_document_raises_what_the_walk_raises(data, name, faults):
    doc = data.draw(valid(SHAPES[name]))
    for _ in range(faults):
        mutate(data, doc, SHAPES[name])
    walked = walked_message(copy.deepcopy(doc), name, SHAPES[name])
    assert message(doc, name, SHAPES[name]) == walked


def test_a_list_that_breaks_its_shape_is_walked_by_item():
    trace = {"letter": "a", "left_support": 1.0, "left_confidence": 1.0, "right_support": 1.0,
             "right_confidence": 1.0, "hand": "left", "rule": "r"}
    doc = {"left": ["a"], "right": [None], "total_letters": 1, "ranking": [["a", True]],
           "trace": [trace, {**trace, "left_support": 1}, {**trace, "extra": 0}]}
    assert message(doc, "partition", PARTITION_SHAPE) == (
        "unknown partition fields: ['trace.extra']")
    del doc["trace"][2]
    assert message(doc, "partition", PARTITION_SHAPE) == (
        "wrongly typed partition fields: ['right', 'ranking', 'trace.left_support']")
