"""The one shape check every JSON document passes before a field is read."""

import pytest

from layoutforge.atomic import OptionalField, check_shape, parse_json_object
from layoutforge.errors import ConfigError, MalformedInput

SHAPE = {
    "count": int,
    "score": float,
    "path": OptionalField(str | None),
    "pair": OptionalField((str, int)),
    "rows": OptionalField([{"letter": str, "weight": OptionalField(float)}]),
}


def fault(doc, shape=SHAPE):
    with pytest.raises(ConfigError) as info:
        check_shape(doc, ConfigError, "test", shape)
    return str(info.value)


def test_a_document_of_the_shape_passes():
    check_shape({"count": 3, "score": 0.5, "path": "a", "pair": ["x", 2],
                 "rows": [{"letter": "a", "weight": 1.5}, {"letter": "b"}]},
                ConfigError, "test", SHAPE)


def test_a_bool_is_no_int():
    assert fault({"count": True, "score": 0.5}) == "wrongly typed test fields: ['count']"


def test_an_int_is_no_float():
    assert fault({"count": 1, "score": 1}) == "wrongly typed test fields: ['score']"


def test_null_only_where_declared():
    check_shape({"count": 1, "score": 1.0, "path": None}, ConfigError, "test", SHAPE)
    assert fault({"count": None, "score": 1.0}) == "wrongly typed test fields: ['count']"


@pytest.mark.parametrize("pair", [["x"], ["x", 2, 3], ["x", "2"], "x2", {"x": 2}])
def test_a_fixed_length_list_needs_its_length_and_item_types(pair):
    assert fault({"count": 1, "score": 1.0, "pair": pair}) == (
        "wrongly typed test fields: ['pair']")


def test_a_missing_optional_field_is_accepted_and_a_required_one_named():
    check_shape({"count": 1, "score": 1.0}, ConfigError, "test", SHAPE)
    assert fault({"score": 1.0}) == "missing test fields: ['count']"


def test_an_unknown_field_is_refused_at_any_depth():
    assert fault({"count": 1, "score": 1.0, "extra": 1}) == "unknown test fields: ['extra']"
    assert fault({"count": 1, "score": 1.0, "rows": [{"letter": "a", "extra": 1}]}) == (
        "unknown test fields: ['rows.extra']")


def test_nested_fields_are_named_by_path_once_each():
    rows = [{"letter": 5}, {"letter": 6, "weight": "x"}, {}]
    assert fault({"count": 1, "score": 1.0, "rows": rows}) == (
        "missing test fields: ['rows.letter']")
    assert fault({"count": 1, "score": 1.0, "rows": rows[:2]}) == (
        "wrongly typed test fields: ['rows.letter', 'rows.weight']")


def test_the_reader_needs_a_shape_and_raises_the_callers_error():
    assert parse_json_object('{"count": 1, "score": 2.0}', MalformedInput, "test",
                             SHAPE) == {"count": 1, "score": 2.0}
    with pytest.raises(MalformedInput, match="wrongly typed test fields: \\['score'\\]"):
        parse_json_object('{"count": 1, "score": 2}', MalformedInput, "test", SHAPE)
    with pytest.raises(TypeError):
        parse_json_object('{"count": 1, "score": 2.0}', MalformedInput)
