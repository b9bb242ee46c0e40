"""The JSON writer writes the text ``json.dumps(doc, ensure_ascii=False, indent=2)`` gives.

``atomic.dump_json`` encodes each container of scalars, and each list of
such containers, in C and indents only the nesting around them; the text
must be the pure-Python encoder's, byte for byte, on any document with
string keys.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from layoutforge.atomic import dump_json

texts = st.text() | st.lists(st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f",
                                              "}", "]", ",", ":", "{", "[", " ", "\x7f",
                                              "ক", "\U0001F600", "  "])).map("".join)
scalars = (st.none() | st.booleans() | st.integers(-2 ** 300, 2 ** 300)
           | st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1.5]) | texts)
keys = texts


def containers(children):
    return (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(keys, children, max_size=5)
            # Lists of nonempty containers, of one kind or mixed, of scalars or not.
            | st.lists(st.dictionaries(keys, children, min_size=1, max_size=3), min_size=1,
                       max_size=3)
            | st.lists(st.lists(children, min_size=1, max_size=3), min_size=1, max_size=3)
            | st.lists(st.dictionaries(keys, scalars, min_size=1, max_size=4), min_size=1,
                       max_size=4)
            | st.lists(st.lists(scalars, min_size=1, max_size=4)
                       | st.tuples(scalars, scalars), min_size=1, max_size=4)
            | st.lists(st.dictionaries(keys, scalars, max_size=3)
                       | st.lists(scalars, max_size=3), min_size=1, max_size=4))


# Containers nested a fixed few levels deep, which reach every route of
# ``_indented`` at a fraction of the cost of drawing them by ``st.recursive``.
shallow = scalars | containers(scalars)
documents = st.dictionaries(keys, shallow | containers(shallow | containers(shallow)),
                            max_size=6)


def written(doc) -> str:
    handle = io.StringIO()
    dump_json(doc, handle)
    return handle.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=documents)
def test_dump_json_writes_what_the_python_encoder_writes(doc):
    assert written(doc) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def test_dump_json_writes_the_edge_values_as_the_python_encoder_does():
    doc = {"empty": [{}, [], {"a": []}, [[]]],
           "floats": [-0.0, 5e-324, float("inf"), float("nan")], "big": 10 ** 100,
           "rows": [{"k": "v\n},\n      {"}, {"k": None, "ক": True}],
           "pairs": [["a", 1], ("b", 2)], "nested rows": [{"a": [1]}, {"b": {"c": 2}}],
           "deep": {"x": {"y": {"z": [1, [2, [3]]]}}}, "quote\"key": "tab\tand\u0000nul",
           "": {}}
    assert written(doc) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
