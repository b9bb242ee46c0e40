"""The file formats every stage shares: whole-file writes and JSON objects.

Every result file is written to a temporary name in its own directory and
renamed over the target once the writer has finished, so a run that fails
half way never leaves a truncated file that a later stage might read. Only
the writer makes a missing output directory, so it appears with its first file.

Every JSON document the pipeline reads or writes (configuration, alphabet,
geometry, layout, partition, report, summary) is one JSON object in UTF-8.
The reader decodes strictly and checks the object against the shape its
caller declares: a type is a value of exactly that JSON type (``true`` is
no ``int``, ``1`` no ``float``), ``str | None`` a value of either type,
``[shape]`` a list of such items, ``(shape, ...)`` a list of that length
and ``{field: shape}`` an object with exactly those fields, of which those
declared ``OptionalField`` may be left out. A list of scalars, of objects
of scalar fields none of them optional, or of tuples of scalars is first
checked in bulk, a field at a time over all its items; only a list that
fails is walked item by item, and only the walk names faults. Any failure
raises the error class its caller names, with the path of each bad field
(``trace.left_support``), so each document kind keeps its own error and
the CLI maps all of them to exit code 2; so does any error of the caller's
builder, and both name the file. The writer indents by two, keeps
non-ASCII letters as they are, ends with a newline and hands the whole
text to the file in one write. It writes the text ``json`` writes with
``indent=2``, but encodes each container of scalars with the C encoder,
which ``json`` uses only without an indent.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar, get_args

from .errors import LayoutForgeError

T = TypeVar("T")


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` when the block ends.

    A missing directory is made. If the block raises, ``path`` keeps its
    old contents (or stays absent) and the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


@dataclass(frozen=True)
class OptionalField:
    """A field of an object shape that a document may leave out."""

    shape: object


def _check(value, shape, path: str, faults: dict[str, dict[str, None]]) -> None:
    """Record in ``faults`` the path of each part of ``value`` that breaks ``shape``."""
    if isinstance(shape, (dict, list, tuple)):
        fits = type(value) is (dict if isinstance(shape, dict) else list)
    else:
        fits = type(value) in _types(shape)
    if not fits or (isinstance(shape, tuple) and len(value) != len(shape)):
        faults["wrongly typed"][path] = None
    elif isinstance(shape, dict):
        for name, field in shape.items():
            optional = isinstance(field, OptionalField)
            if name in value:
                _check(value[name], field.shape if optional else field, f"{path}.{name}", faults)
            elif not optional:
                faults["missing"][f"{path}.{name}"] = None
        for name in sorted(value.keys() - shape.keys()):
            faults["unknown"][f"{path}.{name}"] = None
    elif isinstance(shape, tuple):
        for item, kind in zip(value, shape):
            _check(item, kind, path, faults)
    elif isinstance(shape, list) and not _all_fit(value, shape[0]):
        for item in value:
            _check(item, shape[0], path, faults)


def _types(shape) -> set[type]:
    """The types a value of a scalar ``shape`` may have; none for any other shape."""
    if isinstance(shape, (dict, list, tuple, OptionalField)):
        return set()
    return set(get_args(shape)) or {shape}


def _all_fit(items: list, shape) -> bool:
    """Whether every item fits ``shape``, checked with a few passes in C over all of them.

    Only a scalar shape, an object of scalar fields none of them optional,
    or a tuple of scalars is checked so, a field at a time: False for any
    other shape, as for any list with an item that does not fit.
    """
    if not isinstance(shape, (dict, tuple)):
        return set(map(type, items)) <= _types(shape)
    columns = [(key, _types(field))
               for key, field in (shape.items() if isinstance(shape, dict) else enumerate(shape))]
    if not all(types for _key, types in columns):
        return False
    if isinstance(shape, dict):
        if not (set(map(type, items)) <= {dict}
                and all(map(shape.keys().__eq__, map(dict.keys, items)))):
            return False
    elif not (set(map(type, items)) <= {list} and set(map(len, items)) <= {len(shape)}):
        return False
    return all(set(map(type, map(itemgetter(key), items))) <= types for key, types in columns)


def check_shape(doc: dict, error: type[LayoutForgeError], name: str, shape: dict) -> None:
    """Raise ``error`` if ``doc``, the ``name`` document, breaks ``shape``."""
    faults = {"missing": {}, "unknown": {}, "wrongly typed": {}}
    _check(doc, shape, "", faults)
    for fault, paths in faults.items():
        if paths:
            raise error(f"{fault} {name} fields: {[path[1:] for path in paths]}")


def parse_json_object(data: bytes | str, error: type[LayoutForgeError], name: str,
                      shape: dict) -> dict:
    """The JSON object ``data`` holds, of ``shape``; ``error`` if it holds anything else."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object, got {type(doc).__name__}")
    check_shape(doc, error, name, shape)
    return doc


def read_json_object(path: str | Path, error: type[LayoutForgeError], name: str,
                     shape: dict, build: Callable[[dict], T] = dict) -> T:
    """What ``build`` makes of the JSON object of ``shape`` in the file at ``path``.

    ``error`` if there is no such object; it, or any error ``build`` raises,
    keeps its class and gains the path in front of its message.
    """
    try:
        return build(parse_json_object(Path(path).read_bytes(), error, name, shape))
    except LayoutForgeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def dump_json(doc: dict, handle: TextIO) -> None:
    """Write ``doc`` to ``handle`` as the text of a JSON document, in one write.

    The text is ``json.dumps(doc, ensure_ascii=False, indent=2)``, whose
    ``indent`` would make ``json`` encode in Python; here the containers of
    scalars are encoded in C (``_indented``). Object keys are strings.
    """
    handle.write(_indented(doc, "\n") + "\n")


_CONTAINERS = (dict, list, tuple)


def _encoder(indent: str) -> json.JSONEncoder:
    """The C encoder that follows each comma with ``indent``."""
    return json.JSONEncoder(ensure_ascii=False, separators=("," + indent, ": "))


def _scalars(values: Iterable) -> bool:
    """Whether ``values`` holds no array or object."""
    return not any(map(isinstance, values, repeat(_CONTAINERS)))


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2)`` writes it
    where each line after its first starts with ``newline``.

    Only the nesting is written in Python. A container of scalars is one C
    encoding whose commas are followed by the indent of its items, and so
    is a list of nonempty containers of scalars of one kind, whose commas
    between items are then indented by one replace: an encoded scalar never
    ends in a bracket, and an LF stands in JSON text only where a separator
    put it.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return _encoder("").encode(value)
    inner = newline + "  "
    if _scalars(value.values() if isinstance(value, dict) else value):
        text = _encoder(inner).encode(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(value, dict):
        return ("{" + inner + ("," + inner).join(
                    encode_basestring(key) + ": " + _indented(item, inner)
                    for key, item in value.items())
                + newline + "}")
    kinds = set(map(type, value))
    if all(value) and (kinds == {dict} and all(map(_scalars, map(dict.values, value)))
                       or kinds <= {list, tuple} and all(map(_scalars, value))):
        deep = inner + "  "
        text = _encoder(deep).encode(value)
        opening, closing = text[1], text[-2]
        return ("[" + inner + opening + deep
                + text[2:-2].replace(closing + "," + deep + opening,
                                     inner + closing + "," + inner + opening + deep)
                + inner + closing + newline + "]")
    return ("[" + inner + ("," + inner).join(_indented(item, inner) for item in value)
            + newline + "]")


def write_json(doc: dict, path: str | Path) -> None:
    """Replace ``path`` with ``doc`` as a JSON document."""
    with atomic_open(path) as handle:
        dump_json(doc, handle)
