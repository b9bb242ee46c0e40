"""The file formats every stage shares: whole-file writes and JSON objects.

Every result file is written to a temporary name in its own directory and
renamed over the target once the writer has finished, so a run that fails
half way never leaves a truncated file that a later stage might read.

Every JSON document the pipeline reads or writes (configuration, alphabet,
geometry, layout, partition, report, summary) is one JSON object in UTF-8.
The reader decodes strictly and checks the object against the shape its
caller declares: a type is a value of exactly that JSON type (``true`` is
no ``int``, ``1`` no ``float``), ``str | None`` a value of either type,
``[shape]`` a list of such items, ``(shape, ...)`` a list of that length
and ``{field: shape}`` an object with exactly those fields, of which those
declared ``OptionalField`` may be left out. Any failure raises the error
class its caller names, with the path of each bad field
(``trace.left_support``), so each document kind keeps its own error and
the CLI maps all of them to exit code 2. The writer indents by two, keeps
non-ASCII letters as they are and ends with a newline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO, get_args

from .errors import LayoutForgeError


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` when the block ends.

    If the block raises, ``path`` keeps its old contents (or stays absent)
    and the temporary file is removed.
    """
    path = Path(path)
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
        fits = type(value) is shape or type(value) in get_args(shape)
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
    elif isinstance(shape, (list, tuple)):
        for item, kind in zip(value, shape if isinstance(shape, tuple) else shape * len(value)):
            _check(item, kind, path, faults)


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
                     shape: dict) -> dict:
    """The JSON object of ``shape`` in the file at ``path``; ``error``, naming the file, if not."""
    try:
        return parse_json_object(Path(path).read_bytes(), error, name, shape)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def dump_json(doc: dict, handle: TextIO) -> None:
    """Write ``doc`` to ``handle`` as the text of a JSON document."""
    json.dump(doc, handle, ensure_ascii=False, indent=2)
    handle.write("\n")


def write_json(doc: dict, path: str | Path) -> None:
    """Replace ``path`` with ``doc`` as a JSON document."""
    with atomic_open(path) as handle:
        dump_json(doc, handle)
