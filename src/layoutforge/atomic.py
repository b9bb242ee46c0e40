"""The file formats every stage shares: whole-file writes and JSON objects.

Every result file is written to a temporary name in its own directory and
renamed over the target once the writer has finished, so a run that fails
half way never leaves a truncated file that a later stage might read.

Every JSON document the pipeline reads or writes (configuration, alphabet,
geometry, layout, partition, report, summary) is one JSON object in UTF-8.
The reader decodes strictly and requires an object at the top; any failure
raises the error class its caller names, so each document kind keeps its
own error and the CLI maps all of them to exit code 2. The writer indents
by two, keeps non-ASCII letters as they are and ends with a newline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

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


def parse_json_object(data: bytes | str, error: type[LayoutForgeError]) -> dict:
    """The JSON object ``data`` holds; ``error`` if it holds anything else."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def read_json_object(path: str | Path, error: type[LayoutForgeError]) -> dict:
    """The JSON object in the file at ``path``; ``error``, naming the file, if not."""
    try:
        return parse_json_object(Path(path).read_bytes(), error)
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
