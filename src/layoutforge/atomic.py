"""Result files are replaced whole or not at all.

Every result file is written to a temporary name in its own directory and
renamed over the target once the writer has finished, so a run that fails
half way never leaves a truncated file that a later stage might read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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
