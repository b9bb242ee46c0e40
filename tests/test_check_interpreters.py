"""The interpreter check passes under the interpreter that runs the tests.

``tools/check_interpreters.py`` runs ``run-all``, ``partition`` and
``layout`` under each interpreter it is given and compares their bytes
with the golden digests; here it is given this one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_interpreters_passes_under_this_interpreter():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "check_interpreters.py"),
                           sys.executable], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == f"{sys.executable}: ok\n"
