"""Start-up imports only what every command needs.

Counting in parts sends each part back as one ``marshal``, which is
built in, and imports neither ``pickle`` nor ``multiprocessing`` nor
``concurrent.futures``; the last two cost tens of milliseconds and
megabytes to import. A fresh interpreter that imports the CLI and builds
its parser must have loaded none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("multiprocessing", "concurrent.futures", "pickle")


def test_building_the_parser_loads_no_process_pool_or_pickle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = ("import sys, layoutforge.cli; layoutforge.cli.build_parser();"
             f" print(','.join(name for name in {LAZY!r} if name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
