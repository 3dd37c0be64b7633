"""Importing the CLI loads no module that generates code: a fresh
interpreter that imports diffalg.cli has not loaded dataclasses, nor
inspect, ast or dis, which it would bring along."""
import json
import os
import subprocess
import sys
from pathlib import Path

import diffalg

SRC = str(Path(diffalg.__file__).resolve().parents[1])
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def test_importing_the_cli_loads_no_code_generating_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, diffalg.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "diffalg.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []
