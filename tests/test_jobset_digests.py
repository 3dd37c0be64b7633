"""`scripts/jobset_digests.py` digests the benchmark's job outputs, to show
that two trees give byte-identical outputs; its digest must not depend on
anything but the outputs.  `bench/` is only read."""
import importlib
import importlib.util
import sys
from pathlib import Path

import diffalg
import diffalg.files

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_jobset_digest_repeats_in_one_process():
    script = load(ROOT / "scripts" / "jobset_digests.py", "jobset_digests")
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        kernel_tower = importlib.import_module("kernel_tower")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    first = script.jobset_digest(diffalg, kernel_tower, 1, 0)
    assert len(first) == 64
    assert script.jobset_digest(diffalg, kernel_tower, 1, 0) == first
