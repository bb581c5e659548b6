"""The benchmark's span tracer still finds every layer it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# in a child process, so the wrappers never touch this process's modules
PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
print(json.dumps(tracer.missing))
"""


def test_tracer_wraps_every_layer():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == []
