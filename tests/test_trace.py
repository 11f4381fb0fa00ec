"""The benchmark's per-layer tracer still finds every name it wraps.

`bench/tracing.py` looks functions up by name in the package's modules, so
renaming one breaks `bench/run.py --trace 1` without failing any other test.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["table", "--patterns", "1324", "--max-n", "5", "--algorithm", "both"],
    ["degree", "--patterns", "1324", "--maj", "3"],
    ["verify-monotonic", "--patterns", "2134", "--n", "4"],
    ["cores", "--maj", "3"],
)

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import majpat.cli
import tracing
tracing.install(tracing.Tracer())
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(majpat.cli.main(argv))
print(json.dumps(codes))
"""


def test_traced_commands_run():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"),
                           commands=[list(argv) for argv in COMMANDS])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0] * len(COMMANDS), done.stderr
