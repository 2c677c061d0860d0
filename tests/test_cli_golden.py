"""Byte-for-byte CLI stdout against tests/data/cli_golden.txt.

The golden file holds one block per command: a line "$ <argv>" and then the
command's stdout.  The argv names the lollipop graph and the trial function
by file name only; the test writes both into a temporary directory and runs
from there.  The file was written by ``PYTHONPATH=src python
tests/test_cli_golden.py > tests/data/cli_golden.txt``.
"""

import contextlib
import io
import json
import os
import sys

from conftest import lollipop
from metragraph.cli import main
from metragraph.graph_core import graph_to_json

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.txt")
DODECA_POINTS = "v0,c0:0.01,c3:0.02,c10:0.015,v7,d6:0.005"
TRIAL = {"vertex_values": {"a": 0.2, "b": -0.7},
         "interior_nodes": [{"point": "e1:0.3", "value": 1.1},
                            {"point": "e1:0.85", "value": -0.05}]}
COMMANDS = [
    *(["disc-sum", "--graph", "builtin:dodecahedron", "--measure", m,
       "--points", DODECA_POINTS] for m in ("canonical", "dx")),
    ["canonical-measure", "--graph", "builtin:petersen"],
    ["canonical-measure", "--graph", "lollipop.json"],
    ["green", "--graph", "lollipop.json", "--measure", "canonical",
     "--x", "s1:0.05", "--y", "t2:0.1"],
    ["green", "--graph", "builtin:dodecahedron", "--measure", "dx",
     "--x", "c4:0.01", "--y", "v9"],
    *(["rayleigh", "--graph", "builtin:interval", "--measure", m,
       "--trial", "trial.json"] for m in ("dx", "canonical")),
]


def _write_inputs(directory):
    with open(os.path.join(directory, "lollipop.json"), "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(lollipop()), fh)
    with open(os.path.join(directory, "trial.json"), "w", encoding="utf-8") as fh:
        json.dump(TRIAL, fh)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _render():
    runs = [[*argv, "--format", fmt] for argv in COMMANDS for fmt in ("json", "csv")]
    return "".join(f"$ {' '.join(argv)}\n{_run(argv)}" for argv in runs)


def test_cli_stdout_matches_golden(tmp_path, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        assert _render() == fh.read()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp)
        os.chdir(tmp)
        sys.stdout.write(_render())
