"""Byte-for-byte CLI stdout against tests/data/cli_golden.txt.

The golden file holds one block per command: a line "$ <argv>" and then the
command's stdout.  The argv names the lollipop graph, a 30-edge cubic graph,
the trial function and the interior-atom measure by file name only; the test
writes them into a temporary directory and runs from there.  The cubic graph
is the Desargues graph from its LCF notation [5, -5, 9, -9]^5, its k-th edge
of length 0.5 + 1.5 frac(k phi), so that no RNG or networkx version enters.
The file was written by ``PYTHONPATH=src python tests/test_cli_golden.py >
tests/data/cli_golden.txt``.
"""

import contextlib
import difflib
import io
import json
import math
import os
import sys

from conftest import lollipop
from metragraph.cli import main
from metragraph.graph_core import graph_to_json

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.txt")
DODECA_POINTS = "v0,c0:0.01,c3:0.02,c10:0.015,v7,d6:0.005"
ATOM = {"atoms": [{"point": "e1:0.05", "mass": 1.0}]}
TRIAL = {"vertex_values": {"a": 0.2, "b": -0.7},
         "interior_nodes": [{"point": "e1:0.3", "value": 1.1},
                            {"point": "e1:0.85", "value": -0.05}]}
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def cubic30():
    """The Desargues graph, 20 vertices and 30 edges, as graph JSON: the
    cycle c0..c19 and then the chords of its LCF notation [5, -5, 9, -9]^5,
    each chord once, the k-th edge of length 0.5 + 1.5 frac(k phi)."""
    n, jumps = 20, [5, -5, 9, -9] * 5
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, (i + d) % n) for i, d in enumerate(jumps) if i < (i + d) % n]
    ids = [f"c{i}" for i in range(n)] + [f"d{i}" for i in range(len(pairs) - n)]
    return {"vertices": [f"v{i}" for i in range(n)],
            "edges": [{"id": eid, "u": f"v{a}", "v": f"v{b}",
                       "length": 0.5 + 1.5 * math.modf(k * GOLDEN_RATIO)[0]}
                      for k, (eid, (a, b)) in enumerate(zip(ids, pairs))]}


COMMANDS = [
    *(["resistance", "--graph", "builtin:dodecahedron", "--x", x, "--y", y]
      for x, y in (("c4:0.01", "d6:0.02"), ("c4:0.01", "c4:0.03"), ("v0", "c10:0.015"))),
    *(["resistance", "--graph", "lollipop.json", "--x", x, "--y", y]
      for x, y in (("s2:0.05", "t1:0.1"), ("t1:0.1", "t1:0.25"), ("t3:0.07", "s1:0.12"))),
    *(["jfun", "--graph", graph, "--zeta", zeta, "--x", x, "--y", y]
      for graph, zeta, x, y in (
          ("lollipop.json", "t2:0.1", "s1:0.05", "t1:0.2"),
          ("lollipop.json", "t2:0.1", "t2:0.1", "s1:0.05"),
          ("lollipop.json", "t2:0.1", "s2:0.03", "t2:0.1"),
          ("builtin:dodecahedron", "c4:0.01", "c4:0.01", "d6:0.02"),
          ("builtin:dodecahedron", "c4:0.01", "v7", "c3:0.02"))),
    *(["green", "--graph", "builtin:petersen", "--measure", "dx", "--x", x, "--y", y]
      for x, y in (("rim0:0.02", "spoke3:0.05"), ("star1:0.01", "star1:0.04"), ("o0", "i2"))),
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
    ["mercer-check", "--graph", "builtin:tetrahedron", "--measure", "canonical",
     "--lambda-max", "2000"],
    *([command, "--graph", "builtin:tetrahedron", "--measure", "atom.json",
       "--lambda-max", "400"] for command in ("mercer-check", "eigenfunctions")),
    # discriminant sums with repeated points, a vertex by name and as an
    # edge end, an atom measure and a split loop
    *(["disc-sum", "--graph", graph, "--measure", m, "--points", pts]
      for graph, m, pts in (
          ("lollipop.json", "canonical", "a,t1:0.0,t2:0.1,t2:0.1,t2:0.2,s2:0.05,e"),
          ("lollipop.json", "dx", "t1:0.1,t1:0.1"),
          ("builtin:tetrahedron", "atom.json", "e1:0.05,e1:0.1,a,e4:0.1,e6:0.1"),
          ("builtin:circle", "canonical", "e1.1:0.1,e1.1:0.3,e1.2:0.2,a"))),
    # the Green path at the size of the benchmark's potential workload
    ["tau", "--graph", "cubic30.json"],
    *(["trace", "--graph", "cubic30.json", "--measure", m]
      for m in ("canonical", "dx-normalized")),
]


def _write_inputs(directory):
    with open(os.path.join(directory, "lollipop.json"), "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(lollipop()), fh)
    with open(os.path.join(directory, "cubic30.json"), "w", encoding="utf-8") as fh:
        json.dump(cubic30(), fh)
    with open(os.path.join(directory, "trial.json"), "w", encoding="utf-8") as fh:
        json.dump(TRIAL, fh)
    with open(os.path.join(directory, "atom.json"), "w", encoding="utf-8") as fh:
        json.dump(ATOM, fh)


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
        want = fh.read()
    got = _render()
    if got != want:
        raise AssertionError("CLI stdout differs from the golden file:\n" + _block_diff(want, got))


def _blocks(text):
    """{"$ <argv>" line: the lines of its stdout}, in file order."""
    blocks, lines = {}, []
    for line in text.splitlines():
        if line.startswith("$ "):
            lines = blocks[line] = []
        else:
            lines.append(line)
    return blocks


def _block_diff(want, got):
    """A unified diff of each "$ <argv>" block that changed, was added or
    was dropped (or a note that only the block order changed)."""
    old, new = _blocks(want), _blocks(got)
    out = []
    for argv in dict.fromkeys([*old, *new]):
        if old.get(argv) != new.get(argv):
            out += [argv, *difflib.unified_diff(old.get(argv, []), new.get(argv, []),
                                                "golden", "stdout", lineterm="")]
    return "\n".join(out) or "the same blocks in a different order"

if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp)
        os.chdir(tmp)
        sys.stdout.write(_render())
