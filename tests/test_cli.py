"""End-to-end command tests, driving main() in process and checking the
emitted JSON/CSV against closed-form values and the golden table file."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import metragraph
from metragraph.cli import main
from metragraph.graph_core import builtin_graph, graph_to_json, scale_graph

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_json(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def test_info(capsys):
    payload = run_json(capsys, "info", "--graph", "builtin:tetrahedron")
    assert len(payload["vertices"]) == 4
    assert len(payload["edges"]) == 6
    assert payload["total_length"] == pytest.approx(1.0)
    assert set(payload["valences"].values()) == {3}


def test_resistance(capsys):
    payload = run_json(capsys, "resistance", "--graph", "builtin:interval",
                       "--x", "a", "--y", "e1:0.25")
    assert payload["resistance"] == pytest.approx(0.25, rel=1e-12)


def test_jfun(capsys):
    payload = run_json(capsys, "jfun", "--graph", "builtin:interval",
                       "--zeta", "a", "--x", "e1:0.75", "--y", "e1:0.25")
    assert payload["j"] == pytest.approx(0.25, rel=1e-12)


def test_green_closed_form(capsys):
    payload = run_json(capsys, "green", "--graph", "builtin:interval",
                       "--measure", "dx", "--x", "e1:0.3", "--y", "e1:0.7")
    want = 0.5 * 0.09 + 0.5 * 0.09 - 1.0 / 6.0
    assert payload["green"] == pytest.approx(want, rel=1e-9)


def test_tau(capsys):
    payload = run_json(capsys, "tau", "--graph", "builtin:circle")
    assert payload["tau"] == pytest.approx(1.0 / 12.0, rel=1e-12)
    payload = run_json(capsys, "tau", "--graph", "builtin:dodecahedron")
    assert payload["tau"] == pytest.approx(0.0264, abs=5e-4)


def test_canonical_measure(capsys):
    payload = run_json(capsys, "canonical-measure", "--graph", "builtin:banana:4")
    assert payload["total_mass"] == pytest.approx(1.0, rel=1e-12)
    # atoms 1 - n/2 = -1 at both endpoints, density n - 1 = 3 on each edge
    assert sorted(a["mass"] for a in payload["atoms"]) == [-1.0, -1.0]
    assert all(d["poly"] == [3.0] for d in payload["densities"])
    assert payload["total_variation"] == pytest.approx(5.0, rel=1e-12)


def test_eigen_display(capsys):
    payload = run_json(capsys, "eigen", "--graph", "builtin:interval",
                       "--measure", "dx", "--lambda-max", "100")
    lams = [e["lambda"] for e in payload["eigenvalues"]]
    assert lams == pytest.approx([math.pi**2, 4 * math.pi**2, 9 * math.pi**2],
                                 rel=1e-9)
    assert all(e["multiplicity"] == 1 for e in payload["eigenvalues"])

    payload = run_json(capsys, "eigen", "--graph", "builtin:tetrahedron",
                       "--measure", "dx-normalized", "--lambda-max", "400")
    assert payload["display"] == "131.42(3), 355.31(2)"


def test_eigenfunctions_output(capsys):
    payload = run_json(capsys, "eigenfunctions", "--graph", "builtin:interval",
                       "--measure", "dx", "--lambda-max", "50",
                       "--samples-per-edge", "5")
    assert len(payload["eigenfunctions"]) == 2
    first = payload["eigenfunctions"][0]
    assert first["lambda"] == pytest.approx(math.pi**2, rel=1e-9)
    assert abs(first["edges"][0]["cos"]) == pytest.approx(math.sqrt(2), rel=1e-9)

    rc = main(["eigenfunctions", "--graph", "builtin:interval",
               "--measure", "dx", "--lambda-max", "50",
               "--samples-per-edge", "5", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,lambda,edge,offset,value"
    assert len(lines) == 1 + 2 * 5


def test_trace(capsys):
    payload = run_json(capsys, "trace", "--graph", "builtin:interval",
                       "--measure", "dx")
    assert payload["trace"] == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_trace_compare(capsys):
    payload = run_json(capsys, "trace-compare", "--graph", "builtin:tetrahedron",
                       "--measure", "dx")
    assert payload["measure2"] == "canonical"
    assert payload["difference"] == pytest.approx(0.0, abs=1e-9)


def test_trace_compare_off_unit_length(capsys, tmp_path):
    path = tmp_path / "tetrahedron2.json"
    path.write_text(json.dumps(graph_to_json(scale_graph(builtin_graph("tetrahedron"), 2.0))))
    for measure in ("dx-normalized", "canonical"):
        payload = run_json(capsys, "trace-compare", "--graph", str(path), "--measure", measure,
                           "--measure2", "dx-normalized")
        assert payload["trace_via_second"] == pytest.approx(payload["trace_direct"], rel=1e-13)


def test_mercer_check(capsys):
    payload = run_json(capsys, "mercer-check", "--graph", "builtin:interval",
                       "--measure", "dx", "--lambda-max", "150",
                       "--grid-points", "10")
    assert payload["nonincreasing"] is True
    sups = [r["sup_error"] for r in payload["rows"]]
    assert sups[-1] < sups[0]


def test_energy_from_file(capsys, tmp_path):
    nu = {"atoms": [{"point": "a", "mass": 1.0}, {"point": "b", "mass": -1.0}],
          "densities": []}
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(nu))
    payload = run_json(capsys, "energy", "--graph", "builtin:interval",
                       "--measure", "dx", "--nu", str(path))
    # <delta_a - delta_b, same>_mu = r(a, b)
    assert payload["energy_real"] == pytest.approx(1.0, rel=1e-9)
    assert payload["energy_imag"] == pytest.approx(0.0, abs=1e-12)


def test_disc_sum(capsys):
    payload = run_json(capsys, "disc-sum", "--graph", "builtin:circle",
                       "--measure", "dx",
                       "--points", "e1.1:0.1,e1.1:0.3,e1.2:0.2")
    assert payload["points"] == 3
    assert payload["average_sum"] >= payload["lower_bound"] - 1e-12

    rc = main(["disc-sum", "--graph", "builtin:circle",
               "--measure", "dx", "--points", "e1.1:0.1"])
    assert rc == 3


def test_rayleigh_from_file(capsys, tmp_path):
    trial = {"vertex_values": {"a": -0.5, "b": 0.5}}
    path = tmp_path / "trial.json"
    path.write_text(json.dumps(trial))
    payload = run_json(capsys, "rayleigh", "--graph", "builtin:interval",
                       "--measure", "dx", "--trial", str(path))
    assert payload["rayleigh"] == pytest.approx(12.0, rel=1e-12)


def test_output_file_deterministic(tmp_path):
    argv = ["eigen", "--graph", "builtin:circle", "--measure", "dx",
            "--lambda-max", "200", "--format", "csv"]
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(argv + ["--output", str(p1)]) == 0
    assert main(argv + ["--output", str(p2)]) == 0
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r" not in b1
    assert b1.decode().splitlines()[0] == "lambda,multiplicity"


def test_reproduce_table_matches_golden(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["reproduce-table", "--format", "csv",
                 "--output", str(out)]) == 0
    golden = open(os.path.join(DATA, "table.csv"), "rb").read()
    assert out.read_bytes() == golden


def test_exit_codes(capsys, tmp_path):
    assert main(["tau", "--graph", "builtin:heptagon"]) == 3
    assert "error:" in capsys.readouterr().err

    assert main(["tau", "--graph", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tau", "--graph", str(bad)]) == 2

    # an effectively zero-length edge overflows the conductance, and the
    # resistance kernel's check solve reports a numeric failure
    sick = tmp_path / "sick.json"
    sick.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e1", "u": "a", "v": "b", "length": 1.0},
                  {"id": "e2", "u": "b", "v": "c", "length": 1e-320}],
    }))
    # without a warning on the way: the overflow to an infinite conductance
    # is expected, and the solve names it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["resistance", "--graph", str(sick), "--x", "a", "--y", "c"]) == 4
        assert main(["tau", "--graph", str(sick)]) == 4
        assert main(["canonical-measure", "--graph", str(sick)]) == 4
    assert capsys.readouterr().err.count("conductance not finite") == 3

    with pytest.raises(SystemExit) as exc:
        main(["resistance", "--graph", "builtin:interval", "--x", "a"])
    assert exc.value.code == 2

    capsys.readouterr()
    # spectral bounds out of range: one error line, exit 3
    for command in ("eigen", "eigenfunctions", "mercer-check"):
        for lam in ("-4", "0", "inf", "nan"):
            argv = [command, "--graph", "builtin:interval", "--lambda-max", lam]
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err

    # tiny floors: the count's entries stay representable down to gamma ell
    # = 1e-200, and the scan prints the bytes it prints from 1e-12, with no
    # RuntimeWarning on the way
    argv = ["eigen", "--graph", "builtin:tetrahedron", "--lambda-max", "2000", "--gamma-floor"]
    assert main([*argv, "1e-12"]) == 0
    want = capsys.readouterr().out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for floor in ("1e-100", "1e-160", "1e-200"):
            assert main([*argv, floor]) == 0
            captured = capsys.readouterr()
            assert captured.out == want and captured.err == "", floor
        # below MIN_GAMMA_L over the shortest piece (1e-300 over 0.382 / 6,
        # 1.57e-299 here), the floor is refused with the limit named
        assert main([*argv, "1e-320"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma_floor must be at least 1.57" in captured.err
        assert captured.err.count("\n") == 1, captured.err

    # 1e7 delta_a + (1 - 1e7) delta_b: the count is already 1 at the default
    # floor, where the scan would drop a root
    signed = tmp_path / "signed.json"
    signed.write_text(json.dumps({"atoms": [{"point": "a", "mass": 1e7},
                                            {"point": "b", "mass": 1.0 - 1e7}]}))
    assert main(["eigen", "--graph", "builtin:interval", "--measure", str(signed),
                 "--lambda-max", "900"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "count is already 1" in captured.err
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("argv", [
    ["eigenfunctions", "--samples-per-edge", "-1"],
    ["mercer-check", "--grid-points", "-5"],
    ["mercer-check", "--grid-points", "0"],
])
def test_bad_sample_sizes_are_rejected(capsys, tmp_path, argv):
    # a negative sample count once raised numpy's ValueError, and a grid of
    # -5 points silently ran on one point per edge
    rc = main([*argv, "--graph", "builtin:interval", "--lambda-max", "20"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    # --graph is read before a command checks its options, so a missing
    # graph file is the error reported
    rc = main([*argv, "--graph", str(tmp_path / "missing.json"), "--lambda-max", "20"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "missing.json" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("option", [["--root-tol", "1e-9"], ["--rank-tol", "1e-8"]])
@pytest.mark.parametrize("command", ["eigen", "eigenfunctions", "mercer-check"])
def test_scan_tolerances_are_not_options(capsys, command, option):
    # the scan's root and rank tolerances are fixed; an option for either is
    # a usage error, with nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "builtin:interval", "--lambda-max", "20", *option])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["banana", "banana:x", "banana:N", "banana:0"])
def test_malformed_banana_name(capsys, tmp_path, monkeypatch, spec):
    # not a built-in, and no file of that name: one error line, exit 2
    monkeypatch.chdir(tmp_path)
    assert main(["tau", "--graph", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert main(["tau", "--graph", f"builtin:{spec}"]) == 3
    assert "banana:3" in capsys.readouterr().err


def test_wide_length_spread(capsys, tmp_path):
    # parallel edges of lengths 1e-7 and 1 plus a tail: the kernel's check
    # solve must pass a residual bound scaled by its backward error
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e1", "u": "a", "v": "b", "length": 1e-7},
                  {"id": "e2", "u": "a", "v": "b", "length": 1.0},
                  {"id": "e3", "u": "b", "v": "c", "length": 0.5}],
    }))
    assert main(["tau", "--graph", str(wide)]) == 0
    assert main(["canonical-measure", "--graph", str(wide)]) == 0
    capsys.readouterr()
    assert main(["resistance", "--graph", str(wide), "--x", "a", "--y", "c"]) == 0
    r = json.loads(capsys.readouterr().out)["resistance"]
    assert r == pytest.approx(0.5 + 1e-7 / (1.0 + 1e-7), rel=1e-12)


def test_interior_atom_eigenfunctions_and_mercer_check(capsys, tmp_path):
    # the functions live on the graph split at the atom; both commands read
    # them at the points of the unsplit graph, and the JSON names the two
    # pieces of e1 by the caller's edge and their start offsets
    spec = tmp_path / "atom.json"
    spec.write_text(json.dumps({"atoms": [{"point": "e1:0.05", "mass": 1.0}]}))
    argv = ["--graph", "builtin:tetrahedron", "--measure", str(spec), "--lambda-max", "400"]
    funcs = run_json(capsys, "eigenfunctions", *argv)["eigenfunctions"]
    for func in funcs:
        rows = [(e["edge"], e.get("start")) for e in func["edges"]]
        assert rows == [("e1", 0.0), ("e1", 0.05)] + [(f"e{k}", None) for k in range(2, 7)]
    assert main(["eigenfunctions", *argv, "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 20 * 6 * len(funcs) and any(r[2] == "e1" for r in rows)
    check = run_json(capsys, "mercer-check", *argv)
    assert check["rows"] and check["nonincreasing"]


def test_eigen_rejects_a_huge_lambda_max_quickly(capsys):
    # about 3e149 roots: the count says so before any bisection
    start = time.perf_counter()
    rc = main(["eigen", "--graph", "builtin:interval", "--lambda-max", "1e300"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3 and elapsed < 1.0
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_eigen_rejects_too_much_work_quickly(capsys):
    # 95,489 roots, fewer than a root cap of 1e5 would stop, but each costs
    # a 61 x 61 secular matrix: bisecting to all of them took 89 s
    start = time.perf_counter()
    rc = main(["eigen", "--graph", "builtin:dodecahedron", "--measure", "dx-normalized",
               "--lambda-max", "9e10"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3 and elapsed < 1.0
    assert "95489 eigenvalues" in err and err.count("\n") == 1, err


def test_library_loads_no_scipy():
    # the library imports only numpy; scipy is a test dependency.  A fresh
    # interpreter, since this suite's own imports load scipy.
    src = os.path.dirname(os.path.dirname(metragraph.__file__))
    code = ("import sys\nfrom metragraph.cli import main\n"
            "rc = main(['tau', '--graph', 'builtin:tetrahedron'])\n"
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'),"
            " file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 []"
    assert "tau" in json.loads(proc.stdout)


def test_eigenfunctions_list_the_pieces_of_an_edge_split_twice(capsys, tmp_path):
    spec = tmp_path / "atoms.json"
    spec.write_text(json.dumps({"atoms": [{"point": "e1:0.3", "mass": 0.25},
                                          {"point": "e1:0.7", "mass": 0.25}],
                                "densities": [{"edge": "e1", "poly": [0.5]}]}))
    funcs = run_json(capsys, "eigenfunctions", "--graph", "builtin:interval", "--measure",
                     str(spec), "--lambda-max", "200")["eigenfunctions"]
    assert funcs
    for func in funcs:
        assert [(e["edge"], e["start"]) for e in func["edges"]] == \
            [("e1", 0.0), ("e1", 0.3), ("e1", 0.7)]
