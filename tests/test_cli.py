import argparse
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation

from blgeo.cli import build_parser, main
from blgeo.covers import UniformCover
from blgeo.datum import (
    axis_datum,
    direct_sum_data,
    holder_datum,
    make_datum_from_cover,
    pair_data,
    paired_planes_datum,
    planar_lines_datum,
    rotate_datum,
)
from blgeo.errors import InputError, plain
from blgeo.integrals import GaussianDensity
from blgeo.structure import indecomposable_decomposition
from blgeo.subspace import full_subspace, orthonormalize


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    lw = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))
    d4 = paired_planes_datum()
    out = {
        "r4": write("r4.json", d4.to_json()),
        "lw3": write("lw3.json", make_datum_from_cover(lw).to_json()),
        "lw_cover": write("lw_cover.json", lw.to_json()),
        "bad": write("bad.json", {
            "n": 2, "entries": [{"c": 0.9, "E": {"n": 2, "frame": [[1, 0]]}}],
        }),
        "axis": write("axis.json", orthonormalize([[1, 0, 0, 0]]).to_json()),
        "uplane": write("uplane.json",
                        orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]]).to_json()),
        "t_eq": write("t_eq.json", [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]),
        "A_eye": write("A_eye.json", [np.eye(2).tolist()] * 3),
        "phi_eye": write("phi_eye.json", np.eye(4).tolist()),
        "tromino": write("tromino.json", {"n": 3, "cells": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}),
        "octa": write("octa.json", {"n": 3, "vertices": [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]}),
        "gauss": write("gauss.json", GaussianDensity(full_subspace(1), [[np.pi]]).to_json()),
        "wide": write("wide.json",
                      GaussianDensity(full_subspace(1), [[np.pi / 4]], [0.0], 0.5).to_json()),
        "broken": str(tmp_path / "broken.json"),
    }
    (tmp_path / "broken.json").write_text('{"n": 3,\n  "frame": [[1, 0, 0],]}')
    out["dir"] = tmp_path
    return out


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good(files, capsys):
    code, out, _ = run_cli(capsys, ["validate", files["r4"]])
    report = json.loads(out)
    assert code == 0
    assert report["schema"] == "blgeo/1"
    assert report["is_valid"] and report["defect"] < 1e-12
    assert "tolerances" in report


def test_validate_bad_exits_one(files, capsys):
    code, out, _ = run_cli(capsys, ["validate", files["bad"]])
    report = json.loads(out)
    assert code == 1
    assert not report["is_valid"]
    assert report["defect"] >= 0.1


def test_analyze_loomis_whitney(files, capsys):
    code, out, _ = run_cli(capsys, ["analyze", files["lw3"]])
    report = json.loads(out)
    assert code == 0
    assert len(report["independent_subspaces"]) == 3
    assert report["dependent_subspace"]["frame"] == []


def test_critical_missing_file_is_input_error(files, capsys):
    missing = str(files["dir"] / "nonexistent.json")
    code, out, err = run_cli(capsys, ["critical", files["lw3"], missing])
    assert code == 1
    assert "cannot read" in err


def test_critical_uplane(files, capsys):
    code, out, _ = run_cli(capsys, ["critical", files["r4"], files["uplane"]])
    report = json.loads(out)
    assert code == 0
    assert report["is_critical"] and report["splitting_ok"]


def test_detcheck_equality_certificate(files, capsys):
    code, out, _ = run_cli(capsys, ["detcheck", files["r4"], "--t", files["t_eq"]])
    report = json.loads(out)
    assert code == 0
    assert report["equality"]
    assert report["equality_certificate"] is not None
    assert report["log_gap"] == pytest.approx(0.0, abs=1e-9)


def test_detcheck_high_rank(files, capsys):
    code, out, _ = run_cli(capsys, ["detcheck", files["r4"], "--A", files["A_eye"]])
    report = json.loads(out)
    assert code == 0 and report["equality"]


def test_bl_eval(files, capsys):
    code, out, _ = run_cli(capsys, ["bl-eval", files["r4"], "--A", files["A_eye"]])
    report = json.loads(out)
    assert code == 0
    assert report["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert report["equality"]


def test_barthe_eval_phi(files, capsys):
    code, out, _ = run_cli(capsys, ["barthe-eval", files["r4"], "--phi", files["phi_eye"]])
    report = json.loads(out)
    assert code == 0
    assert report["ratio"] == pytest.approx(1.0, abs=1e-10)


def test_barthe_eval_densities(files, tmp_path, capsys):
    import json as js
    d = {"n": 1, "entries": [
        {"c": 0.5, "E": {"n": 1, "frame": [[1.0]]}},
        {"c": 0.5, "E": {"n": 1, "frame": [[1.0]]}},
    ]}
    dp = tmp_path / "holder.json"
    dp.write_text(js.dumps(d))
    dens = [json.loads(Path(files["gauss"]).read_text())] * 2
    densp = tmp_path / "dens.json"
    densp.write_text(js.dumps(dens))
    code, out, _ = run_cli(capsys, [
        "barthe-eval", str(dp), "--densities", str(densp), "--grid", "h=0.05,box=±4",
    ])
    report = json.loads(out)
    assert code == 0
    assert report["method"] == "grid"
    assert abs(report["ratio"] - 1.0) <= report["est_error"]


def test_transport_subcommand(files, capsys):
    code, out, _ = run_cli(capsys, [
        "transport", "--f", files["wide"], "--g", files["gauss"], "--grid", "h=0.01,box=±6",
    ])
    report = json.loads(out)
    assert code == 0
    assert report["monge_ampere_residual"] < 1e-3
    assert report["growth"]["growth_bounded"]
    xs = np.array(report["map"]["x"])
    ts = np.array(report["map"]["T"])
    win = np.abs(xs) <= 2
    assert np.abs(ts[win] - 2 * xs[win]).max() < 1e-4


def test_bt_subcommand(files, capsys):
    code, out, _ = run_cli(capsys, ["bt", files["lw_cover"], files["tromino"]])
    report = json.loads(out)
    assert code == 0
    assert (report["lhs"], report["rhs"]) == (9, 12)


def test_dual_bt_subcommand(files, capsys):
    code, out, _ = run_cli(capsys, ["dual-bt", files["lw_cover"], files["octa"]])
    report = json.loads(out)
    assert code == 0
    assert report["equality"]


def test_dual_bt_on_a_segment(tmp_path, capsys):
    cover, segment = tmp_path / "cover.json", tmp_path / "segment.json"
    cover.write_text(json.dumps({"n": 1, "s": 1, "sets": [[1]]}))
    segment.write_text(json.dumps({"n": 1, "vertices": [[-1.0], [2.0]]}))
    code, out, _ = run_cli(capsys, ["dual-bt", str(cover), str(segment)])
    report = json.loads(out)
    assert code == 0
    assert report["lhs"] == pytest.approx(3.0) and report["rhs"] == pytest.approx(3.0)
    assert report["equality"]
    assert report["conv_certificate"] == [{"block": [1], "vertices": [[-1.0], [2.0]]}]


def test_plain_names_the_field_json_cannot_hold():
    @dataclass(frozen=True)
    class Report:
        classes: frozenset
        matrix: np.ndarray
        pieces: tuple

    good = Report(frozenset({3, 1, 2}), np.eye(2), ({"value": 1.5},))
    assert plain(good, "report") == {"classes": [1, 2, 3], "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                     "pieces": [{"value": 1.5}]}
    bad = Report(frozenset(), np.eye(2), ({"value": 1.5}, {"value": float("nan")}))
    with pytest.raises(InputError, match=re.escape("report pieces[1].value")):
        plain(bad, "report")


def test_covers_induce_subcommand(files, capsys):
    code, out, _ = run_cli(capsys, ["covers-induce", files["lw_cover"]])
    report = json.loads(out)
    assert code == 0
    assert report["partition"] == [[1], [2], [3]]


def sixteen_copies():
    """16 paired copies of three lines in the plane: one datum on R^32."""
    copies = planar_lines_datum(3)
    for _ in range(15):
        copies = pair_data(copies, planar_lines_datum(3))
    return copies


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    # n = 16 with repeated blocks, and 16 copies of one block in n = 32: an
    # eigenproblem of size n^2, or of 16^2 unknowns on the copies, would be
    # threaded inside LAPACK and change the last bits of the pieces; critical
    # runs the batched SVD of the sines and the stacked commutator product
    blocks = [paired_planes_datum(3), paired_planes_datum(4), holder_datum(2, [0.3, 0.7]),
              planar_lines_datum(3), axis_datum(4)]
    rng = np.random.default_rng(7)
    for name, d in (("d16", direct_sum_data(blocks)), ("copies16", sixteen_copies())):
        d = rotate_datum(d, random_rotation(rng, d.ambient_dim))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d.to_json()))
        piece = tmp_path / f"{name}-piece.json"
        piece.write_text(json.dumps(indecomposable_decomposition(d)[-1].to_json()))
        line = tmp_path / f"{name}-line.json"
        line.write_text(json.dumps(orthonormalize([rng.standard_normal(d.ambient_dim)]).to_json()))
        for args in (["analyze", path], ["critical", path, piece], ["critical", path, line]):
            seen = set()
            for threads in ("1", "2", "4"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
                proc = subprocess.run([sys.executable, "-m", "blgeo", *map(str, args)],
                                      capture_output=True, env=env, check=True)
                seen.add(proc.stdout)
            assert len(seen) == 1, (name, args[0], Path(args[-1]).name)
            if args[0] == "critical":
                assert json.loads(seen.pop())["is_critical"] is (args[-1] is piece)


def test_readme_cli_block_names_the_options_of_each_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = {line.split()[1]: set(re.findall(r"--[A-Za-z-]+", line))
                  for line in block.splitlines() if line.startswith("blgeo ")}

    def options(parser):
        return {o for a in parser._actions for o in a.option_strings
                if o.startswith("--") and o != "--help"}

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == set()
    assert documented == {name: options(sp) for name, sp in commands.choices.items()}


def test_malformed_json_reports_position(files, capsys):
    code, out, err = run_cli(capsys, ["validate", files["broken"]])
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_datum_cap(files, tmp_path, capsys):
    big = {"n": 1, "entries": [
        {"c": 1.0 / 65, "E": {"n": 1, "frame": [[1.0]]}} for _ in range(65)
    ]}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(big))
    code, out, err = run_cli(capsys, ["validate", str(p)])
    assert code == 1
    assert "cap" in err


def test_reports_reparse(files, capsys):
    code, out, _ = run_cli(capsys, ["analyze", files["lw3"]])
    assert code == 0
    json.loads(out)  # round-trips


LINE_JSON = {"n": 1, "frame": [[1.0]]}
HOLDER_JSON = {"n": 1, "entries": [{"c": 0.5, "E": LINE_JSON}, {"c": 0.5, "E": LINE_JSON}]}
GAUSS_JSON = {"kind": "gaussian", "domain": LINE_JSON, "A": [[1.0]]}
# mass sqrt(pi / 3) exp(3 * 2000^2 / 4): far beyond a double
FAR_GAUSS_JSON = dict(GAUSS_JSON, A=[[3.0]], b=[2000.0])


@pytest.mark.parametrize("case", [
    "gaussian_without_A", "grid_without_values", "grid_without_h",
    "factorized_without_factors", "nan_frame", "infinite_frame", "nan_operator",
    "overflowing_report", "gaussian_nan_centre", "grid_nan_lo", "grid_infinite_h",
    "entries_not_a_list", "frame_not_a_list", "fractional_cover_element", "nan_polytope_vertex",
    "t_object", "phi_object", "A_scalar", "densities_scalar", "grid_infinite_box",
    "weight_list", "weight_null", "weight_true", "weight_400_digits", "frame_400_digits",
    "theta_string", "h_string", "lo_string", "values_string", "cover_with_huge_n",
    "flat_triangle_for_qhull", "gaussian_ragged_A", "gaussian_A_of_a_plane", "grid_ragged_values",
    "polytope_ragged_vertices", "subspace_huge_n", "factor_outside_its_domain",
    "grid_not_a_number", "grid_unknown_key", "grid_overflow", "gaussian_mass_overflow",
    "gaussian_mass_overflow_densities", "overflowing_bl_sides", "overflowing_barthe_sides",
    "overflowing_ball_sides", "grid_mass_overflow", "grid_before_missing_datum",
])
def test_malformed_input_exits_one_with_message(case, tmp_path, capsys):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    holder = write("holder.json", json.dumps(HOLDER_JSON))
    gauss = write("gauss.json", json.dumps(GAUSS_JSON))
    grid = {"kind": "grid", "domain": LINE_JSON, "lo": [-1.0], "h": 0.5,
            "values": [1.0, 1.0, 1.0, 1.0]}
    huge = dict(grid, values=[1e308] * 4)  # finite cells whose mass overflows a double
    bad_density = {
        "gaussian_without_A": {"kind": "gaussian", "domain": LINE_JSON},
        "grid_without_values": {k: v for k, v in grid.items() if k != "values"},
        "grid_without_h": {k: v for k, v in grid.items() if k != "h"},
        "factorized_without_factors": {"kind": "factorized", "domain": LINE_JSON},
        "gaussian_nan_centre": dict(GAUSS_JSON, b=[float("nan")]),
        "gaussian_mass_overflow": FAR_GAUSS_JSON,
        "grid_nan_lo": dict(grid, lo=[float("nan")]),
        "grid_infinite_h": dict(grid, h=float("inf")),
        "theta_string": dict(GAUSS_JSON, theta="2"),
        "h_string": dict(grid, h="0.5"),
        "lo_string": dict(grid, lo=["-1"]),
        "values_string": dict(grid, values=["1", 1, 1, 1]),
        "gaussian_ragged_A": dict(GAUSS_JSON, A=[[1.0], [1.0, 2.0]]),
        "gaussian_A_of_a_plane": dict(GAUSS_JSON, A=[[1, 0], [0, 1]]),
        "grid_ragged_values": dict(grid, domain={"n": 2, "frame": [[1, 0], [0, 1]]}, lo=[0, 0],
                                   values=[[1], [1, 2]]),
        "factor_outside_its_domain": {
            "kind": "factorized", "domain": {"n": 2, "frame": [[1, 0]]},
            "factors": [{"subspace": {"n": 2, "frame": [[0, 1]]},
                         "density": dict(GAUSS_JSON, domain={"n": 2, "frame": [[0, 1]]})}]},
    }
    weight = {"weight_list": [1], "weight_null": None, "weight_true": True,
              "weight_400_digits": 10 ** 399}
    # the message names the offending field
    field = {"gaussian_nan_centre": "centre b", "gaussian_mass_overflow": "centre b",
             "gaussian_mass_overflow_densities": "centre b", "grid_nan_lo": "origin lo",
             "grid_infinite_h": "cell size h", "entries_not_a_list": "entries",
             "frame_not_a_list": "frame", "fractional_cover_element": "cover set element",
             "nan_polytope_vertex": "polytope vertices", "t_object": "--t",
             "phi_object": "--phi", "A_scalar": "--A", "densities_scalar": "--densities",
             "grid_infinite_box": "grid", "frame_400_digits": "entries[0].E.frame[0][0]",
             "theta_string": "theta", "h_string": "--f h", "lo_string": "lo[0]",
             "values_string": "values[0]", "cover_with_huge_n": "uniform",
             "flat_triangle_for_qhull": "polytope",
             "gaussian_ragged_A": "gaussian matrix A", "gaussian_A_of_a_plane": "gaussian matrix A",
             "grid_ragged_values": "grid values", "polytope_ragged_vertices": "polytope vertices",
             "subspace_huge_n": "subspace n", "factor_outside_its_domain": "factor subspace",
             "grid_not_a_number": "--grid h", "grid_unknown_key": "--grid has unknown key 'size'",
             "grid_before_missing_datum": "--grid h",
             "grid_overflow": "grid cell count", "overflowing_report": "grid values",
             "grid_mass_overflow": "grid values",
             **dict.fromkeys(["overflowing_bl_sides", "overflowing_barthe_sides",
                              "overflowing_ball_sides"], "lhs"),
             **dict.fromkeys(weight, "entries[0].c")}.get(case, "")
    if case in bad_density:
        argv = ["transport", "--f", write("f.json", json.dumps(bad_density[case])), "--g", gauss]
    elif case in weight:
        datum = {"n": 1, "entries": [{"c": weight[case], "E": LINE_JSON}]}
        argv = ["validate", write("datum.json", json.dumps(datum))]
    elif case == "frame_400_digits":
        datum = {"n": 1, "entries": [{"c": 1, "E": {"n": 1, "frame": [[10 ** 399]]}}]}
        argv = ["validate", write("datum.json", json.dumps(datum))]
    elif case == "cover_with_huge_n":
        # one multiplicity counter per element of [n] would be 10^12 counters
        cover = {"n": 10 ** 12, "s": 1, "sets": [[1], [2]]}
        argv = ["covers-induce", write("cover.json", json.dumps(cover))]
    elif case == "flat_triangle_for_qhull":
        triangle = [[1e200, 0], [-1e200, 1e200], [-1e200, -1e200]]
        argv = ["dual-bt", write("cover.json", json.dumps({"n": 2, "s": 1, "sets": [[1], [2]]})),
                write("polytope.json", json.dumps({"n": 2, "vertices": triangle}))]
    elif case in ("nan_frame", "infinite_frame"):
        # json.dumps writes NaN and Infinity, which json.load reads back
        value = float("nan") if case == "nan_frame" else float("inf")
        datum = {"n": 1, "entries": [{"c": 1.0, "E": {"n": 1, "frame": [[value]]}}]}
        argv = ["validate", write("datum.json", json.dumps(datum))]
    elif case == "entries_not_a_list":
        argv = ["validate", write("datum.json", json.dumps({"n": 1, "entries": 5}))]
    elif case == "frame_not_a_list":
        argv = ["critical", holder, write("V.json", json.dumps({"n": 1, "frame": 3}))]
    elif case == "fractional_cover_element":
        argv = ["covers-induce", write("cover.json", json.dumps({"n": 1, "s": 1, "sets": [[1.5]]}))]
    elif case in ("nan_polytope_vertex", "polytope_ragged_vertices"):
        square = [[float("nan"), 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        if case == "polytope_ragged_vertices":
            square = [[-1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        argv = ["dual-bt", write("cover.json", json.dumps({"n": 2, "s": 1, "sets": [[1], [2]]})),
                write("polytope.json", json.dumps({"n": 2, "vertices": square}))]
    elif case == "subspace_huge_n":
        argv = ["critical", holder, write("V.json", json.dumps({"n": 1e300, "frame": []}))]
    elif case in ("t_object", "A_scalar"):
        flag, value = ("--t", {"a": 1}) if case == "t_object" else ("--A", 5)
        argv = ["detcheck", holder, flag, write("side.json", json.dumps(value))]
    elif case in ("phi_object", "densities_scalar"):
        flag, value = ("--phi", {"a": 1}) if case == "phi_object" else ("--densities", 5)
        argv = ["barthe-eval", holder, flag, write("side.json", json.dumps(value))]
    elif case in ("grid_infinite_box", "grid_overflow"):
        # 2 * 8 / 1e-320 is inf, so that cell count has no integer value
        spec = "h=0.05,box=inf" if case == "grid_infinite_box" else "h=1e-320,box=8"
        argv = ["barthe-eval", holder, "--densities", write("d.json", json.dumps([GAUSS_JSON] * 2)),
                "--grid", spec]
    elif case in ("grid_not_a_number", "grid_unknown_key"):
        spec = "h=abc,box=4" if case == "grid_not_a_number" else "h=0.5,box=4,size=9"
        argv = ["transport", "--f", gauss, "--g", gauss, "--grid", spec]
    elif case == "grid_before_missing_datum":
        # --grid is read before any file, so the missing datum goes unnamed
        argv = ["barthe-eval", str(tmp_path / "missing.json"), "--densities", gauss,
                "--grid", "h=abc,box=4"]
    elif case == "nan_operator":
        argv = ["bl-eval", holder, "--A", write("A.json", "[[[NaN]], [[1.0]]]")]
    elif case == "gaussian_mass_overflow_densities":
        argv = ["barthe-eval", holder, "--densities",
                write("d.json", json.dumps([FAR_GAUSS_JSON, GAUSS_JSON]))]
    elif case in ("overflowing_bl_sides", "overflowing_barthe_sides", "overflowing_ball_sides"):
        # valid sides on the four axes of R^4 whose closed forms exceed a double
        axes = write("axes.json", json.dumps(axis_datum(4).to_json()))
        flag, value = {"overflowing_bl_sides": ("--A", [[[1e-300]]] * 4),
                       "overflowing_barthe_sides": ("--phi", (1e-100 * np.eye(4)).tolist()),
                       "overflowing_ball_sides": ("--t", [1e200] * 4)}[case]
        command = {"--A": "bl-eval", "--phi": "barthe-eval", "--t": "detcheck"}[flag]
        argv = [command, axes, flag, write("side.json", json.dumps(value))]
    else:
        argv = ["barthe-eval", holder, "--densities", write("d.json", json.dumps([huge, huge])),
                "--grid", "h=0.5,box=1"]
    runs = [argv]
    if case == "grid_mass_overflow":
        runs.append(["transport", "--f", write("f.json", json.dumps(huge)), "--g", gauss])
    for argv in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert field in err
        assert len(err) < 300
        # refused at input, before numpy overflows and warns
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_out_of_memory_exits_one_with_message(files, capsys, monkeypatch):
    # a fine --grid can ask for more cells than memory holds; fake the failed allocation
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.16 TiB")

    monkeypatch.setattr(np, "linspace", out_of_memory)
    code, out, err = run_cli(capsys, ["transport", "--f", files["gauss"], "--g", files["gauss"]])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "memory" in err and "1.16 TiB" in err


def test_linear_algebra_failure_exits_two(files, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is an internal failure
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    code, out, err = run_cli(capsys, ["analyze", files["lw3"]])
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: ")


def test_violated_inequality_exits_two(files, capsys, monkeypatch):
    # the library refuses a violated inequality where the verdict is made
    from blgeo import determinantal as det_mod

    monkeypatch.setattr(det_mod, "_log_sides", lambda *args: (0.0, 1.0))
    for command in ("detcheck", "bl-eval"):
        code, out, err = run_cli(capsys, [command, files["r4"], "--A", files["A_eye"]])
        assert (code, out) == (2, "")
        assert err.startswith("internal error: determinantal inequality violated")


@pytest.mark.parametrize("d, grid, cap", [
    (make_datum_from_cover(UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))), "h=0.05,box=3.9",
     "cap 'supconv candidates'"),
    (axis_datum(3), "h=0.01,box=4", "cap 'supconv output cells'"),
])
def test_grid_barthe_beyond_its_work_caps_exits_one_at_once(d, grid, cap, tmp_path, capsys):
    dp, densp = tmp_path / "datum.json", tmp_path / "densities.json"
    dp.write_text(json.dumps(d.to_json()))
    fs = [GaussianDensity(E, np.eye(E.dim)).to_json() for E, _ in d.entries]
    densp.write_text(json.dumps(fs))
    t = time.perf_counter()
    code, out, err = run_cli(capsys, ["barthe-eval", str(dp), "--densities", str(densp),
                                      "--grid", grid])
    assert time.perf_counter() - t < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: " + cap)


def test_scipy_free_commands_load_no_scipy(files, tmp_path):
    # importing scipy is most of a cold start; only dual-bt and transport need it
    holder = tmp_path / "holder.json"
    holder.write_text(json.dumps(HOLDER_JSON))
    densities = tmp_path / "densities.json"
    densities.write_text(json.dumps([json.loads(Path(files["gauss"]).read_text())] * 2))
    calls = [
        ["validate", files["r4"]],
        ["analyze", files["lw3"]],
        ["critical", files["r4"], files["uplane"]],
        ["detcheck", files["r4"], "--t", files["t_eq"]],
        ["detcheck", files["r4"], "--A", files["A_eye"]],
        ["bl-eval", files["r4"], "--A", files["A_eye"]],
        ["barthe-eval", files["r4"], "--phi", files["phi_eye"]],
        ["barthe-eval", str(holder), "--densities", str(densities), "--grid", "h=0.05,box=±4"],
        ["bt", files["lw_cover"], files["tromino"]],
        ["covers-induce", files["lw_cover"]],
    ]
    script = ("import contextlib, io, json, sys\n"
              "from blgeo.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def fuzz_calls():
    """One valid call per command, JSON inputs inline and written at run time."""
    r4 = paired_planes_datum().to_json()
    lw = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))
    cover = lw.to_json()
    holder = {"n": 1, "entries": [{"c": "1/2", "E": LINE_JSON}, {"c": 0.5, "E": LINE_JSON}]}
    grid = {"kind": "grid", "domain": LINE_JSON, "lo": [-1.0], "h": 0.5,
            "values": [1.0, 2.0, 0.0, 1.0]}
    factorized = {"kind": "factorized", "domain": LINE_JSON,
                  "factors": [{"subspace": LINE_JSON, "density": grid}]}
    octahedron = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return {
        "validate": ["validate", r4],
        "analyze": ["analyze", make_datum_from_cover(lw).to_json()],
        "critical": ["critical", r4, {"n": 4, "frame": [[1, 0, 0, 0], [0, 1, 0, 0]]}],
        "detcheck": ["detcheck", r4, "--t", [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]],
        "bl-eval": ["bl-eval", r4, "--A", [np.eye(2).tolist()] * 3],
        "barthe-eval --phi": ["barthe-eval", r4, "--phi", np.eye(4).tolist()],
        "barthe-eval --densities": ["barthe-eval", holder, "--densities",
                                    [GAUSS_JSON, factorized], "--grid", "h=0.25,box=2"],
        "transport": ["transport", "--f", grid, "--g", GAUSS_JSON, "--grid", "h=0.05,box=3"],
        "bt": ["bt", cover, {"n": 3, "cells": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}],
        "dual-bt": ["dual-bt", cover, {"n": 3, "vertices": octahedron}],
        "covers-induce": ["covers-induce", cover],
    }


FUZZ_CALLS = fuzz_calls()
DROP, WRAP = object(), object()
FUZZ_NODES = [DROP, None, True, "x", [], {}, WRAP, 1.5, 0, -1, float("nan"), float("inf"),
              10 ** 399]


def json_paths(node, path=()):
    """The path of every node of a JSON value, the root's () included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def fuzzed_calls(draw):
    """A valid call with one node of one of its JSON inputs replaced, or with
    the node removed from its object or list (the whole file at the root).
    Each JSON input comes back as a 1-list, to be written to a file."""
    argv = [a if isinstance(a, str) else [a]
            for a in copy.deepcopy(FUZZ_CALLS[draw(st.sampled_from(sorted(FUZZ_CALLS)))])]
    parent = argv[draw(st.sampled_from([i for i, a in enumerate(argv) if isinstance(a, list)]))]
    path = (0,) + draw(st.sampled_from(list(json_paths(parent[0]))))
    new = draw(st.sampled_from(FUZZ_NODES))
    for key in path[:-1]:
        parent = parent[key]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if new is WRAP else new
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(fuzzed_calls())
def test_fuzzed_inputs_end_in_a_report_or_a_message(fuzz_dir, argv):
    def write(i, content):
        path = fuzz_dir / f"input{i}.json"
        path.write_text(json.dumps(content[0]) if content else "")
        return str(path)

    argv = [write(i, a) if isinstance(a, list) else a for i, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and json.loads(out)["command"] == argv[0]
    elif argv[0] == "validate" and out:
        assert code == 1 and json.loads(out)["is_valid"] is False
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
