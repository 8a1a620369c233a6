import argparse
import contextlib
import copy
import io
import itertools
import json
import math
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

from conftest import exact_log_det, random_rotation, turned

from blgeo.cli import build_parser, main
from blgeo.covers import UniformCover
from blgeo.datum import (
    GeometricBLDatum,
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
    # the certificate M = sum c_i F_i^T diag(t) F_i, as for --A: here P_u + 2 P_v
    assert np.asarray(report["equality_certificate"]).shape == (4, 4)
    assert report["log_gap"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("datum, t", [
    (paired_planes_datum().to_json(), [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]),
    (paired_planes_datum().to_json(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    (planar_lines_datum(3).to_json(), [1.0, 1.0, 4.0]),
    (rotate_datum(axis_datum(2), np.array([[0.6, -0.8], [0.8, 0.6]])).to_json(), [1.0, 1e60]),
    # diag(1e-200, 1e200) has condition number 1e400: the budget is inf, which JSON cannot hold
    (holder_datum(2, [0.5, 0.5]).to_json(), [1e-200, 1e200, 1.0, 1.0]),
], ids=["paired-planes-class-constant", "paired-planes", "planar-lines", "rotated-axes", "budget-inf"])
def test_detcheck_t_prints_what_A_prints_for_its_diagonal_operators(datum, t, tmp_path, capsys):
    # --t is --A with A_i = diag(t) over the frame rows of E_i
    d = GeometricBLDatum.from_json(datum)
    cuts = np.cumsum([E.dim for E, _ in d.entries])[:-1]
    A = [np.diag(part).tolist() for part in np.split(np.array(t), cuts)]
    paths = {name: tmp_path / f"{name}.json" for name in ("datum", "t", "A")}
    for name, obj in (("datum", datum), ("t", t), ("A", A)):
        paths[name].write_text(json.dumps(obj))
    by_t = run_cli(capsys, ["detcheck", str(paths["datum"]), "--t", str(paths["t"])])
    by_A = run_cli(capsys, ["detcheck", str(paths["datum"]), "--A", str(paths["A"])])
    assert by_t == by_A
    if t[0] == 1e-200:
        assert by_t == (1, "", "error: report budget is inf: JSON cannot hold it\n")
    else:
        assert by_t[0] == 0


@pytest.mark.parametrize("argv", [["detcheck", "datum.json"], ["nosuch"], []],
                         ids=["detcheck-without-side", "unknown-command", "no-command"])
def test_usage_errors_exit_one_with_message(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: blgeo")


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
    assert report["equality"]


@pytest.mark.parametrize("eps", [1.0, 1e-8, 1e-9, 1e-12])
def test_barthe_eval_phi_off_critical_reads_strict_at_every_scale(eps, tmp_path, capsys):
    # Phi = diag(eps, 3 eps, 1) on three lines in a plane beside an axis maps
    # no line into itself; eps scales the plane's block alone, so the ratio
    # does not move, and each entry's test is held to its own scale
    datum, phi = tmp_path / "d.json", tmp_path / "phi.json"
    datum.write_text(json.dumps(direct_sum_data([planar_lines_datum(3), axis_datum(1)]).to_json()))
    phi.write_text(json.dumps(np.diag([eps, 3.0 * eps, 1.0]).tolist()))
    code, out, err = run_cli(capsys, ["barthe-eval", str(datum), "--phi", str(phi)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["equality"] is False
    assert abs(np.log(report["ratio"]) - np.log(1.1689223311520711)) <= report["est_error"]


def test_barthe_eval_phi_off_critical_on_lines(tmp_path, capsys):
    # diag(2, 1) on three lines in R^2 evaluates; diag(1e-320, 1) has a
    # subnormal eigenvalue, whose rounding no budget bounds, and is refused
    datum, phi = tmp_path / "lines.json", tmp_path / "phi.json"
    datum.write_text(json.dumps(planar_lines_datum(3).to_json()))
    phi.write_text(json.dumps([[2.0, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, ["barthe-eval", str(datum), "--phi", str(phi)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["equality"] is False
    assert report["ratio"] == pytest.approx(1.0413914, abs=1e-7)
    phi.write_text(json.dumps([[1e-320, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, ["barthe-eval", str(datum), "--phi", str(phi)])
    assert (code, out, err) == (1, "", "error: Phi must have no subnormal eigenvalue\n")


def test_barthe_eval_phi_that_loses_a_direction_of_an_entry_is_refused(tmp_path, capsys):
    # diag(1e-76, 1) on a rotated Hoelder pair in R^2: the small direction of each
    # column of Phi F^T lies below the column's rounding, so the QR's r_22 is 0 and
    # R^-1 has no finite rows; a log of 0 once ended this in exit 2
    frame = {"n": 2, "frame": [[0.6, -0.8], [0.8, 0.6]]}
    datum, phi = tmp_path / "d.json", tmp_path / "phi.json"
    datum.write_text(json.dumps({"n": 2, "entries": [{"c": 0.5, "E": frame}, {"c": 0.5, "E": frame}]}))
    phi.write_text(json.dumps([[1e-76, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, ["barthe-eval", str(datum), "--phi", str(phi)])
    assert (code, out, err) == (1, "", "error: the rows R_i^-T F_i leave the double range\n")


def test_barthe_eval_phi_whose_inverse_square_nears_the_largest_double(tmp_path, capsys):
    # Phi^-2 = 1e308 on the Hoelder datum: the assembled operator is
    # symmetrized without overflowing, and both sides are pi^(1/2) / Phi
    holder, phi = tmp_path / "holder.json", tmp_path / "phi.json"
    holder.write_text(json.dumps(HOLDER_JSON))
    phi.write_text(json.dumps([[1e-154]]))
    code, out, err = run_cli(capsys, ["barthe-eval", str(holder), "--phi", str(phi)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lhs"] == report["rhs"] == pytest.approx(np.sqrt(np.pi) * 1e154, rel=1e-12)
    assert report["ratio"] == 1.0


@pytest.mark.parametrize("phi", [1e160, 1e-200])
def test_barthe_eval_phi_whose_square_leaves_double_range(phi, tmp_path, capsys):
    # Phi^2 over- or underflows a double, yet both sides are pi^(1/2) / Phi
    holder, path = tmp_path / "holder.json", tmp_path / "phi.json"
    holder.write_text(json.dumps(HOLDER_JSON))
    path.write_text(json.dumps([[phi]]))
    code, out, err = run_cli(capsys, ["barthe-eval", str(holder), "--phi", str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lhs"] == report["rhs"] == pytest.approx(np.sqrt(np.pi) / phi, rel=1e-12)
    assert abs(report["ratio"] - 1.0) <= report["est_error"] <= 1e-12


def test_barthe_eval_phi_at_condition_1e5_is_one_within_its_budget(tmp_path, capsys):
    # every Phi has critical eigenspaces on the Hoelder datum in R^3, so the
    # ratio is 1; a Gram of Phi^2 would square cond(Phi) = 1e5 to 1e10
    Q = random_rotation(np.random.default_rng(3), 3)
    holder, path = tmp_path / "holder.json", tmp_path / "phi.json"
    holder.write_text(json.dumps(holder_datum(3, [0.5, 0.5]).to_json()))
    path.write_text(json.dumps((Q * [1.0, 1e-3, 1e-5] @ Q.T).tolist()))
    code, out, err = run_cli(capsys, ["barthe-eval", str(holder), "--phi", str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert abs(report["ratio"] - 1.0) <= report["est_error"] <= 1e-6


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


def test_transport_reports_the_spacing_of_its_samples(files, capsys):
    # 2 box / h = 142.86 rounds to 143 cells, so the samples are 10/143 apart, not 0.07
    code, out, _ = run_cli(capsys, [
        "transport", "--f", files["wide"], "--g", files["gauss"], "--grid", "h=0.07,box=5",
    ])
    report = json.loads(out)
    xs = np.array(report["map"]["x"])
    assert code == 0
    assert report["grid_h"] == 10.0 / 143
    assert np.abs(np.diff(xs) - report["grid_h"]).max() < 1e-14


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
    # runs the batched SVD of the sines and the stacked commutator product.
    # d16 with each frame turned by 1.2e-10 fails the closing block test once
    # carried, so its pieces are the components, whole, in G's eigenbasis
    blocks = [paired_planes_datum(3), paired_planes_datum(4), holder_datum(2, [0.3, 0.7]),
              planar_lines_datum(3), axis_datum(4)]
    rng = np.random.default_rng(7)
    for name, d in (("d16", direct_sum_data(blocks)), ("copies16", sixteen_copies()),
                    ("d16-turned", direct_sum_data(blocks))):
        d = rotate_datum(d, random_rotation(rng, d.ambient_dim))
        if name == "d16-turned":
            obj = d.to_json()
            for entry in obj["entries"]:
                entry["E"]["frame"] = turned(rng, entry["E"]["frame"], 1.2e-10)
            d = GeometricBLDatum.from_json(obj)
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


def test_closed_form_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 16 copies of four lines in R^2, rotated: n = 32 and k = 64, so the
    # stacked rows B^T of each closed form are 64 x 32, tall enough that
    # LAPACK could block and thread their QR
    rng = np.random.default_rng(5)
    d = direct_sum_data([planar_lines_datum(4)] * 16)
    d = rotate_datum(d, random_rotation(rng, d.ambient_dim))
    phi = sum((1.0 + 0.1 * j) * V.basis @ V.frame for j, V in enumerate(indecomposable_decomposition(d)))
    phi = 0.5 * (phi + phi.T)
    A = [0.5 * (B + B.T) for B in (E.frame @ phi @ E.basis for E, _ in d.entries)]
    paths = {}
    for name, obj in (("datum", d.to_json()), ("phi", phi.tolist()), ("A", [B.tolist() for B in A])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    for args in (["detcheck", paths["datum"], "--A", paths["A"]],
                 ["bl-eval", paths["datum"], "--A", paths["A"]],
                 ["barthe-eval", paths["datum"], "--phi", paths["phi"]]):
        seen = set()
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "blgeo", *map(str, args)],
                                  capture_output=True, env=env, check=True)
            seen.add(proc.stdout)
        assert len(seen) == 1, args[0]
        assert json.loads(seen.pop()).get("equality", True)


def test_dual_bt_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a cross-polytope, a box and a random polytope in R^4 under a cover with
    # sections of every dimension: every verdict is exact, so no bit may move
    rng = np.random.default_rng(11)
    half = rng.uniform(0.5, 2.0, 4)
    bodies = {"cross": [list(s * a * np.eye(4)[j]) for j, a in enumerate(half) for s in (1, -1)],
              "box": [list(v) for v in itertools.product(*[(-a, a) for a in half])],
              "random": rng.standard_normal((30, 4)).tolist()}
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"n": 4, "s": 2, "sets": [[1, 2, 3], [4], [1], [2, 3, 4]]}))
    for name, vertices in bodies.items():
        body = tmp_path / f"{name}.json"
        body.write_text(json.dumps({"n": 4, "vertices": vertices}))
        seen = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "blgeo", "dual-bt", str(cover), str(body)],
                                  capture_output=True, env=env, check=True)
            seen.add(proc.stdout)
        assert len(seen) == 1, name


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

PLANE_JSON = {"n": 2, "frame": [[1, 0], [0, 1]]}
FAR_GRID_JSON = {"kind": "grid", "domain": LINE_JSON, "lo": [100.0], "h": 0.5, "values": [1.0, 1.0]}
NESTED_JSON = {"kind": "factorized", "domain": LINE_JSON, "factors": [
    {"subspace": LINE_JSON, "density": {"kind": "factorized", "domain": LINE_JSON,
                                        "factors": [{"subspace": LINE_JSON, "density": GAUSS_JSON}]}}]}
# reachable refusals, each as (command, {flag: side}, the message it must start with);
# the datum is the Hoelder pair in R (in R^3 for phi_shape)
REFUSALS = {
    "density_count": ("barthe-eval", {"--densities": [GAUSS_JSON]}, "need one density per entry: expected 2, got 1"),
    "zero_mass": ("barthe-eval", {"--densities": [FAR_GRID_JSON, GAUSS_JSON]},
                  "a density has zero mass on the declared box"),
    "density_ambient": ("barthe-eval",
                        {"--densities": [GAUSS_JSON, dict(GAUSS_JSON, domain=PLANE_JSON, A=np.eye(2).tolist())]},
                        "density 1 lives in R^2, the datum in R^1"),
    "critical_ambient": ("critical", {"": {"n": 2, "frame": [[1, 0]]}},
                         "subspace ambient dimension does not match the datum"),
    "transport_plane": ("transport", {"--f": dict(GAUSS_JSON, domain=PLANE_JSON, A=np.eye(2).tolist()),
                                      "--g": GAUSS_JSON}, "transport works on densities over a 1-D subspace"),
    "growth_samples": ("transport", {"--f": GAUSS_JSON, "--g": GAUSS_JSON, "--grid": "h=1,box=4"},
                       "growth estimate needs at least 10 samples"),
    "theta_zero": ("transport", {"--f": dict(GAUSS_JSON, theta=0), "--g": GAUSS_JSON},
                   "gaussian scale theta must be positive"),
    "nested_factorized": ("transport", {"--f": NESTED_JSON, "--g": GAUSS_JSON},
                          "unsupported density kind for transport: FactorizedDensity"),
    "empty_factors": ("transport", {"--f": {"kind": "factorized", "domain": LINE_JSON, "factors": []},
                                    "--g": GAUSS_JSON}, "factorized density needs at least one factor"),
    "phi_shape": ("barthe-eval", {"--phi": np.eye(2).tolist()}, "Phi must be 3 x 3"),
    "phi_subnormal": ("barthe-eval", {"--phi": [[1e-320]]}, "Phi must have no subnormal eigenvalue"),
    # the CDF of a Gaussian this narrow rises from 0 to 1 between two samples at h = 0.001
    **{f"transport_step_{A:g}": ("transport", {"--f": dict(GAUSS_JSON, A=[[A]]), "--g": dict(GAUSS_JSON, A=[[A]])},
                                 "a Gaussian's CDF rises from 0 to 1 within one sample step h = 0.001")
       for A in (1e12, 1e308)},
    "t_5000_digits": ("detcheck", {"--t": "[" + "9" * 5000 + "]"}, "malformed JSON in"),
    "t_deep_nesting": ("detcheck", {"--t": "[" * 10 ** 5 + "]" * 10 ** 5}, "malformed JSON in"),
}


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
    "grid_not_a_number", "grid_unknown_key", "grid_repeated_key", "grid_overflow",
    "gaussian_mass_overflow", "gaussian_mass_overflow_densities", "overflowing_bl_sides",
    "overflowing_barthe_sides", "overflowing_ball_sides", "grid_mass_overflow",
    "grid_before_missing_datum", "transport_samples", "overflowing_grid_barthe_sides",
    "overflowing_theta_barthe_sides", "overflowing_phi_barthe_sides", "grid_without_cells",
    "plane_grid_without_cells", "gaussian_over_zero", "density_off_its_line", *REFUSALS,
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
        "grid_without_cells": dict(grid, values=[]),
        "plane_grid_without_cells": dict(grid, domain={"n": 2, "frame": [[1, 0], [0, 1]]},
                                         lo=[0, 0], values=[[]]),
        "gaussian_over_zero": {"kind": "gaussian", "domain": {"n": 1, "frame": []}, "A": []},
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
             "grid_without_cells": "grid values", "plane_grid_without_cells": "grid values",
             "gaussian_over_zero": "1-D subspace",
             "subspace_huge_n": "subspace n", "factor_outside_its_domain": "factor subspace",
             "grid_not_a_number": "--grid h", "grid_unknown_key": "--grid has unknown key 'size'",
             "grid_repeated_key": "--grid repeats key 'box'",
             "transport_samples": "cap 'transport samples' exceeded: 160000001 > 1048576",
             "grid_before_missing_datum": "--grid h",
             "grid_overflow": "grid cell count", "overflowing_report": "grid values",
             "grid_mass_overflow": "grid values",
             "density_off_its_line": "error: density domains must match the datum subspaces",
             **dict.fromkeys(["overflowing_bl_sides", "overflowing_barthe_sides",
                              "overflowing_ball_sides", "overflowing_grid_barthe_sides",
                              "overflowing_theta_barthe_sides", "overflowing_phi_barthe_sides"],
                             "lhs"),
             **dict.fromkeys(weight, "entries[0].c"),
             **{key: "error: " + message for key, (_, _, message) in REFUSALS.items()}}.get(case, "")
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
    elif case in ("grid_not_a_number", "grid_unknown_key", "grid_repeated_key"):
        spec = {"grid_not_a_number": "h=abc,box=4", "grid_unknown_key": "h=0.5,box=4,size=9",
                "grid_repeated_key": "h=0.05,box=4,box=9"}[case]
        argv = ["transport", "--f", gauss, "--g", gauss, "--grid", spec]
    elif case == "transport_samples":
        # 1.6e8 samples: several GB of arrays if it were let through
        argv = ["transport", "--f", gauss, "--g", gauss, "--grid", "h=1e-7,box=8"]
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
    elif case in ("overflowing_grid_barthe_sides", "overflowing_theta_barthe_sides"):
        # each mass is finite, but the weights sum to 2 in R^2: both sides pass 1e600
        lines = planar_lines_datum(3)
        side = dict(grid, values=[1e300] * 4) if "grid" in case else dict(GAUSS_JSON, theta=1e300)
        argv = ["barthe-eval", write("lines.json", json.dumps(lines.to_json())), "--densities",
                write("d.json", json.dumps([dict(side, domain=E.to_json()) for E, _ in lines.entries])),
                "--grid", "h=0.25,box=2"]
    elif case == "density_off_its_line":
        # the second density sits on the first line of the three
        lines = planar_lines_datum(3)
        E = [E.to_json() for E, _ in lines.entries]
        argv = ["barthe-eval", write("lines.json", json.dumps(lines.to_json())), "--densities",
                write("d.json", json.dumps([dict(GAUSS_JSON, domain=E[i]) for i in (0, 0, 2)])),
                "--grid", "h=0.25,box=2"]
    elif case == "overflowing_phi_barthe_sides":
        # det(Phi)^-1 = 1e600 on the Hoelder datum in R^3
        argv = ["barthe-eval", write("holder3.json", json.dumps(holder_datum(3, [0.5, 0.5]).to_json())),
                "--phi", write("phi.json", json.dumps((1e-200 * np.eye(3)).tolist()))]
    elif case in REFUSALS:
        command, sides, _ = REFUSALS[case]
        datum = holder_datum(3, [0.5, 0.5]).to_json() if case == "phi_shape" else HOLDER_JSON
        argv = [command] + ([write("datum.json", json.dumps(datum))] if command != "transport" else [])
        for i, (flag, side) in enumerate(sides.items()):
            if flag != "--grid":
                side = write(f"side{i}.json", side if isinstance(side, str) else json.dumps(side))
            argv += [flag, side] if flag else [side]
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


@pytest.mark.parametrize("command", ["detcheck", "bl-eval"])
def test_the_equality_verdict_does_not_depend_on_the_units_of_the_operators(command, tmp_path, capsys):
    # two copies of the line with c = 1/2: A = 1, 2 is strict at every scale
    # (log_gap 0.0589), including far below 1, where no absolute floor may pass it,
    # and beside an axis with A = R, which must not widen the test on the line
    pair_and_axis = direct_sum_data([holder_datum(1, [0.5, 0.5]), axis_datum(1)]).to_json()
    cases = [(HOLDER_JSON, [[[scale]], [[2.0 * scale]]]) for scale in (1.0, 1e-12, 1e-150, 1e150)]
    cases += [(pair_and_axis, [[[1.0]], [[2.0]], [[big]]]) for big in (1e9, 1e20, 1e100)]
    datum, ops = tmp_path / "datum.json", tmp_path / "A.json"
    for d, A in cases:
        datum.write_text(json.dumps(d))
        ops.write_text(json.dumps(A))
        code, out, _ = run_cli(capsys, [command, str(datum), "--A", str(ops)])
        assert code == 0 and json.loads(out)["equality"] is False


@pytest.mark.parametrize("flag, side", [("--A", [[[1.0]], [[1e60]]]), ("--t", [1.0, 1e60])])
def test_rows_of_very_different_size_keep_their_weight_in_the_qr(flag, side, tmp_path, capsys):
    # two orthogonal lines, rotated, one side 1e60 times the other: without the
    # row sort, Householder QR loses the small row and returns r_22 = 0 (exit 2)
    datum, path = tmp_path / "axes.json", tmp_path / "side.json"
    axes = {"n": 2, "entries": [{"c": 1.0, "E": {"n": 2, "frame": [[0.6, 0.8]]}},
                                {"c": 1.0, "E": {"n": 2, "frame": [[-0.8, 0.6]]}}]}
    datum.write_text(json.dumps(axes))
    path.write_text(json.dumps(side))
    code, out, err = run_cli(capsys, ["detcheck", str(datum), flag, str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    d = GeometricBLDatum.from_json(axes)
    exact = exact_log_det(d, side if flag == "--A" else [[[t]] for t in side])
    assert abs(report["log_lhs"] - exact) <= report["budget"]
    assert report["equality"]  # each line is its own class, and Phi = diag(1, 1e60) in the rotated axes


# entry dimensions 2, 1, 3, 1, 2 in R^3, so the dimension-2 operators are
# checked apart from the dimension-1 ones between them
MIXED_JSON = {"n": 3, "entries": [
    {"c": 0.25, "E": {"n": 3, "frame": [[1, 0, 0], [0, 1, 0]]}},
    {"c": 0.25, "E": {"n": 3, "frame": [[0, 0, 1]]}},
    {"c": 0.5, "E": {"n": 3, "frame": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
    {"c": 0.25, "E": {"n": 3, "frame": [[0, 0, 1]]}},
    {"c": 0.25, "E": {"n": 3, "frame": [[0.6, 0.8, 0], [-0.8, 0.6, 0]]}}]}
MIXED_A = [[[2, 0.5], [0.5, 1]], [[3]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[1.5]],
           [[0.7, 0.1], [0.1, 2]]]


@pytest.mark.parametrize("command", ["detcheck", "bl-eval"])
@pytest.mark.parametrize("entry, A, message", [
    (1, [[1, 0], [0, 1]], "operator shape (2, 2) does not match dim E = 1"),
    (4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "operator shape (3, 3) does not match dim E = 2"),
    (2, [[1, 0, 0], [0, float("nan"), 0], [0, 0, 1]], "operators must be finite"),
    (3, [[float("inf")]], "operators must be finite"),
    (4, [[0.7, 0.1], [0.2, 2]], "operators must be symmetric"),
    (3, [[-1.5]], "operators must be positive definite"),
    (4, [[1, 2], [2, 1]], "operators must be positive definite"),
], ids=["shape", "shape-of-a-plane", "nan", "inf", "asymmetric", "negative", "indefinite"])
def test_a_bad_operator_after_the_first_is_refused(command, entry, A, message, tmp_path, capsys):
    datum, ops = tmp_path / "mixed.json", tmp_path / "A.json"
    datum.write_text(json.dumps(MIXED_JSON))
    ops.write_text(json.dumps(MIXED_A))
    assert run_cli(capsys, [command, str(datum), "--A", str(ops)])[0] == 0
    ops.write_text(json.dumps(MIXED_A[:entry] + [A] + MIXED_A[entry + 1:]))
    assert run_cli(capsys, [command, str(datum), "--A", str(ops)]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--phi", "--A", "--densities"])
def test_a_tiny_asymmetric_matrix_is_refused(flag, tmp_path, capsys):
    # symmetry is held relative to the matrix's own largest entry, so entries
    # far below 1 get no absolute allowance: this one is a shear, not symmetric
    M = [[1e-12, 1e-12], [0.0, 1e-12]]
    plane = {"n": 2, "frame": [[1, 0], [0, 1]]}
    datum, side = tmp_path / "holder.json", tmp_path / "side.json"
    datum.write_text(json.dumps(holder_datum(2, [0.5, 0.5]).to_json()))
    command, value, name = {
        "--phi": ("barthe-eval", M, "Phi"), "--A": ("detcheck", [M, M], "operators"),
        "--densities": ("barthe-eval", [{"kind": "gaussian", "domain": plane, "A": M}] * 2,
                        "gaussian matrix")}[flag]
    side.write_text(json.dumps(value))
    assert run_cli(capsys, [command, str(datum), flag, str(side)]) == (
        1, "", f"error: {name} must be symmetric\n")


def test_an_operator_singular_to_working_precision_is_refused_as_input(tmp_path, capsys):
    # eigenvalues 1 and 1e-17, rotated: eigvalsh may still see both positive,
    # but Cholesky cannot factor the matrix; that is an input error, not exit 2
    datum, ops = tmp_path / "holder.json", tmp_path / "A.json"
    datum.write_text(json.dumps(holder_datum(2, [0.5, 0.5]).to_json()))
    rng = np.random.default_rng(0)
    for _ in range(100):
        R = random_rotation(rng, 2)
        A = (R * [1.0, 1e-17]) @ R.T
        ops.write_text(json.dumps([(0.5 * (A + A.T)).tolist(), np.eye(2).tolist()]))
        code, out, err = run_cli(capsys, ["detcheck", str(datum), "--A", str(ops)])
        assert code == 0 or (code, out, err) == (1, "", "error: operators must be positive definite\n")


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

    monkeypatch.setattr(det_mod, "gram_log_det", lambda rows, kappa: (-1.0, 0.0))
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
    # importing scipy is most of a cold start, and no command needs it: qhull
    # and erf are test oracles only.  numpy.ma (1.3 MB) is loaded by
    # np.unique, np.isin and np.setdiff1d, so no command calls them either
    holder = tmp_path / "holder.json"
    holder.write_text(json.dumps(HOLDER_JSON))
    densities = tmp_path / "densities.json"
    densities.write_text(json.dumps([json.loads(Path(files["gauss"]).read_text())] * 2))
    steps = tmp_path / "steps.json"
    steps.write_text(json.dumps({"kind": "grid", "domain": LINE_JSON, "lo": [-1.0], "h": 0.5,
                                 "values": [1.0, 2.0, 0.5, 1.0]}))
    unit_cover, segment, mixed = (tmp_path / name for name in ("unit.json", "segment.json",
                                                                "mixed.json"))
    unit_cover.write_text(json.dumps({"n": 1, "s": 1, "sets": [[1]]}))
    segment.write_text(json.dumps({"n": 1, "vertices": [[-1.0], [2.0]]}))
    mixed.write_text(json.dumps({"n": 3, "s": 2, "sets": [[1, 2], [3], [1, 2, 3]]}))
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
        ["dual-bt", files["lw_cover"], files["octa"]],
        ["dual-bt", str(unit_cover), str(segment)],
        ["dual-bt", str(mixed), files["octa"]],
        ["covers-induce", files["lw_cover"]],
        ["transport", "--f", files["wide"], "--g", files["gauss"]],
        ["transport", "--f", str(steps), "--g", files["gauss"]],
    ]
    script = ("import contextlib, io, json, sys\n"
              "from blgeo.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
              "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def cold_call(argv):
    """(exit code, stdout, stderr, the modules loaded) of main(argv) as the
    only call of a fresh process; argv = None only imports blgeo."""
    script = ("import contextlib, io, json, sys\n"
              "argv = json.loads(sys.argv[1])\n"
              "out, err, code = io.StringIO(), io.StringIO(), None\n"
              "if argv is None:\n"
              "    import blgeo\n"
              "else:\n"
              "    from blgeo.cli import main\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, err, modules = json.loads(proc.stdout)
    return code, out, err, set(modules)


def test_each_command_loads_only_what_it_calls(files):
    # a cold process pays for every module it imports, compiling it too
    # when no bytecode cache is written; bt and covers-induce count exactly
    for argv in (["bt", files["lw_cover"], files["tromino"]], ["covers-induce", files["lw_cover"]]):
        code, _, _, modules = cold_call(argv)
        assert code == 0 and "numpy" not in modules, argv
    code, _, _, modules = cold_call(["validate", files["r4"]])
    assert code == 0
    assert not modules & {f"blgeo.{name}" for name in ("structure", "determinantal", "integrals",
                                                      "transport", "covers", "hull")}
    assert "numpy" not in cold_call(None)[3]  # `python -m blgeo` imports the package first
    # both detcheck sides run determinantal_high_check, which reads no structure
    for flag, side in (("--t", files["t_eq"]), ("--A", files["A_eye"])):
        code, _, _, modules = cold_call(["detcheck", files["r4"], flag, side])
        assert code == 0 and "blgeo.structure" not in modules, flag


def test_the_package_exports_the_objects_of_its_modules():
    import blgeo
    from blgeo import datum, subspace

    for name in ("GeometricBLDatum", "RankOneDatum", "ValidationReport", "validate_datum"):
        assert getattr(blgeo, name) is getattr(datum, name)
    assert blgeo.Subspace is subspace.Subspace
    assert set(blgeo.__all__) - {"__version__"} == {"GeometricBLDatum", "RankOneDatum", "Subspace",
                                                    "ValidationReport", "validate_datum"}
    with pytest.raises(AttributeError):
        blgeo.no_such_name


def test_numpy_free_commands_refuse_and_report_without_numpy(files, tmp_path):
    from blgeo.subspace import RANK_TOL, RESIDUAL_TOL

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"n": 3, "s": 2, "sets": [[1, 2], [3]]}))
    code, out, err, modules = cold_call(["bt", str(short), files["tromino"]])
    assert (code, out, err) == (1, "", "error: cover is not 2-uniform: its sets hold 3 elements, "
                                       "not s * n = 6\n")
    assert "numpy" not in modules
    code, out, err, modules = cold_call(["covers-induce", files["broken"]])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed JSON in {files['broken']} at line 2, column ")
    assert "numpy" not in modules
    code, out, _, modules = cold_call(["covers-induce", files["lw_cover"]])
    assert code == 0 and "numpy" not in modules
    assert json.loads(out)["tolerances"] == {"rank_rel_tol": RANK_TOL, "residual_tol": RESIDUAL_TOL}


LINES_JSON = planar_lines_datum(3).to_json()
HOLDER3_JSON = holder_datum(3, [0.5, 0.5]).to_json()
HUGE_GAUSS_JSON = dict(GAUSS_JSON, A=[[1.7e308]])
ROTATED_FRAME = {"n": 3, "frame": [[0.6, 0.8, 0.0], [0.8, -0.6, 0.0], [0.0, 0.0, 1.0]]}
ROTATED_HOLDER3_JSON = {"n": 3, "entries": [{"c": 0.5, "E": ROTATED_FRAME}, {"c": 0.5, "E": ROTATED_FRAME}]}


@pytest.mark.parametrize("command, datum, flag, side, message", [
    ("barthe-eval", HOLDER3_JSON, "--phi", (1e308 * np.eye(3)).tolist(), None),
    ("barthe-eval", HOLDER_JSON, "--phi", [[1e308]], None),
    ("detcheck", HOLDER_JSON, "--A", [[[1e308]], [[1.0]]], None),
    ("bl-eval", HOLDER_JSON, "--A", [[[1.7e308]], [[1.7e308]]], None),
    ("barthe-eval", HOLDER3_JSON, "--phi", [[1e308, 1e308, 0], [-1e308, 1e308, 0], [0, 0, 1e308]],
     "Phi must be symmetric"),
    # a Householder step adds 1.7e308 to the norm of a column it reflects
    ("barthe-eval", ROTATED_HOLDER3_JSON, "--phi", (1.7e308 * np.eye(3)).tolist(),
     "Phi F_i^T leaves the double range in its QR factor R_i"),
    # a line's R_i is one entry, which no reflection moves; both sides underflow to 0
    ("barthe-eval", LINES_JSON, "--phi", (1.7e308 * np.eye(2)).tolist(), {"equality": True}),
    # Phi maps the three lines into one to working precision: the budget reads cond(Phi) = 1e300
    ("barthe-eval", LINES_JSON, "--phi", [[1e300, 0], [0, 1]], {"equality": False}),
    ("barthe-eval", HOLDER_JSON, "--densities", [HUGE_GAUSS_JSON] * 2,
     "a density has zero mass on the declared box"),
], ids=["holder3-phi", "holder1-phi", "detcheck-A", "bl-eval-A", "asymmetric-phi", "qr-overflow",
        "lines-phi", "budget-overflow", "densities"])
def test_operators_near_the_largest_double_end_in_a_report_or_a_message(
        command, datum, flag, side, message, tmp_path, capsys):
    # 0.5 (M + M^T) overflows past about 9e307; the halves summed do not
    paths = [tmp_path / "datum.json", tmp_path / "side.json"]
    for path, obj in zip(paths, (datum, side)):
        path.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, [command, str(paths[0]), flag, str(paths[1])])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if message is None or isinstance(message, dict):
        assert (code, err) == (0, "")
        report = json.loads(out)
        if message:  # a --phi report that used to be refused: its verdict and a finite budget
            assert report["equality"] is message["equality"] and math.isfinite(report["est_error"])
    else:
        assert (code, out, err) == (1, "", f"error: {message}\n")


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
