import json

import numpy as np
import pytest

from blgeo.cli import main
from blgeo.covers import UniformCover
from blgeo.datum import make_datum_from_cover, paired_planes_datum
from blgeo.integrals import GaussianDensity
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
    dens = [json.loads(open(files["gauss"]).read())] * 2
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
    code, out, _ = run_cli(capsys, ["dual-bt", files["lw_cover"], files["octa"], "--mc", "5000"])
    report = json.loads(out)
    assert code == 0
    assert report["equality"]
    assert report["mc_volume"] == pytest.approx(4.0 / 3.0, rel=0.1)


def test_covers_induce_subcommand(files, capsys):
    code, out, _ = run_cli(capsys, ["covers-induce", files["lw_cover"]])
    report = json.loads(out)
    assert code == 0
    assert report["partition"] == [[1], [2], [3]]


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


def test_reports_reparse_and_text_format(files, capsys):
    code, out, _ = run_cli(capsys, ["--format", "text", "analyze", files["lw3"]])
    assert code == 0
    assert "independent_subspaces" in out
    code2, out2, _ = run_cli(capsys, ["analyze", files["lw3"]])
    json.loads(out2)  # round-trips


LINE_JSON = {"n": 1, "frame": [[1.0]]}
HOLDER_JSON = {"n": 1, "entries": [{"c": 0.5, "E": LINE_JSON}, {"c": 0.5, "E": LINE_JSON}]}
GAUSS_JSON = {"kind": "gaussian", "domain": LINE_JSON, "A": [[1.0]]}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", [
    "gaussian_without_A", "grid_without_values", "grid_without_h",
    "factorized_without_factors", "nan_frame", "infinite_frame", "nan_operator",
    "overflowing_report",
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
    bad_density = {
        "gaussian_without_A": {"kind": "gaussian", "domain": LINE_JSON},
        "grid_without_values": {k: v for k, v in grid.items() if k != "values"},
        "grid_without_h": {k: v for k, v in grid.items() if k != "h"},
        "factorized_without_factors": {"kind": "factorized", "domain": LINE_JSON},
    }
    if case in bad_density:
        argv = ["transport", "--f", write("f.json", json.dumps(bad_density[case])), "--g", gauss]
    elif case in ("nan_frame", "infinite_frame"):
        # json.dumps writes NaN and Infinity, which json.load reads back
        value = float("nan") if case == "nan_frame" else float("inf")
        datum = {"n": 1, "entries": [{"c": 1.0, "E": {"n": 1, "frame": [[value]]}}]}
        argv = ["validate", write("datum.json", json.dumps(datum))]
    elif case == "nan_operator":
        argv = ["bl-eval", holder, "--A", write("A.json", "[[[NaN]], [[1.0]]]")]
    else:
        # finite inputs whose masses overflow: the report would hold NaN
        huge = dict(grid, values=[1e308] * 4)
        argv = ["barthe-eval", holder, "--densities", write("d.json", json.dumps([huge, huge])),
                "--grid", "h=0.5,box=1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
