"""Command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 on success, 1 on input errors (malformed JSON with line
and column, cap violations, invalid data), 2 on internal-error
conditions that valid inputs can never produce: a failed linear-algebra
routine, or a violated inequality, which the library's result types
refuse where each verdict is made, so run only loads, calls and prints.

A report depends on its input files alone (and on --grid for the two
grid commands): the rank and residual thresholds are the fixed
constants of subspace.py, and every report prints them.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import covers as covers_mod
from . import determinantal as det_mod
from . import integrals as int_mod
from . import structure as struct_mod
from . import transport as trans_mod
from .datum import GeometricBLDatum, rank_one_expansion, validate_datum
from .errors import InputError, InternalError, plain, read
from .subspace import RANK_TOL, RESIDUAL_TOL, Subspace

SCHEMA = "blgeo/1"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # integers over 4300 digits, deep nesting
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(command: str, report) -> str:
    """The report (a dataclass or a dict) as JSON text; a number JSON
    cannot hold is an InputError naming its field (exit 1)."""
    payload = plain(report, "report")
    payload["schema"] = SCHEMA
    payload["command"] = command
    payload["tolerances"] = {"rank_rel_tol": RANK_TOL, "residual_tol": RESIDUAL_TOL}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _load_datum(path: str) -> GeometricBLDatum:
    d = GeometricBLDatum.from_json(_load_json(path))
    if not d.validated:
        raise InputError(f"datum in {path} does not satisfy the identity (defect {d.defect:.3e})")
    return d


def _load_side(args, key: str):
    """The JSON in the file given to --t, --A, --phi or --densities, read
    as its kind; a matrix that is not square is refused too."""
    shape = {"t": [float], "A": [[[float]]], "phi": [[float]], "densities": [{}]}[key]
    obj = read(_load_json(getattr(args, key)), shape, f"--{key}")
    mats = obj if key == "A" else [obj] if key == "phi" else []
    if any(len(row) != len(M) for M in mats for row in M):
        raise InputError(f"--{key} matrices must be square")
    return obj


def run(args):
    """Execute the command of the parsed arguments; returns (exit_code, report_text)."""
    cmd = args.command

    if cmd == "validate":
        d = GeometricBLDatum.from_json(_load_json(args.datum))
        report = validate_datum(d)
        return (0 if report.is_valid else 1), _emit(cmd, report)

    if cmd == "analyze":
        d = _load_datum(args.datum)
        report = struct_mod.independent_subspaces(d)
        return 0, _emit(cmd, report)

    if cmd == "critical":
        d = _load_datum(args.datum)
        V = Subspace.from_json(_load_json(args.subspace))
        report = struct_mod.is_critical(d, V)
        return 0, _emit(cmd, report)

    if cmd == "detcheck":
        d = _load_datum(args.datum)
        if args.t is not None:
            result = det_mod.ball_barthe_check(rank_one_expansion(d), _load_side(args, "t"))
        else:
            result = det_mod.determinantal_high_check(d, _load_side(args, "A"))
        return 0, _emit(cmd, result)

    if cmd == "bl-eval":
        d = _load_datum(args.datum)
        check = det_mod.determinantal_high_check(d, _load_side(args, "A"))
        ev = int_mod.bl_eval_from_check(check)
        return 0, _emit(cmd, {**vars(ev), "equality": check.equality})

    if cmd == "barthe-eval":
        d = _load_datum(args.datum)
        if args.phi is not None:
            ev = int_mod.gaussian_barthe_eval(d, _load_side(args, "phi"))
        else:
            dens = [int_mod.Density.from_json(obj, f"--densities[{i}]")
                    for i, obj in enumerate(_load_side(args, "densities"))]
            ev = int_mod.supconv_eval(d, dens, args.grid)
        return 0, _emit(cmd, ev)

    if cmd == "transport":
        f = int_mod.Density.from_json(_load_json(args.f), "--f")
        g = int_mod.Density.from_json(_load_json(args.g), "--g")
        T = trans_mod.brenier_1d(f, g, args.grid)
        return 0, _emit(cmd, {
            "map": T,
            "monge_ampere_residual": trans_mod.monge_ampere_residual(T, f, g),
            "grid_h": args.grid.h,
            "growth": trans_mod.linear_growth_estimate(T),
        })

    if cmd == "bt":
        cover = covers_mod.UniformCover.from_json(_load_json(args.cover))
        body = covers_mod.VoxelBody.from_json(_load_json(args.body))
        return 0, _emit(cmd, covers_mod.bt_check(body, cover))

    if cmd == "dual-bt":
        cover = covers_mod.UniformCover.from_json(_load_json(args.cover))
        body = covers_mod.PointPolytope.from_json(_load_json(args.polytope))
        return 0, _emit(cmd, covers_mod.dual_bt_check(body, cover))

    # covers-induce, the last command the parser admits
    cover = covers_mod.UniformCover.from_json(_load_json(args.cover))
    return 0, _emit(cmd, {"partition": covers_mod.induced_one_cover(cover),
                          "multiplicities": (cover.s,) * cover.n})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blgeo",
        description="Verify geometric Brascamp-Lieb structure, determinantal "
                    "inequalities, both integral inequalities, and "
                    "Bollobas-Thomason covers at desk scale.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check sum c_i P_{E_i} = I_n")
    sp.add_argument("datum")
    sp = sub.add_parser("analyze", help="independent/dependent subspace structure")
    sp.add_argument("datum")
    sp = sub.add_parser("critical", help="criticality report for a subspace")
    sp.add_argument("datum")
    sp.add_argument("subspace")
    sp = sub.add_parser("detcheck", help="determinantal inequality check")
    sp.add_argument("datum")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--t", help="JSON list of positive scalars, one per expansion vector")
    g.add_argument("--A", help="JSON list of PD matrices, one per entry")
    sp = sub.add_parser("bl-eval", help="Gaussian Brascamp-Lieb evaluation")
    sp.add_argument("datum")
    sp.add_argument("--A", required=True)
    sp = sub.add_parser("barthe-eval", help="Barthe evaluation (closed form or grid)")
    sp.add_argument("datum")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--phi", help="JSON PD matrix with critical eigenspaces")
    g.add_argument("--densities", help="JSON list of densities, one per entry")
    sp.add_argument("--grid", default="h=0.05,box=±4", type=int_mod.GridSpec.parse,
                    help="grid spec, e.g. h=0.05,box=±4")
    sp = sub.add_parser("transport", help="1-D monotone rearrangement")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--grid", default="h=0.001,box=±8", type=int_mod.GridSpec.parse)
    sp = sub.add_parser("bt", help="Bollobas-Thomason on a voxel body")
    sp.add_argument("cover")
    sp.add_argument("body")
    sp = sub.add_parser("dual-bt", help="dual Bollobas-Thomason on a polytope")
    sp.add_argument("cover")
    sp.add_argument("polytope")
    sp = sub.add_parser("covers-induce", help="induced 1-uniform cover")
    sp.add_argument("cover")
    return p


def main(argv=None) -> int:
    try:
        # a --grid that GridSpec.parse refuses raises InputError here, before any file is read
        code, text = run(build_parser().parse_args(argv))
    except (InternalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory for this input ({exc})", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
