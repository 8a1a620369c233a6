"""Command-line front end: JSON in, deterministic JSON (or text) out.

Exit codes: 0 on success, 1 on input errors (malformed JSON with line
and column, cap violations, invalid data), 2 on internal-error
conditions that valid inputs can never produce, including a verified
violation of one of the inequalities.

Identical configurations produce byte-identical reports.  All code
paths are sequential; BLGEO_THREADS is accepted as an upper bound on
parallelism and anything it allows is still scheduled deterministically,
so the setting cannot change the output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import covers as covers_mod
from . import determinantal as det_mod
from . import integrals as int_mod
from . import structure as struct_mod
from . import transport as trans_mod
from .datum import GeometricBLDatum, rank_one_expansion, validate_datum
from .errors import InputError, InternalError
from .subspace import Subspace, Tolerance

SCHEMA = "blgeo/1"


@dataclass
class RunConfig:
    command: str
    inputs: dict
    tol: Tolerance
    grid: object = None
    seed: int = 0
    out_format: str = "json"
    mc_samples: int = 0


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(config: RunConfig, payload: dict) -> str:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    payload["command"] = config.command
    payload["tolerances"] = {
        "rank_rel_tol": config.tol.rank_rel_tol,
        "residual_tol": config.tol.residual_tol,
    }
    # JSON has no NaN or infinity: such a report fails with ValueError (exit 1)
    if config.out_format == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    lines = [f"{k}: {json.dumps(payload[k], sort_keys=True, allow_nan=False)}"
             for k in sorted(payload)]
    return "\n".join(lines) + "\n"


def _threads_cap() -> int:
    raw = os.environ.get("BLGEO_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"BLGEO_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"BLGEO_THREADS must be >= 1, got {cap}")
    return cap


def _load_datum(path: str, config: RunConfig, *, must_be_valid: bool = True) -> GeometricBLDatum:
    d = GeometricBLDatum.from_json(_load_json(path), config.tol)
    report = validate_datum(d, config.tol)
    if must_be_valid and not report.is_valid:
        raise InputError(
            f"datum in {path} does not satisfy the identity (defect {report.defect:.3e})"
        )
    return d


def run(config: RunConfig):
    """Execute one command; returns (exit_code, report_text)."""
    _threads_cap()
    cmd = config.command

    if cmd == "validate":
        d = GeometricBLDatum.from_json(_load_json(config.inputs["datum"]), config.tol)
        report = validate_datum(d, config.tol)
        return (0 if report.is_valid else 1), _emit(config, report.to_json())

    if cmd == "analyze":
        d = _load_datum(config.inputs["datum"], config)
        report = struct_mod.independent_subspaces(d, config.tol)
        return 0, _emit(config, report.to_json())

    if cmd == "critical":
        d = _load_datum(config.inputs["datum"], config)
        V = Subspace.from_json(_load_json(config.inputs["subspace"]), config.tol)
        report = struct_mod.is_critical(d, V, config.tol)
        return 0, _emit(config, report.to_json())

    if cmd == "detcheck":
        d = _load_datum(config.inputs["datum"], config)
        if "t" in config.inputs:
            r = rank_one_expansion(d)
            t = np.asarray(_load_json(config.inputs["t"]), dtype=float)
            result = det_mod.ball_barthe_check(r, t, config.tol)
        else:
            A_list = [np.asarray(A, dtype=float) for A in _load_json(config.inputs["A"])]
            result = det_mod.determinantal_high_check(d, A_list, config.tol)
        if result.log_gap < -1e-9:
            raise InternalError(
                f"determinantal inequality violated: log_gap = {result.log_gap:.3e}"
            )
        return 0, _emit(config, result.to_json())

    if cmd == "bl-eval":
        d = _load_datum(config.inputs["datum"], config)
        A_list = [np.asarray(A, dtype=float) for A in _load_json(config.inputs["A"])]
        check = det_mod.determinantal_high_check(d, A_list, config.tol)
        ev = int_mod.bl_eval_from_check(check)
        if ev.ratio > 1.0 + 1e-9:
            raise InternalError(f"Brascamp-Lieb ratio exceeds 1: {ev.ratio:.12g}")
        payload = ev.to_json()
        payload["equality"] = check.equality
        return 0, _emit(config, payload)

    if cmd == "barthe-eval":
        d = _load_datum(config.inputs["datum"], config)
        if "phi" in config.inputs:
            Phi = np.asarray(_load_json(config.inputs["phi"]), dtype=float)
            ev = int_mod.gaussian_barthe_eval(d, Phi, config.tol)
        else:
            dens = [int_mod.Density.from_json(obj, config.tol)
                    for obj in _load_json(config.inputs["densities"])]
            ev = int_mod.supconv_eval(d, dens, config.grid, config.tol)
        if ev.lhs < ev.rhs * (1.0 - max(ev.est_error, 1e-9)):
            raise InternalError(
                f"Barthe inequality violated beyond the error budget: "
                f"lhs {ev.lhs:.12g} < rhs {ev.rhs:.12g}"
            )
        return 0, _emit(config, ev.to_json())

    if cmd == "transport":
        f = int_mod.Density.from_json(_load_json(config.inputs["f"]), config.tol)
        g = int_mod.Density.from_json(_load_json(config.inputs["g"]), config.tol)
        T = trans_mod.brenier_1d(f, g, config.grid)
        resid = trans_mod.monge_ampere_residual(T, f, g)
        growth = trans_mod.linear_growth_estimate(T)
        payload = {
            "map": T.to_json(),
            "monge_ampere_residual": resid,
            "grid_h": config.grid.h,
            "growth": growth.to_json(),
        }
        return 0, _emit(config, payload)

    if cmd == "bt":
        cover = covers_mod.UniformCover.from_json(_load_json(config.inputs["cover"]))
        body = covers_mod.VoxelBody.from_json(_load_json(config.inputs["body"]))
        result = covers_mod.bt_check(body, cover)
        if not result.holds:
            raise InternalError(
                f"Bollobas-Thomason inequality violated: {result.lhs} > {result.rhs}"
            )
        return 0, _emit(config, result.to_json())

    if cmd == "dual-bt":
        cover = covers_mod.UniformCover.from_json(_load_json(config.inputs["cover"]))
        body = covers_mod.PointPolytope.from_json(_load_json(config.inputs["polytope"]))
        rng = np.random.default_rng(config.seed)
        result = covers_mod.dual_bt_check(body, cover, mc_samples=config.mc_samples, rng=rng)
        if not result.holds:
            raise InternalError(
                f"dual Bollobas-Thomason inequality violated: {result.lhs:.12g} < {result.rhs:.12g}"
            )
        return 0, _emit(config, result.to_json())

    if cmd == "covers-induce":
        cover = covers_mod.UniformCover.from_json(_load_json(config.inputs["cover"]))
        ok, counts = covers_mod.validate_cover(cover)
        if not ok:
            raise InputError(f"cover is not {cover.s}-uniform (multiplicities {counts})")
        partition = covers_mod.induced_one_cover(cover)
        payload = {"partition": [sorted(b) for b in partition],
                   "multiplicities": list(counts)}
        return 0, _emit(config, payload)

    raise InputError(f"unknown command {cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blgeo",
        description="Verify geometric Brascamp-Lieb structure, determinantal "
                    "inequalities, both integral inequalities, and "
                    "Bollobas-Thomason covers at desk scale.",
    )
    p.add_argument("--rank-tol", type=float, default=1e-9, help="relative rank threshold")
    p.add_argument("--residual-tol", type=float, default=1e-9, help="residual threshold")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sanity checks")
    p.add_argument("--format", choices=["json", "text"], default="json")
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
    sp.add_argument("--grid", default="h=0.05,box=±4", help="grid spec, e.g. h=0.05,box=±4")
    sp = sub.add_parser("transport", help="1-D monotone rearrangement")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--grid", default="h=0.001,box=±8")
    sp = sub.add_parser("bt", help="Bollobas-Thomason on a voxel body")
    sp.add_argument("cover")
    sp.add_argument("body")
    sp = sub.add_parser("dual-bt", help="dual Bollobas-Thomason on a polytope")
    sp.add_argument("cover")
    sp.add_argument("polytope")
    sp.add_argument("--mc", type=int, default=0, help="Monte Carlo sanity samples")
    sp = sub.add_parser("covers-induce", help="induced 1-uniform cover")
    sp.add_argument("cover")
    return p


def config_from_args(args) -> RunConfig:
    tol = Tolerance(rank_rel_tol=args.rank_tol, residual_tol=args.residual_tol)
    inputs = {}
    for key in ("datum", "subspace", "cover", "body", "polytope"):
        if getattr(args, key, None) is not None:
            inputs[key] = getattr(args, key)
    for key in ("t", "A", "phi", "densities", "f", "g"):
        if getattr(args, key, None) is not None:
            inputs[key] = getattr(args, key)
    grid = None
    if getattr(args, "grid", None) is not None:
        grid = int_mod.GridSpec.parse(args.grid)
    return RunConfig(
        command=args.command,
        inputs=inputs,
        tol=tol,
        grid=grid,
        seed=args.seed,
        out_format=args.format,
        mc_samples=getattr(args, "mc", 0),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        code, text = run(config)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
