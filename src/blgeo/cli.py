"""Command-line front end: JSON in, deterministic JSON out.

Exit codes: 0 on success, 1 on input errors (usage errors, malformed
JSON with line and column, cap violations, invalid data), 2 on internal-error
conditions that valid inputs can never produce: a failed linear-algebra
routine, or a violated inequality, which the library's result types
refuse where each verdict is made, so run only loads, calls and prints.

A report depends on its input files alone (and on --grid for the two
grid commands): the rank and residual thresholds are the fixed
constants of subspace.py, and every report prints them.

Each command imports only the modules it calls, when it runs: a cold
process pays for nothing else, and bt and covers-induce, which count
exactly, never load numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import RANK_TOL, RESIDUAL_TOL, InputError, InternalError, plain, read

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


def _load_datum(path: str):
    from .datum import GeometricBLDatum

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
    if cmd in ("barthe-eval", "transport"):
        from .integrals import Density, GridSpec

        grid = GridSpec.parse(args.grid)  # an InputError here comes before any file is read

    if cmd == "validate":
        from .datum import GeometricBLDatum, validate_datum

        d = GeometricBLDatum.from_json(_load_json(args.datum))
        report = validate_datum(d)
        return (0 if report.is_valid else 1), _emit(cmd, report)

    if cmd == "analyze":
        from .structure import independent_subspaces

        d = _load_datum(args.datum)
        report = independent_subspaces(d)
        return 0, _emit(cmd, report)

    if cmd == "critical":
        from .structure import is_critical
        from .subspace import Subspace

        d = _load_datum(args.datum)
        V = Subspace.from_json(_load_json(args.subspace))
        report = is_critical(d, V)
        return 0, _emit(cmd, report)

    if cmd == "detcheck":
        from .datum import rank_one_expansion
        from .determinantal import ball_barthe_check, determinantal_high_check

        d = _load_datum(args.datum)
        if args.t is not None:
            result = ball_barthe_check(rank_one_expansion(d), _load_side(args, "t"))
        else:
            result = determinantal_high_check(d, _load_side(args, "A"))
        return 0, _emit(cmd, result)

    if cmd == "bl-eval":
        from .determinantal import determinantal_high_check
        from .integrals import bl_eval_from_check

        d = _load_datum(args.datum)
        check = determinantal_high_check(d, _load_side(args, "A"))
        ev = bl_eval_from_check(check)
        return 0, _emit(cmd, {**vars(ev), "equality": check.equality})

    if cmd == "barthe-eval":
        d = _load_datum(args.datum)
        if args.phi is not None:
            from .determinantal import fiber_log_sides
            from .integrals import _barthe_from_check

            check = fiber_log_sides(d, _load_side(args, "phi"))
            ev = _barthe_from_check(d, check)
            return 0, _emit(cmd, {**vars(ev), "equality": check.equality})
        from .integrals import supconv_eval

        dens = [Density.from_json(obj, f"--densities[{i}]")
                for i, obj in enumerate(_load_side(args, "densities"))]
        return 0, _emit(cmd, supconv_eval(d, dens, grid))

    if cmd == "transport":
        from .transport import brenier_1d, linear_growth_estimate, monge_ampere_residual

        f = Density.from_json(_load_json(args.f), "--f")
        g = Density.from_json(_load_json(args.g), "--g")
        T = brenier_1d(f, g, grid)
        return 0, _emit(cmd, {
            "map": T,
            "monge_ampere_residual": monge_ampere_residual(T, f, g),
            "grid_h": 2.0 * grid.radius / grid.count,  # the samples' spacing
            "growth": linear_growth_estimate(T),
        })

    from .covers import UniformCover  # bt, dual-bt and covers-induce: the commands left

    cover = UniformCover.from_json(_load_json(args.cover))
    if cmd == "bt":
        from .covers import VoxelBody, bt_check

        body = VoxelBody.from_json(_load_json(args.body))
        return 0, _emit(cmd, bt_check(body, cover))

    if cmd == "dual-bt":
        from .covers import PointPolytope, dual_bt_check

        body = PointPolytope.from_json(_load_json(args.polytope))
        return 0, _emit(cmd, dual_bt_check(body, cover))

    from .covers import induced_one_cover  # covers-induce, the last command the parser admits

    return 0, _emit(cmd, {"partition": induced_one_cover(cover),
                          "multiplicities": (cover.s,) * cover.n})


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are InputErrors, reported as every other
    input error is (exit 1); its subparsers are of this class too."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    g.add_argument("--phi", help="JSON SPD matrix; equality iff its eigenspaces are critical")
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
    sp = sub.add_parser("covers-induce", help="induced 1-uniform cover")
    sp.add_argument("cover")
    return p


def _internal_errors() -> tuple:
    """InternalError, and numpy's LinAlgError once numpy is loaded: a failed
    linear-algebra routine is internal, though LinAlgError subclasses
    ValueError.  Until numpy is loaded no routine of it can have failed."""
    np = sys.modules.get("numpy")
    return (InternalError,) if np is None else (InternalError, np.linalg.LinAlgError)


def main(argv=None) -> int:
    try:
        code, text = run(build_parser().parse_args(argv))
    except _internal_errors() as exc:  # evaluated as the exception arrives, so before ValueError
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
