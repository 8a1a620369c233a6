#!/usr/bin/env python3
"""Benchmark of blgeo: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload structure-dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; blgeo is imported from its src/.
With --trace 0 it measures one workload and prints the end-to-end
metrics.  With --trace 1 it runs every workload's round once in
process, under spans around the calls into each blgeo module, and
prints the per-layer metrics; the trace overhead is measured on the
named workload.  --short runs every kind of verdict, with its checks,
as a smoke test.  The last line of stdout is one JSON object.
"""

import os

# one BLAS and OpenMP thread here and in every child, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = {"cli-cold": "cli_cold", "structure-dense": "structure_dense",
             "barthe-grid": "barthe_grid"}
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import blgeo.cli; "
                "print(time.perf_counter() - t, len(sys.modules))")
IMPORT_PROBES = 3
CLI_TRACE_ROUNDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--short", action="store_true", help="smoke test: every kind of verdict")
    return p.parse_args(argv)


def import_workload(name: str):
    """Import a workload module; for the in-process ones this imports blgeo."""
    module = importlib.import_module(WORKLOADS[name])
    blgeo = sys.modules.get("blgeo")
    if blgeo is not None and Path(blgeo.__file__).resolve().parent != SRC / "blgeo":
        raise SystemExit(f"error: blgeo was imported from {blgeo.__file__}, not from {SRC}")
    return module


def run_untraced(args):
    from common import children_peak_rss_mb, end_to_end, run_rounds, self_peak_rss_mb

    t0 = time.perf_counter()
    W = import_workload(args.workload)
    import_s = time.perf_counter() - t0
    if args.workload == "cli-cold":
        runner, items, setup_s = W.setup(ROOT, args.seed)
        run_one, peak = runner.run_item, children_peak_rss_mb
    else:
        items, setup_s = W.setup(args.seed, args.short, import_s)
        run_one, peak = W.run_item, self_peak_rss_mb
    verdicts = run_rounds(items, run_one, 0.0 if args.short else args.seconds, W.MIN_ROUNDS)
    return verdicts, end_to_end([v.seconds for v in verdicts], setup_s, peak())


def import_probe():
    """Median cold import time of blgeo.cli and the modules it leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, modules = [], set()
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, count = proc.stdout.split()
        times.append(float(seconds))
        modules.add(int(count))
    return statistics.median(times) * 1e3, max(modules)


def run_traced(args):
    CC, SD, BG = (import_workload(name) for name in WORKLOADS)
    import blgeo.cli as cli
    from spans import SpanTable, Tracer

    import_ms, modules_loaded = import_probe()
    # an in-process call takes milliseconds: repeat the round so that the
    # trace overhead is measured on more than noise
    cli_items = CC.build_round(ROOT, args.seed) * CLI_TRACE_ROUNDS
    inproc = CC.InProcessRunner(ROOT, cli)
    for call in cli_items[:len(cli_items) // CLI_TRACE_ROUNDS]:  # untimed warm-up
        inproc.run_item(call)
    untraced = {"cli-cold": [inproc.run_item(c) for c in cli_items]}
    sd_items, _ = SD.setup(args.seed, args.short, 0.0)
    bg_items, _ = BG.setup(args.seed, args.short, 0.0)
    if args.workload == "structure-dense":
        untraced["structure-dense"] = [SD.run_item(i) for i in sd_items]
    elif args.workload == "barthe-grid":
        untraced["barthe-grid"] = [BG.run_item(i) for i in bg_items]

    passes = [("cli-cold", cli_items, inproc.run_item, lambda c: c.command),
              ("structure-dense", sd_items, SD.run_item, lambda i: i.family),
              ("barthe-grid", bg_items, BG.run_item, lambda i: i.kind)]
    traced = {}
    tracer = Tracer()
    tracer.install()
    try:
        for name, items, run_one, tag in passes:
            verdicts = []
            for item in items:
                with tracer.verdict(tag(item)):
                    verdicts.append(run_one(item))
            traced[name] = (verdicts, SpanTable(tracer.take()))
    finally:
        tracer.uninstall()

    cli_v, cli_t = traced["cli-cold"]
    sd_v, sd_t = traced["structure-dense"]
    bg_v, bg_t = traced["barthe-grid"]
    nv = len(sd_t.verdicts())
    analyze = sd_t.calls("structure.independent_subspaces")
    in_analyze = set(sd_t.within("structure.independent_subspaces"))
    bl = cli_t.verdicts("bl-eval")
    grid_items = [i for i in bg_items if i.f is None]
    sizes = [BG.candidates(i) for i in grid_items]
    rel_errs = [abs(v.info["rel_err"]) for v in bg_v if "rel_err" in v.info]
    w_traced = sum(v.seconds for v in traced[args.workload][0])
    w_untraced = sum(v.seconds for v in untraced[args.workload])

    m = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.modules_loaded": (modules_loaded, "count"),
        "cli.run_ms": (statistics.median(v.seconds for v in untraced["cli-cold"]) * 1e3, "ms"),
        "subspace.calls": (len(sd_t.calls(layer="subspace")) / nv, "count"),
        "subspace.self_ms": (sd_t.self_ms("subspace", nv), "ms"),
        "datum.validate_ms": (sd_t.mean_ms(sd_t.calls("datum.validate_datum")), "ms"),
        "datum.expansions": (len(sd_t.calls("datum.rank_one_expansion")) / nv, "count"),
    }
    for family in ("cover", "dependent", "reframed"):
        m[f"structure.analyze_ms.{family}"] = (
            sd_t.mean_ms(sd_t.calls("structure.independent_subspaces", tag=family)), "ms")
    m.update({
        "structure.intersections": (
            sum(i in in_analyze for i in sd_t.calls("subspace.intersect")) / len(analyze),
            "count"),
        "structure.critical_calls": (len(sd_t.calls("structure.is_critical")) / nv, "count"),
        "structure.critical_ms": (sd_t.mean_ms(sd_t.calls("structure.is_critical")), "ms"),
        "determinantal.high_check_calls": (
            len(cli_t.calls("determinantal.determinantal_high_check", tag="bl-eval")) / len(bl),
            "count"),
        "determinantal.self_ms": (sd_t.self_ms("determinantal", nv), "ms"),
        "integrals.closed_form_ms": (
            sd_t.mean_ms(sd_t.calls("integrals.gaussian_bl_eval")
                         + sd_t.calls("integrals.gaussian_barthe_eval"), total=nv), "ms"),
        "integrals.supconv_ms": (bg_t.mean_ms(bg_t.calls("integrals.supconv_eval")), "ms"),
        "integrals.supconv_cells": (statistics.mean(c for c, _ in sizes), "count"),
        "integrals.supconv_candidates": (statistics.mean(c for _, c in sizes), "count"),
        "integrals.supconv_rel_err": (max(rel_errs), "ratio"),
        "transport.brenier_ms": (bg_t.mean_ms(bg_t.calls("transport.brenier_1d")), "ms"),
        "transport.samples": (BG.TRANSPORT_GRID.count + 1, "count"),
        "covers.self_ms": (sd_t.self_ms("covers", len(sd_t.verdicts("cover"))), "ms"),
        "trace.overhead_pct": (100.0 * (w_traced / w_untraced - 1.0), "%"),
    })

    supconv_ms = [bg_t.dur[i] * 1e3 for i in bg_t.calls("integrals.supconv_eval")]
    table = []
    for item, (cells, cand), ms in zip(grid_items, sizes, supconv_ms):
        table.append({"kind": item.kind, "n": item.d.ambient_dim, "h": item.grid.h,
                      "block_dims": [E.dim for E, _ in item.d.entries], "cells": cells,
                      "candidates": cand, "supconv_ms": ms,
                      "rel_err": item.info.get("rel_err"), "est_error": item.info["est_error"]})
    print("barthe-grid items: relative error of lhs against the closed form, and est_error")
    for row in table:
        rel = "      -" if row["rel_err"] is None else f"{row['rel_err']:+.4f}"
        print(f"  {row['kind']:18s} n={row['n']} h={row['h']:<5g} dims={row['block_dims']} "
              f"cells={row['cells']:<6d} candidates={row['candidates']:<9d} "
              f"{row['supconv_ms']:8.1f} ms  rel_err={rel}  est_error={row['est_error']:.4f}")
    print("per-layer metrics:")
    for key, (value, unit) in m.items():
        print(f"  {key:34s} {value:12.4f} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"metrics": {k: v for k, (v, _) in m.items()}, "barthe_items": table,
                   "summary": {name: t.summary() for name, (_, t) in traced.items()},
                   "spans": {name: t.spans for name, (_, t) in traced.items()}}, fh)
    all_verdicts = cli_v + sd_v + bg_v + [v for vs in untraced.values() for v in vs]
    return traced[args.workload][0], m, all(v.expected for v in all_verdicts)


def report(verdicts, metrics, correct):
    kinds = Counter(v.kind for v in verdicts)
    failed = Counter(v.kind for v in verdicts if v.failed)
    for kind in sorted(kinds):
        print(f"  {kind:20s} {kinds[kind]:4d} verdicts, {failed[kind]} failed")
    for v in verdicts:
        if not v.expected:
            print(f"unexpected failure in {v.kind}: {v.failures}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blgeo" / "__init__.py").is_file():
        print(f"error: no blgeo sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        verdicts, metrics, correct = run_traced(args)
    else:
        verdicts, metrics = run_untraced(args)
        correct = all(v.expected for v in verdicts)
    report(verdicts, metrics, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
