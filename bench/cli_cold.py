"""cli-cold: one verdict is one fresh `python -m blgeo <command>` process.

All ten commands take part, on small valid inputs written once in
set-up.  A round runs every command on input set A, then on set B; a
run has at least two rounds, so each output is compared byte for byte
with the same call made before.  Importing numpy and scipy is nearly all of a
cold process, so this workload shows import and CLI work and skips the
heavy layers.

This module does not import blgeo: the measuring process only writes
JSON files, starts processes and checks their output.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blocks as B
import oracles as O
from common import SETUP_REPEATS, Checks, Verdict

COMMANDS = ["validate", "analyze", "critical", "detcheck", "bl-eval", "barthe-eval",
            "transport", "bt", "dual-bt", "covers-induce"]
SETS = ["A", "B"]
MIN_ROUNDS = 2  # the second round repeats every call of the first
PROCESS_TIMEOUT_S = 60
TRANSPORT_H = 0.001


@dataclass
class Call:
    command: str
    set_name: str
    argv: list
    expect: dict


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def dump(path: Path, obj):
    path.write_text(json.dumps(obj))


def datum_json(lay) -> dict:
    return {"n": lay.n, "entries": [{"c": c, "E": {"n": lay.n, "frame": F.tolist()}}
                                    for F, c in zip(lay.frames, lay.weights)]}


def random_cover(rng, n: int, s: int):
    sets = []
    for _ in range(s):
        perm = [int(j) + 1 for j in rng.permutation(n)]
        cut = int(rng.integers(1, n))
        sets += [sorted(perm[:cut]), sorted(perm[cut:])]
    return sets


def write_set(out: Path, name: str, rng) -> list:
    """Write one input set; return the ten calls made on it."""
    p = lambda stem: out / f"{name}-{stem}.json"  # noqa: E731
    m = 3 if name == "A" else 4
    lay = B.direct_sum([B.lines_block(m, rng.uniform(0.0, math.pi)), B.axis_block(),
                        B.holder_block(1, [0.4, 0.6])], rng)
    n = lay.n
    dump(p("datum"), datum_json(lay))
    ds = str(p("datum"))
    calls = [Call("validate", name, [ds], {"dims": [F.shape[0] for F in lay.frames]}),
             Call("analyze", name, [ds], {"lay": lay})]

    if name == "A":
        V, crit, wds = lay.spans[0], True, 2.0
    else:
        V, crit, wds = O.random_rotation(rng, n)[:1], False, 0.0
    dump(p("subspace"), {"n": n, "frame": V.tolist()})
    calls.append(Call("critical", name, [ds, str(p("subspace"))],
                      {"critical": crit, "wds": wds}))

    lambdas = [1.0 + 0.5 * j + rng.uniform(0.0, 0.1) for j in range(len(lay.phi_pieces))]
    phi = sum(lam * O.proj(F) for lam, F in zip(lambdas, lay.phi_pieces))
    phi = 0.5 * (phi + phi.T)
    A_eq = [F @ phi @ F.T for F in lay.frames]
    A_rand = [O.random_spd(rng, F.shape[0]) for F in lay.frames]
    vectors = np.concatenate(lay.frames)
    wts = np.concatenate([[c] * F.shape[0] for F, c in zip(lay.frames, lay.weights)])
    if name == "A":
        t = np.empty(len(wts))
        for cls in lay.classes:
            t[list(cls)] = rng.uniform(0.5, 2.0)
        dump(p("t"), t.tolist())
        calls.append(Call("detcheck", name, [ds, "--t", str(p("t"))],
                          {"equality": True,
                           "log_lhs": O.frame_operator_logdet(vectors, wts, t)}))
    else:
        dump(p("A-rand"), [A.tolist() for A in A_rand])
        calls.append(Call("detcheck", name, [ds, "--A", str(p("A-rand"))],
                          {"equality": False,
                           "log_lhs": O.assembled_logdet(lay.frames, lay.weights, A_rand)}))
    A_bl = A_rand if name == "A" else A_eq
    dump(p("A-bl"), [A.tolist() for A in A_bl])
    calls.append(Call("bl-eval", name, [ds, "--A", str(p("A-bl"))],
                      {"equality": name == "B",
                       "lhs": math.exp(-0.5 * O.assembled_logdet(lay.frames, lay.weights, A_bl))}))

    if name == "A":
        dump(p("phi"), phi.tolist())
        calls.append(Call("barthe-eval", name, [ds, "--phi", str(p("phi"))],
                          {"lhs": math.exp(0.5 * n * math.log(math.pi)
                                           - float(np.linalg.slogdet(phi)[1]))}))
    else:
        w = rng.uniform(0.3, 1.0, 2)
        w = w / w.sum()
        a = rng.uniform(0.5, 3.0, 2)
        line = {"n": 1, "frame": [[1.0]]}
        dump(p("holder"), {"n": 1, "entries": [{"c": float(c), "E": line} for c in w]})
        dump(p("densities"), [{"kind": "gaussian", "domain": line, "A": [[float(x)]]}
                              for x in a])
        lhs, rhs = O.barthe_gaussian_sides([np.eye(1)] * 2, list(w), [np.eye(1) * x for x in a])
        calls.append(Call("barthe-eval", name,
                          [str(p("holder")), "--densities", str(p("densities")),
                           "--grid", "h=0.05,box=5"], {"lhs": lhs, "rhs": rhs}))

    a_g, m_g = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
    line = {"n": 1, "frame": [[1.0]]}
    dump(p("g"), {"kind": "gaussian", "domain": line, "A": [[a_g]], "b": [2.0 * m_g]})
    sigma = 1.0 / math.sqrt(2.0 * a_g)
    xs = TRANSPORT_H * np.round((m_g + sigma * np.linspace(-2.2, 2.2, 20)) / TRANSPORT_H)
    u = [O.gaussian_cdf(a_g, m_g, x) for x in xs]
    if name == "A":
        a_f, m_f = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        dump(p("f"), {"kind": "gaussian", "domain": line, "A": [[a_f]], "b": [2.0 * m_f]})
        expected, tol, resid = m_f + math.sqrt(a_g / a_f) * (xs - m_g), 1e-6, 1e-4
    else:
        vals = rng.uniform(0.1, 1.0, 32)
        dump(p("f"), {"kind": "grid", "domain": line, "lo": [-4.0], "h": 0.25,
                      "values": vals.tolist()})
        cdf = O.grid_cdf(-4.0, 0.25, vals)
        expected = np.array([O.bisect_inverse(cdf, uu, -4.0, 4.0) for uu in u])
        tol, resid = 1e-5, None
    calls.append(Call("transport", name, ["--f", str(p("f")), "--g", str(p("g"))],
                      {"xs": xs, "T": expected, "tol": tol, "residual": resid}))

    sets = random_cover(rng, 4, 2)
    dump(p("cover"), {"n": 4, "s": 2, "sets": sets})
    sides = [int(x) for x in rng.integers(2, 4, 4)]
    minus = name == "B"
    dump(p("body"), {"n": 4, "cells": sorted(list(c) for c in O.box_cells(sides, minus))})
    lhs, rhs = O.box_bt_sides(sides, sets, 2, minus)
    calls.append(Call("bt", name, [str(p("cover")), str(p("body"))],
                      {"lhs": lhs, "rhs": rhs, "equality": not minus}))
    half = [float(x) for x in rng.uniform(0.5, 2.0, 4)]
    kind = "cross" if name == "A" else "box"
    verts = O.cross_polytope(half) if kind == "cross" else O.box_polytope(half)
    dump(p("polytope"), {"n": 4, "vertices": verts})
    lhs, rhs = O.dual_bt_sides(kind, half, sets, 2)
    calls.append(Call("dual-bt", name, [str(p("cover")), str(p("polytope"))],
                      {"lhs": lhs, "rhs": rhs, "equality": kind == "cross"}))
    calls.append(Call("covers-induce", name, [str(p("cover"))],
                      {"partition": O.signature_partition(4, [set(s) for s in sets])}))
    for call in calls:
        call.argv = [call.command] + call.argv
    return calls


def check(call: Call, report: dict, ok: Checks):
    e = call.expect
    ok("schema", report.get("schema") == "blgeo/1" and report.get("command") == call.command)
    cmd = call.command
    if cmd == "validate":
        ok("validate", report["is_valid"] and report["defect"] <= 1e-9
           and report["entry_dims"] == e["dims"])
    elif cmd == "analyze":
        lay = e["lay"]
        got = [(O.proj(np.array(f["subspace"]["frame"])), tuple(f["owners"]))
               for f in report["independent_subspaces"]]
        ok("independent", len(got) == len(lay.independent) and all(
            any(O.same_space(P, Pg) and owners == og for Pg, og in got)
            for P, owners in lay.independent))
        dep = np.array(report["dependent_subspace"]["frame"]).reshape(-1, lay.n)
        ok("dependent", O.same_space(O.proj(dep), O.proj(np.concatenate(lay.dependent_rows))))
    elif cmd == "critical":
        ok("critical", report["is_critical"] is e["critical"]
           and abs(report["weighted_dim_sum"] - e["wds"]) <= 1e-6)
    elif cmd == "detcheck":
        ok("detcheck", report["equality"] is e["equality"] and report["log_gap"] >= -1e-9
           and abs(report["log_lhs"] - e["log_lhs"]) <= 1e-8)
    elif cmd == "bl-eval":
        ok("bl-eval", report["ratio"] <= 1.0 + 1e-12 and report["equality"] is e["equality"])
        ok.close("bl-lhs", report["lhs"], e["lhs"], 1e-9)
    elif cmd == "barthe-eval":
        est = report["est_error"]
        ok("barthe_holds", report["lhs"] >= report["rhs"] * (1.0 - est - 1e-12))
        if "rhs" in e:
            ok("closed_form_inside_budget", abs(report["lhs"] - e["lhs"]) <= est * report["lhs"])
        else:
            ok.close("barthe_lhs", report["lhs"], e["lhs"], 1e-9)
    elif cmd == "transport":
        xs, ts = np.array(report["map"]["x"]), np.array(report["map"]["T"])
        err = float(np.abs(np.interp(e["xs"], xs, ts) - e["T"]).max())
        ok("map", err <= e["tol"])
        if e["residual"] is not None:
            ok("residual", report["monge_ampere_residual"] <= e["residual"])
        ratio = float((np.abs(ts) / np.sqrt(1.0 + xs ** 2)).max())
        ok("growth_sup", abs(report["growth"]["sup_ratio"] - ratio) <= 1e-12)
    elif cmd == "bt":
        ok("bt", report["lhs"] == e["lhs"] and report["rhs"] == e["rhs"] and report["holds"]
           and report["equality"] is e["equality"])
    elif cmd == "dual-bt":
        ok.close("dual_lhs", report["lhs"], e["lhs"], 1e-9)
        ok.close("dual_rhs", report["rhs"], e["rhs"], 1e-9)
        ok("dual_verdict", report["holds"] and report["equality"] is e["equality"])
    elif cmd == "covers-induce":
        ok("induced", report["partition"] == e["partition"]
           and report["multiplicities"] == [2, 2, 2, 2])


class ColdRunner:
    """Starts the cold processes and judges their output.

    Each call's first output is kept, so a repeated call can be compared
    with it byte for byte.
    """

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)
        self.first_output = {}

    def execute(self, argv):
        """(exit code, stdout bytes, stderr bytes, seconds) of one call."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "blgeo", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=PROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def run_item(self, call: Call) -> Verdict:
        code, stdout, stderr, seconds = self.execute(call.argv)
        ok = Checks()
        report = None
        if ok("exit_0", code == 0):
            try:
                report = json.loads(stdout)
            except ValueError:
                ok("valid_json", False)
        else:
            ok(f"stderr: {stderr.decode(errors='replace').strip()[-200:]}", False)
        if report is not None:
            check(call, report, ok)
        first = self.first_output.setdefault((call.command, call.set_name), stdout)
        ok("byte_identical", first == stdout)
        return Verdict(call.command, seconds, ok.failures)


class InProcessRunner(ColdRunner):
    """The same calls through `blgeo.cli.main` in this process, import excluded."""

    def __init__(self, root: Path, cli_module):
        super().__init__(root)
        self.cli = cli_module

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - t0
        return code, out.getvalue().encode(), err.getvalue().encode(), seconds


def input_dir(root: Path) -> Path:
    return root / "bench" / "out" / "cli"


def build_round(root: Path, seed: int) -> list:
    out = input_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    return [call for name in SETS for call in write_set(out, name, rng)]


def setup(root: Path, seed: int):
    """Write the inputs and start one untimed cold process, several times."""
    runner = ColdRunner(root)
    times, items = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = build_round(root, seed)
        runner.run_item(items[0])
        times.append(time.perf_counter() - t0)
    return runner, items, statistics.median(times)
