"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from conftest import indicator_density, random_uniform_cover

from blgeo.covers import (
    PointPolytope,
    UniformCover,
    VoxelBody,
    bt_check,
    dual_bt_check,
    induced_one_cover,
)
from blgeo.datum import (
    holder_datum,
    make_datum_from_cover,
    paired_planes_datum,
    random_datum,
    rank_one_expansion,
    validate_datum,
)
from blgeo.determinantal import (
    ball_barthe_check,
    cauchy_binet_expansion,
    determinantal_high_check,
    min_norm_decomposition,
)
from blgeo.integrals import (
    ExtremizerParams,
    GaussianDensity,
    GridDensity,
    GridSpec,
    build_extremizer,
    convolve_density,
    gaussian_barthe_eval,
    gaussian_bl_eval,
    supconv_eval,
)
from blgeo.structure import (
    bowtie_classes,
    indecomposable_decomposition,
    independent_subspaces,
    is_critical,
)
from blgeo.subspace import equal, full_subspace, orthonormalize, projection_matrix

LINE = full_subspace(1)


def report(num, ok, detail=""):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def aligned_phi(rng, d):
    """A positive definite operator whose eigenspaces are the canonical
    indecomposable critical subspaces, with distinct random eigenvalues."""
    parts = indecomposable_decomposition(d)
    lams = 0.5 + 1.5 * rng.random(len(parts)) + 0.01 * np.arange(len(parts))
    Phi = sum(lam * projection_matrix(V) for lam, V in zip(lams, parts))
    return Phi, parts


def test_criterion_1_paired_planes_structure():
    t0 = time.monotonic()
    d = paired_planes_datum()
    rep = validate_datum(d)
    ok = rep.is_valid and rep.defect < 1e-12
    sr = independent_subspaces(d)
    ok = ok and len(sr.independent_subspaces) == 0
    ok = ok and sr.dependent_subspace.dim == 4
    for t in (0.0, 0.3, np.pi / 4, np.pi / 2):
        vecs = []
        for j in range(3):
            a = np.pi * j / 3
            u = np.array([np.cos(a), np.sin(a), 0.0, 0.0])
            v = np.array([0.0, 0.0, np.cos(a), np.sin(a)])
            vecs.append(np.cos(t) * u + np.sin(t) * v)
        V = orthonormalize(vecs, ambient_dim=4)
        ok = ok and is_critical(d, V).is_critical
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0,
           f"defect={rep.defect:.2e} dep_dim={sr.dependent_subspace.dim} t={elapsed:.2f}s")


def test_criterion_2_rank_one_determinantal():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    min_gap = math.inf
    flips = 0
    worst_cb = 0.0
    for trial in range(1000):
        d = random_datum(rng, max_dim=6, max_vectors=12)
        r = rank_one_expansion(d)
        t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), r.k))
        res = ball_barthe_check(r, t)
        min_gap = min(min_gap, res.log_gap)
        assert res.log_gap >= -1e-9

        cb = cauchy_binet_expansion(r, t)
        assert abs(float(cb.minor_weights.sum()) - 1.0) <= 1e-9
        marg = np.zeros(r.k)
        for I, w in zip(cb.subsets, cb.minor_weights):
            for i in I:
                marg[i] += w
        assert np.abs(marg - r.weights).max() <= 1e-9
        det_err = abs(cb.weighted_sum - cb.determinant) / max(abs(cb.determinant), 1e-300)
        worst_cb = max(worst_cb, det_err)
        assert det_err <= 1e-9

        classes = bowtie_classes(r)
        multi = [c for c in classes if len(c) >= 2]
        if multi:
            tc = np.empty(r.k)
            for cls in classes:
                tc[list(cls)] = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
            assert ball_barthe_check(r, tc).equality
            tc[multi[0][0]] *= 1.0 + 1e-3
            flipped = ball_barthe_check(r, tc)
            assert not flipped.equality and flipped.log_gap > 1e-8
            flips += 1
    elapsed = time.monotonic() - t0
    ok = min_gap >= -1e-9 and flips >= 200 and elapsed < 30.0
    report(2, ok, f"min_log_gap={min_gap:.2e} cb_err={worst_cb:.2e} "
                  f"flips={flips} t={elapsed:.1f}s")


def test_criterion_3_higher_rank_determinantal():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for trial in range(200):
        d = random_datum(rng)
        Phi, _ = aligned_phi(rng, d)
        A_list = [E.frame @ Phi @ E.basis for E, _ in d.entries]
        res = determinantal_high_check(d, A_list)
        assert res.equality
        assert np.abs(res.equality_certificate - Phi).max() <= 1e-9
    min_gap = math.inf
    done = 0
    while done < 200:
        d = random_datum(rng)
        # pure orthonormal-basis data make every operator an equality case;
        # strictness is generic only when some class has several vectors
        classes = bowtie_classes(rank_one_expansion(d))
        if all(len(c) == 1 for c in classes):
            continue
        A_list = []
        for E, _ in d.entries:
            M = rng.standard_normal((E.dim, E.dim))
            A_list.append(M @ M.T + 0.3 * np.eye(E.dim))
        res = determinantal_high_check(d, A_list)
        assert res.log_gap > 1e-12
        assert not res.equality
        min_gap = min(min_gap, res.log_gap)
        done += 1
    elapsed = time.monotonic() - t0
    report(3, elapsed < 30.0, f"generic_min_gap={min_gap:.2e} t={elapsed:.1f}s")


def test_criterion_4_gaussian_extremizers():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        d = random_datum(rng)
        Phi, _ = aligned_phi(rng, d)
        ev = gaussian_barthe_eval(d, Phi)
        worst = max(worst, abs(ev.ratio - 1.0))
        assert abs(ev.ratio - 1.0) <= 1e-10

        A_list = [E.frame @ Phi @ E.basis for E, _ in d.entries]
        bl = gaussian_bl_eval(d, A_list)
        assert bl.ratio <= 1.0 + 1e-12
        assert abs(bl.ratio - 1.0) <= 1e-10
        assert determinantal_high_check(d, A_list).equality

        A_gen = []
        for E, _ in d.entries:
            M = rng.standard_normal((E.dim, E.dim))
            A_gen.append(M @ M.T + 0.3 * np.eye(E.dim))
        bl2 = gaussian_bl_eval(d, A_gen)
        assert bl2.ratio <= 1.0 + 1e-12
    report(4, True, f"max|ratio-1|={worst:.2e}")


def test_criterion_5_min_norm_lemma():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(100):
        d = random_datum(rng)
        Phi, _ = aligned_phi(rng, d)
        x = rng.standard_normal(d.ambient_dim)
        res = min_norm_decomposition(d, Phi, x)
        ref = float(np.dot(Phi @ x, Phi @ x))
        err = abs(res.min_value - ref) / max(ref, 1e-12)
        worst = max(worst, err)
        assert err <= 1e-9
        proj_value = sum(
            c * float(np.dot(Phi @ (projection_matrix(E) @ x),
                             Phi @ (projection_matrix(E) @ x)))
            for E, c in d.entries
        )
        assert abs(proj_value - res.min_value) <= 1e-9 * max(ref, 1.0)

    lw = make_datum_from_cover(UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2})))
    q_rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(q_rng.standard_normal((3, 3)))
    Phi = Q @ np.diag([1.0, 2.0, 5.0]) @ Q.T
    x = np.random.default_rng(4).standard_normal(3)
    res = min_norm_decomposition(lw, Phi, x)
    strict = res.min_value < res.reference - 1e-6
    report(5, strict, f"max_rel_err={worst:.2e} strict_gap={res.reference - res.min_value:.3e}")


def test_criterion_6_barthe_numeric():
    t0 = time.monotonic()
    d = holder_datum(1, [0.5, 0.5])

    # equality: shifted common log-concave inputs
    worst_eq = 0.0
    f_ind = indicator_density([(0.0, 1.0)], 0.02, 4.0)
    ev = supconv_eval(d, [f_ind.shift([0.4]), f_ind.shift([-0.2])], GridSpec(0.02, 4.0))
    worst_eq = max(worst_eq, abs(ev.ratio - 1.0))
    assert abs(ev.ratio - 1.0) <= ev.est_error

    g = GaussianDensity(LINE, [[np.pi]])
    ev2 = supconv_eval(d, [g.shift([0.37]), g.shift([-0.19])], GridSpec(0.05, 5.0))
    worst_eq = max(worst_eq, abs(ev2.ratio - 1.0))
    assert abs(ev2.ratio - 1.0) <= ev2.est_error

    # strictness: the bimodal indicator counterexample
    f_bi = indicator_density([(0.0, 1.0), (2.0, 3.0)], 0.02, 4.0)
    ev3 = supconv_eval(d, [f_bi, f_bi], GridSpec(0.02, 4.0))
    assert ev3.ratio >= 1.2
    assert ev3.ratio - 1.0 > 5 * ev3.est_error

    # first-order convergence under grid halving (Gaussian closed form)
    g1 = GaussianDensity(LINE, [[np.pi]])
    g2 = GaussianDensity(LINE, [[np.pi / 4]])
    exact = math.sqrt(np.pi * (0.5 / np.pi + 2.0 / np.pi))
    errs = []
    for h in (0.2, 0.1, 0.05):
        evh = supconv_eval(d, [g1, g2], GridSpec(h, 6.0))
        errs.append(abs(evh.lhs - exact))
    halving_ok = errs[1] <= 0.55 * errs[0] and errs[2] <= 0.55 * errs[1]
    elapsed = time.monotonic() - t0
    report(6, halving_ok and elapsed < 60.0,
           f"max|ratio-1|={worst_eq:.3f} bimodal_ratio={ev3.ratio:.2f} "
           f"halving_errs={[f'{e:.1e}' for e in errs]} t={elapsed:.1f}s")


def test_criterion_7_convolution_closure():
    d = holder_datum(1, [0.5, 0.5])
    rep = independent_subspaces(d)
    centers = -4 + (np.arange(400) + 0.5) * 0.02
    tri = np.clip(1.0 - np.abs(centers), 0.0, None)
    h = GridDensity(LINE, np.array([-4.0]), 0.02, tri)
    fs = build_extremizer(d, rep, ExtremizerParams(
        w=[np.array([0.4]), np.array([-0.2])], h=(h,)))
    base = supconv_eval(d, fs, GridSpec(0.02, 6.0))
    g = GaussianDensity(LINE, [[np.pi]])
    fs_conv = [convolve_density(f, g) for f in fs]
    ev = supconv_eval(d, fs_conv, GridSpec(0.02, 6.0))
    ok = abs(ev.ratio - 1.0) <= ev.est_error
    report(7, ok, f"base_ratio={base.ratio:.4f} convolved_ratio={ev.ratio:.4f}")


def test_criterion_8_transport():
    from blgeo.transport import brenier_1d, monge_ampere_residual
    from scipy.special import erf

    t0 = time.monotonic()
    spec = GridSpec(h=0.001, radius=8.0)
    gstd = GaussianDensity(LINE, [[np.pi]])
    f2 = GaussianDensity(LINE, [[np.pi / 4]], [0.0], 0.5)
    T = brenier_1d(f2, gstd, spec)
    win = np.abs(T.xs) <= 2.0
    map_err = float(np.abs(T.ts[win] - 2.0 * T.xs[win]).max())
    assert map_err < 1e-6
    resid = monge_ampere_residual(T, f2, gstd)
    assert resid < 1e-4

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(20):
        vals = rng.uniform(0.1, 1.0, 32)
        f = GridDensity(LINE, np.array([-4.0]), 0.25, vals)
        Tf = brenier_1d(f, gstd, spec)
        edges = -4.0 + 0.25 * np.arange(33)
        cdf = np.concatenate([[0.0], np.cumsum(vals * 0.25)])
        cdf = cdf / cdf[-1]
        for x in np.linspace(-2.5, 2.5, 21):
            u = 0.5 * (1 + erf(np.sqrt(np.pi) * x))
            lo, hi = -4.0, 4.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(np.interp(mid, edges, cdf)) < u:
                    lo = mid
                else:
                    hi = mid
            worst = max(worst, abs(float(Tf(x)) - 0.5 * (lo + hi)))
        assert worst < 1e-5
    elapsed = time.monotonic() - t0
    report(8, True, f"map_err={map_err:.1e} residual={resid:.1e} "
                    f"oracle_err={worst:.1e} t={elapsed:.1f}s")


def test_criterion_9_covers():
    t0 = time.monotonic()
    lw = UniformCover(3, 2, ({2, 3}, {1, 3}, {1, 2}))
    mixed = UniformCover(3, 2, ({1, 2}, {3}, {1, 2, 3}))
    ok = [sorted(b) for b in induced_one_cover(lw)] == [[1], [2], [3]]
    ok = ok and [sorted(b) for b in induced_one_cover(mixed)] == [[1, 2], [3]]

    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, 4))
        c = random_uniform_cover(rng, n, s)
        d = make_datum_from_cover(c)
        rep = independent_subspaces(d)
        blocks = induced_one_cover(c)
        assert rep.dependent_subspace.dim == 0
        assert len(rep.independent_subspaces) == len(blocks)
        for block in blocks:
            coord = orthonormalize(np.eye(n)[[j - 1 for j in sorted(block)]],
                                   ambient_dim=n)
            assert any(equal(f.subspace, coord) for f in rep.independent_subspaces)

    equalities = 0
    for trial in range(500):
        count = int(rng.integers(1, 200))
        cells = {tuple(int(x) for x in rng.integers(0, 6, 3)) for _ in range(count)}
        K = VoxelBody(3, cells)
        r = bt_check(K, lw)
        assert r.holds
        assert r.equality == (r.lhs == r.rhs)
        equalities += int(r.equality)
    # product bodies must exercise the equality branch
    box = VoxelBody(3, {(i, j, k) for i in range(2) for j in range(3) for k in range(2)})
    rbox = bt_check(box, lw)
    assert rbox.equality

    dr = dual_bt_check(PointPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 2, 0),
                                         (0, -2, 0), (0, 0, 1), (0, 0, -1))), lw)
    assert dr.equality
    assert abs(dr.lhs - 256.0 / 36.0) <= 1e-9 * dr.lhs
    assert abs(dr.rhs - 256.0 / 36.0) <= 1e-9 * dr.rhs
    dr1 = dual_bt_check(PointPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                          (0, -1, 0), (0, 0, 1), (0, 0, -1))), lw)
    assert dr1.equality and abs(dr1.lhs - 16.0 / 9.0) <= 1e-9 * dr1.lhs
    cube = PointPolytope(3, tuple((x, y, z) for x in (-1, 1)
                                  for y in (-1, 1) for z in (-1, 1)))
    dc = dual_bt_check(cube, lw)
    assert dc.holds and not dc.equality
    assert abs(dc.lhs - 64.0) <= 1e-9 * 64.0
    assert abs(dc.rhs - 128.0 / 9.0) <= 1e-9 * dc.rhs
    elapsed = time.monotonic() - t0
    report(9, ok and elapsed < 60.0,
           f"cross_module=50 voxel_eqs={equalities} t={elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    d4 = paired_planes_datum()
    datum_path = tmp_path / "r4.json"
    datum_path.write_text(json.dumps(d4.to_json()))
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps([1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))

    outputs = {}
    for cmd in (["analyze", str(datum_path)],
                ["detcheck", str(datum_path), "--t", str(t_path)]):
        seen = set()
        for threads in ("1", "4", "8"):
            for repeat in range(2):
                env = dict(os.environ, BLGEO_THREADS=threads)
                proc = subprocess.run(
                    [sys.executable, "-m", "blgeo"] + cmd,
                    capture_output=True, env=env, check=True,
                )
                seen.add(proc.stdout)
        outputs[cmd[0]] = seen
        assert len(seen) == 1, f"{cmd[0]} output varies across runs/thread caps"
    report(10, True, "byte-identical across BLGEO_THREADS=1,4,8 x 2 repeats")
