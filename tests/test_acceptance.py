"""Acceptance gate: the numbered criteria of the build, each at its stated
tolerance. One PASS/FAIL line prints per criterion (visible with -s, or in
captured output on failure)."""

import numpy as np
import pytest

from graphsplit import experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_non_normal_counterexample():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])

    def f(theta):
        tt = splitting.relax(t, theta)
        return float(np.linalg.norm(tt @ (tt @ x)))

    target = np.sqrt(5.0) / 4.0
    ok = abs(f(0.5) - target) <= 1e-12
    ok = ok and 0.5 * (f(0.0) + f(1.0)) == 0.5
    ok = ok and f(0.5) > 0.5
    _report(1, "squared-iterate norm of the shift block refutes convexity", ok)


def test_criterion_02_relaxed_projector():
    # The demo checks diag(1, 1 - theta) exactly on the eighth-step grid
    # 0 .. 2, normality to 1e-12, and iso defects of at most 1e-12 at
    # theta = 0 and 1 and above 1e-12 elsewhere.
    ok = experiments.run_demo("relaxed-projector").passed
    _report(2, "relaxed projector is diag(1, 1-theta), iso only at 0 and 1", ok)


def test_criterion_03_rate_formula():
    worst = 0.0
    for seed in range(1, 21):
        op = experiments.random_operator(seed)
        report = splitting.spectral_report(op.T)
        assert report.is_iso_averaged
        for i in range(1, 20):
            theta = i / 10.0
            measured = splitting.spectral_report(splitting.relax(op.T, theta)).rho1
            predicted = splitting.predicted_rate(report.rho1, theta)
            worst = max(worst, abs(measured - predicted))
    _report(3, f"relaxation rate formula, worst deviation {worst:.3e}", worst <= 1e-7)


def test_criterion_04_norm_symmetry():
    worst_excess = 0.0
    for seed in range(1, 21):
        op = experiments.random_operator(seed)
        x = SplitMix64(9000 + seed).normals(op.size)
        defect = experiments.symmetry_check(op.T, x, [i / 10.0 for i in range(1, 10)], 200)
        worst_excess = max(worst_excess, defect / (1.0 + float(np.linalg.norm(x))))
    _report(4, f"iterate-norm symmetry about 1, worst {worst_excess:.3e}", worst_excess <= 1e-8)


def test_criterion_05_graph_equality_characterization():
    records = experiments.graph_equality_trials(seed=1, trials=20)
    ok = all(r.consistent for r in records)
    for make in (
        lambda n: experiments.with_extra_edge(graphs.preset("parallel_down", n), (1, 2)),
        lambda n: graphs.pair(graphs.preset("biparallel", n), graphs.preset("parallel_up", n)),
        lambda n: graphs.pair(graphs.preset("ring", n), graphs.preset("sequential", n)),
    ):
        for d in (1, 2):
            res = experiments.witness_search(make(4), d)
            ok = ok and res.found and res.defect > 1e-6
    mt = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    op = splitting.build(mt, subspaces.product([subspaces.full(2)] * 4))
    ok = ok and splitting.certificates(op.T).iso_defect <= 1e-9
    _report(5, "iso-averagedness classifies exactly by graph equality", ok)


def test_criterion_06_closed_form_c_matrices():
    ok = True
    for d in (1, 2):
        gp = graphs.pair(graphs.preset("biparallel", 4), graphs.preset("parallel_up", 4))
        op = splitting.build(gp, subspaces.product([subspaces.full(d)] * 4), z=graphs.incidence(gp.gp))
        expected = matlin.kron_lift(np.diag([0.5, 0.5, 0.0]), d)
        ok = ok and np.max(np.abs(op.C - expected)) <= 1e-10

        for n in (3, 4):
            gp = graphs.pair(graphs.preset("ring", n), graphs.preset("sequential", n))
            op = splitting.build(gp, subspaces.product([subspaces.full(d)] * n), z=graphs.incidence(gp.gp))
            expected = matlin.kron_lift(experiments.malitsky_tam_c(n), d)
            ok = ok and np.max(np.abs(op.C - expected)) <= 1e-10

        gp = experiments.with_extra_edge(graphs.preset("parallel_down", 4), (1, 2))
        op = splitting.build(gp, subspaces.product([subspaces.full(d)] * 4), z=graphs.incidence(gp.gp))
        expected = matlin.kron_lift(experiments.parallel_down_extra_c(4), d)
        ok = ok and np.max(np.abs(op.C - expected)) <= 1e-10
        ok = ok and splitting.certificates(op.T).normality_defect > 1e-3
    _report(6, "closed-form C matrices for the three catalog pairs", ok)


def test_criterion_07_dr_special_case():
    ok = True
    for angle in (15.0, 30.0, 45.0, 60.0, 75.0):
        rad = np.deg2rad(angle)
        u1 = subspaces.from_generators([np.array([1.0, 0.0])])
        u2 = subspaces.from_generators([np.array([np.cos(rad), np.sin(rad)])])
        op = splitting.build(
            graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2])
        )
        v0 = SplitMix64(int(angle)).normals(2)
        cos = float(np.cos(rad))
        rate_1 = experiments.converge(op, 1.0, v0, eps=1e-10).measured_rate
        rate_half = experiments.converge(op, 0.5, v0, eps=1e-10).measured_rate
        ok = ok and abs(rate_1 - cos) <= 0.02
        ok = ok and abs(rate_half - np.sqrt(0.75 * cos * cos + 0.25)) <= 0.02
    _report(7, "two-subspace rates match the Friedrichs-angle formula", ok)


def test_criterion_08_geometric_example():
    # The demo checks mu to 1e-12, the distance to the closed-form limit after
    # 5000 steps to 1e-8, stop iterations within 1 of each other at 0.2 and
    # 1.8, and the stop at theta = 1 no later than any on the grid 0.2 .. 1.8.
    ok = experiments.run_demo("geometric").passed
    _report(8, "three-lines example: closed-form limit and optimal parameter", ok)


def test_criterion_09_build_equivalence():
    worst = 0.0
    for k in range(50):
        op = experiments.random_operator(seed=300 + k)
        rng = SplitMix64(1300 + k)
        for _ in range(10):
            v = rng.normals(op.size)
            v_next, _ = splitting.apply_iterative(op, v)
            worst = max(
                worst,
                float(np.linalg.norm(v_next - op.T @ v)) / (1.0 + float(np.linalg.norm(v))),
            )
    _report(9, f"dense vs matrix-free application, worst {worst:.3e}", worst <= 1e-9)


def test_criterion_10_strict_decrease():
    ok = True
    for seed in range(1, 11):
        op = experiments.random_operator(seed=400 + seed)
        f = splitting.fix_basis(op.T)
        kernel = matlin.null_space(op.T)
        rng = SplitMix64(1400 + seed)
        for theta in (0.3, 1.0, 1.7):
            x = rng.normals(op.size)
            x = x - f @ (f.T @ x)
            if theta == 1.0 and kernel.shape[1]:
                x = x - kernel @ (kernel.T @ x)
            if float(np.linalg.norm(x)) < 1e-6:
                continue  # degenerate draw; excluded subspace fills the space
            ok = ok and experiments.monotonicity_check(op, theta, x)
    _report(10, "iterate norms decrease strictly down to the floor", ok)


def test_criterion_11_midpoint_convexity():
    worst = -np.inf
    grid = [0.05 * i for i in range(1, 40)]
    for seed in range(41, 51):
        op = experiments.random_operator(seed=seed)
        x = SplitMix64(2000 + seed).normals(op.size)
        for k in (1, 2, 5):
            worst = max(worst, experiments.convexity_check(op.T, x, k, grid))
    _report(11, f"midpoint convexity on the 0.05 grid, worst gap {worst:.3e}", worst <= 1e-9)
