"""Self-tests of the benchmark: generators, oracles, scaled times and span arithmetic.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import graphsplit  # noqa: E402
import numpy as np  # noqa: E402
from graphsplit import cli, experiments, splitting  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def _run_cli(tmp_path, op):
    config_path, out_path = tmp_path / "config.json", tmp_path / "out.txt"
    if op.config is not None:
        config_path.write_text(json.dumps(op.config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(op.argv(str(config_path), str(out_path))) == 0
    return out_path.read_text()


def _lines_config(**extra):
    spaces = [{"kind": "random", "dim": 1, "seed": s} for s in (11, 12, 13)]
    return {"graph": {"preset": "sequential", "n": 3}, "ambient": 2, "spaces": spaces, **extra}


# --- generators -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_a_pure_function_of_the_seed(name):
    make = workloads.GENERATORS[name]
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert json.dumps([op.config for op in first]) == json.dumps([op.config for op in again])
    assert first != other


def test_certify_and_tune_keep_their_size_grid_and_pairs_across_seeds():
    def cell(config):
        n, d = config["graph"]["n"], config["ambient"]
        return n, d, config["graph"]["preset"], config["subgraph"]["preset"]

    for make in (workloads.certify_ops, workloads.tune_ops):
        cells = [sorted(cell(op.config) for op in make(seed)) for seed in (1, 2, 3)]
        assert cells[0] == cells[1] == cells[2]


# --- oracles ----------------------------------------------------------------


def test_certify_oracle_rejects_a_nudged_eigenvalue(tmp_path):
    op = workloads.Op("analyze", config=_lines_config())
    out = json.loads(_run_cli(tmp_path, op))
    assert oracles.check_certify(graphsplit, op, json.dumps(out)) == []
    out["eigenvalues"][0]["re"] += 1e-3
    assert oracles.check_certify(graphsplit, op, json.dumps(out))


def test_certify_oracle_rejects_a_flipped_iso_flag(tmp_path):
    op = workloads.Op("analyze", config=_lines_config())
    out = json.loads(_run_cli(tmp_path, op))
    assert out["is_iso_averaged"] is True
    out["is_iso_averaged"] = False
    assert oracles.check_certify(graphsplit, op, json.dumps(out))


def test_tune_oracle_rejects_an_asymmetric_k_stop_row(tmp_path):
    config = _lines_config(thetas=[0.5, 1.0, 1.5], eps=1e-10, k_max=10000, seed=3)
    op = workloads.Op("sweep", config=config)
    text = _run_cli(tmp_path, op)
    assert oracles.check_tune(graphsplit, op, text) == []
    header, low, middle, high = text.strip().split("\n")
    theta, k_stop, predicted, measured = low.split(",")
    assert k_stop and high.split(",")[1]
    skewed = ",".join([theta, str(int(k_stop) + 5), predicted, measured])
    problems = oracles.check_tune(graphsplit, op, "\n".join([header, skewed, middle, high]) + "\n")
    assert any("k_stop" in p for p in problems)


def test_verify_oracle_rejects_a_failed_summary(tmp_path):
    op = workloads.Op("verify", ("--seed", "5", "--trials", "1"))
    text = _run_cli(tmp_path, op)
    assert oracles.check_verify(graphsplit, op, text) == []
    bad = text.replace("summary: 9/9", "summary: 8/9")
    assert bad != text
    assert oracles.check_verify(graphsplit, op, bad)


def test_verify_oracle_rejects_a_failed_demo(tmp_path):
    op = workloads.Op("demo", ("geometric",))
    text = _run_cli(tmp_path, op)
    assert oracles.check_verify(graphsplit, op, text) == []
    assert oracles.check_verify(graphsplit, op, text.replace("[pass]", "[FAIL]", 1))
    assert oracles.check_verify(graphsplit, op, text.replace(": PASS", ": FAIL", 1))


# --- scaled times -----------------------------------------------------------


def test_an_op_is_scaled_by_the_chunks_on_either_side(monkeypatch):
    chunks = iter([0.002, 0.004, 0.007])
    monkeypatch.setattr(run, "reference_loop", lambda steps=run.REF_STEPS: next(chunks))
    monkeypatch.setattr(run, "run_op", lambda cli, argv, out_path: run.Outcome(1.0, 0, "", 0))
    ops = [workloads.Op("demo", ("geometric",))] * 2
    first, second = run.run_pass(graphsplit, ops, [(Path("c"), Path("o"))] * 2)
    assert (first.ref_before, first.ref_after, second.ref_after) == (0.002, 0.004, 0.007)
    assert first.scaled_seconds == pytest.approx(run.REF_NOMINAL_S / 0.003)
    assert second.scaled_seconds == pytest.approx(run.REF_NOMINAL_S / 0.0055)


def test_quantile_does_not_jump_across_a_gap():
    assert run.quantile(list(range(100)), 0.5) == pytest.approx(49.5)
    assert run.quantile([3.0], 0.9) == pytest.approx(3.0)
    # Two ops crossing the gap move the order-statistic p90 from 2 to 1.
    below, above = [1.0] * 91 + [2.0] * 9, [1.0] * 89 + [2.0] * 11
    assert 1.0 < run.quantile(below, 0.9) < run.quantile(above, 0.9) < 2.0
    assert run.quantile(above, 0.9) - run.quantile(below, 0.9) < 0.3


def test_incomplete_beta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for n in (1, 2, 9, 16, 100, 300):
        for p in (0.5, 0.9):
            a, b = p * (n + 1), (1 - p) * (n + 1)
            for x in np.linspace(0.0, 1.0, 41):
                assert run.betainc(a, b, x) == pytest.approx(special.betainc(a, b, x), abs=1e-12)


# --- spans ------------------------------------------------------------------


def _span(id_, name, parent, start, end):
    return Span(id=id_, name=name, binding=name, parent=parent, op=0, start=start, end=end)


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        _span(0, "splitting.spectral_report", None, 0.0, 10.0),
        _span(1, "matlin.operator_norm", 0, 1.0, 4.0),
        _span(2, "matlin.operator_norm", 0, 3.0, 6.0),  # overlaps its sibling
        _span(3, "matlin.symmetric_eigen", 1, 2.0, 3.0),
        _span(4, "matlin.operator_norm", 0, 9.0, 12.0),  # runs past its parent
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})
    metrics = tracer.layer_metrics(spans)
    assert metrics["splitting.spectral_report.self_s"] == pytest.approx(4.0)
    assert metrics["matlin.operator_norm.calls"] == 3
    assert metrics["matlin.operator_norm.s"] == pytest.approx(9.0)
    assert metrics["matlin.operator_norm.self_s"] == pytest.approx(8.0)
    assert metrics["splitting.norms_per_report"] == 3.0


def test_inclusive_time_counts_only_the_outermost_of_nested_calls():
    spans = [
        _span(0, "splitting.build", None, 0.0, 5.0),
        _span(1, "splitting.build", 0, 1.0, 2.0),
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["splitting.build.calls"] == 2
    assert metrics["splitting.build.s"] == pytest.approx(5.0)
    assert metrics["splitting.build.self_s"] == pytest.approx(5.0)


def test_both_fix_basis_bindings_are_counted():
    op = experiments.three_lines_example()[0]
    trace = tracer.Tracer()
    trace.install(graphsplit)
    try:
        splitting.spectral_report(op.T)  # calls splitting.fix_basis
        experiments.converge(op, 1.0, np.ones(op.size))  # calls the experiments alias
    finally:
        trace.uninstall()
    bindings = sorted(s.binding for s in trace.spans if s.name == "splitting.fix_basis")
    assert bindings == ["experiments.fix_basis", "splitting.fix_basis"]
    assert tracer.layer_metrics(trace.spans)["splitting.fix_basis.calls"] == 2
    assert experiments.fix_basis is splitting.fix_basis
    assert not hasattr(splitting.spectral_report, "__wrapped__")


def test_traced_counts_of_a_report():
    op = experiments.three_lines_example()[0]
    trace = tracer.Tracer()
    trace.install(graphsplit)
    try:
        splitting.spectral_report(op.T)
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics(trace.spans)
    assert metrics["splitting.norms_per_report"] == 6.0
    assert metrics["matlin.general_eigenvalues.n3"] == op.size**3
    assert metrics["matlin.operator_norm.n3"] == 6 * op.size**3
    assert metrics["matlin.symmetric_eigen.calls"] == 6


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == tracer.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        tracer.per_layer_unit(name) for name in tracer.per_layer_names()
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
