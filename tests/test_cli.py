"""CLI surface: config ingestion, output formats, determinism, exit codes."""

import contextlib
import functools
import importlib
import io
import json
import math
import operator
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings

import pytest

import numpy as np
from conftest import perfbench_module
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsplit
from graphsplit import _json, cli, experiments, matlin, splitting, subspaces


def _config(**overrides):
    base = {
        "graph": {"preset": "sequential", "n": 3},
        "ambient": 2,
        "spaces": [
            {"kind": "random", "dim": 1, "seed": 11},
            {"kind": "random", "dim": 1, "seed": 12},
            {"kind": "random", "dim": 1, "seed": 13},
        ],
        "thetas": [0.5, 1.0, 1.5],
        "eps": 1e-6,
        "seed": 5,
    }
    base.update(overrides)
    return base


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_analyze_sequential_random_lines(tmp_path, capsys):
    code = cli.main(["analyze", "--config", _write(tmp_path, _config())])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_iso_averaged"] is True
    assert out["is_normal"] is True
    assert 0.0 <= out["rho1"] < 1.0
    assert len(out["eigenvalues"]) == 4
    eigs = [(e["re"], e["im"]) for e in out["eigenvalues"]]
    assert eigs == sorted(eigs)
    assert "friedrichs_cosine" not in out


def test_analyze_two_lines_sixty_degrees(tmp_path, capsys):
    cfg = _config(
        graph={"preset": "sequential", "n": 2},
        spaces=[
            {"kind": "span", "vectors": [[1, 0]]},
            {"kind": "span", "vectors": [[0.5, 0.8660254037844386]]},
        ],
    )
    code = cli.main(["analyze", "--config", _write(tmp_path, cfg)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["friedrichs_cosine"] == pytest.approx(0.5, abs=1e-9)
    assert out["rho1"] == pytest.approx(0.5, abs=1e-9)


def test_analyze_biparallel_not_iso(tmp_path, capsys):
    cfg = _config(
        graph={"preset": "biparallel", "n": 4},
        subgraph={"preset": "parallel_up", "n": 4},
        ambient=1,
        spaces=[{"kind": "full"}] * 4,
    )
    code = cli.main(["analyze", "--config", _write(tmp_path, cfg)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_iso_averaged"] is False
    assert out["is_normal"] is True


@pytest.mark.parametrize("scale", [-700, 700])
def test_analyze_does_not_depend_on_the_scale_of_span_vectors_and_normals(tmp_path, capsys, scale):
    def config(c):
        return _config(
            ambient=3,
            spaces=[
                {"kind": "span", "vectors": [[c, 2 * c, 0], [0, c, c]]},
                {"kind": "hyperplane", "normal": [c, -c, 2 * c]},
                {"kind": "span", "vectors": [[3 * c, 4 * c, 0]]},
            ],
        )

    assert cli.main(["analyze", "--config", _write(tmp_path, config(1.0))]) == 0
    want = capsys.readouterr().out
    assert cli.main(["analyze", "--config", _write(tmp_path, config(math.ldexp(1.0, scale)))]) == 0
    assert capsys.readouterr().out == want


def test_sweep_header_and_symmetry(tmp_path, capsys):
    cfg = _config(thetas={"start": 0.25, "stop": 1.75, "step": 0.25})
    code = cli.main(["sweep", "--config", _write(tmp_path, cfg)])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "theta,k_stop,rho1_predicted,rho1_measured"
    data = [row.split(",") for row in rows[1:]]
    assert len(data) == 7
    stops = {float(r[0]): int(r[1]) for r in data}
    for theta in (0.25, 0.5, 0.75):
        assert abs(stops[theta] - stops[2.0 - theta]) <= 1
    assert stops[1.0] == min(stops.values())


def test_sweep_of_an_iso_averaged_map_with_an_unfixed_one(tmp_path, capsys):
    # Two nearly parallel lines in R^2: T is iso-averaged with both
    # eigenvalues at 1 to round-off but nothing fixed, so rho1 = 1, outside
    # the domain of predicted_rate; the sweep predicts max |theta lam + 1 - theta|.
    cfg = {
        "graph": {"preset": "sequential", "n": 2},
        "ambient": 2,
        "spaces": [
            {"kind": "hyperplane", "normal": [1, 0]},
            {"kind": "hyperplane", "normal": [1, 1e-9]},
        ],
        "thetas": [0.5, 1.0, 1.5],
        "k_max": 100,
    }
    path = _write(tmp_path, cfg)
    assert cli.main(["analyze", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["is_iso_averaged"], report["fix_dim"], report["rho1"]) == (True, 0, 1.0)
    assert cli.main(["sweep", "--config", path]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["1", "1", "1"]


def test_a_sweep_from_a_start_with_a_large_fixed_part_stops(tmp_path, capsys):
    # Op 1 of the benchmark's tune seed 1: three nearly parallel lines on a
    # chain, with one fixed direction f. From the seeded start plus 1e3 f the
    # sweep stops where it stops from the seeded start and prints the
    # predicted rates, since it iterates the start's error, whose round-off
    # does not grow with the fixed part.
    cfg = {
        "graph": {"preset": "sequential", "n": 3},
        "ambient": 2,
        "spaces": [
            {"kind": "hyperplane", "normal": [0.28587517865512974, -0.7838128190476723]},
            {"kind": "hyperplane", "normal": [0.27419330695495825, -0.9897607399211442]},
            {"kind": "hyperplane", "normal": [0.3069523560857777, -0.9549199074216438]},
        ],
        "thetas": [0.5, 1.0, 1.5],
        "eps": 1e-10,
        "k_max": 30000,
        "seed": 3245220485,
        "v0": "random",
    }
    config = cli.load_config(cfg)
    op = splitting.build(config.graph_pair, config.spaces)
    f = splitting.spectral_report(op.T).fix_basis
    assert f.shape == (4, 1)
    shifted = cli._start_vector(config, op) + 1e3 * f[:, 0]
    for start in (shifted.tolist(), "random"):
        assert cli.main(["sweep", "--config", _write(tmp_path, {**cfg, "v0": start})]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [row[1] for row in rows] == ["14608", "10951", "14608"]
        assert [row[3] for row in rows] == [row[2] for row in rows]


def test_sweep_empty_thetas(tmp_path, capsys):
    code = cli.main(["sweep", "--config", _write(tmp_path, _config(thetas=[]))])
    assert code == 0
    assert capsys.readouterr().out == "theta,k_stop,rho1_predicted,rho1_measured\n"


def test_sweep_deterministic(tmp_path):
    cfg = cli.load_config(_config())
    assert cli.cmd_sweep(cfg) == cli.cmd_sweep(cli.load_config(_config()))


def test_seed_override_changes_start(tmp_path):
    a = cli.cmd_sweep(cli.load_config(_config(), seed=1))
    b = cli.cmd_sweep(cli.load_config(_config(), seed=2))
    assert a != b
    assert a == cli.cmd_sweep(cli.load_config(_config(), seed=1))


def test_sweep_out_file(tmp_path):
    out_path = tmp_path / "rows.csv"
    code = cli.main(["sweep", "--config", _write(tmp_path, _config()), "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("theta,k_stop,")


@pytest.mark.parametrize("command", ["analyze", "sweep", "demo", "verify"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_an_unwritable_out_path_is_one_error_line(tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    argv = {
        "analyze": ["analyze", "--config", _write(tmp_path, _config())],
        "sweep": ["sweep", "--config", _write(tmp_path, _config())],
        "demo": ["demo", "all"],
        "verify": ["verify", "--trials", "1"],
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot write {str(out)!r}: ")
    assert err.count("\n") == 1


def test_demo_all_passes(capsys):
    assert cli.main(["demo", "all"]) == 0
    out = capsys.readouterr().out
    assert "example geometric: PASS" in out
    assert "FAIL" not in out


def test_demo_unknown_is_config_error(capsys):
    assert cli.main(["demo", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown example 'does-not-exist'; available: not-normal, ")


def test_verify_deterministic(capsys):
    assert cli.main(["verify", "--seed", "3", "--trials", "2"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "--seed", "3", "--trials", "2"]) == 0
    assert capsys.readouterr().out == first
    assert "trials consistent" in first


def test_verify_zero_trials_errors(capsys):
    assert cli.main(["verify", "--trials", "0"]) == 2


@pytest.mark.parametrize(
    "breaker",
    [
        {"graph": None},
        {"ambient": 0},
        {"spaces": [{"kind": "full"}]},
        {"thetas": [2.5]},
        {"v0": [1.0, 2.0]},
        {"eps": -1.0},
    ],
)
def test_config_errors(tmp_path, breaker, capsys):
    cfg = _config()
    cfg.update(breaker)
    if breaker.get("graph", "keep") is None:
        del cfg["graph"]
    code = cli.main(["analyze", "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("ambient", None),
        ("eps", float("nan")),
        ("k_max", "x"),
        ("k_max", float("inf")),
        ("seed", None),
        ("thetas", {"start": 0.1, "stop": float("inf"), "step": 0.1}),
        ("v0", [1.0, float("nan"), 0.0, 1.0]),
        # Integer fields take no bool, string or fraction (int() would truncate).
        ("ambient", 2.9),
        ("ambient", "2"),
        ("k_max", True),
        ("seed", 5.5),
        ("seed", "7"),
        # Float fields take no bool or string (float() would read them).
        ("eps", True),
        ("eps", "1e-6"),
        ("thetas", ["1.5", True]),
        ("thetas", [1.5, True]),
        ("v0", ["1.5", True, 1.0, 2.0]),
        ("v0", [[1.0, 2.0], [3.0, False]]),
        ("v0", [10**400, 0.0, 0.0, 1.0]),
    ],
)
def test_bad_values_name_their_field(tmp_path, field, value, capsys):
    _assert_config_error(tmp_path, capsys, _config(**{field: value}), field)


def test_a_start_whose_squared_norm_overflows_is_a_config_error(tmp_path, capsys):
    # Each entry is finite, but every distance of a sweep from it would read
    # inf, leaving no stop and no rate.
    cfg = _config(v0=[1e200, 0.0, 0.0, 0.0])
    _assert_config_error(tmp_path, capsys, cfg, "v0: ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", "--config", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: v0: ")


def _first_space(fragment):
    return [fragment, {"kind": "full"}, {"kind": "full"}]


@pytest.mark.parametrize(
    "fragment",
    [
        {"kind": "hyperplane", "normal": [True, "2"]},
        {"kind": "hyperplane", "normal": [1.0, "2"]},
        {"kind": "span", "vectors": [["1", False]]},
        {"kind": "span", "vectors": [[1.0, 0.0], [0.0, True]]},
        {"kind": "span", "vectors": [[10**400, 0.0]]},
        # A normal or span vector is a flat list of `ambient` numbers.
        {"kind": "hyperplane", "normal": 3},
        {"kind": "span", "vectors": [1]},
        {"kind": "hyperplane", "normal": [[1, 2], [3, 4]]},
    ],
)
def test_float_fragment_fields_name_their_field(tmp_path, fragment, capsys):
    _assert_config_error(tmp_path, capsys, _config(spaces=_first_space(fragment)), "spaces[1]")


@pytest.mark.parametrize(
    "fragment,message",
    [
        ({"kind": "hyperplane", "normal": [math.nan, 1.0]}, "hyperplane normal must"),
        ({"kind": "span", "vectors": [[1.0, 0.0], [math.inf, 1.0]]}, "generators must"),
    ],
)
def test_a_non_finite_normal_or_span_vector_is_named(tmp_path, fragment, message, capsys):
    cfg = _config(spaces=_first_space(fragment))
    _assert_config_error(tmp_path, capsys, cfg, f"spaces[1]: {message}")


def test_a_whole_number_is_an_int_or_numpy_int_and_never_a_bool():
    assert all(map(_json.whole, [0, -3, 2**70, np.int64(4), np.uint8(1)]))
    assert not any(map(_json.whole, [True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None]))


def test_numeric_vector_fields_load_as_before():
    nested = cli.load_config(_config(v0=[[1, 2.5], [3, 4]]))
    assert nested.v0.tolist() == [1.0, 2.5, 3.0, 4.0]
    as_ints = cli.load_config(
        _config(spaces=_first_space({"kind": "hyperplane", "normal": [1, 2]}))
    )
    as_floats = cli.load_config(
        _config(spaces=_first_space({"kind": "hyperplane", "normal": [1.0, 2.0]}))
    )
    assert np.array_equal(as_ints.spaces.factors[0].basis, as_floats.spaces.factors[0].basis)
    span = cli.load_config(_config(spaces=_first_space({"kind": "span", "vectors": [[3, 4]]})))
    assert np.array_equal(span.spaces.factors[0].basis, np.array([[0.6], [0.8]]))


@pytest.mark.parametrize(
    "key,value", [("start", "0.5"), ("stop", True), ("step", "0.25"), ("start", False)]
)
def test_range_bounds_take_no_bool_or_string(tmp_path, key, value, capsys):
    spec = {"start": 0.5, "stop": 1.0, "step": 0.25, key: value}
    _assert_config_error(tmp_path, capsys, _config(thetas=spec), f"thetas.{key}")


@pytest.mark.parametrize("field", ["graph", "subgraph"])
def test_a_preset_without_n_says_so(tmp_path, field, capsys):
    cfg = _config(**{field: {"preset": "sequential"}})
    _assert_config_error(tmp_path, capsys, cfg, f'{field}: preset graph fragment needs "n"')


def test_graph_forms():
    ring = cli.load_config(
        _config(graph={"preset": "ring", "n": 4}, ambient=1, spaces=[{"kind": "full"}] * 4)
    )
    assert set(ring.graph_pair.g.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}
    chain = cli.load_config(_config(graph={"n": 3, "edges": [[1, 2], [2, 3]]}))
    assert chain.graph_pair.g.edges == ((1, 2), (2, 3))
    with pytest.raises(
        ValueError, match='^graph: graph fragment needs either "preset"/"n" or "n"/"edges"$'
    ):
        cli.load_config(_config(graph={"n": 3}))
    with pytest.raises(ValueError, match="^graph: graph fragment must be an object$"):
        cli.load_config(_config(graph=[1, 2]))
    with pytest.raises(ValueError, match="^graph: unknown preset"):
        cli.load_config(_config(graph={"preset": ["ring"], "n": 4}))


def _first_factor(fragment):
    return cli.load_config(_config(ambient=3, spaces=_first_space(fragment))).spaces.factors[0]


def test_space_kinds():
    assert _first_factor({"kind": "full"}).dim == 3
    assert _first_factor({"kind": "trivial"}).dim == 0
    assert _first_factor({"kind": "span", "vectors": [[1, 0, 0], [2, 0, 0]]}).dim == 1
    assert _first_factor({"kind": "hyperplane", "normal": [0, 0, 1]}).dim == 2
    r = _first_factor({"kind": "random", "dim": 2, "seed": 9})
    assert np.array_equal(r.basis, subspaces.random_subspace(3, 2, 9).basis)
    with pytest.raises(ValueError, match=r"^spaces\[1\]: unknown subspace kind 'mystery'$"):
        _first_factor({"kind": "mystery"})
    with pytest.raises(
        ValueError, match=r"^spaces\[1\]: hyperplane normal must be a list of 3 numbers"
    ):
        _first_factor({"kind": "hyperplane", "normal": [1, 0]})


@pytest.mark.parametrize("name", [["ring"], {"ring": 1}, 3])
def test_an_unhashable_or_unknown_preset_names_its_field(tmp_path, name, capsys):
    # The preset cache is consulted only after the name is checked.
    cfg = _config(graph={"preset": name, "n": 3})
    _assert_config_error(tmp_path, capsys, cfg, "graph: unknown preset")


def _assert_config_error(tmp_path, capsys, cfg, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)}"):
        cli.load_config(json.loads(json.dumps(cfg)))
    assert cli.main(["analyze", "--config", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")


# Python's own texts, which a config error never carries: it names the
# field and the shape it expects in the config format's terms.
_PYTHON_TEXTS = (
    "object is not", "values to unpack", "argument must be", "unhashable", "invalid literal",
    "setting an array element", "too large to convert",
)


@pytest.mark.parametrize(
    "overrides,message,python_text",
    [
        ({"spaces": [{"kind": "random", "dim": 1, "seed": 11}, {"kind": "random", "seed": 1},
                     {"kind": "full"}]},
         'spaces[2]: random subspace needs "dim"', "'dim'"),
        ({"graph": {"n": 3, "edges": 5}},
         "graph.edges: expected a list of [i, j] pairs", "'int' object is not iterable"),
        ({"graph": {"n": 3, "edges": [[1, 2], [2]]}},
         "graph.edges: expected a list of [i, j] pairs", "not enough values to unpack"),
        ({"spaces": _first_space({"kind": "span", "vectors": [{"x": 1}]})},
         "spaces[1]: span vector must be a list of 2 numbers", "float() argument must be"),
        ({"spaces": _first_space({"kind": "span", "vectors": [[{"x": 1}, 0]]})},
         "spaces[1]: span vector: expected a number, got {'x': 1}", "float() argument must be"),
    ],
    ids=["missing dim", "edges not a list", "edge not a pair", "object as a vector", "object in a vector"],
)
def test_config_errors_are_worded_in_the_format_s_terms(tmp_path, overrides, message, python_text,
                                                        capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.load_config(_config(**overrides))
    assert cli.main(["analyze", "--config", _write(tmp_path, _config(**overrides))]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert python_text not in err and not any(text in err for text in _PYTHON_TEXTS)


def _random_spaces(dim=1, seed=12):
    return [
        {"kind": "random", "dim": 1, "seed": 11},
        {"kind": "random", "dim": dim, "seed": seed},
        {"kind": "random", "dim": 1, "seed": 13},
    ]


@pytest.mark.parametrize(
    "field,overrides",
    [
        ("graph", {"graph": {"preset": "sequential", "n": 3.7}}),
        ("graph", {"graph": {"n": 3, "edges": [[1, 2.9], [2, 3]]}}),
        ("subgraph", {"subgraph": {"preset": "sequential", "n": 3.5}}),
        ("subgraph", {"subgraph": {"n": 3, "edges": [[1, 2], [True, 3]]}}),
        ("spaces[2]", {"spaces": _random_spaces(dim=1.5)}),
        ("spaces[2]", {"spaces": _random_spaces(seed="12")}),
    ],
)
def test_integer_fragment_fields_name_their_field(tmp_path, field, overrides, capsys):
    _assert_config_error(tmp_path, capsys, _config(**overrides), field)


@pytest.mark.parametrize(
    "message,overrides",
    [
        ('config: unknown field "kmax"', {"kmax": 3}),
        ('config: unknown field "epsilon"', {"epsilon": 1e-30}),
        ('config: unknown field "v_0"', {"v_0": [1, 2]}),
        ('graph: unknown field "edges"', {"graph": {"preset": "sequential", "n": 3, "edges": []}}),
        ('subgraph: unknown field "m"', {"subgraph": {"n": 3, "edges": [[1, 2], [2, 3]], "m": 2}}),
        ('spaces[1]: unknown field "dim"', {"spaces": _first_space({"kind": "full", "dim": 1})}),
        ('spaces[1]: unknown field "vectors"',
         {"spaces": _first_space({"kind": "hyperplane", "normal": [1, 0], "vectors": []})}),
        ('thetas: unknown field "stpe"',
         {"thetas": {"start": 0.5, "stop": 1.5, "step": 0.5, "stpe": 0.1}}),
    ],
)
def test_unknown_fields_are_named(tmp_path, message, overrides, capsys):
    _assert_config_error(tmp_path, capsys, _config(**overrides), message)


@pytest.mark.parametrize(
    "field,overrides",
    [
        # Built, each would run for hours or exhaust memory.
        ("ambient", {"ambient": 10**6}),
        ("ambient", {"ambient": 1e300}),
        ("graph.n", {"graph": {"preset": "sequential", "n": 1e308}}),
        ("graph.n", {"graph": {"preset": "ring", "n": 2**70}}),
        ("graph.n", {"graph": {"n": 1001, "edges": []}}),
        ("subgraph.n", {"subgraph": {"n": 1e308, "edges": []}}),
        ("ambient: the lifted size (graph.n - 1) * ambient = 1002 is above 1000", {"ambient": 501}),
        # The graph is read first, then the lifted size, then the subgraph.
        ("graph: underlying undirected graph is not connected",
         {"graph": {"n": 600, "edges": [[1, 2], [2, 3]]}}),
        ("ambient: the lifted size (graph.n - 1) * ambient = 1198 is above 1000",
         {"graph": {"preset": "sequential", "n": 600}, "subgraph": {"preset": "sequential", "n": 3}}),
    ],
)
def test_sizes_above_the_bound_are_named(tmp_path, field, overrides, capsys):
    cfg = _config(**overrides)
    start = time.perf_counter()
    _assert_config_error(tmp_path, capsys, cfg, field)
    assert cli.main(["sweep", "--config", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")
    assert time.perf_counter() - start < 1.0


def test_sizes_at_the_bound_load():
    assert cli.MAX_SIZE == 1000
    cfg = cli.load_config(_config(ambient=500))
    assert cfg.spaces.ambient == 500 and cfg.graph_pair.g.n == 3
    chain = {"preset": "sequential", "n": 1000}
    cfg = cli.load_config(_config(graph=chain, ambient=1, spaces=[{"kind": "full"}] * 1000))
    assert cfg.graph_pair.g.n == 1000


# Valid configs for both commands, both graph forms and both thetas forms,
# with v0 as a list and as "random".
_MUTATION_CATALOG = [
    ("analyze", {
        "graph": {"preset": "ring", "n": 3}, "subgraph": {"preset": "sequential", "n": 3},
        "ambient": 2,
        "spaces": [{"kind": "span", "vectors": [[1, 0]]}, {"kind": "hyperplane", "normal": [1, 1]},
                   {"kind": "random", "dim": 1, "seed": 7}],
        "thetas": [0.5, 1.5], "eps": 1e-6, "k_max": 200, "seed": 3, "v0": "random",
    }),
    ("sweep", {
        "graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
        "subgraph": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "ambient": 2,
        "spaces": [{"kind": "hyperplane", "normal": [1, 0]}, {"kind": "span", "vectors": [[1, 1]]},
                   {"kind": "full"}],
        "thetas": {"start": 0.5, "stop": 1.5, "step": 0.5}, "eps": 1e-6, "k_max": 200, "seed": 3,
        "v0": [1, 0, 0, 1],
    }),
    ("sweep", {
        "graph": {"preset": "sequential", "n": 3}, "ambient": 2,
        "spaces": [{"kind": "random", "dim": 1, "seed": 11}, {"kind": "trivial"},
                   {"kind": "hyperplane", "normal": [0, 1]}],
        "thetas": [0.5, 1.0], "eps": 1e-6, "k_max": 200, "seed": 5, "v0": "random",
    }),
    ("analyze", {
        "graph": {"n": 3, "edges": [[1, 2], [1, 3]]}, "ambient": 1,
        "spaces": [{"kind": "full"}, {"kind": "random", "dim": 1, "seed": 2}, {"kind": "trivial"}],
        "thetas": {"start": 0.25, "stop": 1.75, "step": 0.75}, "k_max": 50, "v0": [1, 2],
    }),
]
_DELETE = "<delete>"
_MUTATIONS = [_DELETE, None, True, "1", [[1, 2], [3, 4]], {"x": 1}, math.nan, math.inf, -math.inf,
              -0.0, 0, -1, 0.5, 1.5, 1e308, 2**70]
# The fields whose errors a mutation of each top-level field may bring about.
_DERIVED = {"graph": {"subgraph", "ambient", "spaces", "v0"}, "ambient": {"spaces", "v0"}}


def _json_paths(node, prefix=()):
    """Every path below node, each key or index in turn."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths += [(*prefix, key), *_json_paths(child, (*prefix, key))]
    return paths


_MUTATION_SITES = [(index, path) for index, (_, cfg) in enumerate(_MUTATION_CATALOG)
                   for path in _json_paths(cfg)]


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.sampled_from(_MUTATION_SITES), st.sampled_from(_MUTATIONS))
def test_one_mutation_of_a_valid_config_exits_0_or_names_its_field(mutation_dir, site, value):
    index, path = site
    command, cfg = _MUTATION_CATALOG[index]
    cfg = json.loads(json.dumps(cfg))
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, cfg)
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    config_path = _write(mutation_dir, cfg)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", config_path, "--out", str(mutation_dir / "out")])
    seconds = time.perf_counter() - start
    if key in ("n", "ambient"):
        assert seconds < 1.0
    assert code in (0, 2)
    if code == 2:
        allowed = {path[0], *_DERIVED.get(path[0], ())}
        if value is _DELETE and not parents:
            allowed.add("config")  # a required field is missing
        named = re.fullmatch(r"error: (\w+)[.:\[][^\n]*\n", err.getvalue())
        assert named and named.group(1) in allowed, err.getvalue()
        assert not any(text in err.getvalue() for text in _PYTHON_TEXTS), err.getvalue()


def test_integral_floats_load_as_integers():
    exact = cli.load_config(_config(k_max=10000))
    floats = cli.load_config(
        _config(
            graph={"n": 3.0, "edges": [[1.0, 2.0], [2, 3]]},
            ambient=2.0,
            spaces=_random_spaces(dim=1.0, seed=12.0),
            k_max=1e4,
            seed=5.0,
        )
    )
    assert (floats.k_max, floats.seed) == (10000, 5)
    assert type(floats.k_max) is int
    assert cli.cmd_analyze(floats) == cli.cmd_analyze(exact)
    assert cli.cmd_sweep(floats) == cli.cmd_sweep(exact)


def test_a_long_integer_seed_loads():
    # Too large for a float, which a finiteness test would convert it to.
    assert cli.load_config(_config(seed=10**400)).seed == 10**400


@pytest.mark.parametrize(
    "spec",
    [
        # 1.0 + k * 1e-20 == 1.0 for k below about 11000: the range never ends.
        {"start": 1.0, "stop": 1.5, "step": 1e-20},
        # (stop - start) / step is 0, yet 1e300 + k == 1e300 for every k.
        {"start": 1e300, "stop": 1e300, "step": 1.0},
        # 10001 values, one more than the limit.
        {"start": 0.0001, "stop": 1.0001, "step": 1e-4},
    ],
)
def test_theta_range_is_bounded(spec):
    with pytest.raises(ValueError, match="^thetas: range gives more than 10000 values$"):
        cli.load_config(_config(thetas=spec))


def test_theta_range_at_the_limit_loads():
    cfg = cli.load_config(_config(thetas={"start": 1e-4, "stop": 1.0, "step": 1e-4}))
    assert len(cfg.thetas) == cli.MAX_THETAS


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--eps", "0.5"]])
def test_analyze_takes_no_seed_or_eps(tmp_path, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--config", _write(tmp_path, _config()), *flag])
    assert exc.value.code == 2
    assert cli.main(["sweep", "--config", _write(tmp_path, _config()), *flag]) == 0


def _no_convergence(t):
    raise matlin.NoConvergenceError("no deflation after 300 QR sweeps")


def _off_circle(t):
    # The spectrum of an iso-averaged map with the eigenvalue farthest from 1
    # moved off the half-circle: the report's own self-check must fail.
    eigs = list(np.linalg.eigvals(t))
    eigs[max(range(len(eigs)), key=lambda i: abs(eigs[i] - 1.0))] = 0.25
    return eigs


def _off_one(t):
    # The spectrum with the eigenvalue at 1 moved to 1 + 1e-3: the rank of
    # T - I still fixes one direction, so the report's own self-check must fail.
    eigs = list(np.linalg.eigvals(t))
    eigs[min(range(len(eigs)), key=lambda i: abs(eigs[i] - 1.0))] = 1.001
    return eigs


_RANDOM_SUBSPACE = subspaces.random_subspace


def _doubled_subspace(ambient, dim, seed):
    # A node basis of norm 2, not orthonormal: build's residual check of its
    # node steps must fail.
    return subspaces._trusted(2.0 * _RANDOM_SUBSPACE(ambient, dim, seed).basis)


@pytest.mark.parametrize(
    "target,replacement,command,message",
    [
        ((matlin, "general_eigenvalues"), _no_convergence, "analyze", "no deflation"),
        ((matlin, "general_eigenvalues"), _off_circle, "sweep", "off the half-circle"),
        ((matlin, "general_eigenvalues"), _off_one, "analyze",
         "within the band at 1 (0) disagree with the fixed-subspace dimension (1)"),
        ((subspaces, "random_subspace"), _doubled_subspace, "analyze",
         "node solves miss deg_i G y = w"),
    ],
    ids=["no-convergence", "self-check", "at-one-self-check", "build-self-check"],
)
def test_numerical_failures_exit_3(tmp_path, monkeypatch, capsys, target, replacement, command,
                                   message):
    monkeypatch.setattr(*target, replacement)
    code = cli.main([command, "--config", _write(tmp_path, _config())])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal numerical failure: ")
    assert message in err
    assert err.count("\n") == 1


def test_the_package_defines_three_exception_classes():
    # Bad input is a plain ValueError (exit 2); only these three are told apart.
    modules = [graphsplit] + [
        importlib.import_module(f"graphsplit.{info.name}")
        for info in pkgutil.iter_modules(graphsplit.__path__) if info.name != "__main__"
    ]
    defined = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert defined == {
        experiments.ExcludedInputError, matlin.NoConvergenceError, splitting.SelfCheckFailedError
    }


@pytest.mark.parametrize("error", [matlin.NoConvergenceError, splitting.SelfCheckFailedError])
def test_each_runtime_error_exits_3(monkeypatch, capsys, error):
    def fail(seed, trials):
        raise error("failed")

    assert issubclass(error, RuntimeError)
    monkeypatch.setattr(experiments, "graph_equality_trials", fail)
    assert cli.main(["verify"]) == 3
    assert capsys.readouterr().err == "error: internal numerical failure: failed\n"


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["analyze", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_an_integer_literal_too_long_for_python_is_a_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it.
    path = tmp_path / "long.json"
    path.write_text('{"graph": {"preset": "ring", "n": 3}, "ambient": 1' + "0" * 5000 + ', "spaces": []}')
    assert cli.main(["analyze", "--config", str(path)]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: config: an integer literal has more than {limit} digits\n"


def test_explicit_v0_roundtrip(tmp_path, capsys):
    cfg = _config(v0=[1.0, 0.0, 0.0, 1.0], thetas=[1.0])
    code = cli.main(["sweep", "--config", _write(tmp_path, cfg)])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2


def test_stdin_config_subprocess():
    cfg = _config(thetas=[1.0])
    # The child imports the same package as this test, installed or not.
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphsplit", "sweep"],
        input=json.dumps(cfg),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("theta,k_stop,")


# Certify configs with a cluster of close eigenvalues, on which Francis QR
# found no deflation in 1000 sweeps: the first seven with the fixed
# exceptional shift, the last three with dlahqr's offset exceptional shift
# but without its explicit shifts. The graph pair, n, the ambient dimension
# and (dim, seed) of each node space.
_BIPARALLEL = ("biparallel", "parallel_up", 3, 5)
_RING6 = ("ring", "sequential", 6, 5)
_FRANCIS_STALLS = [
    (*_BIPARALLEL, [(3, 2832112859), (4, 1455162260), (1, 3801847808)]),
    (*_BIPARALLEL, [(3, 4242862471), (4, 235042638), (2, 1939700341)]),
    (*_BIPARALLEL, [(3, 3924252600), (2, 3592919743), (3, 1570455861)]),
    (*_BIPARALLEL, [(3, 738050137), (3, 1650029854), (4, 1656491323)]),
    (*_BIPARALLEL, [(4, 3964715430), (3, 2150607372), (1, 3907213592)]),
    (*_BIPARALLEL, [(2, 3273229906), (3, 3611133786), (3, 585757351)]),
    (
        "ring",
        "sequential",
        5,
        6,
        [(5, 2684161753), (1, 3521371587), (5, 1028505731), (1, 2779916391), (4, 835842921)],
    ),
    (
        *_RING6,
        [(4, 2068109628), (1, 1233703565), (1, 2864283075),
         (2, 1924254299), (1, 2924073127), (4, 2059313609)],
    ),
    (
        *_RING6,
        [(4, 1609070577), (1, 3843717254), (4, 1952251403),
         (2, 1310897984), (1, 560757981), (4, 3061659072)],
    ),
    (
        *_RING6,
        [(4, 3425558031), (2, 1229317544), (1, 2468917477),
         (2, 716446026), (1, 1993787516), (4, 2547596108)],
    ),
]


@pytest.mark.parametrize("stall", _FRANCIS_STALLS)
def test_analyze_converges_on_clustered_maps(tmp_path, capsys, stall):
    graph, subgraph, n, ambient, spaces = stall
    cfg = {
        "graph": {"preset": graph, "n": n},
        "subgraph": {"preset": subgraph, "n": n},
        "ambient": ambient,
        "spaces": [{"kind": "random", "dim": dim, "seed": seed} for dim, seed in spaces],
    }
    code = cli.main(["analyze", "--config", _write(tmp_path, cfg)])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("workload", ["certify", "tune", "verify"])
def test_the_benchmark_oracle_passes_the_first_op_of_each_workload(tmp_path, workload):
    # The benchmark checks every output with these oracles, which read
    # graphsplit's cli, build and matrix-free operator: a cut that drops a
    # name they read fails here.
    workloads, oracles = perfbench_module("workloads"), perfbench_module("oracles")
    op = workloads.GENERATORS[workload](1)[0]
    config_path, out_path = tmp_path / "config.json", tmp_path / "out.txt"
    if op.config is not None:
        config_path.write_text(json.dumps(op.config), encoding="utf-8")
    assert cli.main(op.argv(str(config_path), str(out_path))) == 0
    assert oracles.ORACLES[workload](graphsplit, op, out_path.read_text(encoding="utf-8")) == []
