"""Byte-identity gate: every golden command-line output and demo script keeps its digest.

The ops, their records and the regeneration script are in
`tests/golden/regenerate.py`; the digests are in `tests/golden/manifest.json`.
`tests/golden/referee.py` records and diffs the same digests over more seeds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import graphsplit

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_output_keeps_its_bytes(tmp_path):
    golden = _load("regenerate")
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    here = golden.environment()
    # Digests of floating-point output hold for one numpy and platform only:
    # a mismatch fails, and never passes silently.
    assert manifest["environment"] == here, (
        f"manifest made under {manifest['environment']}, this run has {here}; "
        "check the outputs by other means, then regenerate the manifest"
    )
    got = golden.records(tmp_path)
    assert list(got) == list(manifest["ops"])
    moved = [label for label, rec in got.items() if rec != manifest["ops"][label]]
    assert not moved, f"{len(moved)} of {len(got)} records moved: {', '.join(moved[:10])}"


def test_the_referee_records_and_diffs_one_op_of_each_kind(tmp_path, capsys):
    referee = _load("referee")
    src = Path(graphsplit.__file__).resolve().parent.parent
    regenerate = referee.load_regenerate(src)
    firsts = {}
    for label, op in referee.ops(regenerate):
        firsts.setdefault(label.split()[0], (label, op))
    assert list(firsts) == ["certify", "tune", "verify", "demo"]
    record = referee.run(regenerate, list(firsts.values()), src)
    # The seed-1 ops are golden ops: the referee's records are the manifest's.
    manifest = json.loads(regenerate.MANIFEST.read_text(encoding="utf-8"))["ops"]
    for label, golden in [("certify seed 1 op 0", "certify 0"), ("demo all", "demo all")]:
        assert record["ops"][label] == manifest[golden]
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record), encoding="utf-8")
    assert referee.main(["diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "0 of 5 records differ\n"
    record["ops"]["tune seed 1 op 0"]["exit"] = 1
    new.write_text(json.dumps(record), encoding="utf-8")
    assert referee.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out == "differs: tune seed 1 op 0\n1 of 5 records differ\n"


def test_the_referee_rates_one_tune_op(tmp_path, capsys):
    referee = _load("referee")
    src = Path(graphsplit.__file__).resolve().parent.parent
    regenerate = referee.load_regenerate(src)
    label, op = next((label, op) for label, op in referee.ops(regenerate) if label.startswith("tune "))
    record = referee.run(regenerate, [(label, op)], src)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record), encoding="utf-8")
    record["ops"][label]["out"] = "moved"
    new.write_text(json.dumps(record), encoding="utf-8")
    assert referee.main(["rates", str(old), str(new)]) == 0
    first, old_line, new_line = capsys.readouterr().out.splitlines()
    assert first == "1 tune ops differ"
    # Both sides run this tree: the same 19 rows, every stop iteration the
    # long double run's.
    assert old_line.startswith("old: 19 rows with a rate, 0 k_stop mismatches, ")
    assert new_line == "new" + old_line[3:]
    rows = [[5, "0.5", 5, 0.5], [7, "0.25", 6, 0.2500000001], [None, None, 9, None]]
    summary = referee.rate_summary(rows)
    assert (summary["rows"], summary["k_stop_mismatches"], summary["equal_rates"]) == (2, 2, 1)


def test_the_referee_scores_the_eigenvalues_of_one_certify_op(tmp_path, capsys):
    mpmath = pytest.importorskip("mpmath")
    referee = _load("referee")
    src = Path(graphsplit.__file__).resolve().parent.parent
    regenerate = referee.load_regenerate(src)
    label, op = next((label, op) for label, op in referee.ops(regenerate) if label.startswith("certify "))
    record = referee.run(regenerate, [(label, op)], src)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record), encoding="utf-8")
    record["ops"][label]["out"] = "moved"
    new.write_text(json.dumps(record), encoding="utf-8")
    assert referee.main(["eigs", str(old), str(new)]) == 0
    first, old_line, new_line, paired, rule = capsys.readouterr().out.splitlines()
    assert first == "1 certify and tune ops differ"
    # Both sides run this tree: the same T, the same figures and errors.
    assert old_line.startswith("old: 1 ops, 0 failed; ")
    assert new_line == "new" + old_line[3:]
    assert paired.startswith("paired, new against old: closer on 0 and farther on 0 of ")
    assert rule.startswith("rule: pass (largest error ")
    assert referee.sign_test(0, 4) and not referee.sign_test(0, 5)
    # A pair 1e-9 apart is a cluster of three eigenvalues (radius
    # (3 eps)^(1/2) = 2.6e-8); 0.5 stands alone.
    assert referee.clusters([1.0, 1.0 + 1e-9, 0.5], 1.0) == [[0, 1], [2]]
    with mpmath.workdps(referee.EIG_DIGITS):
        assert referee.rounded(mpmath.mpf("0.12345678901250000001"), 1.0) == 0.123456789013
        assert referee.rounded(mpmath.mpf("1e-52"), 1.0) == 0.0


def test_the_referee_judges_the_defects_of_one_certify_op(tmp_path, capsys, monkeypatch):
    referee = _load("referee")
    src = Path(graphsplit.__file__).resolve().parent.parent
    regenerate = referee.load_regenerate(src)
    label, op = next((label, op) for label, op in referee.ops(regenerate) if label.startswith("certify "))
    # Recorded twice from one tree, the op moves nothing, and nothing is run.
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        path.write_text(json.dumps(referee.run(regenerate, [(label, op)], src)), encoding="utf-8")
    assert referee.main(["norms", *map(str, paths)]) == 0
    first, figures, paired, rule = capsys.readouterr().out.splitlines()
    assert first == "0 certify, verify and demo ops differ; 0 defect figures moved"
    assert rule.startswith("rule: pass ")
    # A hand-edited field that is not a defect fails the rule, whatever the
    # defects do.
    row = referee.defect_row(regenerate, op, tmp_path)
    edited = dict(row, text=json.dumps(dict(json.loads(row["text"]), fix_dim=-1)))
    rows = iter([{label: row}, {label: edited}])
    monkeypatch.setattr(referee, "side_rows", lambda command, src, labels: next(rows))
    record = json.loads(paths[1].read_text(encoding="utf-8"))
    record["ops"][label]["out"] = "moved"
    paths[1].write_text(json.dumps(record), encoding="utf-8")
    assert referee.main(["norms", *map(str, paths)]) == 1
    first, figures, paired, rule = capsys.readouterr().out.splitlines()
    assert first == "1 certify, verify and demo ops differ; 0 defect figures moved"
    assert rule == f"rule: fail: {label} moves a field other than the defects (floor 2 N eps (1 + ||T||_F^2))"
