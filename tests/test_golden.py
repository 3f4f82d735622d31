"""Byte-identity gate: every golden command-line output and demo script keeps its digest.

The ops, their records and the regeneration script are in
`tests/golden/regenerate.py`; the digests are in `tests/golden/manifest.json`.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_output_keeps_its_bytes(tmp_path):
    golden = _golden()
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
