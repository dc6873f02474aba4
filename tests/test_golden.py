"""Seed-2026 campaign bundles are byte-identical to the recorded hashes.

`perfbench/golden.json` holds the sha256 of the nine bundle files of the
reference campaign on both engine presets.  The benchmark gates on the same
file; this test checks it on every run of the suite.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pri.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("engine, key", [
    ("google_like", "campaign-google"),
    ("bing_like", "campaign-bing"),
])
def test_reference_campaign_matches_golden_hashes(tmp_path, capsys, engine, key):
    out = tmp_path / "bundle"
    assert main(["campaign", "--engine", engine,
                 "--seed", str(GOLDEN["seed"]), "--out", str(out)]) == 0
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in GOLDEN[key]}
    assert len(hashes) == 9
    assert hashes == GOLDEN[key]
