"""Campaign bundles are byte-identical to the recorded hashes.

`perfbench/golden.json` holds the sha256 of the nine bundle files of the
reference campaign on both engine presets.  The benchmark gates on the same
file; this test checks it on every run of the suite.  `PINNED` holds the
same hashes for small seed-7 campaigns whose settings the two references
leave out: an adaptation lag of 2, clicks off, and an engine file with wider
pages, a wider advert rotation and a sensitive prior.
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


WIDE_ENGINE = "ads_per_page = 6\npool_diversity = 5\nprior_knowledge = payday:3\n"

PINNED = {
    "lag2": {
        "baselines.txt":
            "c94dfddcf58f3127c77615a91c4dce7532e0ea1196a0aac6a813db07ea62ff37",
        "confusion.csv":
            "3402fc410467c6bb4d0a353afbbf584fb00c4784105cca9d4f759223caecdf15",
        "heatmap.csv":
            "0ad1951914f469e649fc5abc29a3e3248129682c262a0a40c95a521009c17552",
        "lag.csv":
            "519ac7b2ff918249c38a767f3ca5ccf7654ae338c570e2efd0ab6cd2faabf5b5",
        "model.txt":
            "fa3d1d2f9e5f83701cf71428a93dad7a5e96d4d0b6237bfeb9a6a11eee6b68dd",
        "sessions.csv":
            "6c550e6932c3bcceb332e5ea19e7458fa0d3aefed8cfa5860762a071f314fded",
        "summary.md":
            "194dfaca6e184b64cfc11967be322e1e29ff1e7bc2c3f344037f6f41731bcfc7",
        "test.capture":
            "13aab0df59db1410dbf2d92476d7a81d133c3bca637b55b2492e593e3d60fe37",
        "train.capture":
            "dddd8d635c9d588425cb492bbefc4e68f87903afa8a6f316c491c16ac8d4738a",
    },
    "clicks-off": {
        "baselines.txt":
            "7a35d37dd48e5159c1d48c20c5f692f2711c80cad0b951c7cd097e3d8bb1881b",
        "confusion.csv":
            "3402fc410467c6bb4d0a353afbbf584fb00c4784105cca9d4f759223caecdf15",
        "heatmap.csv":
            "70dbdc5db0f58139cfdc26e112180f5408b00a7fd60c0324904470b402dd6a45",
        "lag.csv":
            "a1fb8904d6c85f84352688727a21b5cc603ffb31328b3027fe697319b02aae26",
        "model.txt":
            "fcfd6840b1dfd7b99306f64b6d08afc3432a71fa410ecdf51048db03dea6c7c0",
        "sessions.csv":
            "6c550e6932c3bcceb332e5ea19e7458fa0d3aefed8cfa5860762a071f314fded",
        "summary.md":
            "f6aa16332145458426e519d389e1738aa0f90fc4cec760c4f83cd9b3ed539cb2",
        "test.capture":
            "a1579bf6928a8b14ac489c8f8bc0fc764696f78b08a15e313a246327f8690984",
        "train.capture":
            "0eb80a55eff74a3729beacda5f84ab6dec3485ed6951aa5d771e0584ba198952",
    },
    "wide-engine": {
        "baselines.txt":
            "b5f1df3c87e239dea4268ae84d72fbe4944b7bdee80779c478d7b3edec4c6156",
        "confusion.csv":
            "26c089c5f4508e4c1d2af3feed2a48a676f5f0d5187ed6895775de3351f8026f",
        "heatmap.csv":
            "b3a219d35223ec536df5c952493c7d97053c0fd9cc0291531a55e1bfb5d6018c",
        "lag.csv":
            "c324d17fe1ce2f64cb4a15f2095bc557683e996b80b902cf793648b67d0c92ff",
        "model.txt":
            "b258cb456923a421cdf602ca168241a05c794ce19854a458193513230f202a4d",
        "sessions.csv":
            "0f937b0793d2618d3e1a6e771395af01e8a23223fc0ce3ffd2837ec98b4b1690",
        "summary.md":
            "4e87f973a50f42b19a59c9ffed6a20c80b1bcd35f328c507f157fcd36b9266e4",
        "test.capture":
            "c6732b50fcfb9346831a2617aab1814fb128044cbafc0097669a000523332937",
        "train.capture":
            "21d06d6c23a2a2958e46ddd491282f52b8a1d3c110754d94a18e748dc5dbcc9a",
    },
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_small_campaign_matches_pinned_hashes(tmp_path, capsys, key):
    engine = tmp_path / "wide.cfg"
    engine.write_text(WIDE_ENGINE, encoding="utf-8", newline="\n")
    extra = {"lag2": ["--adaptation-lag", "2"],
             "clicks-off": ["--clicks", "off"],
             "wide-engine": ["--engine", str(engine)]}[key]
    out = tmp_path / "bundle"
    assert main(["campaign", "--seed", "7", "--train", "1", "--test", "1",
                 "--out", str(out), *extra]) == 0
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in PINNED[key]}
    assert len(hashes) == 9
    assert hashes == PINNED[key]
