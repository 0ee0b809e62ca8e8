"""Byte pins on the harness: CLI reports and generated datasets.

The digests were measured on the per-pair implementation of gen_dataset and
train_run; the columnar ones must reproduce them exactly.
"""

import hashlib
import json

import pytest

from gkpo.cli import main
from gkpo.harness import SHIFT_PROFILES, gen_dataset, save_jsonl

REPORT_CONFIG = {"size": 400, "seeds": [0, 1], "steps": 40}

# sha256 of `gkpo harness h1|h2 --config <REPORT_CONFIG>` stdout
REPORT_DIGESTS = {
    "h1": "1c8c68c59ce9021872293f9a836228e38dec169a8163d7f1d42139cd4c6a212d",
    "h2": "281230a26a580b2eb0f32e621ea6cf751d6c994c3217c264cba2ed81d6991cd2",
}

# sha256 of `gkpo harness h1|h2` stdout with no --config: each hypothesis's
# default data, method configs and HarnessParams
DEFAULT_REPORT_DIGESTS = {
    "h1": "f4042de6c567f48d31a1a03d54cbc9346617e91cfe1bebb2fe323d07a03ccfce",
    "h2": "6c02e32deb3aced5c8c31c08ba868f738d87dcd9c263566ae5caa41c989dca7f",
}

# sha256 over the concatenated save_jsonl bytes of gen_dataset(2000, 8,
# profile, seed) for profile in SHIFT_PROFILES, seed in (0, 3), in that order
DATASET_DIGEST = "cd58fcfa24d44befa3c786d7a69179a15f3d233b146571cd6d3188bb4d75c84f"


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_harness_report_bytes_pinned(which, capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REPORT_CONFIG))
    assert main(["harness", which, "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[which]


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_default_harness_report_bytes_pinned(which, capsys):
    assert main(["harness", which]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_REPORT_DIGESTS[which]


def test_generated_dataset_bytes_pinned(tmp_path):
    digest = hashlib.sha256()
    for profile in SHIFT_PROFILES:
        for seed in (0, 3):
            path = tmp_path / f"{profile}_{seed}.jsonl"
            save_jsonl(gen_dataset(2000, 8, profile, seed), path)
            digest.update(path.read_bytes())
    assert digest.hexdigest() == DATASET_DIGEST
