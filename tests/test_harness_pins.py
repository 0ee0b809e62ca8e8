"""Byte pins on the harness: CLI reports and generated datasets.

The digests were measured on the per-pair implementation of gen_dataset and
train_run; the columnar ones must reproduce them exactly. A dataset is pinned
through `pairs_jsonl`, the line-delimited JSON that the package once wrote
for it.
"""

import hashlib
import json

import pytest

from gkpo.cli import main
from gkpo.harness import BACKGROUND_KEY, SHIFT_PROFILES, gen_dataset

REPORT_CONFIG = {"size": 400, "seeds": [0, 1], "steps": 40}

# sha256 of `gkpo harness h1|h2 --config <REPORT_CONFIG>` stdout
REPORT_DIGESTS = {
    "h1": "1c8c68c59ce9021872293f9a836228e38dec169a8163d7f1d42139cd4c6a212d",
    "h2": "281230a26a580b2eb0f32e621ea6cf751d6c994c3217c264cba2ed81d6991cd2",
}

# sha256 of the `--out` text report (`report.to_text() + "\n"`) under
# REPORT_CONFIG
TEXT_REPORT_DIGESTS = {
    "h1": "640409e8a1da18b5ae6a7fd6a501ab6afbb071e08a5e9ce195b47d646238600a",
    "h2": "feda3566d7adb1124140a48f9161a0ad790cebf8c0aa984b2702c830cfc1ca8d",
}

# sha256 of `gkpo harness h1|h2` stdout with no --config: each hypothesis's
# default data, method configs and HarnessParams
DEFAULT_REPORT_DIGESTS = {
    "h1": "f4042de6c567f48d31a1a03d54cbc9346617e91cfe1bebb2fe323d07a03ccfce",
    "h2": "6c02e32deb3aced5c8c31c08ba868f738d87dcd9c263566ae5caa41c989dca7f",
}

# sha256 over the concatenated pairs_jsonl bytes of gen_dataset(2000, 8,
# profile, seed) for profile in SHIFT_PROFILES, seed in (0, 3), in that order
DATASET_DIGEST = "cd58fcfa24d44befa3c786d7a69179a15f3d233b146571cd6d3188bb4d75c84f"


_PAIR_KEYS = ("prompt_id", "delta_u", "features_pos", "features_neg", "label", "slice",
              "delta_phi", "omega", "delta_ref")


def pairs_jsonl(data) -> bytes:
    """A header line {"format": "gkpo-pairs-1", "seed": ...}, then one JSON
    object per pair with _PAIR_KEYS in that order."""
    n, batch = len(data), data.batch
    slice_of = [BACKGROUND_KEY] * n
    for name, idx in data.slices.items():
        for i in idx:
            slice_of[i] = name
    tables = []
    for table in (batch.delta_phi, batch.omega, batch.delta_ref):
        columns = {name: col.tolist() for name, col in table.items()}
        tables.append([{name: col[i] for name, col in columns.items()} for i in range(n)])
    lines = [{"format": "gkpo-pairs-1", "seed": data.seed}]
    lines += (
        dict(zip(_PAIR_KEYS, row))
        for row in zip(
            batch.prompt_ids,
            batch.delta_u.tolist(),
            data.features_pos.tolist(),
            data.features_neg.tolist(),
            data.labels.astype(int).tolist(),
            slice_of,
            *tables,
        )
    )
    return "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_harness_report_bytes_pinned(which, capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REPORT_CONFIG))
    assert main(["harness", which, "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[which]


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_harness_text_report_bytes_pinned(which, capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REPORT_CONFIG))
    out = tmp_path / "out"
    assert main(["harness", which, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / f"{which}_report.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == TEXT_REPORT_DIGESTS[which]


@pytest.mark.parametrize("which", ["h1", "h2"])
def test_default_harness_report_bytes_pinned(which, capsys):
    assert main(["harness", which]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_REPORT_DIGESTS[which]


def test_generated_dataset_bytes_pinned():
    digest = hashlib.sha256()
    for profile in SHIFT_PROFILES:
        for seed in (0, 3):
            digest.update(pairs_jsonl(gen_dataset(2000, 8, profile, seed)))
    assert digest.hexdigest() == DATASET_DIGEST
