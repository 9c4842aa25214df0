"""Byte-identity guards: pinned training metrics and pinned verify reports.

Each training case trains a shortened copy of a shipped config at seed 0 and
compares the sha256 of its metrics.csv with a constant recorded before the
model evaluation path was restructured. A refactor that changes any bit of
pretraining, sampling, scoring or the update shows up here.

The verify cases hash the sorted-key JSON of ``run_suite("all", seed)``,
recorded before the oracle's per-point and per-atom work was hoisted; any
change to a draw, a reduction order or a check shows up here.

If a change alters the numbers on purpose, say why and record the new digests.
"""

import hashlib
import json
import os

import pytest
import yaml

from creflow.cli import main
from creflow.oracle import run_suite

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHORT_RUN = {"iterations": 5, "pretrain_steps": 200, "demo_count": 64}


@pytest.mark.parametrize("config,world,digest", [
    ("creflow.yaml", {},
     "269e36c7c58ef8a0d24794afa77f9729d6d89606ad8a9ebb041c13d5a71375a9"),
    ("vanilla_nft.yaml", {},
     "a88264dffd1589657b296fae915120e581001345a64703b8210f6e28e3c88339"),
    ("creflow.yaml", {"model_kind": "mlp"},
     "9b6d73bbeedc6dacdfa912c60f6d3431744530e699e8fed6a4c992691f324eb1"),
], ids=["creflow", "vanilla_nft", "creflow_mlp"])
def test_short_train_metrics_are_pinned(tmp_path, capsys, config, world, digest):
    with open(os.path.join(CONFIGS, config)) as fh:
        doc = yaml.safe_load(fh)
    doc["world"].update(SHORT_RUN, **world)
    doc["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["train", "--config", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "metrics.csv", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize("seed,digest", [
    (0, "0b213795b10894052b7b34893799d51d8e70c7b2a62fdb884afdd551c560d621"),
    (1, "22b8a98f995dcfa6d23814b73fe885289aa83c384a2595f9a005036994165e7a"),
    (2, "afb3581c3c036b3dff2113f0bee28ec240f9b2e7040d93ceefc32d8aeb1a18af"),
])
def test_verify_all_report_is_pinned(seed, digest):
    text = json.dumps(run_suite("all", seed).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
