"""Byte-identity guards: pinned training metrics and pinned verify reports.

Each training case trains a shortened copy of a shipped config at seed 0 and
compares the sha256 of its metrics.csv with a constant recorded before the
model evaluation path was restructured, and that of its summary.json with
one recorded while the configs still carried a top-level
``corrective_enabled`` switch beside ``loss.lambda_cr``. A refactor that
changes any bit of pretraining, sampling, scoring, the update or the
summary shows up here.

The verify cases hash the sorted-key JSON of ``run_suite("all", seed)``
(seed 28's ``variance_crossing`` check fails), and the variance-curve cases
hash the per-t records of ``suite_variance(seed)`` (the Monte Carlo
``mc_nft``/``mc_cr`` traces the checks summarise); any change to a draw, a
reduction order or a check shows up here. Both were re-recorded when the
Monte Carlo moments became count-weighted sums over the table of atom
combinations, in place of numpy's row-order reductions over the draws: the
draws are unchanged, the reported values moved in their last bits (at most
3.1e-7 relative, on a relative error), and no check's pass/fail changed over
seeds 0-199.

The atlas cases decode four groups of eight scripted pick_place demos
(horizon 32, 64x64 grid, each group mixing successes and failures) and hash
the packed bits of every entity atlas and of the group's pixel credit mask,
recorded with the dense swept-disc kernel; any bit the candidate-cell kernel
sets differently shows up here.

The verdict-report cases score one decoded group of eight scripted demos
per template (and one hand-written spec whose clauses all fall outside the
four template families) and hash the sorted-key JSON of every
``verdict_report``: rewards, the witness pairs of each clause and the atlas
cell counts. They were recorded before clause evaluation was compiled into
one program per spec.

The mask-report cases hash the ``creflow mask`` JSON (``fileio.mask_report``:
layout, temporal and spatial bits, density) of the four atlas groups and of
the four verdict-report groups, on a pixel and an entity layout, recorded
while the credit mask still stored its dense (T, S) product.

If a change alters the numbers on purpose, say why and record the new digests.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
import yaml

from creflow import fileio, ltlf, simworld
from creflow.cli import main
from creflow.mask import LatentLayout, build_group_mask
from creflow.monitor import run_group_monitor, run_monitor
from creflow.oracle import run_suite, suite_variance
from creflow.trace import ClauseDecl

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHORT_RUN = {"iterations": 5, "pretrain_steps": 200, "demo_count": 64}


@pytest.mark.parametrize("config,world,digest,summary_digest", [
    ("creflow.yaml", {},
     "269e36c7c58ef8a0d24794afa77f9729d6d89606ad8a9ebb041c13d5a71375a9",
     "5ea90d5d76cd7348b6d788030067869d7b9fe887f55c7795826cb106f6a6f05a"),
    ("vanilla_nft.yaml", {},
     "a88264dffd1589657b296fae915120e581001345a64703b8210f6e28e3c88339",
     "c766f0bb2491d7d6c4249f05a8ace20fb4c1403bd189efdabcfc2ffaa01ccc3e"),
    ("creflow.yaml", {"model_kind": "mlp"},
     "9b6d73bbeedc6dacdfa912c60f6d3431744530e699e8fed6a4c992691f324eb1",
     "328e2b8e4fc2a0de225c27e540bf6227a6585dacfe5020345f24976ae6546daf"),
    ("mask_only.yaml", {},
     "95d769a9059dbd81f1d639a40668b3576397d919c1a6dcdcb2e5e960acc33364",
     "589176790107d5f905ae35ec52e999f0d2e0dcbe24477bca1d11bc1daf7cdcbc"),
    ("corrective_only.yaml", {},
     "d2f54488be6c013976ff6bef49ed84602a55ecc9d6c9842b551034edefb8ff65",
     "c4990ceac9d52bd25c7c3a5c768e805de6acfc761c766a030aa57966a2274a3a"),
], ids=["creflow", "vanilla_nft", "creflow_mlp", "mask_only", "corrective_only"])
def test_short_train_metrics_are_pinned(tmp_path, capsys, config, world, digest, summary_digest):
    with open(os.path.join(CONFIGS, config)) as fh:
        doc = yaml.safe_load(fh)
    doc["world"].update(SHORT_RUN, **world)
    doc["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["train", "--config", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    for name, pinned in (("metrics.csv", digest), ("summary.json", summary_digest)):
        with open(tmp_path / "out" / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == pinned, name


@pytest.mark.parametrize("seed,digest", [
    (0, "ee652529cda3f63cb5a4f3e69bdda2f0f6f3ca9fcd141fd66471266d7215854a"),
    (1, "a227b51d5bf9bd4f927c5170ca45465ff6bd365ee21fe63ba87d354230cf978a"),
    (2, "b4a4907445bd5b35ed9732957e78496a592d1b2c0831bb20aea44d65c4036f21"),
    # variance_crossing fails here (ratio outside the 1.5 band): the failing report path
    (28, "a7ae2b5b5f42ba09d5029ead852dc2dd94a20892c24a14d8d9138a3b8313c0ad"),
])
def test_verify_all_report_is_pinned(seed, digest):
    text = json.dumps(run_suite("all", seed).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed,digest", [
    (0, "ed288ba4f1b68e4c6bb70d45256a7bbe4ea95008c16c17a87ddb76cecc486258"),
    (1, "27b608ac3d33f0a403ca92ed2230876e5419b0f79c689cb200ca5c7cdb3ed63b"),
    (2, "d6887da33c9f73f472950bd643cb898b4d041fe972cbddfa5a4c8be404de883f"),
])
def test_variance_curves_are_pinned(seed, digest):
    text = json.dumps(suite_variance(seed)[1].records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def replay_group(gid):
    """(world, spec, verdicts) of replay group ``gid``: eight scripted pick_place demos."""
    world = simworld.WorldConfig(template="pick_place", horizon=32, grid=(64, 64))
    spec = simworld.build_task_spec(world)
    rng = np.random.default_rng((7, gid))
    verdicts = []
    for _ in range(8):
        condition = simworld.sample_condition(world, rng)
        z = simworld.scripted_demo(world, condition, rng)
        trace = simworld.decode_trace(simworld.latent_from_flat(z, world), world, condition)
        verdicts.append(run_monitor(spec, trace))
    return world, spec, verdicts


@pytest.mark.parametrize("gid,rewards,atlas_digest,mask_digest", [
    (0, [0, 0, 0, 1, 1, 0, 1, 0],
     "03ef47b62a7cbdef32f8abebc44558807fc1a9046e9ba6376a8ea46b3ffc4791",
     "83dea309a6908b8901242f05b4ad1b43a02eddf33941b956a11f9f36b0b6be66"),
    (1, [0, 0, 1, 1, 1, 1, 0, 1],
     "d4f412b517003ee4ffcbc4722fce5999d2a5fa6846fc543fa10290e81f35aca9",
     "6fbb7f6d051ff8626ede661f12415c79304fc610312c851ea90ff359a6368f7c"),
    (2, [0, 1, 0, 1, 0, 1, 1, 1],
     "b7de9b5c15fca0a706484ccd3b8cf71d2c6f5be34591f6d90e99a8c26288d60f",
     "18392ff5ac140f7c964ce707b8f7bd51557c2b82ab4c17f95886852c02ed2407"),
    (3, [0, 0, 1, 0, 0, 0, 1, 1],
     "8ec0f8f0be8859c4f769854beb43280d86227121254ff03acbeb11cf84991989",
     "28b5e61bb421a23b7f70b26610ba6f78936a907ad1195e1acdf285ab795edc3b"),
])
def test_pixel_atlases_are_pinned(gid, rewards, atlas_digest, mask_digest):
    world, spec, verdicts = replay_group(gid)
    assert [v.reward for v in verdicts] == rewards
    atlases = hashlib.sha256()
    for v in verdicts:
        for eid, raster in v.atlas.masks.items():
            atlases.update(eid.encode())
            atlases.update(np.packbits(raster).tobytes())
    assert atlases.hexdigest() == atlas_digest
    mask = build_group_mask(verdicts, LatentLayout.pixel(world.horizon, world.grid))
    assert hashlib.sha256(np.packbits(mask.full).tobytes()).hexdigest() == mask_digest


def template_group(template, n_objects, gid, clauses):
    """(world, spec, verdicts) of one decoded group of eight scripted demos (horizon 16, 24x24)."""
    world = simworld.WorldConfig(template=template, n_objects=n_objects, horizon=16,
                                 grid=(24, 24))
    spec = simworld.build_task_spec(world)
    if clauses is not None:
        spec = dataclasses.replace(spec, clauses=[ClauseDecl(cid, src) for cid, src in clauses])
        assert all(ltlf.classify_template(c.formula) is ltlf.TemplateFamily.OTHER
                   for c in spec.clauses)
    rng = np.random.default_rng((11, gid))
    condition = simworld.sample_condition(world, rng)
    demos = np.stack([simworld.scripted_demo(world, condition, rng) for _ in range(8)])
    return world, spec, run_group_monitor(spec, simworld.RolloutDecoder(world)(demos, condition))


# Clauses of the OTHER family, so their witnesses come from the polarity rule.
OTHER_CLAUSES = (
    ("eventually_still", "F (!moving(cube) & inside(cube, bin))"),
    ("grasp_recurs", "G F grasp(arm_left, cube)"),
    ("never_both", "G !(grasp(arm_left, cube) & grasp(arm_right, cube))"),
    ("either_order", "(moving(cube) U inside(cube, bin)) | G !moving(arm_left)"),
)


@pytest.mark.parametrize("template,n_objects,gid,clauses,rewards,digest", [
    ("pick_place", 1, 0, None, [0, 1, 0, 1, 1, 0, 0, 0],
     "79aac9bb99656e94d4c7ef6b052f8f2faac67784b35a643a412b8b6c210966dd"),
    ("ordered_stack", 2, 2, None, [1, 0, 1, 1, 0, 1, 0, 0],
     "89f07bdcb97e8a76986b4b4ecf33e558bce322a68d47ddd19310f2a97219d312"),
    ("persist_hold", 1, 3, None, [0, 1, 0, 0, 0, 1, 0, 0],
     "bfe2a701ddb53620508c2be422ff65f0c0b509f6bbf4ffcb5b4616dc8a6ea065"),
    ("pick_place", 1, 4, OTHER_CLAUSES, [0] * 8,
     "460f1197d27e280b944253184f37d3bdf786c0a985c9768b3b10169bbaa7999f"),
], ids=["pick_place", "ordered_stack", "persist_hold", "other_family"])
def test_verdict_reports_are_pinned(template, n_objects, gid, clauses, rewards, digest):
    world, spec, verdicts = template_group(template, n_objects, gid, clauses)
    assert [v.reward for v in verdicts] == rewards
    text = json.dumps([fileio.verdict_report(v) for v in verdicts], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def mask_report_digests(world, spec, verdicts):
    """sha256 of the ``creflow mask`` JSON of the group, on its pixel and its entity layout."""
    digests = []
    for layout in (LatentLayout.pixel(world.horizon, world.grid),
                   LatentLayout.entity(world.horizon, spec.entity_ids(), channels=2)):
        mask = build_group_mask(verdicts, layout, spec.clause_entities())
        text = fileio.json_text(fileio.mask_report(mask, layout))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return digests


# Every entity mask of the replay groups is all set (density 1.0), so its digest repeats.
ENTITY_ALL_SET = "57541cdf9e2b813e6741777e3566af0d0b36ef3587b5b4e172e50cac3500550f"


@pytest.mark.parametrize("gid,pixel_digest,entity_digest", [
    (0, "b5f77fafea77a8dc3416d73a26948316a5872b8cee5a996b361f41462fa6480f", ENTITY_ALL_SET),
    (1, "ceea424a2b532910f6062b7a90838cc64efcc909830074d597a4cda284634bad", ENTITY_ALL_SET),
    (2, "d551535541dc9dcb5e140096a390ab9c1be5a1b0ef724a55665c2d6365118749", ENTITY_ALL_SET),
    (3, "b07510a862fcf63418f784f04993f4b9c70df89409494df7daf634064f497abb", ENTITY_ALL_SET),
])
def test_replay_mask_reports_are_pinned(gid, pixel_digest, entity_digest):
    assert mask_report_digests(*replay_group(gid)) == [pixel_digest, entity_digest]


# The 16-frame layouts of these groups (576 pixel sites) give densities that are
# not dyadic fractions, so their last bits depend on how the share is divided out.
@pytest.mark.parametrize("template,n_objects,gid,clauses,pixel_digest,entity_digest", [
    ("pick_place", 1, 0, None,
     "acbb7bfa363152287f9575db74c098cc8fa04af34c4db6d7db214a0c9dd83641",
     "8a6553f62c2debd8819ffe02a2aaea9e8ad430c9af0161e3f9a97e0de388edcf"),
    ("ordered_stack", 2, 2, None,
     "be540df8f03fcaf2f5910fb6917e4cac30d9ed263f3ada75e93036fb5a9b72e6",
     "a84953f5738d946c051365ff5bec6d74111555492ec3563592b0c6191d53c496"),
    ("persist_hold", 1, 3, None,
     "234053944acba4ee50c24af79c40af21ae9fb590534030806a23bf12da686da4",
     "be4dffb7379440ba0f78ab9563874f381b598fe7f89a654e456b4988091661ae"),
    ("pick_place", 1, 4, OTHER_CLAUSES,
     "9b55f405607038c5b4030a30c4930540635b301f9e0a633f59a392827f8e0fe7",
     "8a6553f62c2debd8819ffe02a2aaea9e8ad430c9af0161e3f9a97e0de388edcf"),
], ids=["pick_place", "ordered_stack", "persist_hold", "other_family"])
def test_template_mask_reports_are_pinned(template, n_objects, gid, clauses, pixel_digest,
                                          entity_digest):
    digests = mask_report_digests(*template_group(template, n_objects, gid, clauses))
    assert digests == [pixel_digest, entity_digest]

