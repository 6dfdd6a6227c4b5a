"""The benchmark's workloads and the inputs each one hands the program.

Every input derives from the workload seed: the synthetic dataset seed and
the split ``base_seed``. Seed 0 reproduces the reference protocol of the
README (dataset seed 42, base seed 0).
Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import json
from pathlib import Path

PROTOCOL_TRIALS = 10
LARGE_BATCH_TRIALS = 2
LARGE_BATCH_EPOCHS = 10


def _arm(name, loss_kind, batch_size, max_epochs=40):
    return {"name": name, "loss_kind": loss_kind, "batch_size": batch_size,
            "learning_rate": 0.1, "max_epochs": max_epochs, "surrogate_k": 20}


def protocol_config(seed: int) -> dict:
    """The reference 339-sample, 3-class protocol with a short trial count."""
    return {
        "dataset": {"synthetic": {
            "class_counts": [143, 71, 125], "dim": 8, "class_mean_separation": 2.0,
            "noise_std": 1.0, "label_flip_prob": 0.05, "seed": 42 + seed,
        }},
        "model": {"hidden_dims": [16]},
        "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True,
                  "n_repeats": PROTOCOL_TRIALS, "base_seed": seed},
        "arms": [_arm("ce_b8", "cross_entropy", 8), _arm("auc_b64", "auc_multiclass", 64)],
    }


def large_batch_config(seed: int) -> dict:
    """Binary blobs whose 2400-row train set fits one full-batch step per epoch."""
    return {
        "dataset": {"synthetic": {
            "class_counts": [3000, 1000], "dim": 8, "class_mean_separation": 2.0,
            "noise_std": 1.0, "label_flip_prob": 0.1, "seed": 42 + seed,
        }},
        "model": {"hidden_dims": [16]},
        "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True,
                  "n_repeats": LARGE_BATCH_TRIALS, "base_seed": seed},
        "arms": [
            _arm("auc_bin_b2048", "auc_binary", 2048, LARGE_BATCH_EPOCHS),
            _arm("auc_ovr_b2048", "auc_multiclass", 2048, LARGE_BATCH_EPOCHS),
        ],
    }


def program_config(rl, config: dict):
    """A compare config as rankloss's public types: (SyntheticSpec, ExperimentConfig)."""
    syn = config["dataset"]["synthetic"]
    spec = rl.SyntheticSpec(
        class_counts=tuple(syn["class_counts"]), dim=syn["dim"],
        class_mean_separation=syn["class_mean_separation"], noise_std=syn["noise_std"],
        label_flip_prob=syn["label_flip_prob"], seed=syn["seed"])
    sp = config["split"]
    split = rl.SplitSpec(ratios=tuple(sp["ratios"]), stratified=sp["stratified"],
                         n_repeats=sp["n_repeats"], base_seed=sp["base_seed"])
    arms = tuple(
        rl.ArmConfig(a["name"], a["loss_kind"], a["batch_size"], a["learning_rate"],
                     a["max_epochs"], rl.SurrogateParams(k=a["surrogate_k"]))
        for a in config["arms"])
    experiment = rl.ExperimentConfig(arms=arms, split=split,
                                     hidden_dims=tuple(config["model"]["hidden_dims"]))
    return spec, experiment


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's config into ``workdir``; return the run spec.

    The spec names the CLI arguments of one timed ``compare`` call and the
    trials each call completes. Trials run at ``--jobs 1``, the way the
    reference protocol is quoted.
    """
    config = large_batch_config(seed) if workload == "large_batch_auc" else protocol_config(seed)
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    manifest = workdir / "manifest.json"
    return {
        "workload": workload, "items": config["split"]["n_repeats"], "config": config,
        "config_path": str(path), "manifest": str(manifest),
        "argv": ["compare", "--config", str(path), "--out", str(manifest), "--jobs", "1"],
    }
