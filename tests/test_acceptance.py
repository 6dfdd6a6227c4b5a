"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``). Tolerances and budgets are
pinned here, not configurable.
"""

import json
import math
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rankloss import (
    ArmConfig,
    ExperimentConfig,
    SplitSpec,
    SurrogateParams,
    SyntheticSpec,
    auroc_pairwise,
    auroc_rank_scores,
    binary_auc_loss,
    finite_diff_check,
    generate_synthetic,
    loss_function,
    mean_ci,
    multiclass_auc_loss,
    run_experiment,
    softmax,
    stratified_batches,
    t_test,
)
from rankloss.cli import _parse_compare_config, main

from conftest import random_batch, random_pos_neg
from test_harness import t_test_oracle
from test_readme import JSON_BLOCKS


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "rank path equals pairwise enumeration on 1000 batches"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(1000):
            pos, neg = random_pos_neg(seed, max_n=500, ties=seed % 2 == 0)
            fast = auroc_rank_scores(pos, neg).value
            slow = auroc_pairwise(pos, neg).value
            worst = max(worst, abs(fast - slow))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12, f"max deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_surrogate_convergence():
    with criterion(2, "surrogate-to-metric gap bounded by exp(-k * delta)"):
        start = time.perf_counter()
        for seed in range(100):
            batch = random_batch(seed, 16, 2)
            p = softmax(batch.scores)[:, 1]
            pos, neg = p[batch.labels == 1], p[batch.labels == 0]
            delta = np.abs(pos[:, None] - neg[None, :]).min()
            assert delta > 0.0, "batch unexpectedly has a tied pair"
            exact = auroc_pairwise(pos, neg).value
            for k in (20.0, 50.0, 200.0):
                loss = binary_auc_loss(batch, SurrogateParams(k=k)).value
                gap = abs((1.0 - loss) - exact)
                assert gap <= math.exp(-k * delta), (
                    f"seed {seed}, k={k}: gap {gap} > bound {math.exp(-k * delta)}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_gradient_correctness():
    with criterion(3, "finite differences confirm all three loss gradients"):
        start = time.perf_counter()
        cases = (
            ("auc_binary", 16, 2),
            ("cross_entropy", 16, 3),
            ("auc_multiclass", 32, 3),
        )
        for kind, n, n_classes in cases:
            fn = loss_function(kind)
            worst = 0.0
            for seed in range(100):
                report = finite_diff_check(fn, random_batch(seed, n, n_classes), h=1e-5)
                worst = max(worst, report.max_rel_error)
            assert worst <= 1e-4, f"{kind}: max relative error {worst}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_binary_multiclass_consistency():
    with criterion(4, "one-vs-rest loss collapses to the binary loss at 2 classes"):
        worst = 0.0
        for seed in range(200):
            batch = random_batch(seed, 16, 2)
            worst = max(
                worst,
                abs(binary_auc_loss(batch).value - multiclass_auc_loss(batch).value),
            )
        assert worst <= 1e-12, f"max deviation {worst}"


# The paper's reference protocol: README's `compare` config, with the
# optional arm fields spelled out.
REFERENCE_CONFIG = {
    "dataset": {
        "synthetic": {
            "class_counts": [143, 71, 125],
            "dim": 8,
            "class_mean_separation": 2.0,
            "noise_std": 1.0,
            "label_flip_prob": 0.05,
            "seed": 42,
        }
    },
    "model": {"hidden_dims": [16]},
    "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True,
              "n_repeats": 100, "base_seed": 0},
    "arms": [
        {"name": "ce_b8", "loss_kind": "cross_entropy", "batch_size": 8,
         "learning_rate": 0.1, "max_epochs": 40},
        {"name": "auc_b64", "loss_kind": "auc_multiclass", "batch_size": 64,
         "learning_rate": 0.1, "max_epochs": 40, "surrogate_k": 20},
    ],
}


def _compare(tmp_path, config):
    """``compare`` of ``config`` at --jobs 1: (exit code, manifest text, seconds)."""
    cfg_path = tmp_path / "config.json"
    out_path = tmp_path / "manifest.json"
    cfg_path.write_text(json.dumps(config))
    start = time.perf_counter()
    code = main(["compare", "--config", str(cfg_path), "--out", str(out_path), "--jobs", "1"])
    elapsed = time.perf_counter() - start
    return code, out_path.read_text(encoding="utf-8") if code == 0 else None, elapsed


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    # The 100-trial reference run, shared by the tests that check its manifest.
    return _compare(tmp_path_factory.mktemp("reference"), REFERENCE_CONFIG)


def test_criterion_5_protocol_reproduction(reference_run):
    with criterion(5, "full 339-sample 3-class protocol produces a complete manifest"):
        code, text, elapsed = reference_run
        assert code == 0
        manifest = json.loads(text)
        assert len(manifest["arms"]) == 2
        for arm in manifest["arms"]:
            assert len(arm["aurocs"]) == 100
            lo, hi = arm["ci"]
            assert lo <= arm["mean"] <= hi
        comp = manifest["comparisons"][0]
        assert isinstance(comp["p"], float) and 0.0 <= comp["p"] <= 1.0
        assert isinstance(comp["t"], float)
        assert elapsed < 900.0, f"took {elapsed:.1f}s"
        ce, auc = manifest["arms"]
        print(
            f"  protocol: {ce['name']} mean {ce['mean']:.4f} CI {ce['ci']}, "
            f"{auc['name']} mean {auc['mean']:.4f} CI {auc['ci']}, "
            f"p={comp['p']:.4g}, {elapsed:.0f}s"
        )


def test_criterion_6_direction_sanity():
    with criterion(6, "ranking-loss arm is non-inferior on noisy imbalanced blobs"):
        spec = SyntheticSpec(
            class_counts=(200, 100), dim=8, class_mean_separation=2.0,
            noise_std=1.0, label_flip_prob=0.10, seed=20,
        )
        dataset = generate_synthetic(spec)
        config = ExperimentConfig(
            arms=(
                ArmConfig("ce_b8", "cross_entropy", 8),
                ArmConfig("auc_b64", "auc_binary", 64),
            ),
            split=SplitSpec(n_repeats=100, base_seed=0),
            hidden_dims=(16,),
        )
        report = run_experiment(dataset, config, jobs=4)
        ce, auc = report.arms
        assert 0.75 <= ce.mean <= 0.90, f"CE arm mean {ce.mean:.4f} outside tuning window"
        assert auc.mean >= ce.mean - 0.01, (
            f"AUC arm mean {auc.mean:.4f} below CE mean {ce.mean:.4f} - 0.01"
        )
        print(f"  direction: CE {ce.mean:.4f}, AUC {auc.mean:.4f}")


def test_criterion_7_statistics_unit_checks():
    with criterion(7, "t-test matches a textbook oracle; CI matches hand arithmetic"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.86, 0.05, size=100)
            b = rng.normal(0.88, 0.05, size=100)
            t, p = t_test(a, b)
            t_ref, p_ref = t_test_oracle(a, b)
            assert abs(t - t_ref) <= 1e-8 and abs(p - p_ref) <= 1e-8

        mean, lo, hi = mean_ci([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8, abs=1e-15)
        assert lo == pytest.approx(0.8, abs=1e-15) and hi == pytest.approx(0.8, abs=1e-15)

        mean, lo, hi = mean_ci([0.0, 1.0])
        assert mean == 0.5
        assert hi - mean == pytest.approx(0.98, abs=1e-12)

        values = np.random.default_rng(1).normal(0.8, 0.05, size=100)
        mean, lo, hi = mean_ci(values)
        assert hi - mean == pytest.approx(1.96 * values.std(ddof=1) / 10.0, abs=1e-12)


CRITERION_8_CONFIG = {
    "dataset": {
        "synthetic": {
            "class_counts": [40, 20], "dim": 3, "class_mean_separation": 2.0,
            "noise_std": 1.0, "label_flip_prob": 0.1, "seed": 6,
        }
    },
    "model": {"hidden_dims": [4]},
    "split": {"n_repeats": 8, "base_seed": 5},
    "arms": [
        {"name": "ce", "loss_kind": "cross_entropy", "batch_size": 8,
         "max_epochs": 3},
        {"name": "auc", "loss_kind": "auc_binary", "batch_size": 16,
         "max_epochs": 3},
    ],
}

GOLDEN_CRITERION_8 = Path(__file__).parent / "golden" / "criterion8_manifest.json"


def _without_duration(manifest_text):
    return re.sub(r'\n  "duration_seconds": [^\n]*', "", manifest_text)


def test_criterion_8_parallel_determinism(tmp_path):
    with criterion(8, "worker count does not change manifest bytes"):
        cfg_path = tmp_path / "determinism.json"
        cfg_path.write_text(json.dumps(CRITERION_8_CONFIG))
        manifests = []
        for jobs in ("1", "1", "4"):
            out_path = tmp_path / f"manifest_{len(manifests)}.json"
            code = main(["compare", "--config", str(cfg_path), "--out", str(out_path),
                         "--jobs", jobs])
            assert code == 0
            doc = json.loads(out_path.read_text())
            del doc["duration_seconds"]
            manifests.append(json.dumps(doc, sort_keys=False).encode())
        assert manifests[0] == manifests[1] == manifests[2]


def _assert_matches_golden(run, golden_path):
    # ``run`` is a ``_compare`` result. The golden file was written by the
    # CLI; only the wall-clock duration may differ between runs.
    code, text, _ = run
    assert code == 0
    fresh = _without_duration(text)
    golden = _without_duration(golden_path.read_text(encoding="utf-8"))
    assert "duration_seconds" not in fresh and "duration_seconds" not in golden
    assert fresh == golden


def test_criterion_8_golden_manifest(tmp_path):
    with criterion(8, "a --jobs 1 manifest matches the committed golden bytes"):
        _assert_matches_golden(_compare(tmp_path, CRITERION_8_CONFIG), GOLDEN_CRITERION_8)


GOLDEN_REFERENCE = Path(__file__).parent / "golden" / "reference_manifest.json"


def test_reference_golden_manifest(reference_run):
    # The 100-trial reference protocol, README's config, at --jobs 1.
    (readme_config,) = JSON_BLOCKS
    assert (_parse_compare_config(json.loads(readme_config), None)[0]
            == _parse_compare_config(REFERENCE_CONFIG, None)[0])
    with criterion(8, "the reference protocol's manifest matches the committed golden bytes"):
        _assert_matches_golden(reference_run, GOLDEN_REFERENCE)


# Unstratified splits leave the per-class train counts ragged: the trials'
# counts all differ, and the ce arm's batch count is 5 in trials 0, 2, 4
# and 5 but 4 in trials 1 and 3 (class 2 has 4 training samples there).
UNSTRATIFIED_CONFIG = {
    "dataset": {
        "synthetic": {
            "class_counts": [40, 25, 10], "dim": 3, "class_mean_separation": 2.0,
            "noise_std": 1.0, "label_flip_prob": 0.0, "seed": 1,
        }
    },
    "model": {"hidden_dims": [4]},
    "split": {"stratified": False, "n_repeats": 6, "base_seed": 0},
    "arms": [
        {"name": "ce", "loss_kind": "cross_entropy", "batch_size": 8, "max_epochs": 3},
        {"name": "auc", "loss_kind": "auc_multiclass", "batch_size": 16, "max_epochs": 3},
    ],
}

GOLDEN_UNSTRATIFIED = Path(__file__).parent / "golden" / "unstratified_manifest.json"


def test_unstratified_golden_manifest(tmp_path):
    with criterion(8, "an unstratified --jobs 1 manifest matches the committed golden bytes"):
        _assert_matches_golden(_compare(tmp_path, UNSTRATIFIED_CONFIG), GOLDEN_UNSTRATIFIED)


def test_criterion_9_sampler_guarantee():
    with criterion(9, "every batch keeps the minority class; epochs partition exactly"):
        labels = np.repeat([0, 1], [90, 10])
        everything = np.arange(100)
        checked = 0
        for seed in range(10):
            for epoch in range(100):
                batches = stratified_batches(labels, batch_size=8, seed=seed, epoch=epoch)
                union = np.sort(np.concatenate(batches))
                assert np.array_equal(union, everything)
                for b in batches:
                    assert (labels[b] == 1).any(), f"seed {seed} epoch {epoch}: no minority"
                checked += 1
        assert checked == 1000
