import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rankloss
from rankloss import TrialError, auroc_pairwise, generate_synthetic
from rankloss.cli import _parse_compare_config, main

from conftest import pairwise_oracle, random_pos_neg
from oracle import run_trial


def write_binary_metric_csv(path, scores, labels):
    lines = ["score,target"]
    lines += [f"{s},{y}" for s, y in zip(scores, labels)]
    path.write_text("\n".join(lines) + "\n")


def small_compare_config(out_dir, n_repeats=4, base_seed=3, epochs=2):
    return {
        "dataset": {
            "synthetic": {
                "class_counts": [40, 20],
                "dim": 3,
                "class_mean_separation": 2.0,
                "noise_std": 1.0,
                "label_flip_prob": 0.0,
                "seed": 1,
            }
        },
        "model": {"hidden_dims": [4]},
        "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True,
                  "n_repeats": n_repeats, "base_seed": base_seed},
        "arms": [
            {"name": "ce_b8", "loss_kind": "cross_entropy", "batch_size": 8,
             "learning_rate": 0.1, "max_epochs": epochs},
            {"name": "auc_b16", "loss_kind": "auc_binary", "batch_size": 16,
             "learning_rate": 0.1, "max_epochs": epochs, "surrogate_k": 20},
        ],
    }


def run_compare(tmp_path, config, extra_args=(), name="run"):
    cfg_path = tmp_path / f"{name}.json"
    out_path = tmp_path / f"{name}_manifest.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["compare", "--config", str(cfg_path), "--out", str(out_path), *extra_args])
    return code, out_path


class TestMetricCommand:
    def test_perfect_separation(self, tmp_path, capsys):
        path = tmp_path / "perfect.csv"
        write_binary_metric_csv(path, [0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert main(["metric", "--input", str(path), "--label-col", "target"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"auroc": 1.0, "n_pos": 2, "n_neg": 2}

    def test_all_equal_scores(self, tmp_path, capsys):
        path = tmp_path / "equal.csv"
        write_binary_metric_csv(path, [0.5] * 6, [0, 1, 0, 1, 0, 1])
        main(["metric", "--input", str(path), "--label-col", "target"])
        assert json.loads(capsys.readouterr().out)["auroc"] == 0.5

    def test_matches_pairwise_oracle(self, tmp_path, capsys):
        pos, neg = random_pos_neg(17, max_n=50, ties=True)
        scores = np.concatenate([pos, neg])
        labels = [1] * len(pos) + [0] * len(neg)
        path = tmp_path / "random.csv"
        write_binary_metric_csv(path, scores, labels)
        main(["metric", "--input", str(path), "--label-col", "target"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["auroc"] == pytest.approx(pairwise_oracle(pos, neg), abs=1e-15)
        assert payload["auroc"] == auroc_pairwise(pos, neg).value

    def test_multiclass(self, tmp_path, capsys):
        path = tmp_path / "multi.csv"
        rows = ["s0,s1,s2,target"]
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        for row, y in zip(scores, labels):
            rows.append(",".join(map(str, row)) + f",{y}")
        path.write_text("\n".join(rows) + "\n")
        code = main(["metric", "--input", str(path), "--label-col", "target", "--multiclass"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = np.mean([
            auroc_pairwise(scores[labels == c, c], scores[labels != c, c]).value
            for c in range(3)
        ])
        assert payload["auroc"] == pytest.approx(expected, abs=1e-15)
        assert len(payload["per_class"]) == 3

    def test_byte_order_mark_before_label_column(self, tmp_path, capsys):
        # Files saved by spreadsheet programs often start with one.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbftarget,score\n0,0.1\n0,0.4\n1,0.35\n1,0.8\n")
        assert main(["metric", "--input", str(path), "--label-col", "target"]) == 0
        assert json.loads(capsys.readouterr().out) == {"auroc": 0.75, "n_pos": 2, "n_neg": 2}

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,target\noops,1\n")
        assert main(["metric", "--input", str(path), "--label-col", "target"]) == 2
        err = capsys.readouterr().err
        assert "row 0" in err and "score" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["metric", "--input", str(tmp_path / "nope.csv"), "--label-col", "t"]) == 2

    def test_binary_labels_outside_01_exit_2(self, tmp_path, capsys):
        path = tmp_path / "labels2.csv"
        write_binary_metric_csv(path, [0.1, 0.9, 0.5], [0, 1, 2])
        assert main(["metric", "--input", str(path), "--label-col", "target"]) == 2
        assert "{0, 1}" in capsys.readouterr().err

    def test_short_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("score,target\n0.4,1\n0.2\n")
        assert main(["metric", "--input", str(path), "--label-col", "target"]) == 2
        assert "row 1" in capsys.readouterr().err


class TestGenCommand:
    def test_generates_loadable_csv(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "class_counts": [10, 5], "dim": 3, "class_mean_separation": 1.0,
            "noise_std": 1.0, "seed": 2,
        }))
        out = tmp_path / "data.csv"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 0
        from rankloss import load_csv

        ds = load_csv(out, "label")
        assert ds.n_samples == 15 and ds.n_features == 3

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"class_counts": [10, 5], "dim": 3}))
        assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "class_mean_separation" in capsys.readouterr().err


class TestCompareCommand:
    def test_manifest_schema(self, tmp_path, capsys):
        code, out_path = run_compare(tmp_path, small_compare_config(tmp_path))
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert set(manifest) == {
            "version", "config", "arms", "comparisons", "n_repeats",
            "trial_seeds", "duration_seconds",
        }
        assert [a["name"] for a in manifest["arms"]] == ["ce_b8", "auc_b16"]
        for arm in manifest["arms"]:
            assert len(arm["aurocs"]) == 4
            assert arm["ci"][0] <= arm["mean"] <= arm["ci"][1]
        comp = manifest["comparisons"][0]
        assert comp["arm_a"] == "ce_b8" and comp["arm_b"] == "auc_b16"
        # The stdout summary is derived from the manifest.
        out = capsys.readouterr().out
        assert "ce_b8" in out and "auc_b16" in out

    def test_constant_equal_arms_have_no_t_test(self, tmp_path, capsys):
        # Blobs 20 noise widths apart: both arms score an AUROC of 1.0 in
        # every trial, so the t statistic is 0/0 (DegenerateVarianceError).
        # The comparison is written with null t and p, and the summary's
        # p column reads n/a.
        config = small_compare_config(tmp_path)
        config["dataset"]["synthetic"]["class_mean_separation"] = 20.0
        code, out_path = run_compare(tmp_path, config)
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert [arm["aurocs"] for arm in manifest["arms"]] == [[1.0] * 4] * 2
        assert manifest["comparisons"] == [{"arm_a": "ce_b8", "arm_b": "auc_b16",
                                            "t": None, "p": None}]
        row = capsys.readouterr().out.splitlines()[2]
        assert row.split() == ["auc_b16", "1.0000", "[1.0000,", "1.0000]", "n/a"]

    def test_constant_unequal_arms_write_strict_json(self, tmp_path):
        # Every trial of ce scores 1.0 and every trial of the untrained arm
        # 0.0, so t_test returns (inf, 0.0). JSON has no infinity: the
        # manifest parses with no NaN or Infinity literal, t is null and p
        # is 0.0.
        config = {
            "dataset": {"synthetic": {"class_counts": [5, 5], "dim": 2,
                                      "class_mean_separation": 8.0, "noise_std": 1.0,
                                      "seed": 3}},
            "split": {"n_repeats": 2, "base_seed": 3},
            "arms": [
                {"name": "ce", "loss_kind": "cross_entropy", "batch_size": 4, "max_epochs": 20},
                {"name": "still", "loss_kind": "cross_entropy", "batch_size": 4,
                 "learning_rate": 0.0, "max_epochs": 1},
            ],
        }
        code, out_path = run_compare(tmp_path, config)
        assert code == 0

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")

        manifest = json.loads(out_path.read_text(), parse_constant=reject)
        assert [arm["aurocs"] for arm in manifest["arms"]] == [[1.0, 1.0], [0.0, 0.0]]
        assert manifest["comparisons"] == [{"arm_a": "ce", "arm_b": "still",
                                            "t": None, "p": 0.0}]

    def test_unstratified_jobs_do_not_change_bytes(self, tmp_path):
        # The dataset and splits of tests/golden/unstratified_manifest.json:
        # the ce_b8 arm has 4 batches in trials 1 and 3 and 5 in the others,
        # so each of the two workers' blocks (trials 0-2, 3-5) steps two stacks.
        config = small_compare_config(tmp_path, n_repeats=6, base_seed=0)
        config["dataset"]["synthetic"]["class_counts"] = [40, 25, 10]
        config["split"]["stratified"] = False
        config["arms"][1]["loss_kind"] = "auc_multiclass"
        manifests = []
        for jobs in ("1", "2"):
            code, out_path = run_compare(tmp_path, config, ["--jobs", jobs], name=f"jobs{jobs}")
            assert code == 0
            manifest = json.loads(out_path.read_text())
            del manifest["duration_seconds"]
            manifests.append(json.dumps(manifest))
        assert manifests[0] == manifests[1]

    def test_batch_size_past_int64_is_one_batch(self, tmp_path):
        # Every batch size of at least the training rows gives one batch per
        # epoch, also one past the int64 range.
        aurocs = []
        for batch_size in (10**9, 2**63, 2**64):
            config = small_compare_config(tmp_path)
            for arm in config["arms"]:
                arm["batch_size"] = batch_size
            code, out_path = run_compare(tmp_path, config, name=f"b{batch_size}")
            assert code == 0
            aurocs.append([arm["aurocs"] for arm in json.loads(out_path.read_text())["arms"]])
        assert aurocs[0] == aurocs[1] == aurocs[2]

    def test_single_repeat_nulls(self, tmp_path):
        code, out_path = run_compare(
            tmp_path, small_compare_config(tmp_path, n_repeats=1), name="single"
        )
        assert code == 0
        manifest = json.loads(out_path.read_text())
        for arm in manifest["arms"]:
            assert arm["ci"] is None and arm["std"] is None
            assert isinstance(arm["mean"], float)
        assert manifest["comparisons"][0]["p"] is None

    def test_rerun_identical_modulo_duration(self, tmp_path):
        config = small_compare_config(tmp_path)
        _, first = run_compare(tmp_path, config, name="a")
        _, second = run_compare(tmp_path, config, name="b")
        m1 = json.loads(first.read_text())
        m2 = json.loads(second.read_text())
        del m1["duration_seconds"], m2["duration_seconds"]
        assert json.dumps(m1) == json.dumps(m2)

    def test_resolved_config_reruns_identically(self, tmp_path):
        # The config echoed in the manifest is itself a valid input that
        # reproduces every non-timing field.
        _, first = run_compare(tmp_path, small_compare_config(tmp_path), name="orig")
        m1 = json.loads(first.read_text())
        _, second = run_compare(tmp_path, m1["config"], name="echoed")
        m2 = json.loads(second.read_text())
        del m1["duration_seconds"], m2["duration_seconds"]
        assert json.dumps(m1) == json.dumps(m2)

    def test_config_error_carries_pointer(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        config["arms"][1]["loss_kind"] = "mse"
        code, _ = run_compare(tmp_path, config, name="bad")
        assert code == 2
        assert "/arms/1/loss_kind" in capsys.readouterr().err

    def test_missing_field_pointer(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        del config["arms"][0]["batch_size"]
        code, _ = run_compare(tmp_path, config, name="missing")
        assert code == 2
        assert "/arms/0/batch_size" in capsys.readouterr().err

    def test_one_arm_rejected(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        config["arms"] = config["arms"][:1]
        code, _ = run_compare(tmp_path, config, name="onearm")
        assert code == 2
        assert "/arms" in capsys.readouterr().err

    def test_runtime_error_exits_3_with_trial(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        config["dataset"]["synthetic"]["class_counts"] = [40, 2]
        code, _ = run_compare(tmp_path, config, name="runtime")
        assert code == 3
        assert "trial 0" in capsys.readouterr().err

    def test_runtime_error_survives_worker_processes(self, tmp_path, capsys):
        # The trial failure must unpickle intact when raised inside a pool.
        config = small_compare_config(tmp_path)
        config["dataset"]["synthetic"]["class_counts"] = [40, 2]
        code, _ = run_compare(tmp_path, config, extra_args=["--jobs", "4"], name="poolerr")
        assert code == 3
        assert "trial" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        config = small_compare_config(tmp_path, base_seed=3)
        _, with_flag = run_compare(tmp_path, config, extra_args=["--seed", "9"], name="flag")
        config9 = small_compare_config(tmp_path, base_seed=9)
        _, direct = run_compare(tmp_path, config9, name="direct")
        m1 = json.loads(with_flag.read_text())
        m2 = json.loads(direct.read_text())
        assert m1["config"]["split"]["base_seed"] == 9
        del m1["duration_seconds"], m2["duration_seconds"]
        assert json.dumps(m1) == json.dumps(m2)

    def test_env_seed_override_and_flag_precedence(self, tmp_path, monkeypatch):
        config = small_compare_config(tmp_path, base_seed=3)
        monkeypatch.setenv("RANKLOSS_SEED", "9")
        _, via_env = run_compare(tmp_path, config, name="env")
        assert json.loads(via_env.read_text())["config"]["split"]["base_seed"] == 9
        _, via_flag = run_compare(tmp_path, config, extra_args=["--seed", "4"], name="envflag")
        assert json.loads(via_flag.read_text())["config"]["split"]["base_seed"] == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("learning_rate", [1e200, 1e20])
    def test_diverging_arm_exits_3_with_trial(self, tmp_path, capsys, learning_rate):
        # 1e20 keeps every step's logits finite and overflows only in the
        # validation pass; 1e200 overflows within the first epoch's batches.
        config = small_compare_config(tmp_path, base_seed=0)
        config["arms"][0]["learning_rate"] = learning_rate
        code, _ = run_compare(tmp_path, config, name="diverge")
        assert code == 3
        err = capsys.readouterr().err
        assert "trial 0" in err and "NonFiniteError" in err

    def test_unstratified_diverging_arm_warns_nothing(self, tmp_path, capsys):
        # The per-trial path reports divergence as the stratified engine
        # does: exit 3 and the trial's error, with no NumPy RuntimeWarning.
        config = small_compare_config(tmp_path, base_seed=0)
        config["dataset"]["synthetic"]["class_counts"] = [30, 30]
        config["split"]["stratified"] = False
        config["arms"][0]["learning_rate"] = 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_compare(tmp_path, config, name="diverge_unstratified")
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err.strip() == (
            "error: trial 0, arm ce_b8: NonFiniteError: logits became non-finite "
            "at epoch 0, batch 1 (trial 0)"
        )

    def test_jobs_validation(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        code, _ = run_compare(tmp_path, config, extra_args=["--jobs", "0"], name="jobs")
        assert code == 2

    def test_csv_dataset_source(self, tmp_path):
        spec_path = tmp_path / "blobs.json"
        spec_path.write_text(json.dumps({
            "class_counts": [40, 20], "dim": 3, "class_mean_separation": 2.0,
            "noise_std": 1.0, "seed": 1,
        }))
        data_path = tmp_path / "blobs.csv"
        assert main(["gen", "--spec", str(spec_path), "--out", str(data_path)]) == 0
        config = small_compare_config(tmp_path)
        config["dataset"] = {"csv": {"path": str(data_path), "label_column": "label"}}
        code, out_path = run_compare(tmp_path, config, name="fromcsv")
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert manifest["config"]["dataset"]["csv"]["path"] == str(data_path)
        assert all(len(a["aurocs"]) == 4 for a in manifest["arms"])

    def test_negative_learning_rate_is_config_error(self, tmp_path, capsys):
        config = small_compare_config(tmp_path)
        config["arms"][0]["learning_rate"] = -0.1
        code, _ = run_compare(tmp_path, config, name="neglr")
        assert code == 2
        assert "/arms/0" in capsys.readouterr().err

    def test_imbalanced_binary_cohort_manifest(self, tmp_path):
        # 2:1-ish imbalanced binary blobs, small-batch baseline vs
        # large-batch ranking loss, 100 repeats: the manifest carries two
        # 100-length AUROC vectors, CIs, and one p-value.
        config = {
            "dataset": {
                "synthetic": {
                    "class_counts": [143, 71], "dim": 4,
                    "class_mean_separation": 1.5, "noise_std": 1.0,
                    "label_flip_prob": 0.05, "seed": 13,
                }
            },
            "model": {"hidden_dims": [8]},
            "split": {"n_repeats": 100, "base_seed": 1},
            "arms": [
                {"name": "ce_b8", "loss_kind": "cross_entropy", "batch_size": 8,
                 "max_epochs": 5},
                {"name": "auc_b64", "loss_kind": "auc_binary", "batch_size": 64,
                 "max_epochs": 5},
            ],
        }
        code, out_path = run_compare(tmp_path, config, extra_args=["--jobs", "4"],
                                     name="cohort")
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert [len(a["aurocs"]) for a in manifest["arms"]] == [100, 100]
        assert all(len(a["ci"]) == 2 for a in manifest["arms"])
        assert len(manifest["comparisons"]) == 1
        assert 0.0 <= manifest["comparisons"][0]["p"] <= 1.0


# Runs each argv of argv[1] (JSON) through the CLI in a fresh interpreter and
# prints the exit codes and whether scipy got imported. With argv[2] ==
# "block", any import of scipy raises ImportError.
_CLI_PROBE = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from rankloss.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy_loaded": sys.modules.get("scipy") is not None}))
"""


class TestWithoutScipy:
    def _probe(self, argvs, mode):
        src = str(Path(rankloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _CLI_PROBE, json.dumps(argvs), mode],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_commands_need_no_scipy(self, tmp_path):
        unstratified = small_compare_config(tmp_path)
        unstratified["split"]["stratified"] = False
        configs = {"stratified": small_compare_config(tmp_path), "unstratified": unstratified}
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        write_binary_metric_csv(tmp_path / "scores.csv", [0.1, 0.7, 0.4, 0.9], [0, 0, 1, 1])
        (tmp_path / "spec.json").write_text(json.dumps({
            "class_counts": [10, 5], "dim": 3, "class_mean_separation": 1.0,
            "noise_std": 1.0, "seed": 2,
        }))

        manifests = {}
        for mode in ("block", "plain"):
            argvs = [["compare", "--config", str(tmp_path / f"{name}.json"),
                      "--out", str(tmp_path / f"{name}_{mode}.json")] for name in configs]
            argvs.append(["metric", "--input", str(tmp_path / "scores.csv"),
                          "--label-col", "target"])
            argvs.append(["gen", "--spec", str(tmp_path / "spec.json"),
                          "--out", str(tmp_path / f"data_{mode}.csv")])
            assert self._probe(argvs, mode) == {"codes": [0, 0, 0, 0], "scipy_loaded": False}
            manifests[mode] = [
                re.sub(r'\n  "duration_seconds": [^\n]*', "",
                       (tmp_path / f"{name}_{mode}.json").read_text(encoding="utf-8"))
                for name in configs
            ]
        assert manifests["block"] == manifests["plain"]



# Imports the CLI in a fresh interpreter, runs each argv of argv[1] (JSON)
# through it and prints the exit codes and whether multiprocessing was
# imported after the import and after the runs.
_IMPORT_PROBE = """
import json, sys
from rankloss.cli import main
names = json.loads(sys.argv[2])
imported = [name for name in names if name in sys.modules]
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "after_import": imported,
                  "after_runs": [name for name in names if name in sys.modules]}))
"""


# Caps the address space at 2 GB before importing the CLI, then runs it on
# argv[1:] and exits with its code.
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from rankloss.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_out_of_memory_exits_3(tmp_path):
    # A hidden layer of 10^7 units needs arrays of hundreds of MB per trial:
    # under the cap an allocation fails, and the CLI reports it as a runtime
    # failure, not a traceback. A net or data set past the largest possible
    # array, where NumPy raises ValueError, is reported the same way.
    src = str(Path(rankloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    for where, key, value in [("model", "hidden_dims", [10_000_000]),
                              ("model", "hidden_dims", [2**63]),
                              ("synthetic", "dim", 2**63),
                              ("synthetic", "class_counts", [12, 2**63])]:
        config = small_compare_config(tmp_path)
        (config["model"] if where == "model" else config["dataset"]["synthetic"])[key] = value
        (tmp_path / "c.json").write_text(json.dumps(config))
        done = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "compare", "--config",
                               str(tmp_path / "c.json"), "--out", str(tmp_path / "m.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 3, (key, value, done.stderr)
        assert done.stderr.startswith("error: MemoryError: "), (key, value)
        assert "Traceback" not in done.stderr, (key, value)


def test_one_job_loads_no_multiprocessing(tmp_path):
    # Neither importing the CLI nor a --jobs 1 compare on a stratified
    # config imports what such a run never uses: multiprocessing, which
    # only --jobs > 1 needs; concurrent.futures, which only a stack split
    # across threads or --jobs > 1 needs; and numpy.ma, which np.unique
    # would import.
    (tmp_path / "c.json").write_text(json.dumps(small_compare_config(tmp_path)))
    argvs = [["compare", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "m.json"),
              "--jobs", "1"]]
    src = str(Path(rankloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    names = ["multiprocessing", "concurrent.futures", "numpy.ma"]
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs),
                           json.dumps(names)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    assert probe == {"codes": [0], "after_import": [], "after_runs": []}

def large_batch_config(n_repeats=2, epochs=2):
    # Binary blobs whose 1200-row train set is one full batch per epoch:
    # 900 x 300 pairs per class, enough to split the trials across two
    # threads.
    config = small_compare_config(None, n_repeats=n_repeats, epochs=epochs)
    config["dataset"]["synthetic"].update(class_counts=[1500, 500], dim=8, label_flip_prob=0.1)
    config["model"]["hidden_dims"] = [16]
    config["arms"] = [
        {"name": "auc_bin_b1024", "loss_kind": "auc_binary", "batch_size": 1024,
         "max_epochs": epochs},
        {"name": "auc_ovr_b1024", "loss_kind": "auc_multiclass", "batch_size": 1024,
         "max_epochs": epochs},
    ]
    return config


def _compare_with_cpus(monkeypatch, tmp_path, config, cpus, name):
    # run_compare with the harness seeing ``cpus`` usable CPUs, which at
    # --jobs 1 gives the block's engine calls that many threads. Returns the
    # exit code, the manifest path and, per loss kind (one per arm), the
    # number of threads whose ``network._step`` calls stepped that arm.
    import threading

    import rankloss.harness
    import rankloss.network

    stepped = {}
    step = rankloss.network._step

    def spy(stack, grads, batch, config, *args):
        stepped.setdefault(config.loss_kind, set()).add(threading.get_ident())
        return step(stack, grads, batch, config, *args)

    with monkeypatch.context() as mp:
        mp.setattr(rankloss.harness, "_cpu_count", lambda: cpus)
        mp.setattr(rankloss.network, "_step", spy)
        code, out_path = run_compare(tmp_path, config, name=name)
    return code, out_path, {kind: len(idents) for kind, idents in stepped.items()}


@pytest.mark.blas
class TestThreadedPairKernel:
    # Each arm's two trials train in two parts, one per thread. The threads
    # are counted per arm: the two arms' pools may or may not reuse each
    # other's thread idents.

    def test_manifest_bytes_match_one_thread(self, tmp_path, monkeypatch):
        # The manifest is the one-thread manifest.
        config = large_batch_config()
        manifests = []
        for cpus in (1, 2):
            code, out_path, stepped = _compare_with_cpus(
                monkeypatch, tmp_path, config, cpus, f"cpus{cpus}")
            assert code == 0 and stepped == {"auc_binary": cpus, "auc_multiclass": cpus}
            manifest = json.loads(out_path.read_text())
            del manifest["duration_seconds"]
            manifests.append(json.dumps(manifest))
        assert manifests[0] == manifests[1]

    def test_diverging_arm_reports_as_one_thread(self, tmp_path, capsys, monkeypatch):
        # Each part runs under the engine's errstate: exit 3, the same
        # one-line error as on one thread, and no NumPy RuntimeWarning.
        config = large_batch_config(epochs=1)
        config["dataset"]["synthetic"]["class_counts"] = [3000, 1000]
        config["arms"][0]["learning_rate"] = 1e200
        errors = []
        for cpus in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, stepped = _compare_with_cpus(
                    monkeypatch, tmp_path, config, cpus, f"diverge{cpus}")
            assert code == 3 and stepped == {"auc_binary": cpus, "auc_multiclass": cpus}
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            err = capsys.readouterr().err
            assert "RuntimeWarning" not in err
            errors.append(err.strip())
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: trial 0, arm auc_bin_b1024: NonFiniteError: ")
        assert "\n" not in errors[0]


def _unstratified_sweep():
    """Unstratified compare configs, from datasets too small to split well
    to ones that train cleanly. Partitions may lack a class, per-class train
    counts and batch counts differ between trials, and the diverging configs
    give their second arm a learning rate of 1e200."""
    cases = {}
    counts_set = [(9, 4, 3), (12, 5), (30, 20), (20, 15, 10)]
    ratios_set = [(0.6, 0.2, 0.2), (0.2, 0.4, 0.4), (0.4, 0.3, 0.3)]
    plain = itertools.product(counts_set, ratios_set, [False, True], [0, 1, 2], [False])
    diverging = itertools.product(counts_set[2:], ratios_set[:1], [False, True], [0], [True])
    for counts, ratios, auc_first, seed, diverge in itertools.chain(plain, diverging):
        auc_kind = "auc_binary" if len(counts) == 2 else "auc_multiclass"
        arms = [{"name": "ce", "loss_kind": "cross_entropy", "batch_size": 4, "max_epochs": 2},
                {"name": "auc", "loss_kind": auc_kind, "batch_size": 8, "max_epochs": 2}]
        if auc_first:
            arms.reverse()
        if diverge:
            arms[1]["learning_rate"] = 1e200
        name = "-".join(map(str, counts)) + f"_r{ratios[0]}_{arms[0]['name']}_first_s{seed}"
        cases[name + ("_diverging" if diverge else "")] = {
            "dataset": {"synthetic": {"class_counts": list(counts), "dim": 3,
                                      "class_mean_separation": 1.5, "noise_std": 1.0,
                                      "label_flip_prob": 0.0, "seed": seed}},
            "model": {"hidden_dims": [[4], [4, 3]][seed % 2]},
            "split": {"ratios": list(ratios), "stratified": False, "n_repeats": 4,
                      "base_seed": seed},
            "arms": arms,
        }
    return cases


UNSTRATIFIED_SWEEP = _unstratified_sweep()


@pytest.mark.parametrize("case", sorted(UNSTRATIFIED_SWEEP))
def test_unstratified_compare_matches_oracle(case, tmp_path, capsys):
    # compare trains each arm's trials together in the engine; the oracle
    # runs them one by one. The manifest holds the oracle's AUROCs bit for
    # bit, or compare exits 3 with the oracle's first error and no traceback.
    # RuntimeWarnings are errors in this suite, so compare must not warn.
    config = UNSTRATIFIED_SWEEP[case]
    _, synthetic, experiment = _parse_compare_config(config, None)
    dataset = generate_synthetic(synthetic)
    expected, first_error = [], None
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle's test pass may overflow
        for trial in range(experiment.split.n_repeats):
            try:
                expected.append(run_trial(dataset, experiment, trial))
            except TrialError as exc:
                first_error = first_error or f"error: {exc} (trial {exc.trial})"
    code, out_path = run_compare(tmp_path, config)
    if first_error is None:
        assert code == 0
        arms = json.loads(out_path.read_text())["arms"]
        assert [[arm["aurocs"][t] for arm in arms] for t in range(len(expected))] == expected
    else:
        assert code == 3
        assert capsys.readouterr().err.strip() == first_error


def _three_class_compare(tmp_path, batch_sizes=(8, 8), kinds=("cross_entropy", "cross_entropy")):
    config = small_compare_config(tmp_path)
    config["dataset"]["synthetic"]["class_counts"] = [20, 20, 20]
    for arm, batch_size, kind in zip(config["arms"], batch_sizes, kinds):
        arm["batch_size"], arm["loss_kind"] = batch_size, kind
    return config


def _compare_argv(config):
    def argv(tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config(tmp_path)))
        return ["compare", "--config", str(cfg_path), "--out", str(tmp_path / "m.json")]
    return argv


def _one_class_csv_config(tmp_path):
    data_path = tmp_path / "one_class.csv"
    data_path.write_text("f0,label\n" + "".join(f"{i}.5,a\n" for i in range(10)))
    config = small_compare_config(tmp_path)
    config["dataset"] = {"csv": {"path": str(data_path), "label_column": "label"}}
    return config


def _metric_argv(text, *flags):
    def argv(tmp_path):
        path = tmp_path / "scores.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        return ["metric", "--input", str(path), "--label-col", "target", *flags]
    return argv


def _four_sample_config(tmp_path):
    config = small_compare_config(tmp_path)
    config["dataset"]["synthetic"]["class_counts"] = [2, 2]
    return config


def _directory_config_argv(tmp_path):
    return ["compare", "--config", str(tmp_path), "--out", str(tmp_path / "m.json")]


def _unstratified_empty_train_config(tmp_path):
    # floor(0.01 * 50) = 0 training samples.
    config = small_compare_config(tmp_path)
    config["dataset"]["synthetic"]["class_counts"] = [30, 20]
    config["split"].update(ratios=[0.01, 0.01, 0.98], stratified=False)
    return config


# Seed 4 flips the one class-1 sample to class 0.
_EMPTYING_FLIPS = {"class_counts": [1, 1], "dim": 2, "class_mean_separation": 1.0,
                   "noise_std": 1.0, "label_flip_prob": 0.49, "seed": 4}


def _emptying_flips_compare_config(tmp_path):
    config = small_compare_config(tmp_path)
    config["dataset"]["synthetic"] = dict(_EMPTYING_FLIPS)
    return config


def _emptying_flips_gen_argv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_EMPTYING_FLIPS))
    return ["gen", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv")]


def _compare_config_with(value, *path):
    def config(tmp_path):
        config = small_compare_config(tmp_path)
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return config
    return config


def _non_finite_gen_argv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**_EMPTYING_FLIPS, "noise_std": float("inf")}))
    return ["gen", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv")]


def _overflowing_gen_argv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec = small_compare_config(tmp_path)["dataset"]["synthetic"]
    spec_path.write_text(json.dumps({**spec, "noise_std": 1e308}))
    return ["gen", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv")]


# (argv builder, exit code, message fragment): malformed input exits 2
# before any trial runs, a runtime failure exits 3 naming the trial; neither
# ends in a traceback.
MALFORMED_INPUTS = {
    "binary_loss_on_3_classes": (
        _compare_argv(lambda p: _three_class_compare(p, kinds=("cross_entropy", "auc_binary"))),
        2, "/arms/1/loss_kind",
    ),
    "one_class_csv_dataset": (_compare_argv(_one_class_csv_config), 2, "/dataset/csv"),
    "batch_smaller_than_class_count": (
        _compare_argv(lambda p: _three_class_compare(p, batch_sizes=(2, 8))),
        2, "/arms/0/batch_size",
    ),
    # The config holds no such seed, so the error points at the flag.
    "negative_seed_flag": (
        lambda p: [*_compare_argv(small_compare_config)(p), "--seed", "-1"],
        2, "error: --seed: base_seed must be nonnegative, got -1",
    ),
    "nan_score": (_metric_argv("score,target\n0.1,0\nnan,1\n"), 2, "row 1, column 'score'"),
    "inf_score": (_metric_argv("score,target\n-inf,0\n0.3,1\n"), 2, "row 0, column 'score'"),
    "binary_labels_one_class": (
        _metric_argv("score,target\n0.1,1\n0.4,1\n"), 2, "no negative samples",
    ),
    "multiclass_no_usable_class": (
        _metric_argv("s0,s1,target\n0.1,0.9,0\n0.4,0.6,0\n", "--multiclass"),
        2, "no class has both positives and negatives",
    ),
    "dataset_under_5_samples": (_compare_argv(_four_sample_config), 3, "trial 0"),
    "non_utf8_metric_csv": (
        _metric_argv(b"\xff\xfescore,target\n0.1,0\n0.4,1\n"), 2, "scores.csv: not UTF-8",
    ),
    "config_is_directory": (_directory_config_argv, 2, "Is a directory"),
    "unstratified_empty_train_partition": (
        _compare_argv(_unstratified_empty_train_config),
        3, "trial 0: TooSmallError: the train partition would receive no samples",
    ),
    "compare_flips_empty_a_class": (
        _compare_argv(_emptying_flips_compare_config), 2, "/dataset/synthetic/label_flip_prob",
    ),
    "gen_flips_empty_a_class": (_emptying_flips_gen_argv, 2, "/label_flip_prob"),
    # json.loads accepts NaN, Infinity and integers past the float range;
    # the schema rejects them.
    "nan_class_mean_separation": (
        _compare_argv(_compare_config_with(
            float("nan"), "dataset", "synthetic", "class_mean_separation")),
        2, "/dataset/synthetic/class_mean_separation",
    ),
    "nan_split_ratio": (
        _compare_argv(_compare_config_with([float("nan"), 0.2, 0.2], "split", "ratios")),
        2, "/split/ratios/0",
    ),
    "infinite_gen_noise_std": (_non_finite_gen_argv, 2, "/noise_std"),
    # Finite, but the draws overflow to inf.
    "overflowing_noise_std": (
        _compare_argv(_compare_config_with(1e308, "dataset", "synthetic", "noise_std")),
        2, "/dataset/synthetic/noise_std",
    ),
    "overflowing_gen_noise_std": (_overflowing_gen_argv, 2, "/noise_std"),
    "integer_past_float_range": (
        _compare_argv(_compare_config_with(10**400, "arms", 0, "learning_rate")),
        2, "/arms/0/learning_rate",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_codes(case, tmp_path, capsys):
    build_argv, expected_code, fragment = MALFORMED_INPUTS[case]
    code = main(build_argv(tmp_path))  # returns; an exception fails the case
    assert code == expected_code
    assert fragment in capsys.readouterr().err


def _gen_argv(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(small_compare_config(tmp_path)["dataset"]["synthetic"]))
    return ["gen", "--spec", str(spec_path), "--out", str(tmp_path / "data.csv")]


@pytest.mark.parametrize("build_argv, flag, message", [
    (_compare_argv(small_compare_config), (), "RANKLOSS_SEED: base_seed must be nonnegative"),
    (_gen_argv, (), "RANKLOSS_SEED: seed must be nonnegative"),
    # The flag overrides the variable, so its error is the flag's.
    (_compare_argv(small_compare_config), ("--seed", "-3"), "--seed: base_seed must be nonnegative"),
], ids=["compare_env", "gen_env", "compare_flag_over_env"])
def test_negative_seed_override_points_at_its_source(build_argv, flag, message, tmp_path,
                                                     monkeypatch, capsys):
    # A negative RANKLOSS_SEED or --seed exits 2, naming where the seed came
    # from: the config holds no such value.
    monkeypatch.setenv("RANKLOSS_SEED", "-2")
    assert main([*build_argv(tmp_path), *flag]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}, got -")
