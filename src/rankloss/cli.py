"""Command-line entry point.

Subcommands:
  metric  -- exact AUROC of a score/label CSV, printed as JSON
  compare -- run the Monte Carlo experiment described by a JSON config and
             write a manifest with per-arm AUROCs, CIs, and t-tests
  gen     -- emit a synthetic dataset as CSV

Exit codes: 0 success, 2 malformed input or config (the message carries a
JSON-pointer-style path to the bad field) or a file that cannot be read or
written, 3 runtime failure (the message carries the trial index when one
applies). RANKLOSS_SEED in the environment
overrides the config seed; the --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from . import __version__
from .data import SyntheticSpec, generate_synthetic, load_csv, load_scores_csv, save_csv
from .errors import (ConfigError, CsvError, EmptyClassError, FieldError, RanklossError, TrialError,
                     _real)
from .harness import ArmConfig, ExperimentConfig, SplitSpec, run_experiment
from .losses import SurrogateParams
from .metrics import PredictionBatch, auroc_multiclass_ovr, auroc_rank_scores

__all__ = ["main", "entrypoint"]

def _rows(cls, prefix="", **types):
    """Schema rows for fields of ``cls``, keyed ``prefix + field``, with its defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return tuple((prefix + name, kind, defaults[name]) for name, kind in types.items())


# The `compare`/`gen` input schema: per JSON object, (key, type, default)
# rows in echo order. Defaults are read off the dataclasses the values feed,
# so each is stated once; MISSING marks a required key. The manifest's
# `config` echo is the parsed rows themselves, which makes it a valid input
# that reproduces the run.
_SYNTHETIC = _rows(
    SyntheticSpec, class_counts=list[int], dim=int, class_mean_separation=float,
    noise_std=float, label_flip_prob=float, seed=int,
)
_CSV = (("path", str, MISSING), ("label_column", str, MISSING))
_MODEL = _rows(ExperimentConfig, hidden_dims=list[int])
_SPLIT = _rows(SplitSpec, ratios=list[float], stratified=bool, n_repeats=int, base_seed=int)
_ARM = _rows(
    ArmConfig, name=str, loss_kind=str, batch_size=int, learning_rate=float, max_epochs=int,
) + _rows(SurrogateParams, "surrogate_", k=float, L=float, x0=float)
_DATASET = (("synthetic", dict, None), ("csv", dict, None))
_COMPARE = (("dataset", dict, MISSING), ("model", dict, {}), ("split", dict, {}),
            ("arms", list, MISSING))


def _typed(value, kind, pointer):
    if typing.get_origin(kind) is list:
        items = _typed(value, list, pointer)
        (item_kind,) = typing.get_args(kind)
        return [_typed(v, item_kind, f"{pointer}/{i}") for i, v in enumerate(items)]
    # bool is an int subclass, but JSON true is not a number.
    if isinstance(value, bool) != (kind is bool):
        ok = False
    elif kind is float:
        ok = isinstance(value, (int, float))
        if ok and not _real(value):  # json.loads reads NaN, Infinity and 1e400 as floats
            raise ConfigError(f"{pointer}: expected a finite number", pointer=pointer)
        value = float(value) if ok else value
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(
            f"{pointer}: expected {kind.__name__}, got {type(value).__name__}", pointer=pointer
        )
    return value


def _parse(obj, pointer, rows) -> dict:
    """Type-check a JSON object against its schema rows and fill in defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer or '/'}: expected an object", pointer=pointer or "/")
    known = {key for key, _, _ in rows}
    for key in obj:
        if key not in known:
            raise ConfigError(f"{pointer}/{key}: unknown field", pointer=f"{pointer}/{key}")
    values = {}
    for key, kind, default in rows:
        if key in obj:
            values[key] = _typed(obj[key], kind, f"{pointer}/{key}")
        elif default is MISSING:
            raise ConfigError(
                f"{pointer}/{key}: required field is missing", pointer=f"{pointer}/{key}"
            )
        else:
            values[key] = default
    return values


def _checked(pointer_of, build):
    """Call ``build``; report a dataclass ``FieldError`` at its field's JSON pointer."""
    try:
        return build()
    except FieldError as exc:
        pointer = pointer_of(exc.field)
        raise ConfigError(f"{pointer}: {exc}", pointer=pointer) from exc


def _build_arm(values, pointer) -> ArmConfig:
    fields = dict(values)
    params = {name: fields.pop(f"surrogate_{name}") for name in ("k", "L", "x0")}
    surrogate = _checked(lambda f: f"{pointer}/surrogate_{f}", lambda: SurrogateParams(**params))
    return _checked(lambda f: f"{pointer}/{f}", lambda: ArmConfig(**fields, surrogate=surrogate))


def _parse_compare_config(doc, seed_override):
    """Validate a `compare` document: (resolved config echo, synthetic spec or
    None for a CSV source, experiment). ``seed_override`` is None or
    ``_seed_override``'s (seed, pointer)."""
    top = _parse(doc, "", _COMPARE)
    sources = _parse(top["dataset"], "/dataset", _DATASET)
    if (sources["synthetic"] is None) == (sources["csv"] is None):
        raise ConfigError(
            "/dataset: exactly one of 'synthetic' or 'csv' is required", pointer="/dataset"
        )
    split = _parse(top["split"], "/split", _SPLIT)
    if seed_override is not None:
        split["base_seed"] = seed_override[0]
    model = _parse(top["model"], "/model", _MODEL)
    if len(top["arms"]) < 2:
        raise ConfigError("/arms: at least two arms are required", pointer="/arms")
    arms = [_parse(a, f"/arms/{i}", _ARM) for i, a in enumerate(top["arms"])]

    split_spec = _checked(_seed_pointer("/split", "base_seed", seed_override),
                          lambda: SplitSpec(**split))
    arm_configs = tuple(_build_arm(a, f"/arms/{i}") for i, a in enumerate(arms))
    if sources["synthetic"] is not None:
        synthetic = _parse(sources["synthetic"], "/dataset/synthetic", _SYNTHETIC)
        spec = _checked(lambda f: f"/dataset/synthetic/{f}", lambda: SyntheticSpec(**synthetic))
        dataset = {"synthetic": synthetic}
    else:
        spec = None
        dataset = {"csv": _parse(sources["csv"], "/dataset/csv", _CSV)}
    experiment = _checked(
        _experiment_pointer,
        lambda: ExperimentConfig(arm_configs, split_spec, model["hidden_dims"]),
    )
    config = {"dataset": dataset, "model": model, "split": split, "arms": arms}
    return config, spec, experiment


def _experiment_pointer(field: str) -> str:
    return "/model/hidden_dims" if field == "hidden_dims" else f"/{field}"


def _seed_override(flag: int | None = None) -> tuple[int, str] | None:
    """The seed that overrides the config's, with where it came from:
    ``--seed`` if given, else RANKLOSS_SEED if set, else None."""
    if flag is not None:
        return flag, "--seed"
    raw = os.environ.get("RANKLOSS_SEED")
    if raw is None:
        return None
    try:
        return int(raw), "RANKLOSS_SEED"
    except ValueError:
        raise ConfigError(
            f"RANKLOSS_SEED: expected an integer, got {raw!r}", pointer="RANKLOSS_SEED"
        ) from None


def _seed_pointer(prefix: str, seed_field: str, seed_override):
    """The pointer of a field under ``prefix``: the override's source for an
    overridden ``seed_field``, as the config does not hold that value."""
    return lambda f: (seed_override[1] if seed_override is not None and f == seed_field
                      else f"{prefix}/{f}")


def _cmd_metric(args) -> int:
    scores, labels = load_scores_csv(args.input, args.label_col)
    if not args.multiclass:
        if scores.shape[1] != 1:
            raise CsvError(
                f"{args.input}: binary mode needs exactly one score column, got "
                f"{scores.shape[1]}; pass --multiclass for one column per class"
            )
        if not np.all((labels == 0) | (labels == 1)):
            raise CsvError(f"{args.input}: binary mode needs labels in {{0, 1}}")
    try:
        if args.multiclass:
            result = auroc_multiclass_ovr(PredictionBatch(scores, labels), lenient=True)
        else:
            col = scores[:, 0]
            result = auroc_rank_scores(col[labels == 1], col[labels == 0])
    except (ValueError, EmptyClassError) as exc:
        # Labels outside the score columns, fewer than 2 of them, or no
        # class with both positives and negatives.
        raise CsvError(f"{args.input}: {exc}") from exc
    if args.multiclass:
        payload = {
            "auroc": result.value,
            "per_class": [
                {
                    "class_index": c,
                    "auroc": r.value if r is not None else None,
                    "n_pos": r.n_pos if r is not None else 0,
                    "n_neg": r.n_neg if r is not None else 0,
                }
                for c, r in enumerate(result.per_class)
            ],
        }
    else:
        payload = {"auroc": result.value, "n_pos": result.n_pos, "n_neg": result.n_neg}
    print(json.dumps(payload, indent=2))
    return 0


def _summary_table(manifest: dict) -> str:
    lines = []
    reference = manifest["arms"][0]["name"]
    p_by_arm = {c["arm_b"]: c["p"] for c in manifest["comparisons"]}
    lines.append(f"{'arm':<20} {'mean AUROC':>10} {'95% CI':>22} {'p vs ' + reference:>14}")
    for arm in manifest["arms"]:
        ci = arm["ci"]
        ci_text = f"[{ci[0]:.4f}, {ci[1]:.4f}]" if ci is not None else "n/a"
        if arm["name"] == reference:
            p_text = "-"
        else:
            p = p_by_arm.get(arm["name"])
            p_text = f"{p:.4g}" if p is not None else "n/a"
        lines.append(f"{arm['name']:<20} {arm['mean']:>10.4f} {ci_text:>22} {p_text:>14}")
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"/: config is not valid JSON: {exc}", pointer="/") from exc

    config, synthetic, experiment = _parse_compare_config(doc, _seed_override(args.seed))
    if synthetic is not None:
        dataset = _checked(
            lambda f: f"/dataset/synthetic/{f}", lambda: generate_synthetic(synthetic)
        )
    else:
        source = config["dataset"]["csv"]
        try:
            dataset = load_csv(source["path"], source["label_column"])
        except (OSError, CsvError, ValueError) as exc:
            raise ConfigError(f"/dataset/csv: {exc}", pointer="/dataset/csv") from exc

    start = time.perf_counter()
    # Arms the dataset's class count rules out are rejected before any trial.
    report = _checked(
        _experiment_pointer, lambda: run_experiment(dataset, experiment, jobs=args.jobs)
    )
    duration = time.perf_counter() - start

    manifest = {
        "version": __version__,
        "config": config,
        **report.to_dict(),
        "duration_seconds": duration,
    }
    out = Path(args.out)
    out.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(_summary_table(manifest))
    print(f"manifest written to {out}")
    return 0


def _cmd_gen(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"/: spec is not valid JSON: {exc}", pointer="/") from exc
    values = _parse(doc, "", _SYNTHETIC)
    seed_override = _seed_override()
    if seed_override is not None:
        values["seed"] = seed_override[0]
    dataset = _checked(_seed_pointer("", "seed", seed_override),
                       lambda: generate_synthetic(SyntheticSpec(**values)))
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n_samples} samples x {dataset.n_features} features to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankloss",
        description="AUROC metrics, ranking losses, and Monte Carlo loss comparisons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    metric = sub.add_parser("metric", help="exact AUROC of a score/label CSV")
    metric.add_argument("--input", required=True, help="CSV with score column(s) and a label column")
    metric.add_argument("--label-col", required=True, help="name of the label column")
    metric.add_argument(
        "--multiclass",
        action="store_true",
        help="treat every non-label column as one class's score (macro one-vs-rest)",
    )
    metric.set_defaults(func=_cmd_metric)

    compare = sub.add_parser("compare", help="run a Monte Carlo loss comparison")
    compare.add_argument("--config", required=True, help="JSON experiment config")
    compare.add_argument("--out", required=True, help="where to write the manifest JSON")
    compare.add_argument("--jobs", type=int, default=1, help="parallel trial workers (default 1)")
    compare.add_argument("--seed", type=int, default=None, help="override the config base seed")
    compare.set_defaults(func=_cmd_compare)

    gen = sub.add_parser("gen", help="emit a synthetic dataset as CSV")
    gen.add_argument("--spec", required=True, help="JSON synthetic dataset spec")
    gen.add_argument("--out", required=True, help="where to write the CSV")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, CsvError, OSError) as exc:
        # OSError: an input that is missing or a directory, an unwritable --out.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrialError as exc:
        print(f"error: {exc} (trial {exc.trial})", file=sys.stderr)
        return 3
    except RanklossError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # Named as the builtin: NumPy raises a private subclass.
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
