"""Command-line entry point.

Subcommands: pretext, plan, run, coldstart, correlate, ablate. Each takes
a JSON config file (see README for the schema), writes its outputs plus a
JSON manifest into the output directory, and returns 0 on success, 1 on
validation errors (config, flags, or a loss-record file that breaks its
contract with the pool), and 2 on runtime failures. Identical config and seed
reproduce byte-identical output files; no command mutates its inputs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, diagnostics, learner, loop, pretext, sampler
from .learner import LearnerConfig, config_from_dict, config_to_dict
from .loop import ALConfig, DatasetSpec
from .seeds import derive_seed


class ConfigError(ValueError):
    """Raised for anything the user can fix in the config or flags."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_DATASET_KEYS = {
    "kind", "classes", "n_per_class", "size", "noise", "test_fraction",
    "images", "labels", "imbalance_counts", "imbalance_factor",
}
_AL_KEYS = {"iterations", "budget", "strategy"}
_TOP_KEYS = {"seed", "output_dir", "dataset", "pretext", "main", "al"}


def _dataset_from_dict(d: dict) -> DatasetSpec:
    unknown = set(d) - _DATASET_KEYS
    if unknown:
        raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
    kwargs = dict(d)
    if kwargs.get("imbalance_counts") is not None:
        kwargs["imbalance_counts"] = tuple(int(c) for c in kwargs["imbalance_counts"])
    return DatasetSpec(**kwargs)


def _learner_from_dict(d: dict, defaults: LearnerConfig) -> LearnerConfig:
    # input_shape / n_classes / seed come from the dataset and run seed.
    forbidden = set(d) & {"input_shape", "n_classes", "seed"}
    if forbidden:
        raise ConfigError(f"learner config keys {sorted(forbidden)} are derived at run time")
    merged = config_to_dict(defaults)
    merged.update(d)
    merged.pop("input_shape", None)
    merged.pop("n_classes", None)
    merged.pop("seed", None)
    try:
        return config_from_dict(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad learner config: {exc}") from exc


def load_config(path: str, overrides: argparse.Namespace) -> tuple[ALConfig, Path]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    try:
        dataset = _dataset_from_dict(raw.get("dataset", {}))
        pretext_cfg = _learner_from_dict(raw.get("pretext", {}), loop.default_pretext_config())
        main_cfg = _learner_from_dict(raw.get("main", {}), loop.default_main_config())
        al = raw.get("al", {})
        unknown_al = set(al) - _AL_KEYS
        if unknown_al:
            raise ConfigError(f"unknown al keys: {sorted(unknown_al)}")
        config = ALConfig(
            iterations=int(al.get("iterations", 5)),
            budget=int(al.get("budget", 100)),
            strategy=str(al.get("strategy", "pt4al")),
            dataset=dataset,
            pretext=pretext_cfg,
            main=main_cfg,
            seed=int(raw.get("seed", 0)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    if getattr(overrides, "seed", None) is not None:
        config = replace(config, seed=overrides.seed)
    if getattr(overrides, "strategy", None) is not None:
        config = replace(config, strategy=overrides.strategy)
    if getattr(overrides, "iterations", None) is not None:
        config = replace(config, iterations=overrides.iterations)
    if getattr(overrides, "budget", None) is not None:
        config = replace(config, budget=overrides.budget)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = getattr(overrides, "output_dir", None) or raw.get("output_dir")
    if out_dir is None:
        raise ConfigError("output_dir must be set in the config or via --output-dir")
    return config, Path(out_dir)


def _validate_dataset_files(config: ALConfig) -> None:
    if config.dataset.kind == "idx":
        for p in (config.dataset.images, config.dataset.labels):
            if not Path(p).is_file():
                raise ConfigError(f"dataset file not found: {p}")


def _config_echo(config: ALConfig) -> dict:
    return {
        "seed": config.seed,
        "dataset": {
            "kind": config.dataset.kind,
            "classes": config.dataset.classes,
            "n_per_class": config.dataset.n_per_class,
            "size": config.dataset.size,
            "noise": config.dataset.noise,
            "test_fraction": config.dataset.test_fraction,
            "images": config.dataset.images,
            "labels": config.dataset.labels,
            "imbalance_counts": None if config.dataset.imbalance_counts is None
            else list(config.dataset.imbalance_counts),
            "imbalance_factor": config.dataset.imbalance_factor,
        },
        "pretext": config_to_dict(config.pretext),
        "main": config_to_dict(config.main),
        "al": {"iterations": config.iterations, "budget": config.budget, "strategy": config.strategy},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(path: Path, command: str, config: ALConfig, inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "tool": "pt4al",
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "config": _config_echo(config),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _losses_path(out_dir: Path, args) -> Path:
    if getattr(args, "losses", None):
        return Path(args.losses)
    return out_dir / "losses.csv"


def cmd_pretext(args) -> int:
    config, out_dir = load_config(args.config, args)
    _validate_dataset_files(config)
    train_pool, _ = loop.build_dataset(config.dataset, config.seed)
    state, report = loop.pretext_model(config, train_pool.unlabeled())

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "pretext_checkpoint.json"
    losses_path = out_dir / "losses.csv"
    learner.save_checkpoint(state, ckpt_path)
    pretext.write_loss_records(losses_path, report.records)
    write_manifest(out_dir / "pretext_manifest.json", "pretext", config, [], [ckpt_path, losses_path])
    print(f"pretext: best epoch {report.best_epoch} of {report.epochs_run} run, {config.pretext.epochs} max, "
          f"rotation accuracy {report.rotation_accuracy:.4f}, {len(report.records)} loss records -> {losses_path}")
    return 0


def cmd_plan(args) -> int:
    config, out_dir = load_config(args.config, args)
    losses_path = _losses_path(out_dir, args)
    if not losses_path.is_file():
        raise ConfigError(f"loss records not found at {losses_path}; run pretext first")
    records = pretext.read_loss_records(losses_path)
    # Strategies without a loss-sorted plan still get the high-loss-first one.
    order = loop.STRATEGY_TABLE[config.strategy][0]
    if config.strategy not in loop.PRETEXT_STRATEGIES:
        order = sampler.ORDER_HIGH_FIRST
    plan = sampler.build_batch_plan(records, config.iterations, order)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan_path = out_dir / "plan.csv"
    sampler.write_batch_plan(plan_path, plan)
    write_manifest(out_dir / "plan_manifest.json", "plan", config, [losses_path], [plan_path])
    print(f"plan: {plan.n_batches} batches over {len(records)} records ({order}) -> {plan_path}")
    return 0


def cmd_run(args) -> int:
    config, out_dir = load_config(args.config, args)
    _validate_dataset_files(config)
    records = None
    inputs: list[Path] = []
    if config.strategy in loop.PRETEXT_STRATEGIES:
        losses_path = _losses_path(out_dir, args)
        if not losses_path.is_file():
            raise ConfigError(
                f"strategy {config.strategy!r} needs loss records at {losses_path}; run pretext first"
            )
        records = pretext.read_loss_records(losses_path)
        inputs.append(losses_path)

    reports = loop.run_al(config, loss_records=records)
    for r in reports:
        print(f"[iter {r.iteration}/{config.iterations}] labeled={r.labeled_size} "
              f"accuracy={r.test_accuracy:.4f} wall={r.wall_time:.2f}s")

    out_dir.mkdir(parents=True, exist_ok=True)
    reports_path = out_dir / "reports.csv"
    queries_path = out_dir / "queries.csv"
    loop.write_reports_csv(reports_path, reports)
    sampler.write_query_results(queries_path, loop.reports_to_queries(reports))
    write_manifest(out_dir / "run_manifest.json", "run", config, inputs, [reports_path, queries_path])
    return 0


def cmd_coldstart(args) -> int:
    config, out_dir = load_config(args.config, args)
    _validate_dataset_files(config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be a comma-separated list of integers: {exc}") from exc
    if len(seeds) < 2:
        raise ConfigError("coldstart needs at least 2 seeds")

    summary = loop.cold_start_experiment(config, seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "coldstart_runs.csv"
    summary_path = out_dir / "coldstart_summary.csv"
    with open(runs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "method", "accuracy"])
        for seed, acc in zip(summary.seeds, summary.pt4al_accuracies):
            writer.writerow([seed, "pt4al", f"{acc:.12g}"])
        for seed, acc in zip(summary.seeds, summary.random_accuracies):
            writer.writerow([seed, "random", f"{acc:.12g}"])
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "mean", "std", "min", "max"])
        for method in ("pt4al", "random"):
            s = summary.stats(method)
            writer.writerow([method, f"{s['mean']:.12g}", f"{s['std']:.12g}",
                             f"{s['min']:.12g}", f"{s['max']:.12g}"])
    write_manifest(out_dir / "coldstart_manifest.json", "coldstart", config, [], [runs_path, summary_path])
    for method in ("pt4al", "random"):
        s = summary.stats(method)
        print(f"coldstart {method}: mean {s['mean']:.4f} +- {s['std']:.4f} (min {s['min']:.4f} / max {s['max']:.4f})")
    return 0


def cmd_correlate(args) -> int:
    config, out_dir = load_config(args.config, args)
    _validate_dataset_files(config)
    train_pool, test_pool = loop.build_dataset(config.dataset, config.seed)
    shape = train_pool.x.shape[1:]

    inputs: list[Path] = []
    if args.pretext_checkpoint:
        ckpt = Path(args.pretext_checkpoint)
        if not ckpt.is_file():
            raise ConfigError(f"pretext checkpoint not found: {ckpt}")
        try:
            pretext_state = learner.load_checkpoint(ckpt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ckpt_cfg = pretext_state.config
        if ckpt_cfg.n_classes != pretext.N_ORIENTATIONS:
            raise ConfigError(f"{ckpt}: pretext checkpoint has {ckpt_cfg.n_classes} classes, "
                              f"expected {pretext.N_ORIENTATIONS} rotations")
        if tuple(ckpt_cfg.input_shape) != shape:
            raise ConfigError(f"{ckpt}: pretext checkpoint input shape {tuple(ckpt_cfg.input_shape)} "
                              f"does not match the dataset's image shape {shape}")
        inputs.append(ckpt)
    else:
        pretext_state, _ = loop.pretext_model(config, train_pool.unlabeled())

    main_state = loop.train_main(config, train_pool, train_pool.n_classes, derive_seed(config.seed, "correlate-main"))

    report = diagnostics.correlation_report(pretext_state, main_state, test_pool,
                                            scatter_seed=derive_seed(config.seed, "scatter"))
    out_dir.mkdir(parents=True, exist_ok=True)
    corr_path = out_dir / "correlation.csv"
    scatter_path = out_dir / "scatter.csv"
    with open(corr_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rho", "n"])
        writer.writerow([f"{report.rho:.12g}", report.n])
    diagnostics.write_scatter_csv(scatter_path, report)
    write_manifest(out_dir / "correlate_manifest.json", "correlate", config, inputs, [corr_path, scatter_path])
    print(f"correlate: spearman rho {report.rho:.4f} over {report.n} test samples")
    return 0


def cmd_ablate(args) -> int:
    config, out_dir = load_config(args.config, args)
    _validate_dataset_files(config)
    strategy = loop.ABLATION_VARIANTS.get(args.variant, args.variant)
    if strategy not in loop.STRATEGIES:
        raise ConfigError(f"unknown ablation variant {args.variant!r}; "
                          f"choose from {sorted(loop.ABLATION_VARIANTS)}")
    reports = loop.run_ablation(config, args.variant)
    for r in reports:
        print(f"[{args.variant} iter {r.iteration}] labeled={r.labeled_size} accuracy={r.test_accuracy:.4f}")
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.variant.replace("-", "_")
    reports_path = out_dir / f"ablate_{tag}_reports.csv"
    queries_path = out_dir / f"ablate_{tag}_queries.csv"
    loop.write_reports_csv(reports_path, reports)
    sampler.write_query_results(queries_path, loop.reports_to_queries(reports))
    write_manifest(out_dir / f"ablate_{tag}_manifest.json", "ablate", config, [], [reports_path, queries_path])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pt4al", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pt4al {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON config file")
        p.add_argument("--output-dir", default=None, help="override output_dir from the config")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--strategy", default=None, choices=loop.STRATEGIES, help="override the AL strategy")
        p.add_argument("--iterations", type=int, default=None, help="override the iteration count")
        p.add_argument("--budget", type=int, default=None, help="override the per-iteration budget K")
        return p

    common(sub.add_parser("pretext", help="train the rotation model and write losses.csv"))
    p = common(sub.add_parser("plan", help="split loss records into batches"))
    p.add_argument("--losses", default=None, help="loss-record CSV (default: <output_dir>/losses.csv)")
    p = common(sub.add_parser("run", help="run the active-learning loop"))
    p.add_argument("--losses", default=None, help="loss-record CSV (default: <output_dir>/losses.csv)")
    p = common(sub.add_parser("coldstart", help="first-iteration comparison over seeds"))
    p.add_argument("--seeds", required=True, help="comma-separated seed list, e.g. 1,2,3")
    p = common(sub.add_parser("correlate", help="pretext/main loss rank correlation"))
    p.add_argument("--pretext-checkpoint", default=None, help="reuse a trained pretext checkpoint")
    p = common(sub.add_parser("ablate", help="run a component-ablation variant"))
    p.add_argument("--variant", required=True, help=f"one of {sorted(loop.ABLATION_VARIANTS)}")
    return parser


_COMMANDS = {
    "pretext": cmd_pretext,
    "plan": cmd_plan,
    "run": cmd_run,
    "coldstart": cmd_coldstart,
    "correlate": cmd_correlate,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, pretext.LossRecordError) as exc:
        print(f"pt4al {args.command}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, do not traceback
        print(f"pt4al {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
