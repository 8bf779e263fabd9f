"""Command-line entry point.

Subcommands: pretext, plan, run, coldstart, correlate, ablate. Each takes a JSON
config file (see README for the schema), writes its outputs plus a JSON manifest
into the output directory, and returns 0 on success, 2 on runtime failures, and 1
on validation errors, each a `ConfigError`: config, flags, an IDX dataset file or
pretext checkpoint that cannot be read or parsed, a loss-record file that breaks
its contract with the pool, or a `correlate` model whose test losses are all equal.
Identical config and seed reproduce byte-identical output files; no command mutates its inputs.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, learner, loop, pretext, sampler
from .config import ConfigError, from_dict, read_value
from .data import write_csv
from .loop import ALConfig
from .seeds import derive_seed, sha256


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def load_config(path: str, overrides: argparse.Namespace) -> tuple[ALConfig, Path]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the last: nesting too deep to decode
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    # The AL fields live in "al"; the derived ones (seed and the sections) at the top level.
    top = {f.name for f in fields(ALConfig) if f.metadata["derived"]}
    unknown = set(raw) - top - {"al", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = from_dict(ALConfig(), raw.get("al", {}), "al")
    config = from_dict(config, {k: v for k, v in raw.items() if k in top}, "", allow_derived=True)

    flags = {name: getattr(overrides, name, None) for name in ("seed", "strategy", "iterations", "budget")}
    config = replace(config, **{name: value for name, value in flags.items() if value is not None})
    config.validate()

    out_dir = getattr(overrides, "output_dir", None)
    if out_dir is None:
        out_dir = read_value(raw.get("output_dir"), str | None, "output_dir")
    if out_dir is None:
        raise ConfigError("output_dir must be set in the config or via --output-dir")
    if not out_dir:
        raise ConfigError("output_dir must be a non-empty path")
    out_dir = Path(out_dir)
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"output_dir {out_dir}: {existing} exists and is not a directory")
    return config, out_dir


def _config_echo(config: ALConfig) -> dict:
    echo = asdict(config)
    echo["al"] = {f.name: echo.pop(f.name) for f in fields(ALConfig) if not f.metadata["derived"]}
    return echo


def write_manifest(path: Path, command: str, config: ALConfig, inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "tool": "pt4al",
        "version": __version__,
        "command": command,
        "seed": config.seed,
        "config": _config_echo(config),
        "inputs": {str(p): sha256(p.read_bytes()).hexdigest() for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_losses(out_dir: Path, args, need: str) -> tuple[Path, pretext.LossArrays]:
    """The loss records at --losses, or else at <out_dir>/losses.csv; `need` names who wants them."""
    path = Path(args.losses) if args.losses else out_dir / "losses.csv"
    if not path.is_file():
        raise ConfigError(f"{need} needs loss records at {path}; run pretext first")
    return path, pretext.read_loss_records(path)


def _run_files(prefix: str, reports) -> list:
    """The writers of an AL run's <prefix>reports.csv and <prefix>queries.csv."""
    return [(f"{prefix}reports.csv", lambda path: loop.write_reports_csv(path, reports)),
            (f"{prefix}queries.csv", lambda path: sampler.write_query_results(path, loop.reports_to_queries(reports)))]


def cmd_pretext(config: ALConfig, out_dir: Path, args):
    train_pool = loop.build_dataset(config.dataset, config.seed)[0]  # the test split is not kept alive
    loop.check_learners_fit(config, train_pool)
    state, report = loop.pretext_model(config, train_pool.unlabeled())
    print(f"pretext: best epoch {report.best_epoch} of {report.epochs_run} run, {config.pretext.epochs} max, "
          f"rotation accuracy {report.rotation_accuracy:.4f}, {len(report.records)} loss records -> "
          f"{out_dir / 'losses.csv'}")
    return "pretext_manifest.json", [], [
        ("pretext_checkpoint.json", lambda path: learner.save_checkpoint(state, path)),
        ("losses.csv", lambda path: pretext.write_loss_records(path, report.records)),
    ]


def cmd_plan(config: ALConfig, out_dir: Path, args):
    losses_path, records = _read_losses(out_dir, args, "plan")
    # Strategies without a loss-sorted plan still get the high-loss-first one.
    order = loop.STRATEGY_TABLE[config.strategy][0]
    if config.strategy not in loop.PRETEXT_STRATEGIES:
        order = sampler.ORDER_HIGH_FIRST
    if len(records) < config.iterations:
        raise pretext.LossRecordError(f"{losses_path}: cannot split {len(records)} records into "
                                      f"{config.iterations} batches")
    plan = sampler.build_batch_plan(records, config.iterations, order)
    print(f"plan: {len(plan.batches)} batches over {len(records)} records ({order}) -> {out_dir / 'plan.csv'}")
    return "plan_manifest.json", [losses_path], [("plan.csv", lambda path: sampler.write_batch_plan(path, plan))]


def cmd_run(config: ALConfig, out_dir: Path, args):
    records, inputs = None, []
    if config.strategy in loop.PRETEXT_STRATEGIES:
        losses_path, records = _read_losses(out_dir, args, f"strategy {config.strategy!r}")
        inputs = [losses_path]

    reports = loop.run_al(config, loss_records=records)
    for r in reports:
        print(f"[iter {r.iteration}/{config.iterations}] labeled={r.labeled_size} "
              f"accuracy={r.test_accuracy:.4f} wall={r.wall_time:.2f}s")
    return "run_manifest.json", inputs, _run_files("", reports)


def cmd_coldstart(config: ALConfig, out_dir: Path, args):
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be a comma-separated list of integers: {exc}") from exc

    summary = loop.cold_start_experiment(config, seeds)
    runs = [(seed, "pt4al", acc) for seed, acc in zip(summary.seeds, summary.pt4al_accuracies)]
    runs += [(seed, "random", acc) for seed, acc in zip(summary.seeds, summary.random_accuracies)]
    stats = {method: summary.stats(method) for method in ("pt4al", "random")}
    rows = [(method, s["mean"], s["std"], s["min"], s["max"]) for method, s in stats.items()]
    for method, s in stats.items():
        print(f"coldstart {method}: mean {s['mean']:.4f} +- {s['std']:.4f} (min {s['min']:.4f} / max {s['max']:.4f})")
    return "coldstart_manifest.json", [], [
        ("coldstart_runs.csv", lambda path: write_csv(path, ["seed", "method", "accuracy"], runs)),
        ("coldstart_summary.csv", lambda path: write_csv(path, ["method", "mean", "std", "min", "max"], rows)),
    ]


def cmd_correlate(config: ALConfig, out_dir: Path, args):
    train_pool, test_pool = loop.build_dataset(config.dataset, config.seed)
    if len(test_pool) < 2:
        raise ConfigError(f"dataset.test_fraction {config.dataset.test_fraction} leaves a test split of "
                          f"{len(test_pool)} sample; correlate ranks at least 2")
    loop.check_learners_fit(config, train_pool)

    inputs: list[Path] = []
    if args.pretext_checkpoint:
        ckpt = Path(args.pretext_checkpoint)
        pretext_state = learner.load_checkpoint(ckpt)
        try:
            pretext.check_model(pretext_state.config, train_pool.x.shape[1:])
        except ConfigError as exc:
            raise ConfigError(f"{ckpt}: pretext checkpoint does not fit: {exc}") from exc
        inputs.append(ckpt)
    else:
        pretext_state, _ = loop.pretext_model(config, train_pool.unlabeled())

    main_state = loop.train_main(config, train_pool, train_pool.n_classes, derive_seed(config.seed, "correlate-main"))

    report = diagnostics.correlation_report(pretext_state, main_state, test_pool,
                                            scatter_seed=derive_seed(config.seed, "scatter"))
    print(f"correlate: spearman rho {report.rho:.4f} over {report.n} test samples")
    return "correlate_manifest.json", inputs, [
        ("correlation.csv", lambda path: write_csv(path, ["rho", "n"], [(report.rho, report.n)])),
        ("scatter.csv", lambda path: diagnostics.write_scatter_csv(path, report)),
    ]


def cmd_ablate(config: ALConfig, out_dir: Path, args):
    reports = loop.run_ablation(config, args.variant)
    for r in reports:
        print(f"[{args.variant} iter {r.iteration}] labeled={r.labeled_size} accuracy={r.test_accuracy:.4f}")
    prefix = f"ablate_{args.variant.replace('-', '_')}_"
    return f"{prefix}manifest.json", [], _run_files(prefix, reports)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser, subparsers included, whose usage errors are ConfigErrors: a bad flag exits 1 like bad config."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pt4al", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pt4al {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {"output-dir": {"help": "override output_dir from the config"},
             "seed": {"type": int, "help": "override the run seed"},
             "strategy": {"choices": loop.STRATEGIES, "help": "override the AL strategy"},
             "iterations": {"type": int, "help": "override the iteration count"},
             "budget": {"type": int, "help": "override the per-iteration budget K"},
             "losses": {"help": "loss-record CSV (default: <output_dir>/losses.csv)"},
             "seeds": {"required": True, "help": "comma-separated seed list, e.g. 1,2,3"},
             "pretext-checkpoint": {"help": "reuse a trained pretext checkpoint"},
             "variant": {"required": True, "help": f"one of {sorted(loop.ABLATION_VARIANTS)}"}}
    # Each command takes --output-dir, the config values that its handler reads, and its own flags.
    for name, handler, about, names in [
            ("pretext", cmd_pretext, "train the rotation model and write losses.csv", "seed"),
            ("plan", cmd_plan, "split loss records into batches", "strategy iterations losses"),
            ("run", cmd_run, "run the active-learning loop", "seed strategy iterations budget losses"),
            ("coldstart", cmd_coldstart, "first-iteration comparison over seeds", "seed iterations budget seeds"),
            ("correlate", cmd_correlate, "pretext/main loss rank correlation", "seed pretext-checkpoint"),
            ("ablate", cmd_ablate, "run a component-ablation variant", "seed iterations budget variant")]:
        p = sub.add_parser(name, help=about)
        p.set_defaults(handler=handler)
        p.add_argument("config", help="JSON config file")
        for flag in ["output-dir", *names.split()]:
            p.add_argument(f"--{flag}", **flags[flag])
    return parser


def keep_openssl_out() -> None:
    """Block OpenSSL's `_hashlib` in this process if CPython's builtin SHA-256 can stand in.

    pt4al only hashes with SHA-256, and `libcrypto` adds about 3.4 MB to every command's
    peak RSS (README, "The CLI loads no OpenSSL"). With `_hashlib` blocked, `hashlib` and
    `hmac` (which numpy.random loads through `secrets`) use their builtin code, and every
    digest stays the same. A no-op where `_hashlib` is already loaded; an interpreter built
    without the builtin module keeps OpenSSL.
    """
    if importlib.util.find_spec("_sha2" if sys.version_info >= (3, 12) else "_sha256") is not None:
        sys.modules.setdefault("_hashlib", None)


def main(argv: list[str] | None = None) -> int:
    keep_openssl_out()  # first, before anything imports hashlib or numpy.random
    prog = "pt4al"
    try:
        args = build_parser().parse_args(argv)
        prog = f"pt4al {args.command}"
        config, out_dir = load_config(args.config, args)
        # A command only checks, computes and prints; it returns its manifest name, its input
        # paths and one writer per output file. Nothing is written unless all of that succeeded.
        # Explicit checks catch every non-finite result, so numpy's warnings would only repeat them.
        with np.errstate(all="ignore"):
            manifest, inputs, files = args.handler(config, out_dir, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / manifest).unlink(missing_ok=True)  # a write that fails must leave no manifest of an older run
        for name, write in files:
            write(out_dir / name)
        write_manifest(out_dir / manifest, args.command, config, inputs, [out_dir / name for name, _ in files])
        return 0
    except ConfigError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, do not traceback
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
