"""Command-line interface: subcommands, exit codes, determinism, manifests."""
from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pt4al
from pt4al import cli, learner, loop, pretext
from pt4al.cli import build_parser, load_config, main
from pt4al.config import ConfigError
from pt4al.data import Pool, gen_synthetic, write_idx
from pt4al.learner import LearnerConfig


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"kind": "synthetic", "classes": 3, "n_per_class": 50,
                    "size": 10, "noise": 1.0, "test_fraction": 0.2},
        "pretext": {"hidden": [16], "epochs": 3, "batch_size": 16, "learning_rate": 0.3},
        "main": {"hidden": [16], "epochs": 4, "batch_size": 16, "learning_rate": 0.3},
        "al": {"iterations": 3, "budget": 8, "strategy": "pt4al"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_pretext_writes_losses_for_every_unlabeled_sample(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    assert "best epoch 0 of 1 run, 3 max" in capsys.readouterr().out
    out = tmp_path / "out"
    losses = (out / "losses.csv").read_text().splitlines()
    assert losses[0] == "sample_id,pretext_loss"
    assert len(losses) - 1 == 120  # 150 samples, 20% test split
    assert (out / "pretext_checkpoint.json").is_file()
    manifest = json.loads((out / "pretext_manifest.json").read_text())
    assert manifest["command"] == "pretext"
    assert manifest["tool"] == "pt4al"


def test_pretext_losses_are_extract_losses_of_the_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    out = tmp_path / "out"
    config, _ = load_config(str(cfg), argparse.Namespace())
    pool = loop.build_dataset(config.dataset, config.seed)[0].unlabeled()
    records = pretext.extract_losses(learner.load_checkpoint(out / "pretext_checkpoint.json"), pool)
    pretext.write_loss_records(tmp_path / "extracted.csv", records)
    assert (tmp_path / "extracted.csv").read_bytes() == (out / "losses.csv").read_bytes()


def test_diverged_pretext_exits_2_without_outputs(tmp_path, capsys):
    # relu at this rate turns every weight NaN; the kept epoch 0 is one of them.
    cfg = write_config(tmp_path, dataset={"n_per_class": 100},
                       pretext={"activation": "relu", "learning_rate": 1e100, "epochs": 3})
    assert main(["pretext", str(cfg)]) == 2
    assert "pretext learning rate diverged: kept epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # Weights this large overflow the logits; the message names the setting that did it.
    cfg = write_config(tmp_path, dataset={"n_per_class": 100}, pretext={"init_scale": 1e308, "epochs": 3})
    assert main(["pretext", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "pretext learning rate diverged: kept epoch 0" in err
    assert "learning_rate 0.3, decay_factor 0.1, init_scale 1e+308" in err
    assert not (tmp_path / "out").exists()


def test_missing_dataset_path_fails_without_partial_outputs(tmp_path):
    cfg = write_config(tmp_path, dataset={"kind": "idx", "images": str(tmp_path / "nope.idx"),
                                          "labels": str(tmp_path / "nope2.idx")})
    assert main(["pretext", str(cfg)]) == 1
    assert not (tmp_path / "out").exists()


def write_idx_config(tmp_path, pool: Pool) -> tuple[Path, dict]:
    """A random-strategy config over `pool` written as an IDX pair, and the pair's paths."""
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    write_idx(pool, paths["images"], paths["labels"])
    cfg = write_config(tmp_path, dataset={"kind": "idx", **{k: str(p) for k, p in paths.items()}},
                       al={"strategy": "random"})
    return cfg, paths


# case -> (file to spoil, offset of the big-endian uint32 to overwrite or None to cut the
# file short, the new value or length). Each used to exit 2, except rows-shrunk, which trained on
# images cut from the pixel bytes.
IDX_FAULTS = {
    "truncated": ("images", None, 100),
    "image-magic": ("images", 0, 0x801),
    "label-magic": ("labels", 0, 0x803),
    "count-mismatch": ("labels", 4, 59),
    "no-pixels": ("images", 8, 0),
    "rows-shrunk": ("images", 8, 5),
}


@pytest.mark.parametrize("case", sorted(IDX_FAULTS))
def test_malformed_idx_file_exits_1_naming_it(tmp_path, monkeypatch, capsys, case):
    name, offset, value = IDX_FAULTS[case]
    cfg, paths = write_idx_config(tmp_path, gen_synthetic(20, 3, 10, 0.0, seed=1))
    data = bytearray(paths[name].read_bytes())
    if offset is None:
        del data[value:]
    else:
        struct.pack_into(">I", data, offset, value)
    paths[name].write_bytes(bytes(data))
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    if case == "count-mismatch":
        assert f"{paths['images']} holds 60 images, {paths['labels']} 59 labels" in err
    else:
        assert f"{paths[name]}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, extra", [("images", 500), ("labels", 5)])
def test_idx_file_longer_than_its_header_exits_1_naming_both_sizes(tmp_path, monkeypatch, capsys, name, extra):
    # 60 images of 10x10 and then the extra bytes, which loaded as 60 images and trained.
    cfg, paths = write_idx_config(tmp_path, gen_synthetic(20, 3, 10, 0.0, seed=1))
    expected = {"images": 16 + 60 * 10 * 10, "labels": 8 + 60}[name]
    paths[name].write_bytes(paths[name].read_bytes() + bytes(extra))
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert (f"{paths[name]}: IDX file longer than its header says: {expected + extra} bytes where its header "
            f"says {expected}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# case -> (labels of the 60 images, the missing labels as the message lists them).
# Each used to exit 0 and train.
IDX_LABEL_FAULTS = {
    "gap-to-200": (np.repeat([0, 200], 30), "missing 1, 2, 3, 4, 5, ... (199 labels)"),
    "gap-to-5": (np.repeat([0, 5], 30), "missing 1, 2, 3, 4"),
    "all-3": (np.full(60, 3), "missing 0, 1, 2"),
    "all-0": (np.zeros(60, dtype=int), "missing 1"),
}


@pytest.mark.parametrize("case", sorted(IDX_LABEL_FAULTS))
def test_idx_labels_that_are_not_0_to_c_exit_1_naming_the_missing_ones(tmp_path, monkeypatch, capsys, case):
    labels, missing = IDX_LABEL_FAULTS[case]
    pool = gen_synthetic(20, 3, 10, 1.0, seed=1)
    cfg, paths = write_idx_config(tmp_path, Pool(pool.ids, pool.x, labels))
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert f"{paths['labels']}: labels must be 0..C-1 for some C >= 2, each present; {missing}\n" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreadable_idx_file_exits_1_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"kind": "idx", "images": str(tmp_path), "labels": str(tmp_path)})
    assert main(["pretext", str(cfg)]) == 1
    assert f"{tmp_path}: cannot read dataset file: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_value_error_from_a_code_fault_exits_2(tmp_path, monkeypatch, capsys):
    # Only ConfigError means exit 1: no handler turns another ValueError into one.
    def broken(self):
        raise ValueError("a bug")

    cfg = write_config(tmp_path, al={"strategy": "random"})
    monkeypatch.setattr(LearnerConfig, "validate", broken)
    assert main(["run", str(cfg)]) == 2
    assert "pt4al run: a bug" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pretext_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    first = (tmp_path / "out" / "losses.csv").read_bytes()
    first_ckpt = (tmp_path / "out" / "pretext_checkpoint.json").read_bytes()
    assert main(["pretext", str(cfg)]) == 0
    assert (tmp_path / "out" / "losses.csv").read_bytes() == first
    assert (tmp_path / "out" / "pretext_checkpoint.json").read_bytes() == first_ckpt


def test_run_requires_losses_for_pt4al(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["run", str(cfg)])
    assert rc == 1


def edit_loss_rows(tmp_path, edit):
    """Run pretext, then rewrite losses.csv with `edit` applied to its data rows."""
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    path = tmp_path / "out" / "losses.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    return cfg


def test_run_rejects_repeated_loss_ids_before_work(tmp_path, capsys):
    cfg = edit_loss_rows(tmp_path, lambda rows: rows + rows[:1])
    assert main(["run", str(cfg)]) == 1
    assert "repeated sample id" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.csv").exists()


def test_run_rejects_losses_not_covering_pool(tmp_path, capsys):
    cfg = edit_loss_rows(tmp_path, lambda rows: rows[1:] + ["999999,0.5"])
    assert main(["run", str(cfg)]) == 1
    assert "1 pool samples have no record, 1 records name samples outside the pool" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.csv").exists()


def test_plan_rejects_repeated_loss_ids(tmp_path):
    cfg = edit_loss_rows(tmp_path, lambda rows: rows + rows[-1:])
    assert main(["plan", str(cfg)]) == 1
    assert not (tmp_path / "out" / "plan.csv").exists()


@pytest.mark.parametrize("rows", [3, 0])
def test_plan_with_fewer_records_than_iterations_exits_1(tmp_path, capsys, rows):
    cfg = write_config(tmp_path, al={"iterations": 5})
    out = tmp_path / "out"
    out.mkdir()
    (out / "losses.csv").write_text("sample_id,pretext_loss\n" + "".join(f"{i},0.5\n" for i in range(rows)))
    assert main(["plan", str(cfg)]) == 1
    assert f"cannot split {rows} records into 5 batches" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["losses.csv"]


# A loss file's id past int64 is malformed, alone or beside a negative id (numpy would round that pair to float64).
BIG_ID_ROWS = ["9223372036854775813,0.5", "-5,0.25\n9223372036854775813,0.5"]


def test_plan_rejects_ids_beyond_int64(tmp_path, capsys):
    cfg = write_config(tmp_path, al={"iterations": 1})
    out = tmp_path / "out"
    out.mkdir()
    for rows in BIG_ID_ROWS:
        (out / "losses.csv").write_text(f"sample_id,pretext_loss\n{rows}\n")
        assert main(["plan", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"pt4al plan: {out / 'losses.csv'}: malformed loss record: sample ids "
                                           f"must be whole numbers within int64, got 9223372036854775813\n")
        assert sorted(p.name for p in out.iterdir()) == ["losses.csv"]


def test_run_with_an_id_beyond_int64_exits_1(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    monkeypatch.setattr(loop, "build_dataset", lambda *args: pytest.fail("run built its dataset"))
    for rows in BIG_ID_ROWS:
        (out / "losses.csv").write_text(f"sample_id,pretext_loss\n{rows}\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"pt4al run: {out / 'losses.csv'}: malformed loss record: sample ids "
                                           f"must be whole numbers within int64, got 9223372036854775813\n")
        assert sorted(p.name for p in out.iterdir()) == written


def test_a_loss_file_behind_a_byte_order_mark_exits_1_naming_it(tmp_path, capsys):
    # A spreadsheet may save the CSV as UTF-8 with a BOM; the header then no longer reads as the header.
    cfg = write_config(tmp_path, al={"iterations": 1})
    out = tmp_path / "out"
    out.mkdir()
    (out / "losses.csv").write_text("sample_id,pretext_loss\n1,0.5\n", encoding="utf-8-sig")
    assert main(["plan", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"pt4al plan: {out / 'losses.csv'}: unexpected UTF-8 byte-order mark; "
                                       f"save the file as UTF-8 without one\n")
    assert sorted(p.name for p in out.iterdir()) == ["losses.csv"]


# (data rows of losses.csv, the fault named). The first faulty row in file order is named, and a
# row's loss is checked before its id; the smallest repeated id or the lowest loss is not named.
NAMED_FAULTS = {"repeated": ("5,0.1\n3,0.2\n5,0.3\n3,0.4\n", "repeated sample id 5"),
                "negative": ("4,1.0\n2,-1.0\n1,-2.0\n", "invalid loss for sample 2"),
                "repeat-then-negative": ("3,0.5\n3,0.5\n1,-1\n", "repeated sample id 3"),
                "negative-then-repeat": ("9,-0.5\n3,0.5\n3,0.5\n", "invalid loss for sample 9"),
                "repeat-with-negative": ("7,0.1\n7,-1\n", "invalid loss for sample 7")}


@pytest.mark.parametrize("case", NAMED_FAULTS)
def test_a_faulty_loss_file_names_its_first_faulty_row(tmp_path, capsys, case):
    cfg = write_config(tmp_path, al={"iterations": 1})
    out = tmp_path / "out"
    out.mkdir()
    rows, named = NAMED_FAULTS[case]
    (out / "losses.csv").write_text("sample_id,pretext_loss\n" + rows)
    assert main(["plan", str(cfg)]) == 1
    assert capsys.readouterr().err == f"pt4al plan: {out / 'losses.csv'}: {named}\n"
    assert sorted(p.name for p in out.iterdir()) == ["losses.csv"]


def test_a_failed_run_leaves_no_stale_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    out = tmp_path / "out"
    assert main(["pretext", str(cfg)]) == 0
    assert main(["run", str(cfg), "--seed", "5"]) == 0
    (out / "queries.csv").unlink()
    (out / "queries.csv").mkdir()  # so that the second run's last write fails
    assert main(["run", str(cfg), "--seed", "7"]) == 2
    assert "queries.csv" in capsys.readouterr().err
    # Seed 7's reports.csv is written, and no manifest says that seed 5 made it.
    assert not (out / "run_manifest.json").exists()
    assert json.loads((out / "pretext_manifest.json").read_text())["command"] == "pretext"


def losses_elsewhere(tmp_path):
    """Run pretext, move its records to a file outside the output directory and spoil the default path."""
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    moved = tmp_path / "elsewhere.csv"
    moved.write_bytes((tmp_path / "out" / "losses.csv").read_bytes())
    (tmp_path / "out" / "losses.csv").write_text("not,a loss file\n")
    return cfg, moved


@pytest.mark.parametrize("command, manifest", [("plan", "plan_manifest.json"), ("run", "run_manifest.json")])
def test_losses_flag_names_the_records_read(tmp_path, command, manifest):
    cfg, moved = losses_elsewhere(tmp_path)
    assert main([command, str(cfg), "--losses", str(moved)]) == 0
    inputs = json.loads((tmp_path / "out" / manifest).read_text())["inputs"]
    assert inputs == {str(moved): hashlib.sha256(moved.read_bytes()).hexdigest()}


@pytest.mark.parametrize("command", ["plan", "run"])
def test_missing_losses_flag_file_exits_1(tmp_path, monkeypatch, capsys, command):
    cfg, _ = losses_elsewhere(tmp_path)
    ghost = tmp_path / "ghost.csv"
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command, str(cfg), "--losses", str(ghost)]) == 1
    assert f"needs loss records at {ghost}" in capsys.readouterr().err


def test_run_random_skips_pretext_requirement(tmp_path):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = (out / "reports.csv").read_text().splitlines()
    assert lines[0] == "iteration,accuracy,labeled_size,hist_entropy,class_histogram"
    assert len(lines) == 4
    assert (out / "queries.csv").is_file()


def test_one_class_round_writes_a_zero_entropy_not_minus_zero(tmp_path):
    cfg = write_config(tmp_path, al={"strategy": "random", "budget": 1})
    assert main(["run", str(cfg)]) == 0
    round_1 = (tmp_path / "out" / "reports.csv").read_text().splitlines()[1]
    assert round_1.split(",")[3] == "0", round_1


def assert_budget_rejected(tmp_path, capsys, command, *flags):
    cfg = write_config(tmp_path, al={"strategy": "random", "iterations": 100, "budget": 100})
    assert main([command, str(cfg), *flags]) == 1
    assert "budget 100 x 100 exceeds unlabeled pool size 120" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_validates_budget_before_work(tmp_path, capsys):
    assert_budget_rejected(tmp_path, capsys, "run")


@pytest.mark.parametrize("command, flags", [("coldstart", ["--seeds", "1,2"]),
                                            ("ablate", ["--variant", "sampling-only"])],
                         ids=["coldstart", "ablate"])
def test_coldstart_and_ablate_validate_budget_before_work(tmp_path, capsys, command, flags):
    assert_budget_rejected(tmp_path, capsys, command, *flags)


@pytest.mark.parametrize("dataset", [{"classes": 1}, {"size": 8}, {"n_per_class": 0}, {"noise": -1}],
                         ids=lambda d: next(iter(d)))
def test_synthetic_dataset_values_are_validation_errors(tmp_path, capsys, dataset):
    cfg = write_config(tmp_path, dataset=dataset)
    assert main(["pretext", str(cfg)]) == 1
    assert next(iter(dataset)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def no_training(*args, **kwargs):
    raise AssertionError("trained before rejecting the config")


# (config overrides, key the message must name). Each was accepted, coerced or
# failed with exit 2 before every config field was read and checked by its
# declared type and range.
BAD_VALUES = {
    "main.epochs-2.5": ({"main": {"epochs": 2.5}}, "main.epochs"),
    "main.epochs-true": ({"main": {"epochs": True}}, "main.epochs"),
    "main.hidden-0": ({"main": {"hidden": [0]}}, "main.hidden"),
    "main.activation-sigmoid": ({"main": {"activation": "sigmoid"}}, "main.activation"),
    "main.batch_size-0": ({"main": {"batch_size": 0}}, "main.batch_size"),
    "main.conv.kernel-99": ({"main": {"conv": {"filters": 2, "kernel": 99}}}, "conv.kernel"),
    "main.learning_rate-nan": ({"main": {"learning_rate": float("nan")}}, "main.learning_rate"),
    "main.learning_rate-inf": ({"main": {"learning_rate": float("inf")}}, "main.learning_rate"),
    "main.init_scale-nan": ({"main": {"init_scale": float("nan")}}, "main.init_scale"),
    "main.decay_factor-nan": ({"main": {"decay_factor": float("nan")}}, "main.decay_factor"),
    "main.decay_milestones-outside": ({"main": {"decay_milestones": [2.0, -1]}}, "main.decay_milestones"),
    "pretext.epochs-0": ({"pretext": {"epochs": 0}}, "pretext.epochs"),
    "dataset.noise-nan": ({"dataset": {"noise": float("nan")}}, "dataset.noise"),
    "dataset.classes-x": ({"dataset": {"classes": "x"}}, "dataset.classes"),
    "dataset.n_per_class-2.5": ({"dataset": {"n_per_class": 2.5}}, "dataset.n_per_class"),
    "dataset.imbalance_counts-negative": ({"dataset": {"imbalance_counts": [-1, 5, 5]}}, "dataset.imbalance_counts"),
    "dataset.imbalance_counts-zero": ({"dataset": {"imbalance_counts": [20, 0, 20]}}, "dataset.imbalance_counts"),
    "dataset.imbalance_factor-nan": ({"dataset": {"imbalance_factor": float("nan")}}, "dataset.imbalance_factor"),
    "al.budget-true": ({"al": {"budget": True}}, "al.budget"),
    "al.budget-2.7": ({"al": {"budget": 2.7}}, "al.budget"),
    "seed-1.9": ({"seed": 1.9}, "seed"),
    "output_dir-5": ({"output_dir": 5}, "output_dir"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_config_values_exit_1_before_work(tmp_path, monkeypatch, capsys, case):
    overrides, key = BAD_VALUES[case]
    base = {"dataset": {"n_per_class": 20}, "al": {"strategy": "random"}}
    for section, value in overrides.items():
        base[section] = {**base[section], **value} if section in base else value
    cfg = write_config(tmp_path, **base)
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# case -> (edit of write_config's config, command, the whole of stderr). Each exit 1 here
# is reached by no other test.
CONFIG_FAULTS = {
    "root-not-an-object": (lambda cfg: [cfg], ["run"], "pt4al run: config root must be a JSON object"),
    "no-output-dir": (lambda cfg: {k: v for k, v in cfg.items() if k != "output_dir"}, ["run"],
                      "pt4al run: output_dir must be set in the config or via --output-dir"),
    "seeds-not-integers": (lambda cfg: cfg, ["coldstart", "--seeds", "1,x"],
                           "pt4al coldstart: --seeds must be a comma-separated list of integers: "
                           "invalid literal for int() with base 10: 'x'"),
    "unknown-key-in-section": (lambda cfg: {**cfg, "al": {**cfg["al"], "foo": 1}}, ["run"],
                               "pt4al run: unknown config key al.foo"),
    "derived-key-in-section": (lambda cfg: {**cfg, "al": {**cfg["al"], "seed": 1}}, ["run"],
                               "pt4al run: al.seed is derived at run time or set at the top level, not in al"),
    "idx-without-paths": (lambda cfg: {**cfg, "dataset": {**cfg["dataset"], "kind": "idx"}}, ["run"],
                          "pt4al run: idx dataset requires both image and label paths"),
    "paths-without-idx": (lambda cfg: {**cfg, "dataset": {**cfg["dataset"], "images": "no.idx", "labels": "no.idx"}},
                          ["run"], 'pt4al run: dataset.images is set, but a "synthetic" dataset reads no files'),
    "labels-without-idx": (lambda cfg: {**cfg, "dataset": {**cfg["dataset"], "labels": "no.idx"}}, ["pretext"],
                           'pt4al pretext: dataset.labels is set, but a "synthetic" dataset reads no files'),
}


@pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
def test_config_faults_exit_1_with_one_line_and_write_nothing(tmp_path, monkeypatch, capsys, case):
    edit, (command, *flags), line = CONFIG_FAULTS[case]
    cfg = write_config(tmp_path)
    cfg.write_text(json.dumps(edit(json.loads(cfg.read_text()))))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command, str(cfg), *flags]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert list(tmp_path.iterdir()) == [cfg]


# dataset section -> key the message must name. The imbalance values are valid
# numbers that do not fit a corpus of 3 classes x 20 samples.
IMBALANCE_MISFITS = {
    "counts-too-few": ({"imbalance_counts": [5, 5]}, "imbalance_counts"),
    "counts-too-many": ({"imbalance_counts": [50, 5, 5]}, "imbalance_counts"),
    "factor-too-large": ({"imbalance_factor": 0.5}, "imbalance_factor"),
    "factor-overflows": ({"imbalance_factor": 1e306}, "imbalance_factor"),
    "idx-counts-too-many": ({"kind": "idx", "imbalance_counts": [50, 5, 5]}, "imbalance_counts"),
}


@pytest.mark.parametrize("case", sorted(IMBALANCE_MISFITS))
def test_imbalance_that_does_not_fit_the_corpus_exits_1(tmp_path, monkeypatch, capsys, case):
    dataset, key = IMBALANCE_MISFITS[case]
    if dataset.get("kind") == "idx":
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(gen_synthetic(20, 3, 10, 0.0, seed=1), images, labels)
        dataset = {**dataset, "images": str(images), "labels": str(labels)}
    cfg = write_config(tmp_path, dataset={"n_per_class": 20, **dataset}, al={"strategy": "random"})
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("factor, cls", [(1e306, 0), (1.5e305, 2)])
def test_imbalance_factor_past_the_float_range_names_the_class(tmp_path, monkeypatch, capsys, factor, cls):
    cfg = write_config(tmp_path, dataset={"n_per_class": 20, "imbalance_factor": factor}, al={"strategy": "random"})
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert (f"dataset.imbalance_factor: imbalance factor {factor} is too large: the count of class {cls}, "
            f"500 x {cls + 1} x {factor}, leaves the float range") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# dataset section -> the split it spoils: each test_fraction leaves one side
# empty or puts a whole class in the test split only.
BAD_SPLITS = {
    "train-empty": {"classes": 2, "n_per_class": 1, "test_fraction": 0.9},
    "test-empty": {"n_per_class": 2, "test_fraction": 0.01},
    "test-label-unseen": {"n_per_class": 20, "imbalance_counts": [6, 6, 1], "test_fraction": 0.5},
}


@pytest.mark.parametrize("case", sorted(BAD_SPLITS))
def test_test_fraction_that_spoils_a_split_exits_1(tmp_path, monkeypatch, capsys, case):
    cfg = write_config(tmp_path, dataset=BAD_SPLITS[case], al={"strategy": "random", "iterations": 1, "budget": 1})
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert "dataset.test_fraction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["pretext"], ["run"], ["coldstart", "--seeds", "1,2"], ["correlate"],
                                     ["ablate", "--variant", "sampling-only"]],
                         ids=["pretext", "run", "coldstart", "correlate", "ablate"])
@pytest.mark.parametrize("section", ["pretext", "main"])
def test_decay_factor_that_overflows_the_schedule_exits_1_before_work(tmp_path, monkeypatch, capsys,
                                                                      section, command):
    # The rate of epoch 3 is 1.0 * 1e308 ** 2. A main section like this used to train and
    # then exit 2 on the float overflow; a pretext one passed, as pretext stops at epoch 0.
    cfg = write_config(tmp_path, dataset={"n_per_class": 20}, al={"strategy": "random"},
                       **{section: {"learning_rate": 1.0, "decay_factor": 1e308, "epochs": 4}})
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command[0], str(cfg), *command[1:]]) == 1
    assert f"{section}: decay_factor 1e+308 overflows the learning rate schedule" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def non_square_idx(tmp_path) -> dict:
    """Dataset section of a 3-class, 60-sample IDX corpus of 10x12 images."""
    pool = gen_synthetic(20, 3, 12, 0.0, seed=1)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(Pool(pool.ids, pool.x[:, :10], pool.y), images, labels)
    return {"kind": "idx", "images": str(images), "labels": str(labels)}


@pytest.mark.parametrize("command", [["pretext"], ["coldstart", "--seeds", "1,2"], ["correlate"],
                                     ["correlate", "--pretext-checkpoint", "{ckpt}"],
                                     ["ablate", "--variant", "pretext-only-high"]],
                         ids=["pretext", "coldstart", "correlate", "correlate-checkpoint", "ablate"])
def test_rotation_commands_reject_non_square_images_before_training(tmp_path, monkeypatch, capsys, command):
    cfg = write_config(tmp_path, dataset=non_square_idx(tmp_path))
    ckpt = tmp_path / "ckpt.json"
    learner.save_checkpoint(learner.init_learner(
        LearnerConfig(input_shape=(10, 12, 1), n_classes=4, hidden=(4,))), ckpt)
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command[0], str(cfg), *(arg.format(ckpt=ckpt) for arg in command[1:])]) == 1
    assert "square images" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_random_accepts_non_square_images(tmp_path):
    cfg = write_config(tmp_path, dataset=non_square_idx(tmp_path), al={"strategy": "random"})
    assert main(["run", str(cfg)]) == 0


def test_full_pipeline_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    assert main(["plan", str(cfg)]) == 0
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    reports1 = (out / "reports.csv").read_bytes()
    queries1 = (out / "queries.csv").read_bytes()
    manifest1 = (out / "run_manifest.json").read_bytes()
    assert main(["run", str(cfg)]) == 0
    assert (out / "reports.csv").read_bytes() == reports1
    assert (out / "queries.csv").read_bytes() == queries1
    assert (out / "run_manifest.json").read_bytes() == manifest1
    plan_lines = (out / "plan.csv").read_text().splitlines()
    assert plan_lines[0] == "sample_id,batch_index,rank_in_batch"
    assert len(plan_lines) - 1 == 120


def test_coldstart_summary_statistics_consistent(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["coldstart", str(cfg), "--seeds", "1,2,3"]) == 0
    out = tmp_path / "out"
    runs = (out / "coldstart_runs.csv").read_text().splitlines()[1:]
    summary = (out / "coldstart_summary.csv").read_text().splitlines()[1:]
    assert len(summary) == 2
    by_method: dict[str, list[float]] = {"pt4al": [], "random": []}
    for row in runs:
        _, method, acc = row.split(",")
        by_method[method].append(float(acc))
    assert len(by_method["pt4al"]) == 3 and len(by_method["random"]) == 3
    for row in summary:
        method, mean, *_ = row.split(",")
        accs = by_method[method]
        assert float(mean) == pytest.approx(sum(accs) / len(accs), abs=1e-12)


def test_coldstart_rejects_single_seed(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["coldstart", str(cfg), "--seeds", "1"]) == 1


def test_coldstart_rejects_repeated_seeds(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["coldstart", str(cfg), "--seeds", "1,2,1"]) == 1
    assert "seed 1 is repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_correlate_writes_rho_and_scatter(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["correlate", str(cfg)]) == 0
    out = tmp_path / "out"
    corr = (out / "correlation.csv").read_text().splitlines()
    assert corr[0] == "rho,n"
    rho, n = corr[1].split(",")
    assert -1.0 <= float(rho) <= 1.0
    assert int(n) == 30
    assert (out / "scatter.csv").is_file()


def test_correlate_rejects_missing_or_invalid_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(tmp_path / "ghost.json")]) == 1
    bad = tmp_path / "bad.json"
    for text in ('{"magic": "nope"}', "[]", '{"magic": "PT4AL-CKPT", "version": 1}'):
        bad.write_text(text)
        assert main(["correlate", str(cfg), "--pretext-checkpoint", str(bad)]) == 1


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_correlate_names_an_unreadable_checkpoint(tmp_path, monkeypatch, capsys, content):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(bad)]) == 1
    assert f"{bad}: not a learner checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_classes, input_shape", [(3, (10, 10, 1)), (4, (8, 8, 1))],
                         ids=["not-4-class", "wrong-input-shape"])
def test_correlate_rejects_mismatched_checkpoint_before_training(tmp_path, monkeypatch, capsys,
                                                                 n_classes, input_shape):
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    learner.save_checkpoint(learner.init_learner(
        LearnerConfig(input_shape=input_shape, n_classes=n_classes, hidden=(4,))), ckpt)

    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
    assert "pretext checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# case -> (edit of the checkpoint's weight arrays, what the message says). Every case names
# the file; before, the string cases did not and the extra array exited 2.
CHECKPOINT_FAULTS = {
    "string-data": (lambda w: w[0]["data"].__setitem__(0, "abc"), "could not convert string to float: 'abc'"),
    "string-shape": (lambda w: w[0]["shape"].__setitem__(0, "abc"), "invalid literal for int()"),
    "data-shape-mismatch": (lambda w: w[0]["data"].pop(), "array data does not match its declared shape (100, 4)"),
    "nan-token": (lambda w: w[0]["data"].__setitem__(0, math.nan), "checkpoint contains non-finite values"),
    "extra-array": (lambda w: w.append({"data": [0.0], "shape": [1]}), "weight shapes"),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_FAULTS))
def test_unparseable_checkpoint_exits_1_naming_it(tmp_path, monkeypatch, capsys, case):
    edit, says = CHECKPOINT_FAULTS[case]
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    model = learner.init_learner(LearnerConfig(input_shape=(10, 10, 1), n_classes=4, hidden=(4,)))
    learner.save_checkpoint(model, ckpt)
    payload = json.loads(ckpt.read_text())
    edit(payload["weights"])
    ckpt.write_text(json.dumps(payload))  # math.nan is written as the token NaN
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
    assert f"{ckpt}: {says}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["missing", "directory"])
def test_unreadable_checkpoint_exits_1_naming_it(tmp_path, monkeypatch, capsys, case):
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "ckpt"
    if case == "directory":
        ckpt.mkdir()
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
    reason = "Is a directory" if case == "directory" else "No such file or directory"
    assert f"{ckpt}: cannot read checkpoint: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_checkpoint_nested_past_the_decoder_limit_exits_1_naming_it(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
    assert f"{ckpt}: not a learner checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# misfit -> (rotation model input shape, its classes, the pool's image shape)
MISFIT_MODELS = {
    "3-class": ((10, 10, 1), 3, (10, 10, 1)),
    "non-square": ((10, 12, 1), 4, (10, 12, 1)),
    "input-shape": ((8, 8, 1), 4, (10, 10, 1)),
}


@pytest.mark.parametrize("entry", ["train_pretext", "extract_losses", "correlate"])
@pytest.mark.parametrize("misfit", sorted(MISFIT_MODELS))
def test_every_rotation_entry_rejects_a_misfit_model_alike(tmp_path, monkeypatch, capsys, misfit, entry):
    input_shape, n_classes, shape = MISFIT_MODELS[misfit]
    model = learner.init_learner(LearnerConfig(input_shape=input_shape, n_classes=n_classes, hidden=(4,)))
    with pytest.raises(ConfigError) as want:
        pretext.check_model(model.config, shape)
    for name in ("init_learner", "train", "predict_logits"):
        monkeypatch.setattr(learner, name, no_training)
    if entry == "correlate":
        cfg = write_config(tmp_path, dataset=non_square_idx(tmp_path) if shape[0] != shape[1] else {})
        ckpt = tmp_path / "ckpt.json"
        learner.save_checkpoint(model, ckpt)
        assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
        assert f"{ckpt}: pretext checkpoint does not fit: {want.value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        return
    pool = Pool(np.arange(6), np.full((6, *shape), 0.5))
    with pytest.raises(ConfigError) as got:
        if entry == "train_pretext":
            pretext.train_pretext(pool, model.config)
        else:
            pretext.extract_losses(model, pool)
    assert str(got.value) == str(want.value)


def test_correlate_rejects_a_one_sample_test_split_before_training(tmp_path, monkeypatch, capsys):
    # Class 0 keeps its one sample for training, class 1 sends 1 of 5 to the test split.
    cfg = write_config(tmp_path, dataset={"classes": 2, "n_per_class": 5, "imbalance_counts": [1, 5]})
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "dataset.test_fraction" in err and "test split of 1 sample" in err
    assert not (tmp_path / "out").exists()


def test_correlate_reuses_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["pretext", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "pretext_checkpoint.json"
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 0
    manifest = json.loads((tmp_path / "out" / "correlate_manifest.json").read_text())
    assert str(ckpt) in manifest["inputs"]


def test_ablate_runs_variant(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["ablate", str(cfg), "--variant", "sampling-only"]) == 0
    out = tmp_path / "out"
    assert (out / "ablate_sampling_only_reports.csv").is_file()


@pytest.mark.parametrize("variant", ["bogus", "random", "pt4al-sampling-only"])
def test_ablate_accepts_only_ablation_variants(tmp_path, monkeypatch, capsys, variant):
    # Strategy names are not variants either: "random" is no ablation, and the
    # full name would rerun "sampling-only" under a second prefix.
    cfg = write_config(tmp_path)
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["ablate", str(cfg), "--variant", variant]) == 1
    assert f"unknown ablation variant {variant!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["ablate", "--variant", "sampling-only"],
                                     ["coldstart", "--seeds", "1,2"], ["correlate"]],
                         ids=["run", "ablate", "coldstart", "correlate"])
def test_diverged_main_model_exits_2_without_outputs(tmp_path, capsys, command):
    # relu at this rate overflows in the first epochs; every later epoch loss is NaN.
    cfg = write_config(tmp_path, main={"activation": "relu", "learning_rate": 1e100, "epochs": 5},
                       al={"strategy": "random", "iterations": 2})
    assert main([command[0], str(cfg), *command[1:]]) == 2
    assert "main learning rate diverged" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # Weights this large overflow the logits; the message names the setting that did it.
    cfg = write_config(tmp_path, main={"init_scale": 1e308, "epochs": 5}, al={"strategy": "random", "iterations": 2})
    assert main([command[0], str(cfg), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "main learning rate diverged" in err
    assert "learning_rate 0.3, decay_factor 0.1, init_scale 1e+308" in err
    assert not (tmp_path / "out").exists()


def test_both_divergence_messages_come_from_check_converged(tmp_path, monkeypatch, capsys):
    raised, check = [], learner.check_converged

    def recording(*args):
        try:
            check(*args)
        except RuntimeError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(learner, "check_converged", recording)
    for command, section in (("pretext", "pretext"), ("run", "main")):
        cfg = write_config(tmp_path, dataset={"n_per_class": 20}, al={"strategy": "random", "iterations": 2},
                           **{section: {"init_scale": 1e308, "decay_factor": 0.5}})
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"pt4al {command}: {raised[-1]}\n"
        assert raised[-1].startswith(f"{section} learning rate diverged: ")
        assert raised[-1].endswith("(learning_rate 0.3, decay_factor 0.5, init_scale 1e+308)")
        assert not (tmp_path / "out").exists()
    assert len(raised) == 2


@pytest.mark.parametrize("section", ["pretext", "main"])
def test_correlate_with_constant_losses_exits_1_naming_the_model(tmp_path, capsys, section):
    # An all-zero model that never moves gives every test sample the same loss: rho is undefined.
    cfg = write_config(tmp_path, dataset={"n_per_class": 20}, **{section: {
        "hidden": [8], "epochs": 2, "learning_rate": 0.0, "init_scale": 0.0, "decay_milestones": []}})
    assert main(["correlate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"the {section} losses of all 12 test samples are equal" in err
    assert f"({section} learning_rate 0.0, init_scale 0.0)" in err
    assert not (tmp_path / "out").exists()


def test_diverged_run_prints_only_its_error_line(tmp_path, capsys):
    # Weights this large overflow numpy's matmul; the run reports the divergence once,
    # with no numpy warning before it (the test suite turns any warning into an error).
    cfg = write_config(tmp_path, main={"init_scale": 1e308},
                       dataset={"n_per_class": 20}, al={"strategy": "random", "iterations": 2})
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pt4al run: main learning rate diverged: "), captured.err
    assert not (tmp_path / "out").exists()


def test_flag_overrides_take_precedence(tmp_path):
    cfg = write_config(tmp_path, al={"strategy": "pt4al"})
    alt = tmp_path / "alt"
    assert main(["run", str(cfg), "--strategy", "random", "--iterations", "2",
                 "--budget", "5", "--output-dir", str(alt)]) == 0
    lines = (alt / "reports.csv").read_text().splitlines()
    assert len(lines) == 3
    manifest = json.loads((alt / "run_manifest.json").read_text())
    assert manifest["config"]["al"]["strategy"] == "random"
    assert manifest["config"]["al"]["budget"] == 5


def write_losses(out: Path, n: int = 20) -> None:
    out.mkdir(exist_ok=True)
    (out / "losses.csv").write_text("sample_id,pretext_loss\n" + "".join(f"{i},{i / 10}\n" for i in range(n)))


# (command, override flag its handler does not read, value): each was taken, ignored by
# the handler and echoed into the manifest as if it had run.
DROPPED_FLAGS = [("pretext", "--strategy", "random"), ("pretext", "--iterations", "2"), ("pretext", "--budget", "5"),
                 ("plan", "--seed", "4"), ("plan", "--budget", "5"), ("coldstart", "--strategy", "entropy"),
                 ("correlate", "--strategy", "random"), ("correlate", "--iterations", "2"),
                 ("correlate", "--budget", "5"), ("ablate", "--strategy", "random")]
OWN_FLAGS = {"coldstart": ["--seeds", "1,2"], "ablate": ["--variant", "sampling-only"]}


@pytest.mark.parametrize("command, flag, value", DROPPED_FLAGS, ids=[f"{c}{f}" for c, f, _ in DROPPED_FLAGS])
def test_an_override_its_command_does_not_read_exits_1(tmp_path, monkeypatch, capsys, command, flag, value):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    write_losses(out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command, str(cfg), *OWN_FLAGS.get(command, []), flag, value]) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err and len(err.splitlines()) == 1, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# Every override that a command other than `run` still takes, with a value unlike the config's.
KEPT_FLAGS = {"pretext": {"--seed": 4}, "plan": {"--strategy": "pt4al-low-loss-first", "--iterations": 2},
              "coldstart": {"--seed": 4, "--iterations": 2, "--budget": 5}, "correlate": {"--seed": 4},
              "ablate": {"--seed": 4, "--iterations": 2, "--budget": 5}}


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_every_kept_override_reaches_the_config_echo(tmp_path, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    write_losses(out)
    flags = [str(s) for flag, value in KEPT_FLAGS[command].items() for s in (flag, value)]
    assert main([command, str(cfg), *OWN_FLAGS.get(command, []), *flags]) == 0
    manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
    echo = {**manifest["config"]["al"], "seed": manifest["config"]["seed"]}
    assert {flag: echo[flag[2:]] for flag in KEPT_FLAGS[command]} == KEPT_FLAGS[command]


# (argv after the config file, the flag the one-line message must name); each exited 2 through argparse.
USAGE_ERRORS = {"bad-int": (["run", "--budget", "2x"], "--budget"),
                "bad-choice": (["run", "--strategy", "nope"], "--strategy"),
                "unknown-flag": (["run", "--bogus"], "--bogus"),
                "no-variant": (["ablate"], "--variant"),
                "no-seeds": (["coldstart"], "--seeds")}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_a_usage_error_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, case):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    (command, *flags), named = USAGE_ERRORS[case]
    monkeypatch.setattr(learner, "train", no_training)
    assert main([command, str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert named in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["ablate", "--help"]], ids=" ".join)
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_empty_output_dir_flag_is_validation_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg), "--output-dir", ""]) == 1
    assert "output_dir must be a non-empty path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_output_dir_in_config_is_validation_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, output_dir="", al={"strategy": "random"})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg)]) == 1
    assert "output_dir must be a non-empty path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("output_dir", ["afile", "afile/sub"], ids=["file", "under-file"])
def test_output_dir_that_cannot_be_a_directory_exits_1_before_work(tmp_path, monkeypatch, capsys, output_dir):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    (tmp_path / "afile").write_text("keep me\n")
    monkeypatch.setattr(learner, "train", no_training)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / output_dir)]) == 1
    assert "output_dir" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "keep me\n"


def test_unparseable_or_unknown_config_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pretext", str(bad)]) == 1
    assert main(["pretext", str(tmp_path / "missing.json")]) == 1
    weird = write_config(tmp_path, name="weird.json")
    payload = json.loads(weird.read_text())
    payload["surprise"] = True
    weird.write_text(json.dumps(payload))
    assert main(["pretext", str(weird)]) == 1

@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_unreadable_config_is_validation_error(tmp_path, capsys, case):
    cfg = tmp_path / "config.json"
    if case == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b'{"output_dir": "\xff"}')
    assert main(["run", str(cfg)]) == 1
    assert f"cannot read config file {cfg}" in capsys.readouterr().err


def test_config_nested_past_the_decoder_limit_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"al": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["run", str(cfg)]) == 1
    assert f"config file {cfg} is not valid JSON" in capsys.readouterr().err


def test_plan_rejects_losses_that_are_not_utf8(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "losses.csv").write_bytes(b"sample_id,pretext_loss\n1,0.5\n\xff,0.25\n")
    assert main(["plan", str(cfg)]) == 1
    assert "not UTF-8" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["losses.csv"]



@pytest.mark.parametrize("key", ["budget", "iterations", "seed"])
def test_non_integer_al_and_seed_values_are_validation_errors(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **({"seed": "x"} if key == "seed" else {"al": {key: "x"}}))
    assert main(["run", str(cfg)]) == 1
    assert "'x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inputs_never_mutated(tmp_path):
    cfg = write_config(tmp_path)
    before = cfg.read_bytes()
    assert main(["pretext", str(cfg)]) == 0
    losses = (tmp_path / "out" / "losses.csv").read_bytes()
    assert main(["plan", str(cfg)]) == 0
    assert cfg.read_bytes() == before
    assert (tmp_path / "out" / "losses.csv").read_bytes() == losses


# Runs pt4al commands in a fresh interpreter and prints what the process loaded. With
# argv[1] == "no-builtin-sha256", importlib finds no builtin SHA-256 module, as on an
# interpreter built without one.
PROBE = """
import importlib.util, json, sys
from pathlib import Path
if sys.argv[1] == "no-builtin-sha256":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *args: None if name in ("_sha2", "_sha256") else find_spec(name, *args)
from pt4al.cli import main
from pt4al.seeds import derive_seed
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0
maps = Path("/proc/self/maps")
print(json.dumps({"numpy.ma": "numpy.ma" in sys.modules, "_hashlib": sys.modules.get("_hashlib") is not None,
                  "libcrypto": maps.exists() and "libcrypto" in maps.read_text(),
                  "split_seed": derive_seed(0, "split")}))
"""


def run_child(script: str, *args: str, cwd=None) -> list[str]:
    """The stdout lines of `python -c script args` with this pt4al on the path."""
    src = str(Path(pt4al.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()


def run_probe(commands, mode="as-built", cwd=None) -> dict:
    return json.loads(run_child(PROBE, mode, json.dumps(commands), cwd=cwd)[-1])


def openssl_sha256(data: bytes):
    return pytest.importorskip("_hashlib").openssl_sha256(data)


@pytest.mark.parametrize("command", [["pretext"], ["run"], ["run", "--strategy", "entropy"], ["plan"]])
def test_commands_never_import_numpy_ma(tmp_path, command):
    # numpy.ma costs 16-18 ms of import time in every process that loads it;
    # np.unique is the usual way in. OpenSSL's libcrypto adds 3.4 MB to the peak RSS.
    cfg = write_config(tmp_path)
    if command[0] != "pretext":
        assert main(["pretext", str(cfg)]) == 0
    loaded = run_probe([[*command, str(cfg)]])
    assert loaded["numpy.ma"] is False
    assert loaded["_hashlib"] is False
    assert loaded["libcrypto"] is False
    # The builtin SHA-256 in the child against OpenSSL's here: seeds and input digests agree.
    assert loaded["split_seed"] == int.from_bytes(openssl_sha256(b"0:split").digest()[:8], "big") >> 1
    manifest = json.loads((tmp_path / "out" / f"{command[0]}_manifest.json").read_text())
    assert manifest["inputs"] == {p: openssl_sha256(Path(p).read_bytes()).hexdigest() for p in manifest["inputs"]}
    assert len(manifest["inputs"]) == (0 if command in (["pretext"], ["run", "--strategy", "entropy"]) else 1)


def test_importing_pt4al_leaves_openssl_to_the_importer():
    """Only `cli.main` blocks OpenSSL: a library user who imports hashlib still gets it."""
    if importlib.util.find_spec("_hashlib") is None:
        pytest.skip("this interpreter has no OpenSSL")
    probe = ("import sys\nimport pt4al.cli\nprint('hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
             "import hashlib\nprint(sys.modules['_hashlib'] is not None, type(hashlib.sha256()).__module__)")
    assert run_child(probe) == ["False False", "True _hashlib"]


def test_cli_keeps_openssl_without_a_builtin_sha256_and_writes_the_same_bytes(tmp_path):
    cfg = str(write_config(tmp_path, output_dir="out"))  # relative, so the manifests name the same paths
    has_openssl = importlib.util.find_spec("_hashlib") is not None
    outputs = {}
    for mode in ("as-built", "no-builtin-sha256"):
        (tmp_path / mode).mkdir()
        loaded = run_probe([["pretext", cfg], ["run", cfg]], mode, cwd=tmp_path / mode)
        assert loaded["_hashlib"] is (mode == "no-builtin-sha256" and has_openssl)
        outputs[mode] = {p.name: p.read_bytes() for p in sorted((tmp_path / mode / "out").iterdir())}
    assert len(outputs["as-built"]) == 6
    assert json.loads(outputs["as-built"]["run_manifest.json"])["inputs"]  # a digest is among the bytes
    assert outputs["no-builtin-sha256"] == outputs["as-built"]


def test_no_module_reads_another_modules_private_names():
    """A pt4al `_name` is read only in the module that defines it."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    src = Path(pt4al.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = {}  # local name -> the pt4al module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (node.level or node.module.split(".")[0] == "pt4al"):
                continue
            source = (node.module or "").removeprefix("pt4al").strip(".")
            for alias in node.names:
                if not source:
                    modules[alias.asname or alias.name] = alias.name
                elif private(alias.name) and source != path.stem:
                    reads.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and private(node.attr)
                    and modules.get(node.value.id, path.stem) != path.stem):
                reads.append(f"{path.name}:{node.lineno} reads {modules[node.value.id]}.{node.attr}")
    assert reads == []


WRITE_PATH = [["pretext"], ["plan"], ["run"], ["coldstart", "--seeds", "1,2"], ["correlate"],
              ["ablate", "--variant", "sampling-only"]]


@pytest.mark.parametrize("command", WRITE_PATH, ids=[c[0] for c in WRITE_PATH])
def test_each_subcommand_resolves_to_its_handler_through_the_parser(command):
    args = build_parser().parse_args([command[0], "config.json", *command[1:]])
    assert args.command == command[0]
    assert args.handler is getattr(cli, f"cmd_{command[0]}")


def test_each_command_adds_exactly_its_manifest_and_listed_outputs(tmp_path):
    cfg = write_config(tmp_path, al={"iterations": 2, "budget": 5})
    out = tmp_path / "out"
    for command in WRITE_PATH:
        before = set(out.iterdir()) if out.exists() else set()
        assert main([command[0], str(cfg), *command[1:]]) == 0
        added = set(out.iterdir()) - before
        manifests = [p for p in added if p.name.endswith("_manifest.json")]
        assert len(manifests) == 1, command
        outputs = json.loads(manifests[0].read_text())["outputs"]
        assert added == {manifests[0], *map(Path, outputs)}, command
