"""Command-line interface: subcommands, exit codes, determinism, manifests."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pt4al
from pt4al import learner, loop, pretext
from pt4al.cli import load_config, main
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
    with np.errstate(all="ignore"):
        assert main(["pretext", str(cfg)]) == 2
    assert "pretext learning rate diverged: kept epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_dataset_path_fails_without_partial_outputs(tmp_path):
    cfg = write_config(tmp_path, dataset={"kind": "idx", "images": str(tmp_path / "nope.idx"),
                                          "labels": str(tmp_path / "nope2.idx")})
    assert main(["pretext", str(cfg)]) == 1
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


def test_plan_accepts_ids_beyond_int64(tmp_path, capsys):
    cfg = write_config(tmp_path, al={"iterations": 3})
    out = tmp_path / "out"
    out.mkdir()
    big = 2**63 + 5
    (out / "losses.csv").write_text(f"sample_id,pretext_loss\n1,0.25\n{big},0.75\n2,0.5\n3,0.125\n")
    assert main(["plan", str(cfg)]) == 0
    assert (out / "plan.csv").read_text().splitlines() == [
        "sample_id,batch_index,rank_in_batch", f"{big},0,0", "2,0,1", "1,1,0", "3,2,0"]


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


# dataset section -> key the message must name. The imbalance values are valid
# numbers that do not fit a corpus of 3 classes x 20 samples.
IMBALANCE_MISFITS = {
    "counts-too-few": ({"imbalance_counts": [5, 5]}, "imbalance_counts"),
    "counts-too-many": ({"imbalance_counts": [50, 5, 5]}, "imbalance_counts"),
    "factor-too-large": ({"imbalance_factor": 0.5}, "imbalance_factor"),
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
    with np.errstate(all="ignore"):
        assert main([command[0], str(cfg), *command[1:]]) == 2
    assert "main learning rate diverged" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", [["pretext"], ["run"], ["run", "--strategy", "entropy"]])
def test_commands_never_import_numpy_ma(tmp_path, command):
    # numpy.ma costs 16-18 ms of import time in every process that loads it;
    # np.unique is the usual way in.
    cfg = write_config(tmp_path)
    if command[0] == "run":
        assert main(["pretext", str(cfg)]) == 0
    probe = "import sys\nfrom pt4al.cli import main\nassert main(sys.argv[1:]) == 0\nprint('numpy.ma' in sys.modules)"
    src = str(Path(pt4al.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, *command, str(cfg)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"


WRITE_PATH = [["pretext"], ["plan"], ["run"], ["coldstart", "--seeds", "1,2"], ["correlate"],
              ["ablate", "--variant", "sampling-only"]]


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
