"""Command-line interface: subcommands, exit codes, determinism, manifests."""
from __future__ import annotations

import json

import pytest

from pt4al import learner
from pt4al.cli import main
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


def test_run_random_skips_pretext_requirement(tmp_path):
    cfg = write_config(tmp_path, al={"strategy": "random"})
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = (out / "reports.csv").read_text().splitlines()
    assert lines[0] == "iteration,accuracy,labeled_size,hist_entropy,class_histogram"
    assert len(lines) == 4
    assert (out / "queries.csv").is_file()


def test_run_validates_budget_before_work(tmp_path):
    cfg = write_config(tmp_path, al={"strategy": "random", "iterations": 100, "budget": 100})
    assert main(["run", str(cfg)]) in (1, 2)
    assert not (tmp_path / "out" / "reports.csv").exists()


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
    bad.write_text('{"magic": "nope"}')
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(bad)]) == 1


@pytest.mark.parametrize("n_classes, input_shape", [(3, (10, 10, 1)), (4, (8, 8, 1))],
                         ids=["not-4-class", "wrong-input-shape"])
def test_correlate_rejects_mismatched_checkpoint_before_training(tmp_path, monkeypatch, capsys,
                                                                 n_classes, input_shape):
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    learner.save_checkpoint(learner.init_learner(
        LearnerConfig(input_shape=input_shape, n_classes=n_classes, hidden=(4,))), ckpt)

    def no_training(*args, **kwargs):
        raise AssertionError("correlate trained before checking its checkpoint")

    monkeypatch.setattr(learner, "train", no_training)
    assert main(["correlate", str(cfg), "--pretext-checkpoint", str(ckpt)]) == 1
    assert "pretext checkpoint" in capsys.readouterr().err
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
    assert main(["ablate", str(cfg), "--variant", "bogus"]) == 1


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
