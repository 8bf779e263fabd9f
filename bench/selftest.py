"""Tests of the benchmark's own helpers (not part of the pt4al test suite).

    python3 -m pytest bench/selftest.py -q
"""
import types
from pathlib import Path

import pytest

import checks
import spans
import tracer
from spans import Span


def test_self_time_subtracts_children():
    tree = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 5.0, 6.5),
        Span(3, 1, "c", 1.5, 2.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 6.5, 1: 1.5, 2: 1.5, 3: 0.5})


def test_self_time_counts_overlap_once_and_clips_to_parent():
    tree = [
        Span(0, None, "root", 0.0, 4.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),  # overlaps a and runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)
    assert spans.covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 4.0) == pytest.approx(3.0)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, "50"), (39, "50"), (40, "75"), (100, "90"),
    (999, "95"), (1000, "99"), (2000, "99.5"), (9999, "99.5"), (10000, "99.9"),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected
    if expected is not None:
        vals = list(range(n))
        rank = vals.index(spans.nearest_rank(vals, expected)) + 1
        assert n - rank >= spans.MIN_BEYOND


def test_summarize_us_reports_tail_and_count():
    out = spans.summarize_us([i * 1e-6 for i in range(1, 101)])
    assert out == {"p50": pytest.approx(50.0), "tail": pytest.approx(90.0), "tail_pct": 90.0, "n": 100}
    assert spans.summarize_us([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    assert spans.summarize_us([3e-6, 1e-6])["tail_pct"] == 100.0


def test_command_layers_attributes_pretext_work():
    tree = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "pretext.train_pretext", 1.0, 9.0, {"best_epoch": 0}),
        Span(2, 1, "learner.lr_at", 1.0, 1.1),
        Span(3, 1, "learner.sgd_step", 1.1, 2.1, {"rows": 64, "conv": False}),
        Span(4, 1, "learner.predict_logits", 2.1, 3.1, {"rows": 100}),
        Span(5, 1, "learner.lr_at", 3.1, 3.2),
        Span(6, 1, "learner.sgd_step", 3.2, 4.2, {"rows": 8, "conv": False}),
        Span(7, 1, "pretext.extract_losses", 5.0, 8.0),
        Span(8, 7, "learner.predict_logits", 5.0, 6.0, {"rows": 50}),
        Span(9, 0, "learner.sgd_step", 9.5, 9.6, {"rows": 16, "conv": True}),
    ]
    out = spans.command_layers(tree)
    assert out["pretext.epochs_run"] == 2
    assert out["pretext.best_epoch"] == 0
    assert out["pretext.sgd_s"] == pytest.approx(2.0)
    assert out["pretext.eval_s"] == pytest.approx(1.0)
    assert out["pretext.extract_s"] == pytest.approx(3.0)
    assert out["learner.sgd_steps"] == 3
    assert out["learner.samples_trained"] == 88
    assert out["learner.predict_rows"] == 150
    assert [len(out["sgd_us"][b]) for b in spans.SGD_BUCKETS] == [0, 1]  # b8 and conv calls fall outside
    assert out["root_s"] == pytest.approx(10.0)


def test_command_layers_loop_self_time():
    tree = [
        Span(0, None, "loop.run_al", 0.0, 5.0, {"round_walls": [1.0, 2.0]}),
        Span(1, 0, "loop.build_dataset", 0.0, 1.0),
        Span(2, 0, "learner.train", 1.5, 4.0),
        Span(3, 0, "sampler.entropy_sample", 4.0, 4.5, {"candidates": 30}),
    ]
    out = spans.command_layers(tree)
    assert out["loop.self_s"] == pytest.approx(1.0)
    assert out["sampler.select_s"] == pytest.approx(0.5)
    assert out["sampler.candidates_scored"] == 30
    assert out["loop.round_walls"] == [1.0, 2.0]


def test_tracer_links_parents_and_records_probe_results():
    home = types.ModuleType("home")
    rec = tracer.Tracer()
    home.inner = rec.wrap("home.inner", lambda x: x + 1, probe=lambda args, result: {"result": result})
    home.outer = rec.wrap("home.outer", lambda x: home.inner(x) * 2)
    assert home.outer(1) == 4
    assert home.inner(5) == 6
    assert [(r[1], r[2], r[5]) for r in rec.rows] == [
        (None, "home.outer", {}),
        (0, "home.inner", {"result": 2}),
        (None, "home.inner", {"result": 6}),
    ]


def test_install_patches_every_namespace_of_the_real_package(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    from pt4al import learner, loop, pretext

    for _, _, attr, namespaces, _ in tracer._targets():
        for module in namespaces:
            monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
    rec = tracer.Tracer()
    tracer.install(rec)
    assert loop.train_pretext is pretext.train_pretext
    assert loop.entropy_sample.__module__ == tracer.__name__
    learner.lr_at(learner.LearnerConfig(), 0)
    assert [r[2] for r in rec.rows] == ["learner.lr_at"]


REPORTS_OK = [["iteration", "accuracy", "labeled_size", "hist_entropy", "class_histogram"],
              ["1", "0.5", "10", "1", "5;5"], ["2", "0.75", "20", "1", "10;10"]]
QUERIES_OK = [["iteration", "sample_id", "score"]] + [["1", str(i), "0"] for i in range(10)] \
    + [["2", str(i), "0"] for i in range(10, 20)]


def test_checker_accepts_sound_outputs():
    assert checks.check_reports(REPORTS_OK, 2, 10) == []
    assert checks.check_queries(QUERIES_OK, 2, 10) == []
    assert checks.check_losses([["sample_id", "pretext_loss"], ["1", "0.5"], ["2", "0"]]) == []


def test_checker_rejects_duplicate_query_id():
    planted = [row[:] for row in QUERIES_OK]
    planted[-1][1] = "3"  # round 2 re-picks an id already labeled in round 1
    problems = checks.check_queries(planted, 2, 10)
    assert any("id 3 picked in round 1 and again in round 2" in p for p in problems)


def test_checker_rejects_labeled_size_step_other_than_k():
    planted = [row[:] for row in REPORTS_OK]
    planted[2][2] = "21"
    problems = checks.check_reports(planted, 2, 10)
    assert problems == ["reports.csv: round 2 labeled_size 21 is not 10 + 10"]


def test_checker_rejects_accuracy_outside_unit_interval_and_missing_rounds():
    planted = [row[:] for row in REPORTS_OK]
    planted[1][1] = "1.5"
    assert any("outside [0, 1]" in p for p in checks.check_reports(planted, 2, 10))
    assert any("1 rounds, expected 2" in p for p in checks.check_reports(REPORTS_OK[:2], 2, 10))


def test_checker_rejects_repeated_loss_ids():
    assert checks.check_losses([["sample_id", "pretext_loss"], ["1", "0.5"], ["1", "0.7"]]) \
        == ["losses.csv: repeated sample ids"]
