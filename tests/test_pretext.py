"""Rotation pretext task: training, loss extraction, CSV contract."""
from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt4al import learner, pretext
from pt4al.data import Pool, class_templates, gen_synthetic, rotate, rotate_batch
from pt4al.learner import LearnerConfig
from pt4al.pretext import (
    LossRecord,
    LossRecordError,
    extract_losses,
    read_loss_records,
    train_pretext,
    write_loss_records,
)


def pretext_config(size, **kw):
    base = dict(input_shape=(size, size, 1), n_classes=4, hidden=(32,),
                learning_rate=0.3, epochs=6, batch_size=32, seed=7)
    base.update(kw)
    return LearnerConfig(**base)


def constant_pool(n=24, size=8, value=0.4):
    return Pool(np.arange(n), np.full((n, size, size, 1), value))


def count_calls(monkeypatch, name):
    """Replace learner.<name> with a wrapper that logs each call's arguments."""
    calls = []
    fn = getattr(learner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(learner, name, counted)
    return calls


def test_constant_images_hit_chance_accuracy_and_ln4_loss(monkeypatch):
    pool = constant_pool()
    lr_calls = count_calls(monkeypatch, "lr_at")
    _, report = train_pretext(pool, pretext_config(8))
    assert abs(report.rotation_accuracy - 0.25) <= 0.05
    losses = report.records.losses
    assert np.all(np.abs(losses - math.log(4.0)) < 0.05)
    # Never perfect, so every epoch runs.
    assert report.epochs_run == 6
    assert [args[1] for args in lr_calls] == list(range(6))


def test_pretext_stops_after_first_perfect_epoch(monkeypatch):
    pool = gen_synthetic(40, 3, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, hidden=(16,), batch_size=16)
    lr_calls = count_calls(monkeypatch, "lr_at")
    step_calls = count_calls(monkeypatch, "_backprop")
    _, report = train_pretext(pool, cfg)
    assert (report.best_epoch, report.epochs_run, report.rotation_accuracy) == (0, 1, 1.0)
    assert [args[1] for args in lr_calls] == [0]
    assert len(step_calls) == math.ceil(len(pool) / (cfg.batch_size // 4))
    # Each step holds the four orientations of batch_size // 4 samples, in order.
    assert all(np.array_equal(args[4], np.tile(np.arange(4), cfg.batch_size // 4)) for args in step_calls)


def test_pretext_keeps_best_epoch_below_perfect(monkeypatch):
    # Slow learner: accuracy climbs for three epochs, then plateaus below 1.0.
    pool = gen_synthetic(20, 3, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, hidden=(16,), batch_size=16, learning_rate=0.005)
    snapshots, passes = [], []
    measure = pretext._rotation_pass

    def recording(state, x, table):
        snapshots.append(state.copy())
        passes.append(measure(state, x, table))
        return passes[-1]

    monkeypatch.setattr(pretext, "_rotation_pass", recording)
    state, report = train_pretext(pool, cfg)
    accuracies = [hits / (4 * len(pool)) for hits, _ in passes]
    assert report.epochs_run == cfg.epochs == len(accuracies)
    assert 0 < report.best_epoch < cfg.epochs - 1
    assert report.best_epoch == accuracies.index(max(accuracies))
    assert report.rotation_accuracy == max(accuracies) < 1.0
    kept = snapshots[report.best_epoch]
    for a, b in zip(state.weights + state.biases, kept.weights + kept.biases):
        assert np.array_equal(a, b)
    # The kept epoch's own pass is the loss records.
    assert report.records.losses.tobytes() == passes[report.best_epoch][1].tobytes()


def reference_rotation_set(x):
    """The whole rotation set, built: row 4*s + r is rotate_batch(x, r)[s], flattened."""
    return np.stack([rotate_batch(x, r) for r in range(4)], axis=1).reshape(4 * len(x), -1)


@st.composite
def rotation_pools(draw, min_size=1):
    """Random (n, S, S, C) pixel arrays with one or three channels."""
    n = draw(st.integers(min_size, 12))
    side = draw(st.integers(1, 5))
    channels = draw(st.sampled_from([1, 3]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, side, side, channels))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rotation_rows_match_the_built_rotation_set(data):
    # Training steps hold random sets of whole runs 4s..4s+3, gathered as learner.train gathers them.
    x = data.draw(rotation_pools())
    samples = np.array(data.draw(st.permutations(range(len(x))))[:data.draw(st.integers(1, len(x)))])
    table = pretext._rotation_table(x.shape[1:])
    out = np.take(x.reshape(len(x), -1)[samples], table, axis=1).reshape(4 * len(samples), -1)
    idx = (samples[:, None] * 4 + np.arange(4)).ravel()
    assert out.tobytes() == reference_rotation_set(x)[idx].tobytes()


def test_every_rotation_in_the_package_is_rotate_batch():
    # One rotation routine: the rotation table and the template check call data.rotate_batch,
    # so the rotation tests of test_data.py cover every rotation that the pretext model sees.
    callers = set()
    for path in sorted(Path(pretext.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                callers |= {(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute) and node.attr == "rot90"}
    assert callers == {("data.py", "rotate_batch")}

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rotation_pass_chunks_hits_and_losses_match_references(data):
    x = data.draw(rotation_pools())
    size = data.draw(st.integers(2, max(2, len(x) // 2)))  # two or more pieces when len(x) > 2
    cfg = LearnerConfig(input_shape=x.shape[1:], n_classes=4, hidden=(5,), seed=data.draw(st.integers(0, 99)))
    state = learner.init_learner(cfg)
    before = x.tobytes()
    pieces, outputs, predict, hidden = [], [], learner.predict_logits, learner._hidden

    def recording(state, xs, pixels=None):
        outputs.append(predict(state, xs, pixels=pixels))
        return outputs[-1]

    def recording_hidden(config, weights, biases, rows, acts):
        pieces.append(rows.copy())  # a copy: the gather buffer is reused
        hidden(config, weights, biases, rows, acts)

    with mock.patch.object(learner, "_PIECE_ROWS", size), mock.patch.object(learner, "predict_logits", recording), \
            mock.patch.object(learner, "_hidden", recording_hidden):
        hits, losses = pretext._rotation_pass(state, x, pretext._rotation_table(x.shape[1:]))
        starts = learner._piece_starts(len(x))
    assert x.tobytes() == before
    # One pass per orientation over the whole pool, each in the pieces that _piece_starts lays out.
    assert len(outputs) == 4 and all(len(logits) == len(x) for logits in outputs)
    spans = [(r, a, b) for r in range(4) for a, b in zip(starts, [*starts[1:], len(x)])]
    assert len(pieces) == len(spans)
    for piece, (r, a, b) in zip(pieces, spans):
        assert piece.tobytes() == rotate_batch(x[a:b], r).tobytes()
    assert hits == sum(int(np.sum(logits.argmax(axis=1) == r)) for r, logits in enumerate(outputs))
    per_r = np.zeros((4, len(x)))
    for piece, (r, a, b) in zip(pieces, spans):
        per_r[r, a:b] = learner.per_sample_losses(state, piece, np.full(b - a, r))
    assert losses.tobytes() == per_r.mean(axis=0).tobytes()


def test_rotation_pass_makes_one_forward_call_per_orientation_past_8192_samples(monkeypatch):
    pool = Pool(np.arange(8200), np.random.default_rng(5).random((8200, 2, 2, 1)))
    state = learner.init_learner(pretext_config(2, hidden=()))
    predicts = count_calls(monkeypatch, "predict_logits")
    extract_losses(state, pool)
    assert len(predicts) == 4 and all(args[1] is pool.x for args in predicts)


def test_train_pretext_evaluates_in_rotation_pass_chunks_only(monkeypatch):
    # The slow learner above: all six epochs run and an earlier one is kept.
    # 60 samples in 7-row pieces are 9 pieces per orientation, all in one predict_logits call.
    pool = gen_synthetic(20, 3, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, hidden=(16,), batch_size=16, learning_rate=0.005)
    monkeypatch.setattr(learner, "_PIECE_ROWS", 7)
    predicts = count_calls(monkeypatch, "predict_logits")
    forwards = count_calls(monkeypatch, "_hidden")
    forwards_after_hook, measure = [], pretext._rotation_pass

    def marking(state, x, table):
        result = measure(state, x, table)
        forwards_after_hook.append(len(forwards))
        return result

    monkeypatch.setattr(pretext, "_rotation_pass", marking)
    state, report = train_pretext(pool, cfg)
    assert report.best_epoch < report.epochs_run - 1 == cfg.epochs - 1
    assert len(predicts) == report.epochs_run * 4 and all(len(args[1]) == len(pool) for args in predicts)
    assert len(forwards) == forwards_after_hook[-1]  # no forward pass after the last hook
    records = extract_losses(state, pool)
    assert report.records.ids.tolist() == records.ids.tolist()
    assert report.records.losses.tobytes() == records.losses.tobytes()


def test_train_pretext_never_holds_the_rotation_set():
    # The built rotation set alone is 4x the pool; building it peaked near 7x,
    # a separate evaluation pass in 8,192-row chunks near 2.6x, and a reused
    # buffer for the rotated chunk near 1.43x. Gathering each 512-row piece
    # leaves one piece of rotated rows and the chunk's activations.
    pool = gen_synthetic(1000, 4, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, hidden=(16,), epochs=1, batch_size=64)
    tracemalloc.start()
    try:
        train_pretext(pool, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * pool.x.nbytes


def test_loss_records_hold_about_16_bytes_each(tmp_path):
    # An int64 id and a float64 loss per record, plus numpy's small-allocation caches
    # (about 12 KB). As LossRecord objects, each with a Python int and float, 4,000
    # records held about 110 bytes each.
    n = 4000
    pool = Pool(np.arange(n), np.random.default_rng(3).random((n, 4, 4, 1)))
    cfg = pretext_config(4, hidden=(4,), epochs=1, batch_size=256)
    path = tmp_path / "losses.csv"
    write_loss_records(path, train_pretext(pool, cfg)[1].records)  # warm: first-use caches stay
    read_loss_records(path)
    held = {}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = train_pretext(pool, cfg)[1].records
        held["train_pretext"] = tracemalloc.get_traced_memory()[0] - before
        del records
        before = tracemalloc.get_traced_memory()[0]
        records = read_loss_records(path)
        held["read_loss_records"] = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == n
    assert max(held.values()) <= 16 * n + 32768, held


def multi_epoch_setup(channels):
    # The slow learner of test_pretext_keeps_best_epoch_below_perfect, in one or three channels.
    pool = gen_synthetic(20, 3, 10, 1.0, seed=5).unlabeled()
    x = np.repeat(pool.x, channels, axis=3) if channels > 1 else pool.x
    cfg = pretext_config(10, input_shape=x.shape[1:], hidden=(16,), batch_size=16, learning_rate=0.005)
    return Pool(pool.ids, x), cfg


@pytest.mark.parametrize("channels", [1, 3])
def test_rotation_pass_gives_the_pool_back_bit_for_bit(monkeypatch, channels):
    # Seven-row pieces, so the pool's 60 samples do not split evenly; every pass only reads the pool.
    monkeypatch.setattr(learner, "_PIECE_ROWS", 7)
    pool, cfg = multi_epoch_setup(channels)
    before = pool.x.tobytes()
    state, report = train_pretext(pool, cfg)
    assert 0 < report.best_epoch  # several epochs, each with its own pass
    assert pool.x.tobytes() == before
    records = extract_losses(state, pool)
    assert pool.x.tobytes() == before
    assert records.losses.tolist() == report.records.losses.tolist()


def test_rotation_pass_that_raises_gives_the_pool_back(monkeypatch):
    pool, cfg = multi_epoch_setup(1)
    state = learner.init_learner(cfg)
    before = pool.x.tobytes()
    predict, seen = learner.predict_logits, []

    def failing(state, xs, pixels=None):
        seen.append(np.take(xs.reshape(len(xs), -1), pixels, axis=1).tobytes())
        if len(seen) == 3:  # orientation 2
            raise FloatingPointError("boom")
        return predict(state, xs, pixels=pixels)

    monkeypatch.setattr(learner, "predict_logits", failing)
    with pytest.raises(FloatingPointError, match="boom"):
        extract_losses(state, pool)
    assert seen == [rotate_batch(pool.x, r).tobytes() for r in range(3)]
    assert pool.x.tobytes() == before


def test_read_only_pool_gives_the_records_of_a_writable_copy():
    # Read where it lies: the rotated rows are gathered a 512-row piece at a time (410 KB
    # here) from the 3.2 MB pool, so nothing pool-sized is allocated; a copy peaked at 1.26x.
    pool = gen_synthetic(1000, 4, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, hidden=(16,), epochs=2, batch_size=64)
    frozen = pool.x.copy()
    frozen.setflags(write=False)
    frozen_pool = Pool(pool.ids, frozen)
    tracemalloc.start()
    try:
        state, report = train_pretext(frozen_pool, cfg)
        frozen_records = extract_losses(state, frozen_pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * frozen.nbytes
    writable_state, writable_report = train_pretext(pool, cfg)
    assert report.records.losses.tobytes() == writable_report.records.losses.tobytes()
    assert report.best_epoch == writable_report.best_epoch
    assert report.rotation_accuracy == writable_report.rotation_accuracy
    assert frozen_records.losses.tobytes() == extract_losses(writable_state, pool).losses.tobytes()
    assert frozen.tobytes() == pool.x.tobytes()


def test_rotation_sensitive_pool_is_learnable_and_learned():
    pool = gen_synthetic(500, 4, 12, 1.0, seed=3).unlabeled()
    x = pool.x

    # Independent learnability oracle: nearest rotated-template classifier.
    templates = class_templates(4, 12)
    refs, ref_orients = [], []
    for c in range(4):
        for y in range(4):
            refs.append(np.rot90(templates[c], k=y, axes=(0, 1)).ravel())
            ref_orients.append(y)
    refs = np.stack(refs)
    ref_orients = np.array(ref_orients)
    hits = total = 0
    for i in range(0, len(x), 5):
        for y in range(4):
            rot = np.rot90(x[i], k=y, axes=(0, 1)).ravel()
            pred = ref_orients[np.argmin(np.linalg.norm(refs - rot, axis=1))]
            hits += int(pred == y)
            total += 1
    assert hits / total > 0.9

    _, report = train_pretext(pool, pretext_config(12, epochs=8, batch_size=64))
    assert report.rotation_accuracy > 0.9


def test_train_pretext_same_seed_identical_checkpoint():
    pool = gen_synthetic(40, 3, 10, 1.0, seed=5).unlabeled()
    cfg = pretext_config(10, epochs=4)
    s1, r1 = train_pretext(pool, cfg)
    s2, r2 = train_pretext(pool, cfg)
    assert r1.best_epoch == r2.best_epoch
    assert r1.rotation_accuracy == r2.rotation_accuracy
    for a, b in zip(s1.weights + s1.biases, s2.weights + s2.biases):
        assert np.array_equal(a, b)
    assert r1.records.ids.tolist() == r2.records.ids.tolist()
    assert r1.records.losses.tolist() == r2.records.losses.tolist()


def test_train_pretext_rejects_empty_and_non_square():
    with pytest.raises(ValueError):
        train_pretext(Pool([], np.zeros((0, 8, 8, 1))), pretext_config(8))
    rect = Pool([0], np.zeros((1, 4, 6, 1)))
    with pytest.raises(ValueError):
        train_pretext(rect, pretext_config(8))


def test_train_pretext_rejects_wrong_class_count():
    pool = constant_pool(8)
    with pytest.raises(ValueError):
        train_pretext(pool, pretext_config(8, n_classes=3))


def test_extract_losses_zero_weight_model_gives_ln4():
    pool = constant_pool(10)
    cfg = pretext_config(8, init_scale=0.0)
    state = learner.init_learner(cfg)
    records = extract_losses(state, pool)
    assert len(records) == 10
    for loss in records.losses:
        assert abs(loss - math.log(4.0)) < 1e-12


def test_extract_losses_matches_per_sample_loss_oracle():
    pool = gen_synthetic(6, 3, 10, 1.0, seed=11).unlabeled()
    cfg = pretext_config(10, seed=13)
    state = learner.init_learner(cfg)
    records = extract_losses(state, pool)
    assert records.ids.tolist() == pool.ids.tolist()
    for image, loss in zip(pool.x, records.losses):
        oracle = np.mean([
            learner.per_sample_loss(state, rotate(image, y), y)
            for y in range(4)
        ])
        assert abs(loss - oracle) < 1e-10
        assert loss >= 0.0


def test_extract_losses_permutation_equivariance():
    pool = gen_synthetic(8, 2, 10, 1.0, seed=17).unlabeled()
    cfg = pretext_config(10, seed=19)
    state = learner.init_learner(cfg)
    base = extract_losses(state, pool)
    perm = [5, 2, 7, 0, 1, 6, 3, 4, 9, 8, 12, 10, 11, 14, 13, 15]
    shuffled = pool.take(perm)
    out = extract_losses(state, shuffled)
    by_id = dict(zip(base.ids.tolist(), base.losses.tolist()))
    for sid, loss in zip(out.ids.tolist(), out.losses.tolist()):
        assert loss == by_id[sid]


def test_extract_losses_pure_bitwise():
    pool = gen_synthetic(10, 2, 10, 1.0, seed=23).unlabeled()
    cfg = pretext_config(10, seed=29)
    state = learner.init_learner(cfg)
    a = extract_losses(state, pool)
    b = extract_losses(state, pool)
    assert a.ids.tolist() == b.ids.tolist()
    assert a.losses.tobytes() == b.losses.tobytes()


def test_extract_losses_of_an_empty_pool_is_empty():
    state = learner.init_learner(pretext_config(8))
    records = extract_losses(state, Pool([], np.zeros((0, 8, 8, 1))))
    assert records.ids.tolist() == records.losses.tolist() == []


def test_extract_losses_rejects_non_rotation_model():
    cfg = LearnerConfig(input_shape=(8, 8, 1), n_classes=3, hidden=())
    state = learner.init_learner(cfg)
    with pytest.raises(ValueError):
        extract_losses(state, constant_pool(3))


def test_loss_record_csv_round_trip(tmp_path):
    records = [LossRecord(3, 1.3862943611198906), LossRecord(1, 0.0001234567890123),
               LossRecord(7, 2.5)]
    path = tmp_path / "losses.csv"
    write_loss_records(path, pretext.as_arrays(records))
    text = path.read_text()
    assert text.splitlines()[0] == "sample_id,pretext_loss"
    back = read_loss_records(path)
    assert back.ids.tolist() == [3, 1, 7]
    for orig, loss in zip(records, back.losses):
        assert abs(loss - orig.loss) <= 1e-12 * max(1.0, abs(orig.loss))


def test_loss_record_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_loss_records(path)
    for row in ("7", "x,0.5", "7,nan", "0,1.67799561376,junk"):
        path.write_text(f"sample_id,pretext_loss\n{row}\n")
        with pytest.raises(LossRecordError):
            read_loss_records(path)


def test_loss_record_csv_rejects_repeated_ids(tmp_path):
    path = tmp_path / "losses.csv"
    write_loss_records(path, pretext.LossArrays([3, 1, 3], [0.5, 0.2, 0.5]))
    with pytest.raises(LossRecordError, match="repeated sample id 3"):
        read_loss_records(path)
