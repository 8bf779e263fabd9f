"""Learner engine: init, forward, losses, gradients, training, checkpoints."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pt4al import learner, loop, pretext
from pt4al.learner import ConvSpec, LearnerConfig
from pt4al.seeds import derive_seed


def small_config(**kw):
    base = dict(input_shape=(4,), n_classes=3, hidden=(6,), learning_rate=0.2,
                epochs=5, batch_size=4, seed=123)
    base.update(kw)
    return LearnerConfig(**base)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_same_seed_bit_identical():
    cfg = small_config()
    a = learner.init_learner(cfg)
    b = learner.init_learner(cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_scale_zero_gives_uniform_softmax():
    cfg = small_config(init_scale=0.0, n_classes=4)
    state = learner.init_learner(cfg)
    assert all(np.all(w == 0.0) for w in state.weights)
    probs = learner.predict_proba(state, np.array([0.3, 0.9, 0.1, 0.5]))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_init_rejects_bad_configs():
    with pytest.raises(ValueError):
        learner.init_learner(small_config(n_classes=0))
    with pytest.raises(ValueError):
        learner.init_learner(small_config(n_classes=1))
    with pytest.raises(ValueError):
        learner.init_learner(small_config(input_shape=()))
    with pytest.raises(ValueError):
        learner.init_learner(small_config(epochs=0))
    with pytest.raises(ValueError):
        learner.init_learner(small_config(activation="sigmoid"))
    # conv kernel larger than the image
    with pytest.raises(ValueError):
        learner.init_learner(small_config(input_shape=(3, 3, 1), conv=ConvSpec(filters=2, kernel=5)))


# ---------------------------------------------------------------------------
# predict_proba / per_sample_loss
# ---------------------------------------------------------------------------

def _linear_state(weights: np.ndarray) -> learner.LearnerState:
    """Single dense layer with fixed weights, so logits = x @ weights."""
    cfg = LearnerConfig(input_shape=(weights.shape[0],), n_classes=weights.shape[1],
                        hidden=(), init_scale=0.0)
    state = learner.init_learner(cfg)
    state.weights[0] = weights.astype(np.float64)
    return state


def test_softmax_closed_form_quarter_three_quarters():
    # logits [0, ln 3] -> softmax [1/4, 3/4]; oracle: exp-and-normalize
    state = _linear_state(np.array([[0.0, math.log(3.0)]]))
    probs = learner.predict_proba(state, np.array([1.0]))
    logits = np.array([0.0, math.log(3.0)])
    oracle = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(probs, oracle, atol=1e-12)
    assert np.allclose(probs, [0.25, 0.75], atol=1e-12)


def test_probabilities_sum_to_one_on_random_states():
    rng = np.random.default_rng(0)
    for trial in range(100):
        cfg = small_config(seed=trial, init_scale=2.0)
        state = learner.init_learner(cfg)
        x = rng.standard_normal(4)
        probs = learner.predict_proba(state, x)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_predict_proba_shape_mismatch():
    state = learner.init_learner(small_config())
    with pytest.raises(ValueError):
        learner.predict_proba(state, np.zeros(5))


def test_single_input_accepts_image_grid_and_flat_shapes():
    cfg = LearnerConfig(input_shape=(3, 3, 1), n_classes=3, hidden=(4,), seed=2)
    state = learner.init_learner(cfg)
    img = np.random.default_rng(4).standard_normal((3, 3, 1))
    want_p = learner.predict_proba_batch(state, img[None])[0]
    want_l = learner.per_sample_losses(state, img[None], [1])[0]
    for x in (img, img[..., 0], img.ravel()):
        assert np.array_equal(learner.predict_proba(state, x), want_p)
        assert learner.per_sample_loss(state, x, 1) == want_l
    for bad in (img[None], np.zeros(8)):
        with pytest.raises(ValueError):
            learner.predict_proba(state, bad)
        with pytest.raises(ValueError):
            learner.per_sample_loss(state, bad, 1)


# id -> (LearnerConfig, forward-only entry point over zero rows, the empty result's shape)
ZERO_ROW_CASES = {
    f"{name}-{model}": (cfg, fn, shape)
    for model, cfg in (("dense", small_config()),
                       ("conv", small_config(input_shape=(3, 3, 2), conv=ConvSpec(filters=2, kernel=2))))
    for name, fn, shape in (
        ("predict_logits", learner.predict_logits, (0, 3)),
        ("predict_proba_batch", learner.predict_proba_batch, (0, 3)),
        ("per_sample_losses", lambda state, xs: learner.per_sample_losses(state, xs, []), (0,)),
    )
}


@pytest.mark.parametrize("case", sorted(ZERO_ROW_CASES))
def test_forward_pass_over_zero_rows_is_empty(case):
    cfg, fn, shape = ZERO_ROW_CASES[case]
    out = fn(learner.init_learner(cfg), np.zeros((0, *cfg.input_shape)))
    assert out.shape == shape and out.dtype == np.float64


def test_accuracy_of_zero_rows_names_the_empty_batch():
    state = learner.init_learner(small_config())
    with pytest.raises(ValueError, match="empty batch"):
        learner.accuracy(state, np.zeros((0, 4)), [])


# id -> (pixels table for a 16-pixel input, the fault its ValueError names)
BAD_PIXELS = {
    "out-of-range": (np.arange(16) + 100, r"lie in \[0, 16\)"),
    "negative": (np.arange(16) - 1, r"lie in \[0, 16\)"),
    "wrong-width": (np.arange(15), "last axis of 16"),
    "float": (np.arange(16.0), "integer table"),
}


@pytest.mark.parametrize("case", sorted(BAD_PIXELS))
def test_predict_logits_rejects_bad_pixel_tables(case):
    table, fault = BAD_PIXELS[case]
    state = learner.init_learner(small_config(input_shape=(4, 4, 1)))
    with pytest.raises(ValueError, match=fault):
        learner.predict_logits(state, np.zeros((3, 4, 4, 1)), pixels=table)


@pytest.mark.parametrize("case", sorted(BAD_PIXELS))
def test_train_rejects_bad_pixel_tables(case):
    table, fault = BAD_PIXELS[case]
    state = learner.init_learner(small_config(input_shape=(4, 4, 1)))
    with pytest.raises(ValueError, match=fault):
        learner.train(state, np.zeros((3, 4, 4, 1)), np.zeros(6, dtype=int), pixels=np.stack([table, table]))


def peak_of_predict_logits(state, xs) -> int:
    """Peak bytes that tracemalloc sees while `learner.predict_logits` runs on `xs`."""
    tracemalloc.start()
    try:
        learner.predict_logits(state, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_logits_allocates_activations_and_logits_only():
    cfg = LearnerConfig(input_shape=(10, 10, 1), n_classes=4, hidden=(32, 16), seed=3)
    m = 2000
    peak = peak_of_predict_logits(learner.init_learner(cfg), np.random.default_rng(0).random((m, 10, 10, 1)))
    # Each hidden layer for one 512-row piece, and the logits for every row.
    wanted = 512 * (32 + 16) * 8 + m * 4 * 8
    # numpy's ufunc buffers add a fixed 64 KiB; a copy of the inputs alone would add 1.6 MB.
    assert wanted <= peak < wanted + 128 * 1024


def test_predict_logits_cuts_a_long_pass_into_pieces():
    cfg = LearnerConfig(input_shape=(12, 12, 1), n_classes=4, hidden=(128, 64), seed=3)
    m = 5000
    peak = peak_of_predict_logits(learner.init_learner(cfg), np.random.default_rng(0).random((m, 12, 12, 1)))
    # Ten pieces, the last of 392 rows; the whole pass would hold m * (128 + 64 + 4) * 8 B.
    wanted = 512 * (128 + 64) * 8 + m * 4 * 8
    assert wanted <= peak < wanted + 128 * 1024


# id -> (default config, rows): entropy-long's round-2 scoring pass and one orientation of the default
# pool's rotation pass.
DEFAULT_PASSES = {"main-3850": (loop.default_main_config, 3850), "pretext-4000": (loop.default_pretext_config, 4000)}


@pytest.mark.parametrize("case", sorted(DEFAULT_PASSES))
def test_predict_logits_holds_one_piece_of_each_hidden_layer(case):
    default, m = DEFAULT_PASSES[case]
    cfg = replace(default(), input_shape=(12, 12, 1), n_classes=4, seed=3)
    peak = peak_of_predict_logits(learner.init_learner(cfg), np.random.default_rng(0).random((m, 12, 12, 1)))
    # Both hidden layers for one 512-row piece, and the logits on every row. A pass that ran its
    # output product whole held the 64-wide layer for every row, 2.77 MB at pretext-4000.
    wanted = 512 * (128 + 64) * 8 + m * 4 * 8
    assert wanted <= peak < wanted + 128 * 1024


def test_per_sample_loss_uniform_predictor():
    state = learner.init_learner(small_config(n_classes=4, init_scale=0.0))
    loss = learner.per_sample_loss(state, np.zeros(4), 2)
    assert abs(loss - math.log(4.0)) < 1e-12


def test_per_sample_loss_near_certain_prediction():
    state = _linear_state(np.array([[50.0, 0.0]]))
    loss = learner.per_sample_loss(state, np.array([1.0]), 0)
    assert 0.0 <= loss < 1e-20


def test_per_sample_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        cfg = small_config(seed=trial, init_scale=1.5)
        state = learner.init_learner(cfg)
        x = rng.standard_normal(4)
        y = int(rng.integers(0, 3))
        logits = learner.predict_logits(state, x[None])
        probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
        oracle = -math.log(probs[y])
        assert abs(learner.per_sample_loss(state, x, y) - oracle) < 1e-10


def test_per_sample_loss_invalid_label():
    state = learner.init_learner(small_config())
    with pytest.raises(ValueError):
        learner.per_sample_loss(state, np.zeros(4), 3)


@pytest.mark.parametrize("score", [learner.accuracy, learner.per_sample_losses, learner.loss_and_grad],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("labels", [[0.9, 1.6, 2.5], [-0.5, 1, 2]], ids=["fractional", "negative-half"])
def test_labels_that_are_not_whole_numbers_are_rejected(score, labels):
    # They were truncated toward zero: [0.9, 1.6, 2.5] scored as [0, 1, 2], and -0.5 as a valid 0.
    state = learner.init_learner(small_config())
    with pytest.raises(ValueError, match="labels must be whole numbers"):
        score(state, np.zeros((3, 4)), labels)

# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------

def finite_diff_grads(state, x, y, step=1e-5):
    """Central-difference gradient of the mean minibatch loss, per parameter."""
    def batch_loss():
        losses = learner.per_sample_losses(state, x, y)
        return float(np.mean(losses))

    grads_w, grads_b = [], []
    for arrs, grads in ((state.weights, grads_w), (state.biases, grads_b)):
        for arr in arrs:
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = batch_loss()
                flat[i] = orig - step
                lo = batch_loss()
                flat[i] = orig
                gflat[i] = (hi - lo) / (2.0 * step)
            grads.append(g)
    return grads_w, grads_b


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_grad_matches_finite_differences_dense():
    rng = np.random.default_rng(42)
    for trial in range(10):
        cfg = LearnerConfig(
            input_shape=(int(rng.integers(2, 5)),),
            n_classes=int(rng.integers(2, 4)),
            hidden=(int(rng.integers(3, 7)),),
            init_scale=1.0,
            seed=trial,
        )
        state = learner.init_learner(cfg)
        x = rng.standard_normal((4, cfg.input_shape[0]))
        y = rng.integers(0, cfg.n_classes, size=4)
        gws, gbs = learner.grad(state, x, y)
        nws, nbs = finite_diff_grads(state, x, y)
        assert max_rel_error(gws, nws) < 1e-4
        assert max_rel_error(gbs, nbs) < 1e-4


def test_grad_matches_finite_differences_conv():
    rng = np.random.default_rng(5)
    cfg = LearnerConfig(input_shape=(5, 5, 1), n_classes=3, hidden=(4,),
                        conv=ConvSpec(filters=2, kernel=3), seed=9)
    assert learner.n_parameters(cfg) <= 500
    state = learner.init_learner(cfg)
    x = rng.random((3, 5, 5, 1))
    y = np.array([0, 2, 1])
    gws, gbs = learner.grad(state, x, y)
    nws, nbs = finite_diff_grads(state, x, y)
    assert max_rel_error(gws, nws) < 1e-4
    assert max_rel_error(gbs, nbs) < 1e-4


def test_grad_of_duplicated_minibatch_is_unchanged():
    rng = np.random.default_rng(3)
    cfg = small_config()
    state = learner.init_learner(cfg)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    gws, gbs = learner.grad(state, x, y)
    dws, dbs = learner.grad(state, np.concatenate([x, x]), np.concatenate([y, y]))
    for a, b in zip(gws + gbs, dws + dbs):
        assert np.allclose(a, b, atol=1e-12)


def test_zero_input_gives_zero_first_layer_weight_grad():
    cfg = small_config()
    state = learner.init_learner(cfg)
    x = np.zeros((4, 4))
    y = np.array([0, 1, 2, 0])
    gws, _ = learner.grad(state, x, y)
    assert np.all(gws[0] == 0.0)


def test_grad_empty_minibatch_rejected():
    state = learner.init_learner(small_config())
    with pytest.raises(ValueError):
        learner.grad(state, np.zeros((0, 4)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def separable_toy():
    """Two well-separated 2-d clusters; returns (x, y, labels +-1)."""
    rng = np.random.default_rng(11)
    n = 40
    a = rng.standard_normal((n, 2)) * 0.25 + np.array([-1.0, -0.6])
    b = rng.standard_normal((n, 2)) * 0.25 + np.array([1.0, 0.6])
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return x, y


def test_toy_set_is_linearly_separable_by_least_squares():
    # Independent separability oracle: a plain least-squares linear fit
    # classifies every point correctly.
    x, y = separable_toy()
    design = np.column_stack([x, np.ones(len(x))])
    target = np.where(y == 1, 1.0, -1.0)
    w, *_ = np.linalg.lstsq(design, target, rcond=None)
    preds = design @ w
    assert np.all(np.sign(preds) == target)


def test_train_reaches_high_accuracy_on_separable_toy():
    x, y = separable_toy()
    cfg = LearnerConfig(input_shape=(2,), n_classes=2, hidden=(8,),
                        learning_rate=0.5, epochs=60, batch_size=8, seed=1)
    state, trace = learner.train(learner.init_learner(cfg), x, y)
    assert learner.accuracy(state, x, y) >= 0.99
    # loss decreases from the first third to the last third of epochs
    third = len(trace) // 3
    assert np.mean(trace[-third:]) <= np.mean(trace[:third])


def test_check_converged_passes_finite_arrays_and_names_the_knobs_otherwise():
    cfg = small_config(learning_rate=0.5, decay_factor=0.25, init_scale=2.0)
    learner.check_converged(cfg, "main", "unused", [np.ones(3), [1.0, 2.0]])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(RuntimeError) as exc:
            learner.check_converged(cfg, "main", "epoch 2 is not finite", [np.ones(3), [1.0, bad]])
        assert str(exc.value) == ("main learning rate diverged: epoch 2 is not finite "
                                  "(learning_rate 0.5, decay_factor 0.25, init_scale 2.0)")


def test_train_zero_learning_rate_keeps_state():
    x, y = separable_toy()
    cfg = LearnerConfig(input_shape=(2,), n_classes=2, hidden=(4,),
                        learning_rate=0.0, epochs=3, batch_size=8, seed=2)
    init = learner.init_learner(cfg)
    trained, _ = learner.train(init, x, y)
    for a, b in zip(init.weights + init.biases, trained.weights + trained.biases):
        assert np.array_equal(a, b)


def test_train_same_seed_identical_traces():
    x, y = separable_toy()
    cfg = LearnerConfig(input_shape=(2,), n_classes=2, hidden=(6,),
                        learning_rate=0.3, epochs=8, batch_size=8, seed=5)
    s1, t1 = learner.train(learner.init_learner(cfg), x, y)
    s2, t2 = learner.train(learner.init_learner(cfg), x, y)
    assert t1 == t2
    for a, b in zip(s1.weights + s1.biases, s2.weights + s2.biases):
        assert np.array_equal(a, b)


def test_train_empty_dataset_rejected():
    cfg = small_config()
    state = learner.init_learner(cfg)
    with pytest.raises(ValueError):
        learner.train(state, np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_train_rejects_labels_not_one_per_gathered_row():
    state = learner.init_learner(small_config())
    pixels = np.stack([np.arange(4), np.arange(4)[::-1]])
    for n_labels in (3, 5, 7):
        with pytest.raises(ValueError, match="length-6"):
            learner.train(state, np.zeros((3, 4)), np.zeros(n_labels, dtype=int), pixels=pixels)


def reference_train(state, x, y, config, group=1, stop=None):
    """`learner.train` spelled out as a plain loop of `learner.sgd_step` calls.

    Rows come in runs of `group` that share a step; training ends after
    epoch `stop` when it is given.
    """
    out = state.copy()
    xb = learner.as_batch(state.config, x)
    yb = np.asarray(y)
    n = len(xb)
    rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    runs_per_step = max(1, config.batch_size // group)
    trace = []
    for epoch in range(config.epochs):
        lr = learner.lr_at(config, epoch)
        perm = rng.permutation(n // group)
        total = 0.0
        for start in range(0, len(perm), runs_per_step):
            idx = [run * group + r for run in perm[start:start + runs_per_step] for r in range(group)]
            total += learner.sgd_step(out, xb[idx], yb[idx], lr) * len(idx)
        trace.append(total / n)
        if epoch == stop:
            break
    return out, trace


def reference_logits(state, x):
    """`learner.predict_logits` written as the plain layer-by-layer forward pass."""
    cfg = state.config
    h = learner.as_batch(cfg, x)
    act = np.tanh if cfg.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
    weights, biases = state.weights, state.biases
    if cfg.conv is not None:
        k = cfg.conv.kernel
        ho, wo = h.shape[1] - k + 1, h.shape[2] - k + 1
        z = np.zeros((len(h), ho, wo, cfg.conv.filters)) + biases[0]
        for di in range(k):
            for dj in range(k):
                z += h[:, di:di + ho, dj:dj + wo, :] @ weights[0][di, dj]
        h, weights, biases = act(z), weights[1:], biases[1:]
    h = h.reshape(len(h), -1)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = act(h @ w + b)
    return h @ weights[-1] + biases[-1]


N_EQUIV = 24
CONV_EQUIV = dict(input_shape=(5, 5, 2), conv=ConvSpec(filters=3, kernel=2))

# id -> (LearnerConfig overrides, pass x as flat rows, schedule overrides of the trained state's config)
EQUIV_CASES = {
    **{f"{act}-depth{len(hidden)}": (dict(activation=act, hidden=hidden), False, {})
       for act in ("tanh", "relu") for hidden in ((7,), (7, 5), (7, 5, 6))},
    **{f"batch{b}": (dict(batch_size=b), False, {}) for b in (1, 8, 7, 40)},
    "conv-tanh": (dict(CONV_EQUIV, activation="tanh"), False, {}),
    "conv-relu": (dict(CONV_EQUIV, activation="relu", batch_size=5), False, {}),
    "flat-rows": (dict(input_shape=(3, 3, 1)), True, {}),
    "other-schedule": (dict(), False, dict(learning_rate=0.05, epochs=7, batch_size=9,
                                           decay_milestones=(0.3,), decay_factor=0.5, seed=99)),
}


@pytest.mark.parametrize("case", sorted(EQUIV_CASES))
def test_train_equals_sgd_step_loop(case):
    overrides, flat, schedule = EQUIV_CASES[case]
    arch = small_config(**{"hidden": (7, 5), "epochs": 4, "batch_size": 5, "learning_rate": 0.3, **overrides})
    arch = replace(arch, **schedule)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((N_EQUIV, *arch.input_shape))
    if flat:
        x = x.reshape(N_EQUIV, -1)
    y = rng.integers(0, arch.n_classes, size=N_EQUIV)
    state = learner.init_learner(arch)
    before = state.copy()

    got, got_trace = learner.train(state, x, y)
    want, want_trace = reference_train(state, x, y, arch)

    assert got.config == arch
    assert got_trace == want_trace
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape and np.array_equal(a, b)
    for a, b in zip(state.weights + state.biases, before.weights + before.biases):
        assert np.array_equal(a, b)


@st.composite
def train_cases(draw):
    """(config, pixels table or None, early-stop epoch or None, images, labels) for the equivalence property."""
    h, c = draw(st.integers(3, 5)), draw(st.integers(1, 2))
    table_kind = draw(st.sampled_from(["none", "permutations", "rotation"]))
    w = h if table_kind == "rotation" else draw(st.integers(3, 5))
    conv = None
    if draw(st.booleans()):
        conv = ConvSpec(filters=draw(st.integers(1, 3)), kernel=draw(st.integers(1, min(h, w))))
    arch = LearnerConfig(input_shape=(h, w, c), n_classes=draw(st.integers(2, 4)), conv=conv,
                         hidden=tuple(draw(st.lists(st.integers(1, 6), max_size=2))),
                         activation=draw(st.sampled_from(["tanh", "relu"])),
                         learning_rate=draw(st.sampled_from([0.05, 0.3])),
                         epochs=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pixels = None
    if table_kind == "rotation":
        pixels = pretext._rotation_table(arch.input_shape)
    elif table_kind == "permutations":
        pixels = np.stack([rng.permutation(arch.input_dim) for _ in range(draw(st.sampled_from([1, 4])))])
    images = draw(st.integers(3, 6))
    n = images * (1 if pixels is None else len(pixels))
    batch = draw(st.one_of(
        st.just(1),
        st.sampled_from([d for d in range(2, n + 1) if n % d == 0]),
        st.sampled_from([d for d in range(2, n) if n % d]),
        st.integers(n + 1, n + 5),
    ))
    arch = replace(arch, batch_size=batch)
    stop = draw(st.none() | st.integers(0, arch.epochs - 1))
    x = rng.standard_normal((images, h, w, c))
    y = rng.integers(0, arch.n_classes, size=n)
    return arch, pixels, stop, x, y


def built_rows(x, pixels):
    """The rows `learner.train` reads through `pixels`, built: row G*i + r is image i's flat pixels at pixels[r]."""
    flat = x.reshape(len(x), -1)
    return np.array([row[positions] for row in flat for positions in pixels])


@settings(max_examples=40, deadline=None)
@given(train_cases())
def test_train_and_predict_match_references(case):
    arch, pixels, stop, x, y = case
    state = learner.init_learner(arch)
    epochs_seen = []

    def hook(epoch, _):
        epochs_seen.append(epoch)
        return epoch == stop

    got, got_trace = learner.train(state, x, y, pixels=pixels, on_epoch=hook)
    rows, group = (x, 1) if pixels is None else (built_rows(x, pixels), len(pixels))
    want, want_trace = reference_train(state, rows, y, arch, group=group, stop=stop)
    assert got_trace == want_trace
    assert epochs_seen == list(range(len(got_trace)))
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(learner.predict_logits(got, x), reference_logits(got, x))
    for r in range(group if pixels is not None else 0):
        assert np.array_equal(learner.predict_logits(got, x, pixels=pixels[r]), reference_logits(got, rows[r::group]))


def reference_pieces(state, x):
    """`reference_logits` run on each piece that `learner._piece_starts` lays out, concatenated."""
    starts = learner._piece_starts(len(x))
    bounds = zip(starts, [*starts[1:], len(x)])
    return np.concatenate([reference_logits(state, x[start:stop]) for start, stop in bounds])


def test_piece_starts_cut_a_pass_by_its_row_count_alone():
    for m in range(4 * 512 + 768):
        starts = learner._piece_starts(m)
        assert starts.start == 0 and starts.step == 512
        assert len(starts) == 1 if m < 768 else 256 <= m - starts[-1] < 768


# id -> (LearnerConfig overrides on 12x12x1 inputs, rows, pieces of the forward pass, whether the
# pieces keep the bits of the whole pass). Pieces start at multiples of 512 rows and the last one
# takes the 256-767-row remainder. The pieces keep the whole pass's bits where each dense hidden
# product of a 512-row piece does more than 10^6 multiply-adds and the whole output product at
# most 10^6 (SkylakeX's small-matrix bound), as in every run-side pass of the default models.
FORWARD_CASES = {
    "default-1000": (dict(hidden=(128, 64)), 1000, 2, True),
    "default-1023": (dict(hidden=(128, 64)), 1023, 2, True),
    "default-1024": (dict(hidden=(128, 64)), 1024, 2, True),
    "default-2047": (dict(hidden=(128, 64)), 2047, 4, True),
    "default-3850": (dict(hidden=(128, 64)), 3850, 8, True),
    "default-3906": (dict(hidden=(128, 64)), 3906, 8, True),  # 999,936 output multiply-adds
    "default-3907": (dict(hidden=(128, 64)), 3907, 8, False),  # 1,000,192
    "default-relu": (dict(hidden=(128, 64), activation="relu"), 1100, 2, True),
    "classes-2": (dict(hidden=(128, 64), n_classes=2), 1536, 3, True),
    "classes-3": (dict(hidden=(130, 40), n_classes=3), 1600, 3, True),
    "classes-12": (dict(hidden=(128, 64), n_classes=12), 2000, 4, False),
    "width-14": (dict(hidden=(14,)), 1537, 3, True),
    "width-13": (dict(hidden=(13,)), 1537, 3, False),
    "narrow-12-4": (dict(hidden=(130, 12, 4)), 1800, 4, False),
    "depth-3": (dict(hidden=(130, 64, 40)), 1800, 4, False),  # a 264-row last piece
    "no-hidden": (dict(hidden=()), 2047, 4, False),
    "conv-c1": (dict(conv=ConvSpec(filters=8, kernel=3), hidden=(64,)), 1300, 3, True),
    "conv-c2-only": (dict(input_shape=(10, 10, 2), conv=ConvSpec(filters=4, kernel=3), hidden=()), 1100, 2, False),
    "conv-c2-relu": (dict(input_shape=(10, 10, 2), conv=ConvSpec(filters=3, kernel=2), hidden=(70, 40),
                          activation="relu"), 1700, 3, True),
}


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_forward_pieces_match_reference(case):
    overrides, m, pieces, whole = FORWARD_CASES[case]
    cfg = LearnerConfig(**{"input_shape": (12, 12, 1), "n_classes": 4, "seed": 5, **overrides})
    state = learner.init_learner(cfg)
    x = np.random.default_rng(m).random((m, *cfg.input_shape))
    assert learner._piece_starts(m) == range(0, 512 * pieces, 512)
    got = learner.predict_logits(state, x).tobytes()
    assert got == reference_pieces(state, x).tobytes()
    if whole:
        assert got == reference_logits(state, x).tobytes()


@pytest.mark.slow
@pytest.mark.parametrize("env", [{"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"},
                                 {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"},
                                 {"OPENBLAS_NUM_THREADS": "2"}], ids=["haswell", "prescott", "two-threads"])
def test_forward_pieces_match_reference_under_other_blas_kernels(env):
    """OpenBLAS picks its kernel and thread count when it loads, so each setting gets a fresh process.

    Haswell and Prescott run on one thread: with two, they split a product's rows
    between the threads by its row count, so a pass changes bits with the thread count.
    Two threads run on the kernel OpenBLAS picks for this CPU. OpenBLAS 0.3.31 reports a
    forced Prescott as Katmai, so the child's pytest header names Katmai for the `prescott` id.
    """
    nodes = [f"{__file__}::{name}" for name in ("test_forward_pieces_match_reference",
                                                "test_predict_logits_equals_the_reference_on_each_piece")]
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
                          env={**inherited, **env}, cwd=Path(__file__).parents[1],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(FORWARD_CASES) + 1} passed" in done.stdout


@st.composite
def forward_cases(draw):
    """(state, rows) for the piecewise forward pass: 0-3 dense layers after an optional conv, 1 to 4,095 rows.

    Whole pieces and the remainder's edges are sampled, not drawn as integers (which hypothesis
    keeps small), so that about half of the passes are cut (see the events).
    """
    size, c = draw(st.integers(8, 12)), draw(st.integers(1, 2))
    conv = None
    if draw(st.booleans()):
        conv = ConvSpec(filters=draw(st.integers(1, 8)), kernel=draw(st.integers(1, 3)))
    width = st.sampled_from([2, 3, 4, 12, 64, 128]) | st.integers(1, 130)
    cfg = LearnerConfig(input_shape=(size, size, c), n_classes=draw(st.sampled_from([2, 3, 4, 12])), conv=conv,
                        hidden=tuple(draw(width) for _ in range(draw(st.sampled_from([3, 2, 1, 0])))),
                        activation=draw(st.sampled_from(["tanh", "relu"])), seed=draw(st.integers(0, 2**16)))
    remainder = draw(st.sampled_from([255, 256, 511]) | st.integers(0, 511))
    m = max(1, 512 * draw(st.sampled_from([7, 3, 2, 1, 0])) + remainder)
    x = np.random.default_rng(draw(st.integers(0, 2**16))).random((m, size, size, c))
    return learner.init_learner(cfg), x


@settings(max_examples=80, deadline=None)
@given(forward_cases())
def test_predict_logits_equals_the_reference_on_each_piece(case):
    state, x = case
    event("one piece" if len(learner._piece_starts(len(x))) == 1 else "cut")
    assert learner.predict_logits(state, x).tobytes() == reference_pieces(state, x).tobytes()


def test_lr_schedule_multi_stage():
    cfg = small_config(learning_rate=1.0, epochs=20,
                       decay_milestones=(0.5, 0.75), decay_factor=0.1)
    assert learner.lr_at(cfg, 0) == 1.0
    assert learner.lr_at(cfg, 9) == 1.0
    assert learner.lr_at(cfg, 10) == pytest.approx(0.1)
    assert learner.lr_at(cfg, 15) == pytest.approx(0.01)
    assert learner.lr_at(cfg, 19) == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = small_config(conv=None, init_scale=1.7)
    state = learner.init_learner(cfg)
    path = tmp_path / "ckpt.json"
    learner.save_checkpoint(state, path)
    loaded = learner.load_checkpoint(path)
    assert loaded.config == cfg
    for a, b in zip(state.weights + state.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    assert '"PT4AL-CKPT"' in path.read_text()


# Floats whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal, the largest magnitudes, integral values and exponent forms.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 3.0, -12.0,
                  2.0 ** 53, 1e16, 1e-7, 0.1]


@st.composite
def checkpoint_cases(draw):
    """(state, slice size): a dense or conv state whose arrays hold drawn special values."""
    if draw(st.booleans()):
        h, c = draw(st.integers(3, 7)), draw(st.integers(1, 3))
        cfg = LearnerConfig(input_shape=(h, h, c), n_classes=draw(st.integers(2, 5)),
                            conv=ConvSpec(filters=draw(st.integers(1, 4)), kernel=draw(st.integers(1, h))),
                            hidden=tuple(draw(st.lists(st.integers(1, 30), max_size=2))))
    else:
        cfg = LearnerConfig(input_shape=(draw(st.integers(1, 60)),), n_classes=draw(st.integers(2, 5)),
                            hidden=tuple(draw(st.lists(st.integers(1, 45), max_size=2))))
    cfg = replace(cfg, seed=draw(st.integers(0, 2**16)), init_scale=draw(st.sampled_from([0.0, 1.0])))
    state = learner.init_learner(cfg)
    arrays = [*state.weights, *state.biases]
    values = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    for where, value in draw(st.lists(st.tuples(st.integers(0, 2**20), values), max_size=30)):
        flat = arrays[where % len(arrays)].reshape(-1)
        flat[(where // len(arrays)) % flat.size] = value
    return state, draw(st.sampled_from([1, 2, 7, 64, learner._CHECKPOINT_SLICE]))


@settings(max_examples=60, deadline=None)
@given(checkpoint_cases())
def test_checkpoint_bytes_equal_json_dumps_of_the_payload(tmp_path_factory, case):
    state, slice_size = case
    payload = {
        "magic": learner.CHECKPOINT_MAGIC,
        "version": learner.CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "weights": [{"shape": list(w.shape), "data": w.ravel().tolist()} for w in state.weights],
        "biases": [{"shape": list(b.shape), "data": b.ravel().tolist()} for b in state.biases],
    }
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    with mock.patch.object(learner, "_CHECKPOINT_SLICE", slice_size):
        learner.save_checkpoint(state, path)
    assert path.read_bytes() == json.dumps(payload, sort_keys=True).encode("utf-8")
    loaded = learner.load_checkpoint(path)
    for a, b in zip(state.weights + state.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_checkpoint_save_never_holds_the_document(tmp_path):
    # The default pretext model; json.dumps of the whole payload peaked at about 6x the file.
    cfg = LearnerConfig(input_shape=(12, 12, 1), n_classes=4, hidden=(128, 64), seed=1)
    state = learner.init_learner(cfg)
    path = tmp_path / "ckpt.json"
    tracemalloc.start()
    try:
        learner.save_checkpoint(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_checkpoint_magic_and_version_enforced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"magic": "NOPE", "version": 1}')
    with pytest.raises(ValueError):
        learner.load_checkpoint(path)
    state = learner.init_learner(small_config())
    good = tmp_path / "good.json"
    learner.save_checkpoint(state, good)
    payload = good.read_text().replace('"version": 1', '"version": 99')
    bad = tmp_path / "bad2.json"
    bad.write_text(payload)
    with pytest.raises(ValueError):
        learner.load_checkpoint(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_save_refuses_non_finite_values(tmp_path, bad):
    state = learner.init_learner(small_config())
    state.biases[-1][0] = bad
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError, match="non-finite"):
        learner.save_checkpoint(state, path)
    assert not path.exists()


def test_checkpoint_shape_validation(tmp_path):
    import json
    state = learner.init_learner(small_config())
    path = tmp_path / "ckpt.json"
    learner.save_checkpoint(state, path)
    payload = json.loads(path.read_text())
    payload["weights"][0] = {"shape": [1, 1], "data": [0.0]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        learner.load_checkpoint(path)
