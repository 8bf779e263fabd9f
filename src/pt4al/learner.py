"""Minimal deterministic feedforward learner with hand-derived gradients.

A small dense network (optionally fronted by a single stride-1 valid
convolution) with softmax cross-entropy and plain minibatch SGD, float64
throughout. The same engine is used both as the rotation-prediction model
and as the main image classifier, so everything here is deterministic
under a fixed seed: weight init, shuffling, and updates.

Inference functions are pure; they may be called concurrently as long as
results are collected in sample order.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, declare, from_dict
from .data import whole_numbers
from .seeds import derive_seed

CHECKPOINT_MAGIC = "PT4AL-CKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ConvSpec:
    """Single convolution layer: `filters` kernels of size kernel x kernel."""

    filters: int = declare(within="[1, inf)")
    kernel: int = declare(within="[1, inf)")


@dataclass(frozen=True)
class LearnerConfig:
    """Architecture plus training hyperparameters.

    `input_shape`, `n_classes` and `seed` are derived: they default to unset
    so configs can be declared before the dataset is known and materialized
    later with `dataclasses.replace`.
    """

    input_shape: tuple[int, ...] = declare((), derived=True)
    n_classes: int = declare(0, derived=True)
    hidden: tuple[int, ...] = declare((128, 64), "[1, inf)")
    conv: ConvSpec | None = None
    activation: str = declare("tanh", ("tanh", "relu"))
    learning_rate: float = declare(0.1, "[0, inf)")
    decay_milestones: tuple[float, ...] = declare((0.5, 0.75), "[0, 1]")
    decay_factor: float = declare(0.1, "(0, inf)")
    epochs: int = declare(20, "[1, inf)")
    batch_size: int = declare(32, "[1, inf)")
    init_scale: float = declare(1.0, "[0, inf)")
    seed: int = declare(0, derived=True)

    def validate(self) -> None:
        """Check the declared values, then the input shape, class count, conv fit and schedule range."""
        check_fields(self)
        if not self.input_shape or any(int(d) <= 0 for d in self.input_shape):
            raise ConfigError(f"input_shape must have positive dims, got {self.input_shape!r}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 output classes, got {self.n_classes}")
        if self.conv is not None:
            if len(self.input_shape) != 3:
                raise ConfigError("conv layer requires an (H, W, C) input shape")
            if self.conv.kernel > min(self.input_shape[:2]):
                raise ConfigError(f"conv.kernel {self.conv.kernel} does not fit input {self.input_shape}")
        # Drops only accumulate, so the last epoch's rate is the largest whenever decay_factor > 1.
        # Not through lr_at: traces count its calls as epochs trained.
        try:
            peak = self.learning_rate * self.decay_factor ** _drops(self, self.epochs - 1)
        except OverflowError:
            peak = math.inf
        if not math.isfinite(peak):
            raise ConfigError(f"decay_factor {self.decay_factor} overflows the learning rate schedule: the rate of "
                              f"epoch {self.epochs - 1} is not finite (learning_rate {self.learning_rate})")

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def feature_dim(self) -> int:
        """Width of the first dense layer's input."""
        if self.conv is None:
            return self.input_dim
        h, w, _ = self.input_shape
        k = self.conv.kernel
        return (h - k + 1) * (w - k + 1) * self.conv.filters


@dataclass
class LearnerState:
    """Weights and biases per layer plus the config snapshot that shaped them."""

    config: LearnerConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "LearnerState":
        return LearnerState(self.config, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def param_shapes(config: LearnerConfig) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(weight shape, bias shape) per layer, conv layer first when present."""
    shapes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if config.conv is not None:
        _, _, c = config.input_shape
        k, f = config.conv.kernel, config.conv.filters
        shapes.append(((k, k, c, f), (f,)))
    dims = [config.feature_dim, *config.hidden, config.n_classes]
    for din, dout in zip(dims[:-1], dims[1:]):
        shapes.append(((din, dout), (dout,)))
    return shapes


def n_parameters(config: LearnerConfig) -> int:
    return sum(int(np.prod(ws)) + int(np.prod(bs)) for ws, bs in param_shapes(config))


def init_learner(config: LearnerConfig) -> LearnerState:
    """Fresh state with scaled-Gaussian weights and zero biases.

    Weights are drawn as init_scale / sqrt(fan_in) * N(0, 1) from a
    generator seeded with config.seed, so identical configs produce
    bit-identical states. init_scale 0 gives an all-zero network whose
    softmax output is uniform.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for wshape, bshape in param_shapes(config):
        fan_in = int(np.prod(wshape[:-1]))
        weights.append(rng.standard_normal(wshape) * (config.init_scale / math.sqrt(fan_in)))
        biases.append(np.zeros(bshape))
    return LearnerState(config=config, weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def as_batch(config: LearnerConfig, x) -> np.ndarray:
    """Canonicalize a batch to (B, *input_shape) float64, accepting flat rows."""
    arr = np.asarray(x, dtype=np.float64)
    want = tuple(config.input_shape)
    if arr.ndim == len(want) + 1 and arr.shape[1:] == want:
        return arr
    if arr.ndim == 2 and arr.shape[1] == config.input_dim:
        return arr.reshape(arr.shape[0], *want)
    if len(want) == 3 and want[2] == 1 and arr.ndim == 3 and arr.shape[1:] == want[:2]:
        return arr[..., None]
    raise ValueError(f"input shape mismatch: got {arr.shape}, expected batch of {want}")


def _as_labels(config: LearnerConfig, y, n: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1 or len(arr) != n:
        raise ValueError(f"labels must be a length-{n} vector, got shape {arr.shape}")
    arr = whole_numbers(arr, "labels")
    if arr.min(initial=0) < 0 or (len(arr) and arr.max() >= config.n_classes):
        raise ValueError(f"labels must lie in [0, {config.n_classes})")
    return arr


def _widths(config: LearnerConfig) -> list[int]:
    """Width of each hidden layer's rows, the conv layer first when present."""
    return list(config.hidden) if config.conv is None else [config.feature_dim, *config.hidden]


# Rows per piece of a forward-only pass. OpenBLAS rounds a product by its row count, so a pass
# is cut only where each piece keeps the bits of the whole pass (OpenBLAS 0.3.31, one thread,
# and two on SkylakeX): the Haswell and Prescott kernels change bits when a piece starts off a
# multiple of their 4-row unroll, SkylakeX sends a product of at most 10^6 multiply-adds down a
# small-matrix path that rounds differently, and pieces of 35 and 100 rows changed bits with two
# threads (a 1-row one on every kernel, through numpy's vector path). So pieces start at
# multiples of 512 rows, the last one takes the 256-767-row remainder, and every hidden product
# of every piece must do more than 10^6 multiply-adds. The output product is cut along the same
# pieces only when the whole of it takes the small-matrix path, since every piece then does too.
_PIECE_ROWS = 512
_SMALL_PRODUCT_MADDS = 10**6


def _piece_starts(config: LearnerConfig, m: int) -> tuple[range, bool]:
    """First rows of the pieces of a forward-only pass over `m` rows, and whether its output product is cut.

    The hidden layers run in one piece, the whole pass, unless the model has
    a hidden layer, every dense hidden product of a _PIECE_ROWS-row piece
    leaves the small-matrix path and there are two pieces or more. A last
    piece with a product on that path joins the piece before it. The conv
    layer does not count: its products are one small product per image row,
    the same however many images a pass holds. The output product is cut
    only when its whole takes the small-matrix path.
    """
    dims = [config.feature_dim, *config.hidden]
    # Multiply-adds per row of the smallest dense hidden product.
    per_row = min((k * n for k, n in zip(dims, dims[1:])), default=math.inf)
    starts = range(0, max(m - _PIECE_ROWS // 2 + 1, 1), _PIECE_ROWS)
    if len(starts) > 1 and (m - starts[-1]) * per_row <= _SMALL_PRODUCT_MADDS:
        starts = starts[:-1]
    if len(starts) == 1 or not _widths(config) or _PIECE_ROWS * per_row <= _SMALL_PRODUCT_MADDS:
        return range(1), False
    return starts, m * dims[-1] * config.n_classes <= _SMALL_PRODUCT_MADDS


class _Workspace:
    """Buffers for one training step over `m` rows.

    `acts[l]` holds the activation of hidden layer l as rows of its width and
    `dacts[l]` the loss gradient with respect to it. `x` and `y` are the
    gathered rows and labels of the batch.
    """

    def __init__(self, config: LearnerConfig, m: int):
        widths = _widths(config)
        self.acts = [np.empty((m, d)) for d in widths]
        self.logits = np.empty((m, config.n_classes))
        self.x = np.empty((m, config.input_dim))
        self.y = np.empty(m, dtype=np.int64)
        self.rows = np.arange(m)
        self.dacts = [np.empty((m, d)) for d in widths]
        self.delta = np.empty((m, config.n_classes))


def _activate(z: np.ndarray, kind: str) -> None:
    """Replace pre-activations `z` with their activations, in place."""
    if kind == "tanh":
        np.tanh(z, out=z)
    else:
        np.maximum(z, 0.0, out=z)


def _activation_grad(a: np.ndarray, kind: str) -> None:
    """Replace activations `a` with the activation's derivative there, in place.

    For relu, a > 0 exactly where the pre-activation is > 0.
    """
    if kind == "tanh":
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
    else:
        np.greater(a, 0.0, out=a)


def _conv_windows(config: LearnerConfig, x: np.ndarray):
    """(di, dj, input window) per kernel offset of the conv layer, x as (m, H, W, C)."""
    k = config.conv.kernel
    h, w, _ = config.input_shape
    ho, wo = h - k + 1, w - k + 1
    return [(di, dj, x[:, di:di + ho, dj:dj + wo, :]) for di in range(k) for dj in range(k)]


def _conv_view(config: LearnerConfig, a: np.ndarray) -> np.ndarray:
    """The conv layer's (m, feature_dim) rows `a` as (m, H', W', filters)."""
    h, w, _ = config.input_shape
    k = config.conv.kernel
    return a.reshape(len(a), h - k + 1, w - k + 1, config.conv.filters)


def _hidden(config: LearnerConfig, weights, biases, x: np.ndarray, acts) -> None:
    """Write the activations of the (m, input_dim) rows `x` into `acts`, one per hidden layer, conv first."""
    h = x
    for layer, a in enumerate(acts):
        if layer == 0 and config.conv is not None:
            z = _conv_view(config, a)
            z.fill(0.0)
            z += biases[0]  # 0.0 + b, not b: a -0.0 bias must start the sum as 0.0
            for di, dj, window in _conv_windows(config, x.reshape(len(x), *config.input_shape)):
                z += window @ weights[0][di, dj]
        else:
            np.matmul(h, weights[layer], out=a)
            a += biases[layer]
        _activate(a, config.activation)
        h = a


def _backprop(config: LearnerConfig, weights, biases, x: np.ndarray, y: np.ndarray,
              ws: _Workspace, gws, gbs) -> float:
    """Mean cross-entropy of one batch; writes its gradient into `gws` / `gbs`.

    `x` holds (m, input_dim) rows and `y` valid labels. The activations in
    `ws` are overwritten on the way back. The gradient with respect to a
    layer's input is formed only when a layer below needs it, so a dense
    network never computes the one with respect to `x`.
    """
    m = len(x)
    _hidden(config, weights, biases, x, ws.acts)
    logits = np.matmul(ws.acts[-1] if ws.acts else x, weights[-1], out=ws.logits)
    logits += biases[-1]
    lse = logsumexp(logits)
    loss = float(np.add.reduce(lse - logits[ws.rows, y]) / m)

    dz = ws.delta
    np.subtract(logits, lse[:, None], out=dz)
    np.exp(dz, out=dz)
    dz[ws.rows, y] -= 1.0
    dz /= m
    first = 0 if config.conv is None else 1
    for layer in range(len(weights) - 1, first - 1, -1):
        a = x if layer == 0 else ws.acts[layer - 1]
        np.matmul(a.T, dz, out=gws[layer])
        np.add.reduce(dz, axis=0, out=gbs[layer])
        if layer == 0:
            break
        da = ws.dacts[layer - 1]
        np.matmul(dz, weights[layer].T, out=da)
        _activation_grad(a, config.activation)
        da *= a
        dz = da
    if config.conv is not None:
        dz = _conv_view(config, dz)
        for di, dj, window in _conv_windows(config, x.reshape(m, *config.input_shape)):
            gws[0][di, dj] = np.tensordot(window, dz, axes=([0, 1, 2], [0, 1, 2]))
        np.add.reduce(dz, axis=(0, 1, 2), out=gbs[0])
    return loss


def predict_logits(state: LearnerState, xs) -> np.ndarray:
    """Logits of a batch, forward only, in the pieces that `_piece_starts` lays out.

    Each hidden buffer holds the largest piece, the last one every row when the output product runs whole.
    """
    cfg = state.config
    xb = as_batch(cfg, xs)
    x, m = xb.reshape(len(xb), -1), len(xb)
    starts, cut_output = _piece_starts(cfg, m)
    bounds = list(zip(starts, [*starts[1:], m]))
    largest = max(stop - start for start, stop in bounds)
    widths = _widths(cfg)
    last = largest if cut_output else m
    acts = [np.empty((largest, d)) for d in widths[:-1]] + [np.empty((last, d)) for d in widths[-1:]]
    logits = np.empty((m, cfg.n_classes))
    for start, stop in bounds:
        at = 0 if cut_output else start
        piece = [a[:stop - start] for a in acts[:-1]] + [a[at:at + stop - start] for a in acts[-1:]]
        _hidden(cfg, state.weights, state.biases, x[start:stop], piece)
        if cut_output:
            np.matmul(piece[-1], state.weights[-1], out=logits[start:stop])
    if not cut_output:
        np.matmul(acts[-1] if acts else x, state.weights[-1], out=logits)
    logits += state.biases[-1]
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(logits: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of (m, k) `logits`, shifted by the row max so it cannot overflow."""
    zmax = np.maximum.reduce(logits, axis=1)
    return zmax + np.log(np.add.reduce(np.exp(logits - zmax[:, None]), axis=1))


def predict_proba(state: LearnerState, x) -> np.ndarray:
    """Class-probability vector for a single input; entries sum to 1."""
    return predict_proba_batch(state, as_batch(state.config, np.asarray(x)[None]))[0]


def predict_proba_batch(state: LearnerState, xs) -> np.ndarray:
    return _softmax(predict_logits(state, xs))


def per_sample_loss(state: LearnerState, x, y: int) -> float:
    """Cross-entropy -log p_y for one input; always >= 0."""
    return float(per_sample_losses(state, as_batch(state.config, np.asarray(x)[None]), [y])[0])


def per_sample_losses(state: LearnerState, xs, ys) -> np.ndarray:
    """Vectorized -log p_y per row, computed with the stable log-sum-exp form."""
    xb = as_batch(state.config, xs)
    yb = _as_labels(state.config, ys, len(xb))
    logits = predict_logits(state, xb)
    return logsumexp(logits) - logits[np.arange(len(xb)), yb]


def accuracy(state: LearnerState, xs, ys) -> float:
    xb = as_batch(state.config, xs)
    yb = _as_labels(state.config, ys, len(xb))
    preds = predict_logits(state, xb).argmax(axis=1)
    return float(np.mean(preds == yb))


def loss_and_grad(state: LearnerState, x, y):
    """Mean minibatch cross-entropy and its analytic gradient.

    Returns (loss, grad_weights, grad_biases) with the gradient lists
    mirroring state.weights / state.biases layer for layer. Together with
    `sgd_step` this is the reference that `train` must match bit for bit.
    """
    cfg = state.config
    xb = as_batch(cfg, x)
    if len(xb) == 0:
        raise ValueError("empty minibatch")
    yb = _as_labels(cfg, y, len(xb))
    gws = [np.empty(w.shape) for w in state.weights]
    gbs = [np.empty(b.shape) for b in state.biases]
    loss = _backprop(cfg, state.weights, state.biases, xb.reshape(len(xb), -1), yb,
                     _Workspace(cfg, len(xb)), gws, gbs)
    return loss, gws, gbs


def grad(state: LearnerState, x, y):
    """Analytic gradient of the mean minibatch loss, mirroring the state layout."""
    _, gws, gbs = loss_and_grad(state, x, y)
    return gws, gbs


def sgd_step(state: LearnerState, x, y, lr: float) -> float:
    """One in-place SGD update; returns the pre-update minibatch loss."""
    loss, gws, gbs = loss_and_grad(state, x, y)
    for i in range(len(state.weights)):
        state.weights[i] -= lr * gws[i]
        state.biases[i] -= lr * gbs[i]
    return loss


def _drops(config: LearnerConfig, epoch: int) -> int:
    """Milestone fractions of `config.epochs` that `epoch` has reached."""
    return sum(epoch >= int(m * config.epochs) for m in config.decay_milestones)


def lr_at(config: LearnerConfig, epoch: int) -> float:
    """Multi-stage schedule: decay by decay_factor at each milestone fraction."""
    return config.learning_rate * config.decay_factor ** _drops(config, epoch)


def check_converged(config: LearnerConfig, role: str, what: str, arrays) -> None:
    """Raise RuntimeError naming `what` and the knobs that drive divergence unless every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise RuntimeError(f"{role} learning rate diverged: {what} (learning_rate {config.learning_rate}, "
                           f"decay_factor {config.decay_factor}, init_scale {config.init_scale})")


def _packed(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copies of `arrays` laid back to back in one float64 vector, plus a view of each."""
    flat = np.empty(sum(a.size for a in arrays))
    views, start = [], 0
    for a in arrays:
        view = flat[start:start + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        start += a.size
    return flat, views


def train(state: LearnerState, x, y, *, group: int = 1, on_epoch=None):
    """Minibatch SGD from `state`; returns (final state, per-epoch mean loss trace).

    Architecture and schedule (epochs, learning rate, decay, batch size,
    shuffle seed) come from `state.config`; identical (state, data) pairs
    reproduce bit-identical results, and the input state is not mutated.

    Rows come in runs of `group` that always share a minibatch: each epoch
    permutes the n // group runs and a step takes max(1, batch_size // group)
    of them. After each epoch `on_epoch(epoch, state)` sees the current
    weights, which later epochs overwrite in place; a true return ends
    training, and the trace with it.

    `x` holds the n inputs, or is a callable `fill(runs, out)` that writes
    the inputs of the runs `runs` (run j is rows j*group..j*group+group-1),
    in order, into the rows of the buffer `out`. Then `y` alone gives n.

    The result equals a loop of `sgd_step` over the same runs bit for bit.
    The inputs are validated once; the weights and the gradient each live
    in one flat vector, so a step's update is two in-place ops, and every
    batch size gets its own preallocated buffers.
    """
    cfg = state.config
    cfg.validate()
    fill = x if callable(x) else None
    rows = None if fill else as_batch(cfg, x).reshape(-1, cfg.input_dim)
    n = len(y) if fill else len(rows)
    if n == 0:
        raise ValueError("empty dataset")
    if group < 1 or n % group:
        raise ValueError(f"{n} rows do not split into runs of {group}")
    yb = _as_labels(cfg, y, n)
    arrays = [*state.weights, *state.biases]
    params, views = _packed(arrays)
    grads, gviews = _packed(arrays)
    k = len(state.weights)
    weights, biases, gws, gbs = views[:k], views[k:], gviews[:k], gviews[k:]
    trained = LearnerState(cfg, weights, biases)
    workspaces: dict[int, _Workspace] = {}
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    offsets = np.arange(group)
    step_rows = group * max(1, cfg.batch_size // group)
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = (rng.permutation(n // group)[:, None] * group + offsets).ravel()
        total = 0.0
        for start in range(0, n, step_rows):
            idx = order[start:start + step_rows]
            m = len(idx)
            ws = workspaces.get(m)
            if ws is None:
                ws = workspaces[m] = _Workspace(cfg, m)
            if fill is None:
                # idx is part of a permutation of range(n): "clip" never clips, and
                # unlike "raise" it lets take write straight into the buffer.
                rows.take(idx, axis=0, out=ws.x, mode="clip")
            else:
                fill(idx[::group] // group, ws.x)
            yb.take(idx, out=ws.y, mode="clip")
            step_mean = _backprop(cfg, weights, biases, ws.x, ws.y, ws, gws, gbs)
            grads *= lr
            params -= grads
            total += step_mean * m
        trace.append(total / n)
        if on_epoch is not None and on_epoch(epoch, trained):
            break
    return trained, trace


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _unpack_array(obj: dict) -> np.ndarray:
    arr = np.asarray(obj["data"], dtype=np.float64)
    shape = tuple(int(d) for d in obj["shape"])
    if arr.size != int(np.prod(shape)):
        raise ConfigError(f"array data does not match its declared shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("checkpoint contains non-finite values")
    return arr.reshape(shape)


# Values per slice when a checkpoint array is written: a slice's floats, their
# strings and the joined text are all that is held at once.
_CHECKPOINT_SLICE = 1024


def _write_arrays(fh, arrays: list[np.ndarray]) -> None:
    """Write `arrays` as the JSON list of {"data": [...], "shape": [...]} objects, slice by slice."""
    fh.write("[")
    for i, arr in enumerate(arrays):
        fh.write(', {"data": [' if i else '{"data": [')
        flat = arr.ravel()
        for start in range(0, flat.size, _CHECKPOINT_SLICE):
            # float.__repr__ is what json emits for a finite float.
            text = ", ".join(map(float.__repr__, flat[start:start + _CHECKPOINT_SLICE].tolist()))
            fh.write(", " + text if start else text)
        fh.write(f'], "shape": {json.dumps(list(arr.shape))}}}')
    fh.write("]")


def save_checkpoint(state: LearnerState, path) -> None:
    """Versioned JSON checkpoint holding flat row-major weight arrays.

    float64 values round-trip exactly through the JSON encoding. The file is
    streamed: its bytes are those of `json.dumps(payload, sort_keys=True)`
    for payload {magic, version, config, weights, biases}, with each array as
    {"shape", "data"}, but no whole-document string is ever built.
    """
    if not all(np.all(np.isfinite(arr)) for arr in (*state.weights, *state.biases)):
        raise ValueError(f"{path}: refusing to save a checkpoint with non-finite values")
    # The small keys sort between "biases" and "weights".
    middle = json.dumps({"config": asdict(state.config), "magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION},
                        sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"biases": ')
        _write_arrays(fh, state.biases)
        fh.write(f', {middle[1:-1]}, "weights": ')
        _write_arrays(fh, state.weights)
        fh.write("}")


def load_checkpoint(path) -> LearnerState:
    """The state that `save_checkpoint` wrote to `path`; any fault of the file raises ConfigError naming `path`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # the last: nesting too deep
        raise ConfigError(f"{path}: not a learner checkpoint (not UTF-8 JSON: {exc})") from exc
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a learner checkpoint (not a JSON object with magic {CHECKPOINT_MAGIC!r})")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
        config = from_dict(LearnerConfig(), payload["config"], "config", allow_derived=True)
        weights = [_unpack_array(w) for w in payload["weights"]]
        biases = [_unpack_array(b) for b in payload["biases"]]
        config.validate()
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: checkpoint key missing or of the wrong type: {exc!r}") from exc
    except (ValueError, OverflowError) as exc:  # ConfigError or a value numpy or int() cannot parse
        raise ConfigError(f"{path}: {exc}") from exc
    expected = param_shapes(config)
    got = list(zip_longest([w.shape for w in weights], [b.shape for b in biases]))
    if got != expected:
        raise ConfigError(f"{path}: weight shapes {got} do not match config {expected}")
    return LearnerState(config=config, weights=weights, biases=biases)
