"""Rotation-prediction pretext task: training and per-sample loss extraction.

The pretext model is a 4-way orientation classifier trained on all four
rotations of every unlabeled sample. Its per-sample loss (the average
cross-entropy over the four orientations) is the sorting key that drives
batch splitting in the active-learning loop.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import learner
from .config import ConfigError
from .data import Pool, write_csv
from .learner import LearnerConfig, LearnerState

N_ORIENTATIONS = 4

# Samples per forward pass of the one rotation pass that is both evaluation and
# extraction (the kept epoch's pass writes losses.csv). OpenBLAS rounds a product
# by its row count: the default model's (.x64)(64x4) layer done in pieces under
# 4,096 rows differs in the last bits from one 8,192-row product. So these chunks
# are part of the output and must not change. Inside a chunk, the forward pass runs
# the hidden layers in 512-row pieces only where that keeps every bit (see
# learner._PIECE_ROWS), and the output product always takes the whole chunk.
_EVAL_CHUNK = 8192

# Images per step of the in-place quarter turn: the one temporary of the rotation pass.
_TURN_SLAB = 64


@dataclass(frozen=True, slots=True)
class LossRecord:
    """Per-sample averaged rotation loss; the batch-split sorting key."""

    sample_id: int
    loss: float


@dataclass
class PretextReport:
    best_epoch: int
    epochs_run: int
    rotation_accuracy: float
    records: list[LossRecord]


def _rotation_writer(x: np.ndarray):
    """write(samples, out): row 4*i + r of `out` becomes image x[samples][i] turned r quarter-turns.

    One gather per call; `order` holds in-range pixel positions, so "clip" only unbuffers np.take.
    """
    pixels = np.arange(np.prod(x.shape[1:])).reshape(x.shape[1:])
    order = np.stack([np.rot90(pixels, k=r).ravel() for r in range(N_ORIENTATIONS)])
    flat = x.reshape(len(x), pixels.size)
    return lambda samples, out: np.take(flat[samples], order, axis=1, out=out.reshape(-1, *order.shape), mode="clip")


def _quarter_turn(x: np.ndarray, slab: np.ndarray) -> None:
    """Turn every (S, S) image of `x` one quarter counter-clockwise, in place, through `slab`."""
    for start in range(0, len(x), _TURN_SLAB):
        images = x[start:start + _TURN_SLAB]
        turned = slab[:len(images)]
        turned[...] = np.rot90(images, axes=(1, 2))
        images[...] = turned


def _rotation_pass(state: LearnerState, x: np.ndarray) -> tuple[int, np.ndarray]:
    """(hits, per-sample mean loss) of `state` over the four rotations of every image in `x`.

    Orientation r outer, _EVAL_CHUNK samples inner; one forward pass per chunk gives both its
    argmax hits and its cross-entropies against r. The chunks are slices of `x` itself, which is
    turned a quarter in place after each orientation, so four turns give it back bit for bit (in
    a `finally`, also when a pass raises). Read-only pixels are turned in a private copy.
    """
    if not x.flags.writeable:
        x = x.copy()
    hits, totals = 0, np.zeros(len(x))
    slab = np.empty((min(_TURN_SLAB, len(x)), *x.shape[1:]))
    turns = 0
    try:
        for r in range(N_ORIENTATIONS):
            for start in range(0, len(x), _EVAL_CHUNK):
                logits = learner.predict_logits(state, x[start:start + _EVAL_CHUNK])
                hits += int(np.count_nonzero(logits.argmax(axis=1) == r))
                totals[start:start + len(logits)] += learner.logsumexp(logits) - logits[:, r]
            _quarter_turn(x, slab)
            turns += 1
    finally:
        for _ in range(-turns % N_ORIENTATIONS):
            _quarter_turn(x, slab)
    totals /= N_ORIENTATIONS
    return hits, totals


def check_model(config: LearnerConfig, shape) -> None:
    """Raise ConfigError unless `config` has N_ORIENTATIONS classes and the input shape `shape`, which is square."""
    if config.n_classes != N_ORIENTATIONS:
        raise ConfigError(f"a rotation model needs {N_ORIENTATIONS} classes, got {config.n_classes}")
    if shape[0] != shape[1]:
        raise ConfigError(f"the rotation pretext task needs square images, got {shape[0]}x{shape[1]}")
    if tuple(config.input_shape) != tuple(shape):
        raise ConfigError(f"rotation model input shape {tuple(config.input_shape)} does not match "
                          f"the pool's image shape {tuple(shape)}")


def train_pretext(unlabeled: Pool, config: LearnerConfig) -> tuple[LearnerState, PretextReport]:
    """Train the 4-way rotation classifier on all rotations of the pool.

    After every epoch the rotation accuracy is evaluated on the same pool
    (all four orientations) and the best-accuracy checkpoint is kept; ties
    go to the earliest epoch, and only post-epoch states are candidates.
    `config.epochs` is an upper bound: training stops after the first
    epoch with rotation accuracy 1.0, since no later epoch can beat it.
    The four orientations of one sample always share a minibatch. Returns
    the best state and a report whose loss records, in pool order, are the
    kept epoch's `extract_losses` pass. Rotated rows are written straight into
    each minibatch, and each epoch's pass turns the pool's own pixels in place
    and back (a read-only pool is turned in a copy), so the pool is held once.
    `check_model` runs first; non-finite kept weights or losses raise RuntimeError.
    """
    x = unlabeled.x
    check_model(config, x.shape[1:])
    best_hits, best_epoch, best_state, best_losses = -1, -1, None, None

    def keep_best(epoch: int, state: LearnerState) -> bool:
        nonlocal best_hits, best_epoch, best_state, best_losses
        hits, losses = _rotation_pass(state, x)
        if hits > best_hits:
            best_hits, best_epoch, best_state, best_losses = hits, epoch, state.copy(), losses
        return hits == N_ORIENTATIONS * len(x)

    _, trace = learner.train(learner.init_learner(config), _rotation_writer(x),
                             np.tile(np.arange(N_ORIENTATIONS), len(x)), group=N_ORIENTATIONS, on_epoch=keep_best)
    if not all(np.isfinite(a).all() for a in (*best_state.weights, *best_state.biases, best_losses)):
        raise RuntimeError(f"pretext learning rate diverged: kept epoch {best_epoch} has non-finite weights or losses "
                           f"(learning_rate {config.learning_rate}, decay_factor {config.decay_factor}, "
                           f"init_scale {config.init_scale})")
    records = [LossRecord(sid, loss) for sid, loss in zip(unlabeled.ids.tolist(), best_losses.tolist())]
    return best_state, PretextReport(best_epoch, len(trace), best_hits / (N_ORIENTATIONS * len(x)), records)


def extract_losses(state: LearnerState, unlabeled: Pool) -> list[LossRecord]:
    """Averaged rotation loss per sample, in pool order.

    For each sample all four orientations are fed through the model and
    the four cross-entropies against the true orientation are averaged,
    one orientation and _EVAL_CHUNK samples at a time, in the pass that
    `train_pretext` evaluates every epoch with. A function of (state, pool):
    the pool's pixels are turned in place during the pass and are bit for bit
    the same when it returns or raises; read-only pixels are turned in a copy.
    `check_model` runs before any forward pass.
    """
    x = unlabeled.x
    check_model(state.config, x.shape[1:])
    return [LossRecord(sid, loss) for sid, loss in zip(unlabeled.ids.tolist(), _rotation_pass(state, x)[1].tolist())]


def write_loss_records(path, records: list[LossRecord]) -> None:
    """CSV contract file `sample_id,pretext_loss`."""
    write_csv(path, ["sample_id", "pretext_loss"], [(rec.sample_id, rec.loss) for rec in records])


class LossRecordError(ValueError):
    """Loss records that break the contract: one finite, nonnegative loss per pool sample."""


def read_loss_records(path) -> list[LossRecord]:
    """Parse a loss-record CSV, rejecting bad losses and repeated sample ids."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["sample_id", "pretext_loss"]:
                raise LossRecordError(f"{path}: not a loss-record file")
            # unpacking rejects a row without exactly two fields
            records = [LossRecord(int(sid), float(loss)) for sid, loss in filter(None, reader)]
        except UnicodeDecodeError as exc:
            raise LossRecordError(f"{path}: not UTF-8 text: {exc}") from exc
        except LossRecordError:
            raise
        except ValueError as exc:
            raise LossRecordError(f"{path}: malformed loss record: {exc}") from exc
    _check_records(records, path)
    return records


def _check_records(records: list[LossRecord], source) -> None:
    """Raise LossRecordError, naming `source`, unless every loss is finite and >= 0 and no sample id repeats."""
    seen: set[int] = set()
    for rec in records:
        if not (math.isfinite(rec.loss) and rec.loss >= 0):
            raise LossRecordError(f"{source}: invalid loss for sample {rec.sample_id}")
        if rec.sample_id in seen:
            raise LossRecordError(f"{source}: repeated sample id {rec.sample_id}")
        seen.add(rec.sample_id)


def check_records_cover(records: list[LossRecord], pool_ids: list[int]) -> None:
    """Raise LossRecordError unless `records` hold exactly one valid entry per pool id."""
    _check_records(records, "loss records")
    named, pool = {r.sample_id for r in records}, set(pool_ids)
    missing, foreign = pool - named, named - pool
    if missing or foreign:
        raise LossRecordError(
            f"loss records do not cover the unlabeled pool: {len(missing)} pool samples have no record, "
            f"{len(foreign)} records name samples outside the pool"
        )
