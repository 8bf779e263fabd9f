"""Rotation-prediction pretext task: training and per-sample loss extraction.

The pretext model is a 4-way orientation classifier trained on all four
rotations of every unlabeled sample. Its per-sample loss (the average
cross-entropy over the four orientations) is the sorting key that drives
batch splitting in the active-learning loop.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import learner
from .config import ConfigError
from .data import Pool, rotate_batch, whole_numbers, write_csv
from .learner import LearnerConfig, LearnerState

N_ORIENTATIONS = 4

# Samples per forward pass of the one rotation pass that is both evaluation and
# extraction (the kept epoch's pass writes losses.csv). A pass runs in 512-row
# pieces (see learner._PIECE_ROWS), so it holds its logits and one piece of each
# hidden layer. The chunks are still part of the output: one pass over a pool with
# 1-255 samples past an 8,192-row boundary would add them to its last piece, where
# the chunks give them a piece of their own. The golden `pretext-two-extract-chunks`
# (8,320 samples) is such a pool.
_EVAL_CHUNK = 8192

# Images per step of the in-place quarter turn: the one temporary of the rotation pass.
_TURN_SLAB = 64


@dataclass(frozen=True, slots=True)
class LossRecord:
    """One sample's averaged rotation loss, the batch-split sorting key; a list of them may stand for LossArrays."""

    sample_id: int
    loss: float


@dataclass(eq=False)
class LossArrays:
    """Loss records as two aligned 1-d arrays, the form pt4al keeps them in.

    `ids` is int64 under `Pool`'s rule (`data.whole_numbers`): 2.0 is id 2, and 2.5 or an id
    outside int64 is a ValueError naming it. `losses` is float64.
    """

    ids: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        self.ids = whole_numbers(self.ids, "sample ids")
        self.losses = np.asarray(self.losses, dtype=np.float64)
        if self.ids.ndim != 1 or self.ids.shape != self.losses.shape:
            raise ValueError(f"loss records need ids and losses of one length, got {self.ids.shape} and "
                             f"{self.losses.shape}")

    def __len__(self) -> int:
        return len(self.ids)


def as_arrays(records: LossArrays | list[LossRecord]) -> LossArrays:
    """`records` as LossArrays: a LossRecord sequence is converted in its order, LossArrays pass as they are."""
    if isinstance(records, LossArrays):
        return records
    return LossArrays([r.sample_id for r in records], [r.loss for r in records])


@dataclass
class PretextReport:
    best_epoch: int
    epochs_run: int
    rotation_accuracy: float
    records: LossArrays


def _rotation_writer(x: np.ndarray):
    """write(samples, out): row 4*i + r of `out` becomes image x[samples][i] turned r quarter-turns.

    One gather per call; `order` holds in-range pixel positions, so "clip" only unbuffers np.take.
    """
    pixels = np.arange(np.prod(x.shape[1:])).reshape(x.shape[1:])
    order = np.stack([rotate_batch(pixels[None], r).ravel() for r in range(N_ORIENTATIONS)])
    flat = x.reshape(len(x), pixels.size)
    return lambda samples, out: np.take(flat[samples], order, axis=1, out=out.reshape(-1, *order.shape), mode="clip")


def _rotation_pass(state: LearnerState, x: np.ndarray) -> tuple[int, np.ndarray]:
    """(hits, per-sample mean loss) of `state` over the four rotations of every image in `x`.

    Orientation r outer, _EVAL_CHUNK samples inner; one forward pass per chunk gives both its
    argmax hits and its cross-entropies against r. The chunks are slices of `x` itself, which is
    turned a quarter in place, _TURN_SLAB images at a time, after each orientation, so four turns
    give it back bit for bit. When a pass or a turn raises, a `finally` turns on, slab by slab,
    until every image has turned zero or four times. Read-only pixels are turned in a private copy.
    """
    if not x.flags.writeable:
        x = x.copy()
    hits, totals = 0, np.zeros(len(x))
    turned = 0  # images turned a quarter so far, slab by slab in pool order, pass after pass

    def turn_until(total: int) -> None:
        nonlocal turned
        while turned < total:
            images = x[turned % len(x):turned % len(x) + _TURN_SLAB]
            images[...] = rotate_batch(images, 1)
            turned += len(images)

    try:
        for r in range(N_ORIENTATIONS):
            for start in range(0, len(x), _EVAL_CHUNK):
                logits = learner.predict_logits(state, x[start:start + _EVAL_CHUNK])
                hits += int(np.count_nonzero(logits.argmax(axis=1) == r))
                totals[start:start + len(logits)] += learner.logsumexp(logits) - logits[:, r]
            turn_until((r + 1) * len(x))
    finally:
        if turned:
            turn_until(N_ORIENTATIONS * len(x))
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
    learner.check_converged(config, "pretext", f"kept epoch {best_epoch} has non-finite weights or losses",
                            (*best_state.weights, *best_state.biases, best_losses))
    records = LossArrays(unlabeled.ids.copy(), best_losses)
    return best_state, PretextReport(best_epoch, len(trace), best_hits / (N_ORIENTATIONS * len(x)), records)


def extract_losses(state: LearnerState, unlabeled: Pool) -> LossArrays:
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
    return LossArrays(unlabeled.ids.copy(), _rotation_pass(state, x)[1])


_HEADER = ["sample_id", "pretext_loss"]


def write_loss_records(path, records: LossArrays) -> None:
    """CSV contract file `sample_id,pretext_loss`, one row per record, written straight from the arrays."""
    write_csv(path, _HEADER, zip(records.ids, records.losses))


class LossRecordError(ConfigError):
    """Loss records that break the contract: one finite, nonnegative loss per pool sample."""


def read_loss_records(path) -> LossArrays:
    """Parse a loss-record CSV, rejecting bad losses and repeated sample ids."""
    ids, losses = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header == _HEADER:
                for sid, loss in filter(None, reader):  # unpacking rejects a row without exactly two fields
                    ids.append(int(sid))
                    losses.append(float(loss))
            records = LossArrays(ids, losses)  # an id outside int64 is malformed like one that int() rejects
        except UnicodeDecodeError as exc:
            raise LossRecordError(f"{path}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            raise LossRecordError(f"{path}: malformed loss record: {exc}") from exc
    if header and header[0].startswith("\ufeff"):
        raise LossRecordError(f"{path}: unexpected UTF-8 byte-order mark; save the file as UTF-8 without one")
    if header != _HEADER:
        raise LossRecordError(f"{path}: not a loss-record file")
    _check_records(records, path)
    return records


def _check_records(records: LossArrays, source) -> None:
    """Raise LossRecordError, naming `source`, unless every loss is finite and >= 0 and no sample id repeats.

    The first faulty record in order is named, its loss checked before its id.
    """
    ids = records.ids
    bad_loss = ~(np.isfinite(records.losses) & (records.losses >= 0))
    by_id = np.argsort(ids, kind="stable")  # a repeat sorts after its first occurrence
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[by_id[1:]] = ids[by_id[1:]] == ids[by_id[:-1]]
    faults = np.flatnonzero(bad_loss | repeat)
    if faults.size:
        i = faults[0]
        raise LossRecordError(f"{source}: invalid loss for sample {ids[i]}" if bad_loss[i]
                              else f"{source}: repeated sample id {ids[i]}")


def check_records_cover(records: LossArrays | list[LossRecord], pool_ids) -> None:
    """Raise LossRecordError unless `records` hold exactly one valid entry per id of the unique `pool_ids`."""
    records = as_arrays(records)
    _check_records(records, "loss records")
    covered = np.count_nonzero(np.isin(records.ids, pool_ids))
    if covered != len(records) or covered != len(pool_ids):
        raise LossRecordError(
            f"loss records do not cover the unlabeled pool: {len(pool_ids) - covered} pool samples have no record, "
            f"{len(records) - covered} records name samples outside the pool"
        )
