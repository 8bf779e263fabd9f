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
from .data import Pool, rotate_batch
from .learner import LearnerConfig, LearnerState

N_ORIENTATIONS = 4

_EVAL_CHUNK = 8192


@dataclass(frozen=True)
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


def _rotation_dataset(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Row 4*s + r holds rotation r of sample s, so a sample's rows are adjacent.
    rots = np.stack([rotate_batch(x, r) for r in range(N_ORIENTATIONS)], axis=1)
    flat_x = rots.reshape(len(x) * N_ORIENTATIONS, *x.shape[1:])
    flat_y = np.tile(np.arange(N_ORIENTATIONS), len(x))
    return flat_x, flat_y


def _rotation_accuracy(state: LearnerState, flat_x: np.ndarray, flat_y: np.ndarray) -> float:
    hits = 0
    for start in range(0, len(flat_x), _EVAL_CHUNK):
        chunk = slice(start, start + _EVAL_CHUNK)
        preds = learner.predict_logits(state, flat_x[chunk]).argmax(axis=1)
        hits += int(np.sum(preds == flat_y[chunk]))
    return hits / len(flat_x)


def train_pretext(unlabeled: Pool, config: LearnerConfig) -> tuple[LearnerState, PretextReport]:
    """Train the 4-way rotation classifier on all rotations of the pool.

    After every epoch the rotation accuracy is evaluated on the same pool
    (all four orientations) and the best-accuracy checkpoint is kept; ties
    go to the earliest epoch, and only post-epoch states are candidates.
    `config.epochs` is an upper bound: training stops after the first
    epoch with rotation accuracy 1.0, since no later epoch can beat it.
    The four orientations of one sample always share a minibatch. Returns
    the best state and a report whose loss records are extracted with that
    state, in pool order.
    """
    if config.n_classes != N_ORIENTATIONS:
        raise ValueError(f"pretext model must have {N_ORIENTATIONS} classes, got {config.n_classes}")
    flat_x, flat_y = _rotation_dataset(unlabeled.x)
    best_acc, best_epoch, best_state = -1.0, -1, None

    def keep_best(epoch: int, state: LearnerState) -> bool:
        nonlocal best_acc, best_epoch, best_state
        acc = _rotation_accuracy(state, flat_x, flat_y)
        if acc > best_acc:
            best_acc, best_epoch, best_state = acc, epoch, state.copy()
        return acc == 1.0

    _, trace = learner.train(learner.init_learner(config), flat_x, flat_y,
                             group=N_ORIENTATIONS, on_epoch=keep_best)
    return best_state, PretextReport(best_epoch=best_epoch, epochs_run=len(trace), rotation_accuracy=best_acc,
                                     records=extract_losses(best_state, unlabeled))


def extract_losses(state: LearnerState, unlabeled: Pool) -> list[LossRecord]:
    """Averaged rotation loss per sample, in pool order.

    For each sample all four orientations are fed through the model and
    the four cross-entropies against the true orientation are averaged.
    Pure function of (state, pool).
    """
    if state.config.n_classes != N_ORIENTATIONS:
        raise ValueError(f"expected a {N_ORIENTATIONS}-class rotation model, got {state.config.n_classes} classes")
    if len(unlabeled) == 0:
        return []
    x = unlabeled.x
    if x.shape[1] != x.shape[2]:
        raise ValueError("pretext loss extraction requires square images")
    totals = np.zeros(len(x))
    for r in range(N_ORIENTATIONS):
        xr = rotate_batch(x, r)
        yr = np.full(len(x), r, dtype=np.int64)
        for start in range(0, len(x), _EVAL_CHUNK):
            chunk = slice(start, start + _EVAL_CHUNK)
            totals[chunk] += learner.per_sample_losses(state, xr[chunk], yr[chunk])
    totals /= N_ORIENTATIONS
    return [LossRecord(sid, loss) for sid, loss in zip(unlabeled.ids.tolist(), totals.tolist())]


def write_loss_records(path, records: list[LossRecord]) -> None:
    """CSV contract file `sample_id,pretext_loss` with 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "pretext_loss"])
        for rec in records:
            writer.writerow([rec.sample_id, f"{rec.loss:.12g}"])


class LossRecordError(ValueError):
    """Loss records that break the contract: one finite, nonnegative loss per pool sample."""


def read_loss_records(path) -> list[LossRecord]:
    """Parse a loss-record CSV, rejecting bad losses and repeated sample ids."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "pretext_loss"]:
            raise LossRecordError(f"{path}: not a loss-record file")
        try:
            records = [LossRecord(int(row[0]), float(row[1])) for row in reader if row]
        except (ValueError, IndexError) as exc:
            raise LossRecordError(f"{path}: malformed loss record: {exc}") from exc
    seen: set[int] = set()
    for rec in records:
        if not np.isfinite(rec.loss) or rec.loss < 0:
            raise LossRecordError(f"{path}: invalid loss for sample {rec.sample_id}")
        if rec.sample_id in seen:
            raise LossRecordError(f"{path}: repeated sample id {rec.sample_id}")
        seen.add(rec.sample_id)
    return records


def check_records_cover(records: list[LossRecord], pool_ids: list[int]) -> None:
    """Raise LossRecordError unless `records` hold exactly one entry per pool id."""
    ids = [r.sample_id for r in records]
    named, pool = set(ids), set(pool_ids)
    if len(named) != len(ids):
        raise LossRecordError("loss records repeat a sample id")
    missing, foreign = pool - named, named - pool
    if missing or foreign:
        raise LossRecordError(
            f"loss records do not cover the unlabeled pool: {len(missing)} pool samples have no record, "
            f"{len(foreign)} records name samples outside the pool"
        )
