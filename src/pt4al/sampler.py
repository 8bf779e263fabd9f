"""Batch splitting and in-batch sample selection.

Loss records are sorted (high-loss-first by default), split into as many
equal batches as there are AL iterations, and each iteration selects K
samples inside its batch: uniform positions on the first iteration,
lowest top-1 confidence under the previous main model afterwards.
Entropy and seeded-random selection are provided as baselines.

Ties are broken by ascending sample id everywhere.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import learner
from .data import Pool
from .learner import LearnerState
from .pretext import LossRecord

ORDER_HIGH_FIRST = "high-loss-first"
ORDER_LOW_FIRST = "low-loss-first"
ORDER_RANDOM = "random"
_ORDERS = (ORDER_HIGH_FIRST, ORDER_LOW_FIRST, ORDER_RANDOM)


@dataclass
class BatchPlan:
    """Ordered partition of the unlabeled ids into I batches."""

    batches: list[list[int]]
    order: str = ORDER_HIGH_FIRST

    def __post_init__(self):
        if self.order not in _ORDERS:
            raise ValueError(f"unknown batch order {self.order!r}")

    @property
    def n_batches(self) -> int:
        return len(self.batches)


@dataclass
class QueryResult:
    """Ids selected in one AL iteration plus their per-id selection scores."""

    iteration: int
    selected: list[int]
    scores: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("duplicate ids in query result")
        if self.scores and len(self.scores) != len(self.selected):
            raise ValueError("scores must align with selected ids")


def _equal_sizes(n: int, parts: int) -> list[int]:
    # Remainder goes to the earliest batches, so sizes differ by at most 1.
    base, extra = divmod(n, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def build_batch_plan(records: list[LossRecord], n_batches: int, order: str = ORDER_HIGH_FIRST) -> BatchPlan:
    """Sort records by loss and split them contiguously into equal batches."""
    if order not in (ORDER_HIGH_FIRST, ORDER_LOW_FIRST):
        raise ValueError(f"unknown batch order {order!r}")
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if n_batches > len(records):
        raise ValueError(f"cannot split {len(records)} records into {n_batches} batches")
    if order == ORDER_HIGH_FIRST:
        ranked = sorted(records, key=lambda r: (-r.loss, r.sample_id))
    else:
        ranked = sorted(records, key=lambda r: (r.loss, r.sample_id))
    batches: list[list[int]] = []
    start = 0
    for size in _equal_sizes(len(ranked), n_batches):
        batches.append([r.sample_id for r in ranked[start:start + size]])
        start += size
    return BatchPlan(batches, order)


def build_random_plan(ids: list[int], n_batches: int, seed: int) -> BatchPlan:
    """Seeded random segmentation into equal batches (the sampling-only ablation)."""
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if n_batches > len(ids):
        raise ValueError(f"cannot split {len(ids)} ids into {n_batches} batches")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    batches: list[list[int]] = []
    start = 0
    for size in _equal_sizes(len(ids), n_batches):
        batches.append(shuffled[start:start + size])
        start += size
    return BatchPlan(batches, ORDER_RANDOM)


def uniform_first_sample(batch: list[int], k: int, iteration: int = 1) -> QueryResult:
    """Even-interval positions floor(j * |batch| / K) within the ordered batch."""
    if not 1 <= k <= len(batch):
        raise ValueError(f"K={k} outside [1, {len(batch)}]")
    positions = [j * len(batch) // k for j in range(k)]
    return QueryResult(iteration, [batch[p] for p in positions], [float(p) for p in positions])


def uncertainty_sample(batch: Pool, model: LearnerState, k: int, iteration: int = 0) -> QueryResult:
    """K samples with the smallest top-1 posterior probability under `model`."""
    if not 1 <= k <= len(batch):
        raise ValueError(f"K={k} outside [1, {len(batch)}]")
    probs = learner.predict_proba_batch(model, batch.x)
    conf = probs.max(axis=1)
    order = np.lexsort((batch.ids, conf))[:k]
    return QueryResult(iteration, [int(batch.ids[i]) for i in order], [float(conf[i]) for i in order])


def entropy_sample(batch: Pool, model: LearnerState, k: int, iteration: int = 0) -> QueryResult:
    """K samples with the highest Shannon entropy of the posterior (natural log)."""
    if not 1 <= k <= len(batch):
        raise ValueError(f"K={k} outside [1, {len(batch)}]")
    probs = learner.predict_proba_batch(model, batch.x)
    ent = -np.sum(np.where(probs > 0, probs * np.log(probs), 0.0), axis=1)
    order = np.lexsort((batch.ids, -ent))[:k]
    return QueryResult(iteration, [int(batch.ids[i]) for i in order], [float(ent[i]) for i in order])


def random_sample(ids: list[int], k: int, seed: int, iteration: int = 0) -> QueryResult:
    """Seeded uniform draw of K ids without replacement (permutation prefix)."""
    if not 1 <= k <= len(ids):
        raise ValueError(f"K={k} outside [1, {len(ids)}]")
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(ids))[:k]
    return QueryResult(iteration, [ids[i] for i in picks], [float(j) for j in range(k)])


def write_batch_plan(path, plan: BatchPlan) -> None:
    """CSV export `sample_id,batch_index,rank_in_batch`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "batch_index", "rank_in_batch"])
        for bi, batch in enumerate(plan.batches):
            for rank, sid in enumerate(batch):
                writer.writerow([sid, bi, rank])


def write_query_results(path, queries: list[QueryResult]) -> None:
    """CSV export `iteration,sample_id,score` across all iterations."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "sample_id", "score"])
        for q in queries:
            scores = q.scores if q.scores else [0.0] * len(q.selected)
            for sid, score in zip(q.selected, scores):
                writer.writerow([q.iteration, sid, f"{score:.12g}"])
