"""Batch splitting and in-batch sample selection.

Loss records are sorted (high-loss-first by default), split into as many
equal batches as there are AL iterations, and each iteration selects K
samples inside its batch: uniform positions on the first iteration,
lowest top-1 confidence under the previous main model afterwards.
Entropy and seeded-random selection are provided as baselines.

Ties are broken by ascending sample id everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner
from .data import Pool, whole_numbers, write_csv
from .learner import LearnerState
from .pretext import LossArrays, LossRecord, as_arrays

ORDER_HIGH_FIRST = "high-loss-first"
ORDER_LOW_FIRST = "low-loss-first"
ORDER_RANDOM = "random"


@dataclass
class BatchPlan:
    """Ordered partition of the unlabeled ids into I batches."""

    batches: list[list[int]]
    order: str = ORDER_HIGH_FIRST


@dataclass
class QueryResult:
    """Ids selected in one AL iteration plus their per-id selection scores."""

    iteration: int
    selected: list[int]
    scores: list[float]

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("duplicate ids in query result")
        if len(self.scores) != len(self.selected):
            raise ValueError("scores must align with selected ids")


def _split(ids: np.ndarray, n_batches: int) -> list[list[int]]:
    """Contiguous batches of Python ints whose sizes differ by at most 1, the larger ones first."""
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if n_batches > len(ids):
        raise ValueError(f"cannot split {len(ids)} ids into {n_batches} batches")
    return [batch.tolist() for batch in np.array_split(ids, n_batches)]


def build_batch_plan(records: LossArrays | list[LossRecord], n_batches: int,
                     order: str = ORDER_HIGH_FIRST) -> BatchPlan:
    """Sort records by loss and split them contiguously into equal batches."""
    if order not in (ORDER_HIGH_FIRST, ORDER_LOW_FIRST):
        raise ValueError(f"unknown batch order {order!r}")
    records = as_arrays(records)
    sign = -1.0 if order == ORDER_HIGH_FIRST else 1.0
    ranked = records.ids[np.lexsort((records.ids, sign * records.losses))]
    return BatchPlan(_split(ranked, n_batches), order)


def build_random_plan(ids: np.ndarray | list[int], n_batches: int, seed: int) -> BatchPlan:
    """Seeded random segmentation of the ids (`data.whole_numbers`) into equal batches (the sampling-only ablation)."""
    perm = np.random.default_rng(seed).permutation(len(ids))
    return BatchPlan(_split(whole_numbers(ids, "sample ids")[perm], n_batches), ORDER_RANDOM)


def uniform_first_sample(batch: list[int], k: int, iteration: int = 1) -> QueryResult:
    """Even-interval positions floor(j * |batch| / K) within the ordered batch."""
    if not 1 <= k <= len(batch):
        raise ValueError(f"K={k} outside [1, {len(batch)}]")
    positions = [j * len(batch) // k for j in range(k)]
    return QueryResult(iteration, [batch[p] for p in positions], [float(p) for p in positions])


def _scored_pick(batch: Pool, model: LearnerState, k: int, iteration: int, score, sign: int) -> QueryResult:
    """The K ids with the smallest `sign * score(posteriors under model)`, ties by ascending id, with their scores."""
    if not 1 <= k <= len(batch):
        raise ValueError(f"K={k} outside [1, {len(batch)}]")
    scores = score(learner.predict_proba_batch(model, batch.x))
    order = np.lexsort((batch.ids, sign * scores))[:k]
    return QueryResult(iteration, batch.ids[order].tolist(), scores[order].tolist())


def uncertainty_sample(batch: Pool, model: LearnerState, k: int, iteration: int = 0) -> QueryResult:
    """K samples with the smallest top-1 posterior probability under `model`."""
    return _scored_pick(batch, model, k, iteration, lambda probs: probs.max(axis=1), 1)


def entropy_sample(batch: Pool, model: LearnerState, k: int, iteration: int = 0) -> QueryResult:
    """K samples with the highest Shannon entropy of the posterior (natural log)."""
    return _scored_pick(batch, model, k, iteration,  # 0 log 0 = 0
                        lambda p: -np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0), axis=1), -1)


def random_sample(ids: list[int], k: int, seed: int, iteration: int = 0) -> QueryResult:
    """Seeded uniform draw of K ids without replacement (permutation prefix)."""
    if not 1 <= k <= len(ids):
        raise ValueError(f"K={k} outside [1, {len(ids)}]")
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(ids))[:k]
    return QueryResult(iteration, [ids[i] for i in picks], [float(j) for j in range(k)])


def write_batch_plan(path, plan: BatchPlan) -> None:
    """CSV export `sample_id,batch_index,rank_in_batch`."""
    write_csv(path, ["sample_id", "batch_index", "rank_in_batch"],
              [(sid, bi, rank) for bi, batch in enumerate(plan.batches) for rank, sid in enumerate(batch)])


def write_query_results(path, queries: list[QueryResult]) -> None:
    """CSV export `iteration,sample_id,score` across all iterations."""
    write_csv(path, ["iteration", "sample_id", "score"],
              [(q.iteration, sid, score) for q in queries
               for sid, score in zip(q.selected, q.scores)])
