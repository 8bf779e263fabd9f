"""Rank-correlation diagnostics between pretext and main-task losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner, pretext
from .config import ConfigError
from .data import Pool, write_csv
from .learner import LearnerState


@dataclass(frozen=True)
class RankedPair:
    sample_id: int
    pretext_rank: float
    main_rank: float


@dataclass
class CorrelationReport:
    rho: float
    n: int
    scatter: list[RankedPair]


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing the average (fractional) rank."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("expected a nonempty 1-d sequence")
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # where each run of equal values starts
    last = np.r_[first[1:], len(arr)] - 1
    ranks = np.empty(len(arr))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average-rank vectors."""
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape or xa.ndim != 1:
        raise ValueError(f"inputs must be 1-d of equal length, got {xa.shape} and {xb.shape}")
    if len(xa) < 2:
        raise ValueError("need at least 2 observations")
    if np.all(xa == xa[0]) or np.all(xb == xb[0]):
        raise ValueError("rank correlation is undefined for constant input")
    ra = average_ranks(xa)
    rb = average_ranks(xb)
    da = ra - ra.mean()
    db = rb - rb.mean()
    rho = float(np.dot(da, db) / np.sqrt(np.dot(da, da) * np.dot(db, db)))
    return max(-1.0, min(1.0, rho))


def normalized_rank(values) -> list[float]:
    """Average ranks mapped to [0, 1]; extremes hit 0 and 1, ties share a value."""
    ranks = average_ranks(values)
    if len(ranks) == 1:
        return [0.5]
    return [float(r) for r in (ranks - 1.0) / (len(ranks) - 1.0)]


def correlation_report(
    pretext_model: LearnerState,
    main_model: LearnerState,
    eval_pool: Pool,
    scatter_cap: int = 1000,
    scatter_seed: int = 0,
) -> CorrelationReport:
    """Spearman rho between per-sample pretext and main-task losses.

    Both losses are computed on the same evaluation pool, which must be
    labeled. rho uses the full pool; the scatter is a seeded subsample of
    at most `scatter_cap` normalized-rank pairs for plotting. If either
    model gives every sample the same loss, rho is undefined: that raises
    ConfigError naming the model and its `learning_rate` and `init_scale`.
    `pretext.extract_losses` turns `eval_pool`'s pixels in place and back,
    so no other thread may use the pool during the call.
    """
    if eval_pool.y is None:
        raise ValueError("correlation report requires a labeled evaluation pool")
    pretext_losses = pretext.extract_losses(pretext_model, eval_pool).losses
    main_losses = learner.per_sample_losses(main_model, eval_pool.x, eval_pool.y)
    for role, model, losses in (("pretext", pretext_model, pretext_losses), ("main", main_model, main_losses)):
        if len(losses) > 1 and np.all(losses == losses[0]):
            raise ConfigError(f"the {role} losses of all {len(losses)} test samples are equal, so their rank "
                              f"correlation is undefined ({role} learning_rate {model.config.learning_rate}, "
                              f"init_scale {model.config.init_scale})")
    rho = spearman_rho(pretext_losses, main_losses)

    p_ranks = normalized_rank(pretext_losses)
    m_ranks = normalized_rank(main_losses)
    ids = eval_pool.ids.tolist()
    n = len(ids)
    if n > scatter_cap:
        rng = np.random.default_rng(scatter_seed)
        keep = sorted(rng.choice(n, size=scatter_cap, replace=False))
    else:
        keep = range(n)
    scatter = [RankedPair(ids[i], p_ranks[i], m_ranks[i]) for i in keep]
    return CorrelationReport(rho=rho, n=n, scatter=scatter)


def write_scatter_csv(path, report: CorrelationReport) -> None:
    """CSV export `sample_id,pretext_rank,main_rank` of the scatter subsample."""
    write_csv(path, ["sample_id", "pretext_rank", "main_rank"],
              [(p.sample_id, p.pretext_rank, p.main_rank) for p in report.scatter])
