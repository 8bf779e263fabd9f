"""Active-learning iteration cycle, experiment protocols, and ablations.

A run builds the dataset, optionally trains the rotation pretext model to
obtain the batch plan, then iterates: select K samples from the current
batch with their labels hidden, then read those labels from the train pool
(the simulated annotator), retrain the main classifier from scratch on
everything labeled so far, and evaluate on the held-out test split.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import learner, pretext
from .config import ConfigError, check_fields, declare
from .data import DatasetSpec, Pool, build_dataset, write_csv
from .learner import LearnerConfig, LearnerState
from .pretext import N_ORIENTATIONS, LossArrays, LossRecord, PretextReport, check_records_cover, train_pretext
from .sampler import (
    ORDER_HIGH_FIRST,
    ORDER_LOW_FIRST,
    ORDER_RANDOM,
    BatchPlan,
    QueryResult,
    build_batch_plan,
    build_random_plan,
    entropy_sample,
    random_sample,
    uncertainty_sample,
    uniform_first_sample,
)
from .seeds import derive_seed

# strategy -> (batch plan order or None, round-1 rule, later-round rule).
# A strategy without a plan selects from every unlabeled sample; one with a
# plan selects from batch i in round i. Rules: "uniform" takes even-interval
# positions, "head"/"tail" the first/last K of the batch, "random" a seeded
# draw, "confidence"/"entropy" score the candidates under the previous
# round's model. Rules are names, so each call resolves the sampler
# function through this module's globals at call time.
STRATEGY_TABLE: dict[str, tuple[str | None, str, str]] = {
    "pt4al": (ORDER_HIGH_FIRST, "uniform", "confidence"),
    "random": (None, "random", "random"),
    "entropy": (None, "random", "entropy"),
    "pt4al-sampling-only": (ORDER_RANDOM, "head", "entropy"),
    "pt4al-pretext-only-high": (ORDER_HIGH_FIRST, "head", "head"),
    "pt4al-pretext-only-low": (ORDER_HIGH_FIRST, "tail", "tail"),
    "pt4al-low-loss-first": (ORDER_LOW_FIRST, "uniform", "confidence"),
}

STRATEGIES = tuple(STRATEGY_TABLE)

# Strategies whose batch plan comes from pretext losses.
PRETEXT_STRATEGIES = tuple(s for s, (order, _, _) in STRATEGY_TABLE.items()
                           if order in (ORDER_HIGH_FIRST, ORDER_LOW_FIRST))

# The component ablations of the full method, named without the prefix.
ABLATION_VARIANTS = {s.removeprefix("pt4al-"): s for s in STRATEGIES if s.startswith("pt4al-")}


def default_pretext_config() -> LearnerConfig:
    return LearnerConfig(hidden=(128, 64), learning_rate=0.3, epochs=12, batch_size=64)


def default_main_config() -> LearnerConfig:
    return LearnerConfig(hidden=(128, 64), learning_rate=0.3, epochs=60, batch_size=16)


@dataclass(frozen=True)
class ALConfig:
    """The AL budget and strategy; the sections and the seed are top-level keys of a config file."""

    iterations: int = declare(5, "[1, inf)")
    budget: int = declare(100, "[1, inf)")
    strategy: str = declare("pt4al", STRATEGIES)
    dataset: DatasetSpec = declare(factory=DatasetSpec, derived=True)
    pretext: LearnerConfig = declare(factory=default_pretext_config, derived=True)
    main: LearnerConfig = declare(factory=default_main_config, derived=True)
    seed: int = declare(0, derived=True)

    def validate(self) -> None:
        """Check every declared value, then the dataset's cross-field rules."""
        check_fields(self)
        self.dataset.validate()


@dataclass
class IterationReport:
    """One AL iteration: what was picked and how the retrained model scored."""

    iteration: int
    selected_ids: list[int]
    selection_scores: list[float]
    labeled_size: int
    test_accuracy: float
    class_histogram: list[int]
    hist_entropy: float
    wall_time: float


@dataclass
class ColdStartSummary:
    """First-iteration accuracies per seed for PT4AL and the random baseline."""

    seeds: list[int]
    pt4al_accuracies: list[float]
    random_accuracies: list[float]
    pt4al_selection: list[int]

    def stats(self, method: str) -> dict[str, float]:
        accs = {"pt4al": self.pt4al_accuracies, "random": self.random_accuracies}[method]
        arr = np.asarray(accs)
        return {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }


def normalized_histogram_entropy(histogram: list[int]) -> float:
    """Entropy of the class histogram divided by ln(n_classes); 1 = balanced."""
    total = sum(histogram)
    probs = [h / total for h in histogram if h > 0]
    if len(probs) < 2:  # +0.0: the sum below gives -0.0 for one class
        return 0.0
    ent = -sum(p * math.log(p) for p in probs)
    return ent / math.log(len(histogram))


def pretext_model(config: ALConfig, unlabeled: Pool) -> tuple[LearnerState, PretextReport]:
    """Train this config's rotation model on the unlabeled pool."""
    cfg = replace(config.pretext, input_shape=unlabeled.x.shape[1:], n_classes=N_ORIENTATIONS,
                  seed=derive_seed(config.seed, "pretext"))
    return train_pretext(unlabeled, cfg)


def train_main(config: ALConfig, labeled: Pool, n_classes: int, seed: int) -> LearnerState:
    """Train this config's main classifier from scratch on a labeled pool.

    A non-finite epoch loss or final weight raises RuntimeError (exit 2 from the CLI).
    """
    cfg = replace(config.main, input_shape=labeled.x.shape[1:], n_classes=n_classes, seed=seed)
    trained, trace = learner.train(learner.init_learner(cfg), labeled.x, labeled.y)
    learner.check_converged(cfg, "main", f"non-finite epoch loss or final weights, epoch losses {trace[0]:.4g} ... "
                            f"{trace[-1]:.4g} over {len(trace)} epochs", (trace, *trained.weights, *trained.biases))
    return trained


def check_learners_fit(config: ALConfig, train_pool: Pool) -> None:
    """Raise ConfigError unless both learners fit the dataset; call it before any training."""
    shape = train_pool.x.shape[1:]
    for name, cfg, n_classes in (("pretext", config.pretext, N_ORIENTATIONS),
                                 ("main", config.main, train_pool.n_classes)):
        try:
            replace(cfg, input_shape=shape, n_classes=n_classes).validate()
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc


def _prepare(config: ALConfig) -> tuple[Pool, Pool, Pool, int]:
    """Validate, build the dataset, check both learners and the budget, before any training.

    Returns (train pool, test pool, train pool unlabeled, classes). The train ids
    ascend, so `_find` looks ids up by bisection.
    """
    config.validate()
    train_pool, test_pool = build_dataset(config.dataset, config.seed)
    check_learners_fit(config, train_pool)
    if config.iterations * config.budget > len(train_pool):
        raise ConfigError(
            f"budget {config.iterations} x {config.budget} exceeds unlabeled pool size {len(train_pool)}"
        )
    if np.any(np.diff(train_pool.ids) <= 0):
        raise RuntimeError("train pool ids do not ascend")
    return train_pool, test_pool, train_pool.unlabeled(), train_pool.n_classes


def _find(ids: np.ndarray, wanted) -> np.ndarray:
    """Positions of the `wanted` ids among the ascending `ids`, such as those of the rows not yet picked."""
    wanted = np.asarray(wanted, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, wanted), len(ids) - 1)
    missing = ids[pos] != wanted
    if missing.any():
        raise RuntimeError(f"selected id {wanted[missing][0]} is already labeled")
    return pos


def _label_rows(pool: Pool, n_labeled: int, picked: np.ndarray) -> int:
    """Move the rows at positions `picked` after the first `n_labeled` of `pool` into that prefix, in place.

    The picks land at [n_labeled, n_labeled + K) in the order of `picked`.
    The unpicked rows before the last pick move back run by run, from the
    last run, and keep their order, so the ids after the prefix still
    ascend. `picked` holds no repeats (`QueryResult` rejects them).
    Returns the new prefix length.
    """
    at = n_labeled + picked
    picks = pool.ids[at], pool.y[at], pool.x[at]
    cut = [n_labeled - 1, *np.sort(at).tolist()]
    # 1-D views: numpy moves an overlapping 1-D slice without a temporary copy.
    x = np.reshape(pool.x, -1, copy=False)
    row = x.size // len(pool)
    dst = cut[-1] + 1
    for start, stop in reversed(list(zip(cut, cut[1:]))):
        start += 1
        end = dst - (stop - start)
        pool.ids[end:dst] = pool.ids[start:stop]
        pool.y[end:dst] = pool.y[start:stop]
        x[end * row:dst * row] = x[start * row:stop * row]
        dst = end
    pool.ids[n_labeled:dst], pool.y[n_labeled:dst], pool.x[n_labeled:dst] = picks
    return dst


def _build_plan(config: ALConfig, unlabeled: Pool,
                loss_records: LossArrays | list[LossRecord] | None) -> BatchPlan | None:
    order = STRATEGY_TABLE[config.strategy][0]
    if order is None:
        return None
    if order == ORDER_RANDOM:
        # The segmentation shares the iteration-1 sampling substream, so the
        # head of the first batch coincides with the random strategy's first
        # draw: the two first iterations are identical by construction.
        return build_random_plan(unlabeled.ids, config.iterations, derive_seed(config.seed, "sampling", 1))
    if loss_records is None:
        loss_records = pretext_model(config, unlabeled)[1].records
    else:
        loss_records = pretext.as_arrays(loss_records)
        check_records_cover(loss_records, unlabeled.ids)
    return build_batch_plan(loss_records, config.iterations, order)


def _select(config: ALConfig, iteration: int, remaining: Pool, batch, model: LearnerState | None) -> QueryResult:
    """This round's rule over the positions `batch` of the remaining pool, or over all of it.

    Only the scoring rules read pixels; they gather a plan's batch and read a
    plan-less round's rows in place.
    """
    _, first, later = STRATEGY_TABLE[config.strategy]
    rule = first if iteration == 1 else later
    k = config.budget
    if rule in ("confidence", "entropy"):
        scorer = uncertainty_sample if rule == "confidence" else entropy_sample
        return scorer(remaining if batch is None else remaining.take(batch), model, k, iteration)
    ids = (remaining.ids if batch is None else remaining.ids[batch]).tolist()
    if rule == "random":
        return random_sample(ids, k, derive_seed(config.seed, "sampling", iteration), iteration)
    if rule == "uniform":
        return uniform_first_sample(ids, k, iteration)
    # _prepare's budget check leaves every plan batch at least k ids.
    picked = ids[:k] if rule == "head" else ids[len(ids) - k:]
    return QueryResult(iteration, picked, [float(r) for r in range(k)])


def run_al(config: ALConfig, loss_records: LossArrays | list[LossRecord] | None = None) -> list[IterationReport]:
    """Execute the full AL cycle and return one report per iteration.

    `loss_records` short-circuits the pretext phase for strategies that
    need a loss-sorted plan (the CSV contract produced by the pretext
    command); they must cover exactly the unlabeled pool.

    The labeled rows are a prefix of the train pool's own arrays, in
    selection order, and the rows not yet picked follow them in id order;
    each round moves its picks to the end of the prefix (`_label_rows`).
    """
    train_pool, test_pool, unlabeled, n_classes = _prepare(config)
    plan = _build_plan(config, unlabeled, loss_records)

    n_labeled = 0
    prev_model: LearnerState | None = None
    reports: list[IterationReport] = []

    for iteration in range(1, config.iterations + 1):
        tic = time.perf_counter()
        remaining = Pool(train_pool.ids[n_labeled:], train_pool.x[n_labeled:])  # labels hidden
        batch = None if plan is None else _find(remaining.ids, plan.batches[iteration - 1])
        query = _select(config, iteration, remaining, batch, prev_model)
        n_labeled = _label_rows(train_pool, n_labeled, _find(remaining.ids, query.selected))

        labeled_pool = Pool(train_pool.ids[:n_labeled], train_pool.x[:n_labeled], train_pool.y[:n_labeled])
        model = train_main(config, labeled_pool, n_classes, derive_seed(config.seed, "main", iteration))
        hist = labeled_pool.class_histogram(n_classes)
        reports.append(
            IterationReport(
                iteration=iteration,
                selected_ids=list(query.selected),
                selection_scores=list(query.scores),
                labeled_size=n_labeled,
                test_accuracy=learner.accuracy(model, test_pool.x, test_pool.y),
                class_histogram=hist,
                hist_entropy=normalized_histogram_entropy(hist),
                wall_time=time.perf_counter() - tic,
            )
        )
        prev_model = model
    return reports


def run_ablation(config: ALConfig, variant: str) -> list[IterationReport]:
    """Run one of the component-ablation variants of the full method."""
    strategy = ABLATION_VARIANTS.get(variant)
    if strategy is None:
        raise ConfigError(f"unknown ablation variant {variant!r}; choose from {sorted(ABLATION_VARIANTS)}")
    return run_al(replace(config, strategy=strategy))


def cold_start_experiment(config: ALConfig, seeds: list[int]) -> ColdStartSummary:
    """First-iteration comparison of PT4AL vs random over several seeds.

    The dataset and the pretext model are fixed by the config seed, so the
    PT4AL selection (uniform positions in the first batch) is identical
    across seeds; per-seed variation comes from main-task training
    randomness and, for the baseline, the random selection itself.
    """
    if len(seeds) < 2:
        raise ConfigError("coldstart needs at least 2 seeds")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"coldstart seed {repeated[0]} is repeated; each seed must be a separate run")
    train_pool, test_pool, unlabeled, n_classes = _prepare(config)

    _, report = pretext_model(config, unlabeled)
    plan = build_batch_plan(report.records, config.iterations, ORDER_HIGH_FIRST)
    pt4al_query = uniform_first_sample(plan.batches[0], config.budget)

    def first_iteration_accuracy(selected: list[int], train_seed: int) -> float:
        labeled = train_pool.take(_find(train_pool.ids, selected))
        model = train_main(config, labeled, n_classes, train_seed)
        return learner.accuracy(model, test_pool.x, test_pool.y)

    pt4al_accs: list[float] = []
    random_accs: list[float] = []
    for seed in seeds:
        pt4al_accs.append(first_iteration_accuracy(pt4al_query.selected, derive_seed(seed, "cold", "main")))
        rand_query = random_sample(unlabeled.ids.tolist(), config.budget, derive_seed(seed, "cold", "sampling"), 1)
        random_accs.append(first_iteration_accuracy(rand_query.selected, derive_seed(seed, "cold", "main")))
    return ColdStartSummary(
        seeds=list(seeds),
        pt4al_accuracies=pt4al_accs,
        random_accuracies=random_accs,
        pt4al_selection=list(pt4al_query.selected),
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def write_reports_csv(path, reports: list[IterationReport]) -> None:
    """Deterministic per-iteration CSV; wall time is deliberately excluded."""
    write_csv(path, ["iteration", "accuracy", "labeled_size", "hist_entropy", "class_histogram"],
              [(r.iteration, r.test_accuracy, r.labeled_size, r.hist_entropy, ";".join(map(str, r.class_histogram)))
               for r in reports])


def reports_to_queries(reports: list[IterationReport]) -> list[QueryResult]:
    return [QueryResult(r.iteration, list(r.selected_ids), list(r.selection_scores)) for r in reports]
