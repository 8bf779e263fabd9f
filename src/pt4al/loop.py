"""Active-learning iteration cycle, experiment protocols, and ablations.

A run builds the dataset, optionally trains the rotation pretext model to
obtain the batch plan, then iterates: select K samples from the current
batch, reveal their labels through the simulated oracle, retrain the main
classifier from scratch on everything labeled so far, and evaluate on the
held-out test split.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import learner, sampler
from .data import (
    Pool,
    Sample,
    gen_synthetic,
    imbalance_ramp,
    load_idx,
    make_imbalanced,
    split_train_test,
    unlabeled_view,
)
from .learner import LearnerConfig, LearnerState
from .pretext import LossRecord, check_records_cover, train_pretext
from .sampler import (
    ORDER_HIGH_FIRST,
    ORDER_LOW_FIRST,
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

STRATEGY_PT4AL = "pt4al"
STRATEGY_RANDOM = "random"
STRATEGY_ENTROPY = "entropy"
STRATEGY_SAMPLING_ONLY = "pt4al-sampling-only"
STRATEGY_PRETEXT_ONLY_HIGH = "pt4al-pretext-only-high"
STRATEGY_PRETEXT_ONLY_LOW = "pt4al-pretext-only-low"
STRATEGY_LOW_LOSS_FIRST = "pt4al-low-loss-first"

STRATEGIES = (
    STRATEGY_PT4AL,
    STRATEGY_RANDOM,
    STRATEGY_ENTROPY,
    STRATEGY_SAMPLING_ONLY,
    STRATEGY_PRETEXT_ONLY_HIGH,
    STRATEGY_PRETEXT_ONLY_LOW,
    STRATEGY_LOW_LOSS_FIRST,
)

# Strategies whose batch plan comes from pretext losses.
PRETEXT_STRATEGIES = (
    STRATEGY_PT4AL,
    STRATEGY_PRETEXT_ONLY_HIGH,
    STRATEGY_PRETEXT_ONLY_LOW,
    STRATEGY_LOW_LOSS_FIRST,
)

ABLATION_VARIANTS = {
    "sampling-only": STRATEGY_SAMPLING_ONLY,
    "pretext-only-high": STRATEGY_PRETEXT_ONLY_HIGH,
    "pretext-only-low": STRATEGY_PRETEXT_ONLY_LOW,
    "low-loss-first": STRATEGY_LOW_LOSS_FIRST,
}


@dataclass(frozen=True)
class DatasetSpec:
    """Where the corpus comes from and how it is split."""

    kind: str = "synthetic"  # "synthetic" | "idx"
    classes: int = 4
    n_per_class: int = 1250
    size: int = 12
    noise: float = 1.0
    test_fraction: float = 0.2
    images: str | None = None
    labels: str | None = None
    imbalance_counts: tuple[int, ...] | None = None
    imbalance_factor: float | None = None

    def validate(self) -> None:
        if self.kind not in ("synthetic", "idx"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "idx" and (self.images is None or self.labels is None):
            raise ValueError("idx dataset requires both image and label paths")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test fraction must lie in (0, 1)")
        if self.imbalance_counts is not None and self.imbalance_factor is not None:
            raise ValueError("set either imbalance_counts or imbalance_factor, not both")


def default_pretext_config() -> LearnerConfig:
    return LearnerConfig(hidden=(128, 64), learning_rate=0.3, epochs=12, batch_size=64)


def default_main_config() -> LearnerConfig:
    return LearnerConfig(hidden=(128, 64), learning_rate=0.3, epochs=60, batch_size=16)


@dataclass(frozen=True)
class ALConfig:
    iterations: int = 5
    budget: int = 100
    strategy: str = STRATEGY_PT4AL
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    pretext: LearnerConfig = field(default_factory=default_pretext_config)
    main: LearnerConfig = field(default_factory=default_main_config)
    seed: int = 0

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.budget < 1:
            raise ValueError("per-iteration budget must be >= 1")
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


class Oracle:
    """Simulated annotator over the master dataset's ground-truth labels."""

    def __init__(self, master: Pool):
        if any(s.label is None for s in master.samples):
            raise ValueError("oracle requires ground-truth labels for every sample")
        self._labels = {s.id: s.label for s in master.samples}
        self._revealed: dict[int, int] = {}

    def oracle_label(self, sample_id: int) -> int:
        """Reveal the true label; repeat calls return the same value."""
        if sample_id not in self._labels:
            raise KeyError(f"unknown sample id {sample_id}")
        if sample_id not in self._revealed:
            self._revealed[sample_id] = self._labels[sample_id]
        return self._revealed[sample_id]

    @property
    def n_revealed(self) -> int:
        return len(self._revealed)


def normalized_histogram_entropy(histogram: list[int]) -> float:
    """Entropy of the class histogram divided by ln(n_classes); 1 = balanced."""
    total = sum(histogram)
    if total == 0 or len(histogram) < 2:
        return 0.0
    probs = [h / total for h in histogram if h > 0]
    ent = -sum(p * math.log(p) for p in probs)
    return ent / math.log(len(histogram))


def build_dataset(spec: DatasetSpec, seed: int) -> tuple[Pool, Pool]:
    """Materialize (train pool, test pool) from the dataset spec."""
    spec.validate()
    if spec.kind == "synthetic":
        master = gen_synthetic(spec.n_per_class, spec.classes, spec.size, spec.noise, derive_seed(seed, "data"))
    else:
        master = load_idx(spec.images, spec.labels)
    if spec.imbalance_counts is not None or spec.imbalance_factor is not None:
        if spec.imbalance_counts is not None:
            counts = list(spec.imbalance_counts)
        else:
            n_classes = max(s.label for s in master.samples) + 1
            counts = imbalance_ramp(n_classes, spec.imbalance_factor)
        master = make_imbalanced(master, counts, derive_seed(seed, "imbalance"))
    return split_train_test(master, spec.test_fraction, derive_seed(seed, "split"))


def _pool_n_classes(pool: Pool) -> int:
    return max(s.label for s in pool.samples) + 1


def _materialize(config: LearnerConfig, image_shape: tuple[int, ...], n_classes: int, seed: int) -> LearnerConfig:
    return replace(config, input_shape=tuple(image_shape), n_classes=n_classes, seed=seed)


def _train_main(config: ALConfig, labeled: list[Sample], shape, n_classes: int, iteration: int) -> LearnerState:
    x = np.stack([s.image.pixels for s in labeled])
    y = np.array([s.label for s in labeled], dtype=np.int64)
    cfg = _materialize(config.main, shape, n_classes, derive_seed(config.seed, "main", iteration))
    state = learner.init_learner(cfg)
    trained, _ = learner.train(state, x, y, cfg)
    return trained


def pretext_loss_records(config: ALConfig, unlabeled: Pool) -> list[LossRecord]:
    """Train the pretext model for this config and extract its loss records."""
    shape = unlabeled.samples[0].image.pixels.shape
    cfg = _materialize(config.pretext, shape, 4, derive_seed(config.seed, "pretext"))
    _, report = train_pretext(unlabeled, cfg)
    return report.records


def _build_plan(config: ALConfig, unlabeled: Pool, loss_records: list[LossRecord] | None) -> BatchPlan | None:
    if config.strategy in PRETEXT_STRATEGIES:
        records = loss_records
        if records is None:
            records = pretext_loss_records(config, unlabeled)
        else:
            check_records_cover(records, unlabeled.ids())
        order = ORDER_LOW_FIRST if config.strategy == STRATEGY_LOW_LOSS_FIRST else ORDER_HIGH_FIRST
        return build_batch_plan(records, config.iterations, order)
    if config.strategy == STRATEGY_SAMPLING_ONLY:
        # The segmentation shares the iteration-1 sampling substream, so the
        # head of the first batch coincides with the random strategy's first
        # draw: the two first iterations are identical by construction.
        return build_random_plan(unlabeled.ids(), config.iterations, derive_seed(config.seed, "sampling", 1))
    return None


def _select(
    config: ALConfig,
    iteration: int,
    plan: BatchPlan | None,
    remaining: dict[int, Sample],
    remaining_order: list[int],
    prev_model: LearnerState | None,
) -> QueryResult:
    k = config.budget
    strategy = config.strategy
    seed = derive_seed(config.seed, "sampling", iteration)
    if strategy == STRATEGY_RANDOM:
        return random_sample(remaining_order, k, seed, iteration)
    if strategy == STRATEGY_ENTROPY:
        if iteration == 1:
            return random_sample(remaining_order, k, seed, iteration)
        batch = [remaining[sid] for sid in remaining_order]
        return entropy_sample(batch, prev_model, k, iteration)

    batch_ids = plan.batches[iteration - 1]
    if strategy == STRATEGY_SAMPLING_ONLY:
        if iteration == 1:
            # The batch is already in seeded random order; its head is the
            # uniform draw (identical to the random strategy's iteration 1).
            if k > len(batch_ids):
                raise ValueError(f"K={k} exceeds batch size {len(batch_ids)}")
            return QueryResult(iteration, batch_ids[:k], [float(r) for r in range(k)])
        batch = [remaining[sid] for sid in batch_ids]
        return entropy_sample(batch, prev_model, k, iteration)
    if strategy == STRATEGY_PRETEXT_ONLY_HIGH:
        if k > len(batch_ids):
            raise ValueError(f"K={k} exceeds batch size {len(batch_ids)}")
        return QueryResult(iteration, batch_ids[:k], [float(r) for r in range(k)])
    if strategy == STRATEGY_PRETEXT_ONLY_LOW:
        if k > len(batch_ids):
            raise ValueError(f"K={k} exceeds batch size {len(batch_ids)}")
        picked = batch_ids[len(batch_ids) - k:]
        return QueryResult(iteration, picked, [float(r) for r in range(k)])
    # pt4al and pt4al-low-loss-first
    if iteration == 1:
        return uniform_first_sample(batch_ids, k, iteration)
    batch = [remaining[sid] for sid in batch_ids]
    return uncertainty_sample(batch, prev_model, k, iteration)


def run_al(config: ALConfig, loss_records: list[LossRecord] | None = None) -> list[IterationReport]:
    """Execute the full AL cycle and return one report per iteration.

    `loss_records` short-circuits the pretext phase for strategies that
    need a loss-sorted plan (the CSV contract produced by the pretext
    command); they must cover exactly the unlabeled pool.
    """
    config.validate()
    train_pool, test_pool = build_dataset(config.dataset, config.seed)
    if config.iterations * config.budget > len(train_pool):
        raise ValueError(
            f"budget {config.iterations} x {config.budget} exceeds unlabeled pool size {len(train_pool)}"
        )
    oracle = Oracle(train_pool)
    unlabeled = unlabeled_view(train_pool)
    n_classes = _pool_n_classes(train_pool)
    shape = train_pool.samples[0].image.pixels.shape
    x_test, y_test = test_pool.stack()

    plan = _build_plan(config, unlabeled, loss_records)

    remaining: dict[int, Sample] = {s.id: s for s in unlabeled.samples}
    remaining_order: list[int] = unlabeled.ids()
    labeled: list[Sample] = []
    prev_model: LearnerState | None = None
    reports: list[IterationReport] = []

    for iteration in range(1, config.iterations + 1):
        tic = time.perf_counter()
        query = _select(config, iteration, plan, remaining, remaining_order, prev_model)
        for sid in query.selected:
            if sid not in remaining:
                raise RuntimeError(f"selected id {sid} is not in the unlabeled pool")
            sample = remaining.pop(sid)
            labeled.append(Sample(sample.id, sample.image, oracle.oracle_label(sid)))
        selected_set = set(query.selected)
        remaining_order = [sid for sid in remaining_order if sid not in selected_set]

        model = _train_main(config, labeled, shape, n_classes, iteration)
        acc = learner.accuracy(model, x_test, y_test)
        hist = [0] * n_classes
        for s in labeled:
            hist[s.label] += 1
        reports.append(
            IterationReport(
                iteration=iteration,
                selected_ids=list(query.selected),
                selection_scores=list(query.scores),
                labeled_size=len(labeled),
                test_accuracy=acc,
                class_histogram=hist,
                hist_entropy=normalized_histogram_entropy(hist),
                wall_time=time.perf_counter() - tic,
            )
        )
        prev_model = model
    return reports


def run_ablation(config: ALConfig, variant: str) -> list[IterationReport]:
    """Run one of the component-ablation variants of the full method."""
    strategy = ABLATION_VARIANTS.get(variant, variant)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown ablation variant {variant!r}; choose from {sorted(ABLATION_VARIANTS)}")
    return run_al(replace(config, strategy=strategy))


def cold_start_experiment(config: ALConfig, seeds: list[int]) -> ColdStartSummary:
    """First-iteration comparison of PT4AL vs random over several seeds.

    The dataset and the pretext model are fixed by the config seed, so the
    PT4AL selection (uniform positions in the first batch) is identical
    across seeds; per-seed variation comes from main-task training
    randomness and, for the baseline, the random selection itself.
    """
    config.validate()
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds")
    train_pool, test_pool = build_dataset(config.dataset, config.seed)
    if config.iterations * config.budget > len(train_pool):
        raise ValueError("budget exceeds unlabeled pool size")
    oracle = Oracle(train_pool)
    unlabeled = unlabeled_view(train_pool)
    n_classes = _pool_n_classes(train_pool)
    shape = train_pool.samples[0].image.pixels.shape
    x_test, y_test = test_pool.stack()
    by_id = {s.id: s for s in unlabeled.samples}

    records = pretext_loss_records(config, unlabeled)
    plan = build_batch_plan(records, config.iterations, ORDER_HIGH_FIRST)
    pt4al_query = uniform_first_sample(plan.batches[0], config.budget)

    def first_iteration_accuracy(selected: list[int], train_seed: int) -> float:
        chosen = [Sample(sid, by_id[sid].image, oracle.oracle_label(sid)) for sid in selected]
        x = np.stack([s.image.pixels for s in chosen])
        y = np.array([s.label for s in chosen], dtype=np.int64)
        cfg = _materialize(config.main, shape, n_classes, train_seed)
        trained, _ = learner.train(learner.init_learner(cfg), x, y, cfg)
        return learner.accuracy(trained, x_test, y_test)

    pt4al_accs: list[float] = []
    random_accs: list[float] = []
    for seed in seeds:
        pt4al_accs.append(first_iteration_accuracy(pt4al_query.selected, derive_seed(seed, "cold", "main")))
        rand_query = random_sample(unlabeled.ids(), config.budget, derive_seed(seed, "cold", "sampling"), 1)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "accuracy", "labeled_size", "hist_entropy", "class_histogram"])
        for r in reports:
            writer.writerow(
                [r.iteration, f"{r.test_accuracy:.12g}", r.labeled_size,
                 f"{r.hist_entropy:.12g}", ";".join(str(h) for h in r.class_histogram)]
            )


def reports_to_queries(reports: list[IterationReport]) -> list[QueryResult]:
    return [QueryResult(r.iteration, list(r.selected_ids), list(r.selection_scores)) for r in reports]
