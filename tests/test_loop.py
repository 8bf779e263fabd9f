"""AL orchestration: bookkeeping, strategies, experiments."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt4al import loop
from pt4al.data import Pool
from pt4al.learner import LearnerConfig
from pt4al.loop import ALConfig, DatasetSpec, cold_start_experiment, run_ablation, run_al
from pt4al.pretext import LossRecord, LossRecordError
from pt4al.sampler import QueryResult, random_sample, uniform_first_sample
from pt4al.seeds import derive_seed


def tiny_learner(**kw):
    base = dict(hidden=(16,), learning_rate=0.3, epochs=4, batch_size=16)
    base.update(kw)
    return LearnerConfig(**base)


def tiny_config(**kw):
    base = dict(
        iterations=3,
        budget=10,
        strategy="pt4al",
        dataset=DatasetSpec(classes=3, n_per_class=60, size=10, noise=1.0, test_fraction=0.2),
        pretext=tiny_learner(),
        main=tiny_learner(),
        seed=0,
    )
    base.update(kw)
    return ALConfig(**base)


# ---------------------------------------------------------------------------
# run_al bookkeeping
# ---------------------------------------------------------------------------

def test_random_degenerate_budget_consumes_whole_pool():
    cfg = tiny_config(iterations=1, strategy="random")
    train, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    cfg = replace(cfg, budget=len(train))
    reports = run_al(cfg)
    assert len(reports) == 1
    assert reports[0].labeled_size == len(train)
    assert sorted(reports[0].selected_ids) == train.ids.tolist()


def test_labeled_size_trace_is_multiples_of_k():
    for strategy in ("pt4al", "random", "entropy"):
        reports = run_al(tiny_config(strategy=strategy))
        assert [r.labeled_size for r in reports] == [10, 20, 30]
        assert all(len(r.selected_ids) == 10 for r in reports)
        hist_total = sum(reports[-1].class_histogram)
        assert hist_total == 30


def test_selections_disjoint_across_iterations():
    reports = run_al(tiny_config())
    seen: set[int] = set()
    for r in reports:
        batch = set(r.selected_ids)
        assert not (batch & seen)
        seen |= batch


def test_selected_ids_come_from_train_pool_never_test():
    cfg = tiny_config()
    train, test = loop.build_dataset(cfg.dataset, cfg.seed)
    reports = run_al(cfg)
    train_ids, test_ids = set(train.ids.tolist()), set(test.ids.tolist())
    for r in reports:
        assert set(r.selected_ids) <= train_ids
        assert not (set(r.selected_ids) & test_ids)


@pytest.mark.parametrize("strategy", loop.STRATEGIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_whole_run_properties_for_every_strategy(strategy, data):
    spec = DatasetSpec(classes=data.draw(st.integers(2, 4), "classes"), size=10,
                       n_per_class=data.draw(st.integers(3, 20), "n_per_class"))  # 3+: a sample per class in test
    seed = data.draw(st.integers(0, 2**16), "seed")
    train, test = loop.build_dataset(spec, seed)
    iterations = data.draw(st.integers(1, 4), "iterations")
    budget = data.draw(st.integers(1, len(train) // iterations), "budget")
    cfg = tiny_config(strategy=strategy, dataset=spec, seed=seed, iterations=iterations, budget=budget,
                      pretext=tiny_learner(hidden=(8,), epochs=2), main=tiny_learner(hidden=(8,), epochs=2))
    plan = loop._build_plan(cfg, train.unlabeled(), None)
    assert (plan is None) == (loop.STRATEGY_TABLE[strategy][0] is None)
    reports = run_al(cfg)
    assert [r.labeled_size for r in reports] == [budget * i for i in range(1, iterations + 1)]
    train_ids, test_ids = set(train.ids.tolist()), set(test.ids.tolist())
    seen: set[int] = set()
    for i, r in enumerate(reports):
        picked = set(r.selected_ids)
        assert len(r.selected_ids) == len(picked) == budget
        assert not (picked & seen)
        assert picked <= train_ids and not (picked & test_ids)
        if plan is not None:
            assert picked <= set(plan.batches[i])
        seen |= picked


def reference_picks(cfg):
    """The picks of `run_al`'s rules under the earlier bookkeeping: a labeled mask, an
    id -> position dict, and a fresh `take` for every pool that is trained on or scored."""
    train_pool, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    unlabeled = train_pool.unlabeled()
    position = {sid: i for i, sid in enumerate(unlabeled.ids.tolist())}
    plan = loop._build_plan(cfg, unlabeled, None)
    _, first, later = loop.STRATEGY_TABLE[cfg.strategy]
    k, labeled, is_labeled, model, picks = cfg.budget, [], np.zeros(len(unlabeled), dtype=bool), None, []
    for iteration in range(1, cfg.iterations + 1):
        rule = first if iteration == 1 else later
        if plan is None:
            candidates = np.flatnonzero(~is_labeled)
        else:
            candidates = [position[sid] for sid in plan.batches[iteration - 1]]
        ids = unlabeled.ids[candidates].tolist()
        if rule == "random":
            selected = random_sample(ids, k, derive_seed(cfg.seed, "sampling", iteration)).selected
        elif rule == "uniform":
            selected = uniform_first_sample(ids, k).selected
        elif rule in ("head", "tail"):
            selected = ids[:k] if rule == "head" else ids[len(ids) - k:]
        else:
            scorer = loop.uncertainty_sample if rule == "confidence" else loop.entropy_sample
            selected = scorer(unlabeled.take(candidates), model, k).selected
        for sid in selected:
            assert not is_labeled[position[sid]]
            is_labeled[position[sid]] = True
            labeled.append(position[sid])
        model = loop.train_main(cfg, train_pool.take(labeled), train_pool.n_classes,
                                derive_seed(cfg.seed, "main", iteration))
        picks.append(list(selected))
    return picks


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_bookkeeping_hands_over_the_reference_pools(data):
    # Every pool that is trained on or scored has the ids, pixels and labels, in the
    # order, that the mask + dict + take bookkeeping gives.
    spec = DatasetSpec(classes=data.draw(st.integers(2, 4), "classes"), size=10,
                       n_per_class=data.draw(st.integers(3, 30), "n_per_class"))
    seed = data.draw(st.integers(0, 2**16), "seed")
    train, _ = loop.build_dataset(spec, seed)
    iterations = data.draw(st.integers(1, 4), "iterations")
    cfg = tiny_config(strategy=data.draw(st.sampled_from(loop.STRATEGIES), "strategy"), dataset=spec, seed=seed,
                      iterations=iterations, budget=data.draw(st.integers(1, len(train) // iterations), "budget"),
                      pretext=tiny_learner(hidden=(8,), epochs=2), main=tiny_learner(hidden=(8,), epochs=2))

    def snapshot(pool):
        return pool.ids.tobytes(), pool.x.tobytes(), None if pool.y is None else pool.y.tobytes()

    def recording(fn, arg):
        def wrapped(*args):
            handed.append((fn.__name__, snapshot(args[arg])))
            return fn(*args)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name, arg in (("train_main", 1), ("uncertainty_sample", 0), ("entropy_sample", 0)):
            mp.setattr(loop, name, recording(getattr(loop, name), arg))
        handed: list = []
        picks = [r.selected_ids for r in run_al(cfg)]
        got, handed = handed, []
        assert picks == reference_picks(cfg)
    assert got == handed
    assert [name for name, _ in got].count("train_main") == iterations


def test_an_id_picked_in_an_earlier_round_is_already_labeled(monkeypatch):
    draw, first = loop.random_sample, []

    def repicking(ids, k, seed, iteration):
        query = draw(ids, k, seed, iteration)
        if iteration == 1:
            first.extend(query.selected)
            return query
        return QueryResult(iteration, [first[0], *query.selected[1:]], query.scores)

    monkeypatch.setattr(loop, "random_sample", repicking)
    with pytest.raises(RuntimeError, match="selected id [0-9]+ is already labeled"):
        run_al(tiny_config(strategy="random", iterations=2))


def test_entropy_scores_the_remaining_rows_in_place(monkeypatch):
    # The plan-less scorer reads the rows not yet picked where they are: a view, not a copy.
    batches, score = [], loop.entropy_sample

    def recording(batch, *args):
        batches.append((len(batch), batch.x.flags.owndata))
        return score(batch, *args)

    monkeypatch.setattr(loop, "entropy_sample", recording)
    run_al(tiny_config(strategy="entropy"))
    assert batches == [(144 - 10, False), (144 - 20, False)]


def test_entropy_run_holds_no_copy_of_the_remaining_pool(monkeypatch):
    # Traced from the end of the dataset build: the labeled pool, the models and the
    # scoring activations fit in half the train pool's pixels; a copy of the rows not
    # yet picked (580 of 600 at round 2) does not.
    cfg = tiny_config(strategy="entropy", budget=20,
                      dataset=DatasetSpec(classes=3, n_per_class=250, size=12, noise=1.0, test_fraction=0.2))
    run_al(replace(cfg, iterations=2, dataset=replace(cfg.dataset, n_per_class=20)))  # first-use imports
    build, train_bytes = loop.build_dataset, []

    def building(*args):
        train, test = build(*args)
        train_bytes.append(train.x.nbytes)
        tracemalloc.start()
        return train, test

    monkeypatch.setattr(loop, "build_dataset", building)
    try:
        run_al(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < train_bytes[0] // 2, (peak, train_bytes[0])


def test_reports_reproducible_modulo_wall_time():
    cfg = tiny_config()
    a = run_al(cfg)
    b = run_al(cfg)
    for ra, rb in zip(a, b):
        assert ra.selected_ids == rb.selected_ids
        assert ra.selection_scores == rb.selection_scores
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.class_histogram == rb.class_histogram
        assert ra.hist_entropy == rb.hist_entropy


def test_budget_validation():
    cfg = tiny_config(iterations=10, budget=100)
    with pytest.raises(ValueError, match="exceeds"):
        run_al(cfg)
    with pytest.raises(ValueError):
        ALConfig(strategy="who-knows").validate()


def test_loss_records_must_cover_pool():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="cover"):
        run_al(cfg, loss_records=[LossRecord(0, 1.0), LossRecord(1, 0.5)])
    train_pool, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    covering = [LossRecord(sid, 1.0) for sid in train_pool.ids.tolist()]
    with pytest.raises(ValueError, match="repeat"):
        run_al(cfg, loss_records=covering + covering[:1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_loss_records_must_hold_valid_losses(bad):
    cfg = tiny_config()
    train_pool, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    records = [LossRecord(sid, 1.0) for sid in train_pool.ids.tolist()]
    records[1] = LossRecord(records[1].sample_id, bad)
    with pytest.raises(LossRecordError, match=f"invalid loss for sample {records[1].sample_id}"):
        run_al(cfg, loss_records=records)


def test_histogram_entropy_emitted_on_imbalanced_runs():
    spec = DatasetSpec(classes=3, n_per_class=80, size=10, noise=1.0,
                       test_fraction=0.2, imbalance_counts=(20, 40, 60))
    cfg = tiny_config(dataset=spec, strategy="random", iterations=2, budget=8)
    reports = run_al(cfg)
    for r in reports:
        assert 0.0 <= r.hist_entropy <= 1.0
    assert sum(reports[-1].class_histogram) == 16


def test_imbalance_factor_builds_ramp():
    spec = DatasetSpec(classes=3, n_per_class=200, size=10, noise=1.0,
                       test_fraction=0.25, imbalance_factor=0.1)
    train, test = loop.build_dataset(spec, seed=3)
    # ramp 50,100,150 split 75/25 per class
    hist = [a + b for a, b in zip(train.class_histogram(3), test.class_histogram(3))]
    assert hist == [50, 100, 150]


# ---------------------------------------------------------------------------
# strategies and ablations
# ---------------------------------------------------------------------------

def test_pretext_only_high_takes_batch_head():
    cfg = tiny_config(strategy="pt4al-pretext-only-high")
    train, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    records = loop.pretext_model(cfg, train.unlabeled())[1].records
    from pt4al.sampler import build_batch_plan
    plan = build_batch_plan(records, cfg.iterations)
    reports = run_al(cfg, loss_records=records)
    for r, batch in zip(reports, plan.batches):
        assert r.selected_ids == batch[:cfg.budget]


def test_pretext_only_low_takes_batch_tail():
    cfg = tiny_config(strategy="pt4al-pretext-only-low")
    train, _ = loop.build_dataset(cfg.dataset, cfg.seed)
    records = loop.pretext_model(cfg, train.unlabeled())[1].records
    from pt4al.sampler import build_batch_plan
    plan = build_batch_plan(records, cfg.iterations)
    reports = run_al(cfg, loss_records=records)
    for r, batch in zip(reports, plan.batches):
        assert r.selected_ids == batch[-cfg.budget:]


def test_low_loss_first_reverses_batch_order():
    cfg_high = tiny_config(strategy="pt4al-pretext-only-high")
    cfg_low = tiny_config(strategy="pt4al-pretext-only-low")
    train, _ = loop.build_dataset(cfg_high.dataset, cfg_high.seed)
    records = loop.pretext_model(cfg_high, train.unlabeled())[1].records
    high_first = run_al(replace(cfg_high, strategy="pt4al"), loss_records=records)
    low_first = run_al(replace(cfg_high, strategy="pt4al-low-loss-first"), loss_records=records)
    # iteration 1 draws from opposite ends of the loss ordering
    loss_by_id = {r.sample_id: r.loss for r in records}
    mean_high = np.mean([loss_by_id[i] for i in high_first[0].selected_ids])
    mean_low = np.mean([loss_by_id[i] for i in low_first[0].selected_ids])
    assert mean_high > mean_low


def test_sampling_only_first_iteration_matches_random_rule():
    # With a fixed seed, the sampling-only variant's first iteration is
    # identical to the plain random strategy's first iteration.
    cfg = tiny_config(strategy="pt4al-sampling-only")
    sampling_only = run_al(cfg)
    rand = run_al(replace(cfg, strategy="random"))
    assert sampling_only[0].selected_ids == rand[0].selected_ids


def test_run_ablation_maps_variants():
    cfg = tiny_config()
    reports = run_ablation(cfg, "sampling-only")
    assert [r.labeled_size for r in reports] == [10, 20, 30]
    with pytest.raises(ValueError):
        run_ablation(cfg, "definitely-not-a-variant")


def test_entropy_strategy_runs_and_differs_from_random():
    cfg_e = tiny_config(strategy="entropy")
    cfg_r = tiny_config(strategy="random")
    re_, rr = run_al(cfg_e), run_al(cfg_r)
    # first iteration identical rule (seeded random), later ones model-driven
    assert sorted(re_[0].selected_ids) == sorted(rr[0].selected_ids)
    assert re_[1].selected_ids != rr[1].selected_ids


@pytest.mark.parametrize("strategy, gathers", [
    ("random", []), ("pt4al-pretext-only-high", []), ("pt4al-pretext-only-low", []),
    ("entropy", []), ("pt4al", [48, 48]),
])
def test_only_scoring_rules_gather_candidate_pixels(monkeypatch, strategy, gathers):
    # Selection gathers rows of the label-hidden pool only to score a plan's
    # batch; the plan-less entropy rule reads the remaining rows in place, and
    # the random, uniform, head and tail rules read ids alone.
    take, sizes = Pool.take, []

    def recording(self, positions):
        if self.y is None:
            sizes.append(len(positions))
        return take(self, positions)

    monkeypatch.setattr(Pool, "take", recording)
    reports = run_al(tiny_config(strategy=strategy))
    assert [r.labeled_size for r in reports] == [10, 20, 30]
    assert sizes == gathers


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

def test_cold_start_summary_shape_and_consistency():
    cfg = tiny_config(iterations=3, budget=10)
    summary = cold_start_experiment(cfg, seeds=[1, 2, 3])
    assert summary.seeds == [1, 2, 3]
    assert len(summary.pt4al_accuracies) == 3
    assert len(summary.random_accuracies) == 3
    assert len(summary.pt4al_selection) == 10
    stats = summary.stats("pt4al")
    accs = np.array(summary.pt4al_accuracies)
    assert stats["mean"] == pytest.approx(accs.mean())
    assert stats["std"] == pytest.approx(accs.std(ddof=1))
    assert stats["min"] == accs.min() and stats["max"] == accs.max()


def test_cold_start_selection_is_seed_independent():
    cfg = tiny_config()
    a = cold_start_experiment(cfg, seeds=[1, 2])
    b = cold_start_experiment(cfg, seeds=[7, 8])
    assert a.pt4al_selection == b.pt4al_selection


def test_cold_start_needs_two_seeds():
    with pytest.raises(ValueError):
        cold_start_experiment(tiny_config(), seeds=[1])
