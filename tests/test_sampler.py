"""Batch plans and in-batch selection rules."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt4al import learner, pretext
from pt4al.data import Pool
from pt4al.learner import LearnerConfig
from pt4al.pretext import LossRecord, LossRecordError, as_arrays, check_records_cover
from pt4al.sampler import (
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
    write_batch_plan,
    write_query_results,
)


def records_from(losses):
    return [LossRecord(i, float(l)) for i, l in enumerate(losses)]


def check_plan_invariants(plan: BatchPlan, records):
    ids = [sid for batch in plan.batches for sid in batch]
    assert sorted(ids) == sorted(r.sample_id for r in records)
    sizes = [len(b) for b in plan.batches]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)  # remainder goes to earliest
    loss_by_id = {r.sample_id: r.loss for r in records}
    if plan.order == ORDER_HIGH_FIRST:
        for a, b in zip(plan.batches, plan.batches[1:]):
            assert min(loss_by_id[i] for i in a) >= max(loss_by_id[i] for i in b)
    elif plan.order == ORDER_LOW_FIRST:
        for a, b in zip(plan.batches, plan.batches[1:]):
            assert max(loss_by_id[i] for i in a) <= min(loss_by_id[i] for i in b)


# ---------------------------------------------------------------------------
# batch plans
# ---------------------------------------------------------------------------

def test_plan_ten_records_two_batches():
    records = records_from([10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    plan = build_batch_plan(records, 2)
    assert plan.batches[0] == [0, 1, 2, 3, 4]
    assert plan.batches[1] == [5, 6, 7, 8, 9]


def test_plan_low_loss_first_reverses():
    records = records_from([10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    plan = build_batch_plan(records, 2, ORDER_LOW_FIRST)
    assert plan.batches[0] == [9, 8, 7, 6, 5]
    assert plan.batches[1] == [4, 3, 2, 1, 0]


def test_plan_all_equal_losses_orders_by_id():
    records = [LossRecord(i, 1.0) for i in (5, 3, 9, 1, 7, 0)]
    plan = build_batch_plan(records, 3)
    assert plan.batches == [[0, 1], [3, 5], [7, 9]]
    check_plan_invariants(plan, records)


def test_plan_full_scale_shape_equal_batches():
    rng = np.random.default_rng(0)
    records = records_from(rng.random(50_000))
    plan = build_batch_plan(records, 10)
    assert [len(b) for b in plan.batches] == [5000] * 10
    check_plan_invariants(plan, records)


def test_plan_remainder_to_earliest_batches():
    records = records_from(np.arange(10, 0, -1))
    plan = build_batch_plan(records, 3)
    assert [len(b) for b in plan.batches] == [4, 3, 3]
    check_plan_invariants(plan, records)


def test_plan_rejects_bad_batch_counts():
    records = records_from([1.0, 2.0])
    with pytest.raises(ValueError):
        build_batch_plan(records, 0)
    with pytest.raises(ValueError):
        build_batch_plan(records, 3)
    with pytest.raises(ValueError):
        build_batch_plan(records, 1, "sideways")


def test_an_id_is_never_cut_or_wrapped():
    # A cast to int64 would cut 2.5 to the id 2 and wrap the uint64 2**63 to -2**63. Ids follow
    # Pool's rule instead: each of these is a ValueError that names it.
    for sid in (2.5, 2**63, -2**63 - 1):
        with pytest.raises(ValueError, match=f"sample ids must be whole numbers within int64, got {sid}$"):
            build_batch_plan([LossRecord(sid, 1.0), LossRecord(3, 0.5)], 1)
    with pytest.raises(ValueError, match="got 2.7$"):
        pretext.LossArrays(np.array([2.7]), [0.5])
    with pytest.raises(ValueError, match=f"got {2**63}$"):
        pretext.LossArrays(np.array([2**63], dtype=np.uint64), [0.5])
    assert build_batch_plan([LossRecord(2.0, 1.0), LossRecord(3, 0.5)], 1).batches == [[2, 3]]
    for ids in ([2.0, 2**63 - 1], np.array([2**63 - 1], dtype=np.uint64), [], [-2**63]):
        assert pretext.LossArrays(ids, [0.5] * len(ids)).ids.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 2.0, 3.5]) | st.floats(0, 100),
             min_size=1, max_size=60),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([ORDER_HIGH_FIRST, ORDER_LOW_FIRST]),
)
def test_plan_invariants_property(losses, n_batches, order):
    if n_batches > len(losses):
        n_batches = len(losses)
    records = records_from(losses)
    plan = build_batch_plan(records, n_batches, order)
    check_plan_invariants(plan, records)


def reference_split(ids, n_batches):
    """Contiguous batches of divmod sizes, the remainder one each to the earliest batches."""
    base, extra = divmod(len(ids), n_batches)
    batches, start = [], 0
    for b in range(n_batches):
        size = base + 1 if b < extra else base
        batches.append(ids[start:start + size])
        start += size
    return batches


def reference_plan(records, n_batches, order):
    if order == ORDER_HIGH_FIRST:
        ranked = sorted(records, key=lambda r: (-r.loss, r.sample_id))
    else:
        ranked = sorted(records, key=lambda r: (r.loss, r.sample_id))
    return reference_split([r.sample_id for r in ranked], n_batches)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), min_size=40, max_size=40, unique=True),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plans_match_reference_split_for_every_batch_count(quanta, ids, seed):
    # Losses are quarters of small integers, so equal losses are common.
    records = [LossRecord(sid, q / 4.0) for sid, q in zip(ids, quanta)]
    perm = np.random.default_rng(seed).permutation(len(records))
    shuffled = [records[i].sample_id for i in perm]
    for n_batches in range(1, len(records) + 1):
        for order in (ORDER_HIGH_FIRST, ORDER_LOW_FIRST):
            plan = build_batch_plan(records, n_batches, order)
            assert plan.batches == reference_plan(records, n_batches, order)
            assert plan.order == order
        plan = build_random_plan([r.sample_id for r in records], n_batches, seed)
        assert plan.batches == reference_split(shuffled, n_batches)
        assert plan.order == ORDER_RANDOM


def reference_check(records, source):
    """The per-record check that the array check replaced: the first faulty record, its loss before its id."""
    seen = set()
    for rec in records:
        if not (math.isfinite(rec.loss) and rec.loss >= 0):
            raise LossRecordError(f"{source}: invalid loss for sample {rec.sample_id}")
        if rec.sample_id in seen:
            raise LossRecordError(f"{source}: repeated sample id {rec.sample_id}")
        seen.add(rec.sample_id)


def reference_cover(records, pool_ids):
    """The set-based cover check that the array check replaced."""
    reference_check(records, "loss records")
    named, pool = {r.sample_id for r in records}, set(pool_ids)
    missing, foreign = pool - named, named - pool
    if missing or foreign:
        raise LossRecordError(
            f"loss records do not cover the unlabeled pool: {len(missing)} pool samples have no record, "
            f"{len(foreign)} records name samples outside the pool"
        )


def raised(check, *args):
    """The message of the LossRecordError that `check(*args)` raises, or None."""
    try:
        check(*args)
    except LossRecordError as exc:
        return str(exc)
    return None


# Few distinct ids and losses, so ties and repeats are common; -0.0 sits beside 0.0.
RECORD_IDS = st.integers(-3, 12) | st.integers(-2**63, 2**63 - 1)
RECORD_LOSSES = (st.sampled_from([0.0, -0.0, 0.5, 0.5, 1.0, 2.5, math.inf, -math.inf, math.nan, -1.0])
                 | st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(RECORD_IDS, RECORD_LOSSES), max_size=30),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([ORDER_HIGH_FIRST, ORDER_LOW_FIRST]),
    st.integers(min_value=0, max_value=3),
    st.lists(RECORD_IDS, max_size=3),
)
def test_array_records_match_the_per_record_path(tmp_path_factory, pairs, n_batches, order, dropped, extra):
    records = [LossRecord(sid, loss) for sid, loss in pairs]
    assert raised(pretext._check_records, as_arrays(records), "f.csv") == raised(reference_check, records, "f.csv")
    pool_ids = list(dict.fromkeys([sid for sid, _ in pairs[dropped:]] + extra))  # unique, like a Pool's
    assert raised(check_records_cover, records, pool_ids) == raised(reference_cover, records, pool_ids)
    # Through the file: the same parse, the same named sample, and the same bits when it is read.
    path = tmp_path_factory.mktemp("losses") / "losses.csv"
    pretext.write_loss_records(path, as_arrays(records))
    parsed = [LossRecord(int(sid), float(loss)) for sid, loss in
              (line.split(",") for line in path.read_text().splitlines()[1:])]
    assert raised(pretext.read_loss_records, path) == raised(reference_check, parsed, path)
    if raised(reference_check, parsed, path) is None:
        back = pretext.read_loss_records(path)
        assert back.ids.tolist() == [r.sample_id for r in parsed]
        assert back.losses.tobytes() == np.array([r.loss for r in parsed]).tobytes()
    # Python's sort has no defined order for NaN keys, so the plans are compared without them.
    if n_batches <= len(records) and not any(math.isnan(r.loss) for r in records):
        plan = build_batch_plan(records, n_batches, order)
        assert plan.batches == reference_plan(records, n_batches, order)
        assert all(type(sid) is int for batch in plan.batches for sid in batch)


@pytest.mark.parametrize("sid", [2**63, -2**63 - 1, 2**70, -2**70])
def test_an_id_outside_int64_is_rejected_on_every_path(tmp_path, sid):
    records = [LossRecord(-5, 0.5), LossRecord(sid, 0.25)]
    message = f"sample ids must be whole numbers within int64, got {sid}$"
    for check in (as_arrays, lambda r: check_records_cover(r, [-5, 1]), lambda r: build_batch_plan(r, 1)):
        with pytest.raises(ValueError, match=message):
            check(records)
    with pytest.raises(ValueError, match=message):
        build_random_plan([-5, sid], 1, seed=0)
    path = tmp_path / "losses.csv"
    path.write_text(f"sample_id,pretext_loss\n-5,0.5\n{sid},0.25\n")
    with pytest.raises(LossRecordError, match="malformed loss record: " + message):
        pretext.read_loss_records(path)


def test_plans_reject_ids_past_int64_beside_negative_ones():
    # numpy infers float64 for a list that holds both 2**63 + 1 and -5, where 2**63 - 1 reads the same.
    ids = [2**63 - 1, -5, 2**63 + 1]
    message = f"sample ids must be whole numbers within int64, got {2**63 + 1}$"
    with pytest.raises(ValueError, match=message):
        build_random_plan(ids, 3, seed=0)
    with pytest.raises(ValueError, match=message):
        build_batch_plan([LossRecord(sid, 0.5) for sid in ids], 3)
    # The largest int64 id keeps its value beside a negative one.
    ids = [2**63 - 1, -5, 3]
    plan = build_random_plan(ids, 3, seed=0)
    assert sorted(sid for batch in plan.batches for sid in batch) == sorted(ids)
    records = [LossRecord(sid, loss) for sid, loss in zip(ids, [0.5, 0.25, 0.5])]
    assert build_batch_plan(records, 3).batches == [[3], [2**63 - 1], [-5]]


def test_random_plan_is_partition_and_deterministic():
    ids = list(range(40, 90))
    a = build_random_plan(ids, 7, seed=3)
    b = build_random_plan(ids, 7, seed=3)
    assert a.batches == b.batches
    sizes = [len(x) for x in a.batches]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sid for batch in a.batches for sid in batch) == ids


def test_plan_csv_export(tmp_path):
    plan = build_batch_plan(records_from([3.0, 2.0, 1.0]), 2)
    path = tmp_path / "plan.csv"
    write_batch_plan(path, plan)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,batch_index,rank_in_batch"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "2,1,0"


# ---------------------------------------------------------------------------
# uniform first-iteration sampling
# ---------------------------------------------------------------------------

def test_uniform_even_positions():
    batch = list(range(100, 110))
    q = uniform_first_sample(batch, 5)
    assert q.selected == [100, 102, 104, 106, 108]
    assert q.scores == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_uniform_whole_batch():
    batch = [4, 9, 2]
    q = uniform_first_sample(batch, 3)
    assert q.selected == batch


def test_uniform_k_one_takes_first():
    q = uniform_first_sample([7, 5, 3], 1)
    assert q.selected == [7]


def test_uniform_rejects_bad_k():
    with pytest.raises(ValueError):
        uniform_first_sample([1, 2], 3)
    with pytest.raises(ValueError):
        uniform_first_sample([1, 2], 0)


# ---------------------------------------------------------------------------
# confidence / entropy / random selection
# ---------------------------------------------------------------------------

def proba_state(scale=10.0, classes=3):
    """Linear model over a (1, classes, 1) image: logits = scale * pixel row."""
    cfg = LearnerConfig(input_shape=(1, classes, 1), n_classes=classes, hidden=(), init_scale=0.0)
    state = learner.init_learner(cfg)
    state.weights[0] = np.eye(classes) * scale
    return state


def pool_of_rows(ids, rows):
    """One (1, C, 1) image per row, labels hidden."""
    rows = np.asarray(rows, dtype=np.float64)
    return Pool(ids, rows.reshape(len(rows), 1, -1, 1))


def test_uncertainty_picks_lowest_max_prob():
    state = proba_state(scale=8.0, classes=2)
    # max-probs roughly [0.9, 0.4(ish), 0.7(ish), 0.5]: craft logit gaps
    rows = {1: [1.0, 0.0], 2: [0.52, 0.48], 3: [0.62, 0.38], 4: [0.5, 0.5]}
    batch = pool_of_rows(list(rows), list(rows.values()))
    q = uncertainty_sample(batch, state, 2)
    assert q.selected == [4, 2]  # conf 0.5 then ~0.58


def test_uncertainty_tie_break_by_id_with_zero_model():
    cfg = LearnerConfig(input_shape=(1, 3, 1), n_classes=3, hidden=(), init_scale=0.0)
    state = learner.init_learner(cfg)
    rng = np.random.default_rng(0)
    batch = pool_of_rows([9, 3, 7, 1], [rng.random(3) for _ in range(4)])
    q = uncertainty_sample(batch, state, 2)
    assert q.selected == [1, 3]
    assert q.scores == [pytest.approx(1 / 3), pytest.approx(1 / 3)]


def brute_force_uncertainty(batch, state, k):
    probs = learner.predict_proba_batch(state, batch.x)
    ranked = sorted(((float(p.max()), sid) for p, sid in zip(probs, batch.ids.tolist())))
    return [sid for _, sid in ranked[:k]]


def test_uncertainty_matches_brute_force_on_200_samples():
    rng = np.random.default_rng(5)
    state = proba_state(scale=4.0, classes=4)
    ids = rng.permutation(500)[:200]
    batch = pool_of_rows(ids, [rng.random(4) for _ in ids])
    for k in (1, 7, 50, 200):
        q = uncertainty_sample(batch, state, k)
        assert q.selected == brute_force_uncertainty(batch, state, k)


def test_uncertainty_exhaustive_small_batches_with_ties():
    rng = np.random.default_rng(11)
    state = proba_state(scale=6.0, classes=3)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for trial in range(40):
                # Half the trials quantize pixels so equal confidences occur.
                if trial % 2 == 0:
                    rows = rng.integers(0, 3, size=(n, 3)) / 2.0
                else:
                    rows = rng.random((n, 3))
                ids = [int(i) for i in rng.permutation(50)[:n]]
                batch = pool_of_rows(ids, rows)
                q = uncertainty_sample(batch, state, k)
                assert q.selected == brute_force_uncertainty(batch, state, k)


def brute_force_entropy(batch, state, k):
    probs = learner.predict_proba_batch(state, batch.x)
    ent = -np.sum(np.where(probs > 0, probs * np.log(probs), 0.0), axis=1)
    ranked = sorted(((-float(e), sid) for e, sid in zip(ent, batch.ids.tolist())))
    return [sid for _, sid in ranked[:k]], [-e for e, _ in ranked[:k]]


def test_entropy_exhaustive_small_batches_with_ties():
    rng = np.random.default_rng(12)
    state = proba_state(scale=6.0, classes=3)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for trial in range(40):
                # Half the trials quantize pixels so equal entropies occur.
                if trial % 2 == 0:
                    rows = rng.integers(0, 3, size=(n, 3)) / 2.0
                else:
                    rows = rng.random((n, 3))
                ids = [int(i) for i in rng.permutation(50)[:n]]
                batch = pool_of_rows(ids, rows)
                q = entropy_sample(batch, state, k)
                assert (q.selected, q.scores) == brute_force_entropy(batch, state, k)


def test_entropy_prefers_uniform_posterior():
    state = proba_state(scale=10.0, classes=2)
    batch = pool_of_rows([1, 2], [[1.0, 0.5], [0.5, 0.5]])
    q = entropy_sample(batch, state, 1)
    assert q.selected == [2]
    assert q.scores[0] == pytest.approx(math.log(2.0))


def test_entropy_uniform_posterior_equals_ln_c():
    for classes in (2, 4, 5):
        cfg = LearnerConfig(input_shape=(1, classes, 1), n_classes=classes, hidden=(), init_scale=0.0)
        state = learner.init_learner(cfg)
        batch = pool_of_rows([3], [np.zeros(classes)])
        q = entropy_sample(batch, state, 1)
        assert q.scores[0] == pytest.approx(math.log(classes), abs=1e-12)


def test_entropy_of_a_saturated_posterior_takes_no_log_of_zero():
    # Probabilities that underflow to 0 add 0 log 0 = 0; under the suite's warnings-as-errors
    # a log taken of them would raise a divide-by-zero RuntimeWarning.
    state = proba_state(scale=2000.0, classes=3)
    batch = pool_of_rows([1, 2], [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    assert np.count_nonzero(learner.predict_proba_batch(state, batch.x) == 0) == 3
    q = entropy_sample(batch, state, 2)
    assert q.selected == [2, 1]
    assert q.scores == [pytest.approx(math.log(2.0), abs=1e-12), 0.0]

def test_random_sample_deterministic_and_without_replacement():
    ids = list(range(30))
    a = random_sample(ids, 10, seed=42)
    b = random_sample(ids, 10, seed=42)
    assert a.selected == b.selected
    assert len(set(a.selected)) == 10
    c = random_sample(ids, 10, seed=43)
    assert c.selected != a.selected


def test_selection_rejects_bad_k():
    state = proba_state()
    batch = pool_of_rows([0], [[0.1, 0.2, 0.3]])
    for fn in (lambda: uncertainty_sample(batch, state, 2),
               lambda: entropy_sample(batch, state, 0),
               lambda: random_sample([1], 2, 0)):
        with pytest.raises(ValueError):
            fn()


def test_query_result_validates():
    with pytest.raises(ValueError):
        QueryResult(1, [3, 3], [0.0, 0.0])
    with pytest.raises(ValueError):
        QueryResult(1, [1, 2], [0.5])


def test_query_result_needs_one_score_per_selected_id():
    with pytest.raises(ValueError, match="scores must align"):
        QueryResult(1, [1], [])
    with pytest.raises(TypeError):
        QueryResult(1, [1])


def test_query_csv_export(tmp_path):
    path = tmp_path / "queries.csv"
    write_query_results(path, [QueryResult(1, [5, 2], [0.25, 0.5]), QueryResult(2, [9], [0.125])])
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,sample_id,score"
    assert lines[1] == "1,5,0.25"
    assert lines[3] == "2,9,0.125"
