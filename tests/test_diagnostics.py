"""Spearman correlation, normalized ranks, and the correlation report."""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pt4al import learner
from pt4al.config import ConfigError
from pt4al.data import gen_synthetic, split_train_test
from pt4al.diagnostics import (
    average_ranks,
    correlation_report,
    normalized_rank,
    spearman_rho,
    write_scatter_csv,
)
from pt4al.learner import LearnerConfig
from pt4al.pretext import train_pretext


# ---------------------------------------------------------------------------
# spearman_rho
# ---------------------------------------------------------------------------

def test_identical_ranking_rho_one():
    a = [0.5, 1.5, 2.5, 9.0]
    assert spearman_rho(a, a) == pytest.approx(1.0)
    assert spearman_rho(a, [x * 3 + 1 for x in a]) == pytest.approx(1.0)


def test_reversed_ranking_rho_minus_one():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(a, a[::-1]) == pytest.approx(-1.0)


def test_textbook_example_rho_point_eight():
    a = [1, 2, 3, 4, 5]
    b = [2, 1, 4, 3, 5]
    # closed form: sum d^2 = 4 -> 1 - 24/120 = 0.8
    assert spearman_rho(a, b) == pytest.approx(0.8, abs=1e-12)


def closed_form_rho(perm):
    n = len(perm)
    d2 = sum((i + 1 - p) ** 2 for i, p in enumerate(perm))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_matches_closed_form_for_all_small_permutations():
    for n in range(2, 7):
        base = list(range(1, n + 1))
        for perm in itertools.permutations(base):
            got = spearman_rho(base, list(perm))
            assert abs(got - closed_form_rho(perm)) <= 1e-12


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    a = rng.random(40)
    b = rng.random(40)
    base = spearman_rho(a, b)
    assert spearman_rho(np.exp(a), b) == pytest.approx(base, abs=1e-12)
    assert spearman_rho(a, b * 7.5 + 3.0) == pytest.approx(base, abs=1e-12)
    assert spearman_rho(np.exp(3 * a), np.exp(b)) == pytest.approx(base, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
def test_rho_symmetric_and_bounded(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if n < 2 or all(x == a[0] for x in a) or all(x == b[0] for x in b):
        return
    r = spearman_rho(a, b)
    assert -1.0 <= r <= 1.0
    assert spearman_rho(b, a) == pytest.approx(r, abs=1e-12)


def test_rho_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman_rho([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


def test_tied_values_get_average_ranks():
    assert list(average_ranks([10.0, 10.0, 20.0])) == [1.5, 1.5, 3.0]
    assert list(average_ranks([3.0, 1.0, 3.0, 3.0])) == [3.0, 1.0, 3.0, 3.0]


def reference_average_ranks(values):
    """The tie walk that the array ranking replaced."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, float("inf"), float("-inf"), float("nan")])
                | st.floats(allow_nan=True), min_size=1, max_size=40))
def test_average_ranks_match_the_tie_walk(values):
    # -0.0 ties 0.0, and each NaN is a run of its own, in both.
    assert average_ranks(values).tobytes() == reference_average_ranks(values).tobytes()


# ---------------------------------------------------------------------------
# normalized_rank
# ---------------------------------------------------------------------------

def test_normalized_rank_three_elements():
    assert normalized_rank([5.0, 1.0, 3.0]) == [1.0, 0.0, 0.5]


def test_normalized_rank_all_equal_is_half():
    assert normalized_rank([2.0, 2.0, 2.0, 2.0]) == [0.5, 0.5, 0.5, 0.5]


def test_normalized_rank_monotone_grid():
    n = 7
    vals = list(range(n))
    expect = [i / (n - 1) for i in range(n)]
    assert normalized_rank(vals) == pytest.approx(expect)


def test_normalized_rank_rejects_empty():
    with pytest.raises(ValueError):
        normalized_rank([])


# ---------------------------------------------------------------------------
# correlation report
# ---------------------------------------------------------------------------

def _small_models_and_pool(seed=0):
    pool = gen_synthetic(60, 4, 10, 1.0, seed=seed)
    train, test = split_train_test(pool, 0.25, seed=seed + 1)
    pcfg = LearnerConfig(input_shape=(10, 10, 1), n_classes=4, hidden=(24,),
                         learning_rate=0.3, epochs=4, batch_size=32, seed=seed + 2)
    pstate, _ = train_pretext(train.unlabeled(), pcfg)
    mcfg = replace(pcfg, seed=seed + 3)
    mstate, _ = learner.train(learner.init_learner(mcfg), train.x, train.y)
    return pstate, mstate, test


def test_identical_loss_lists_give_rho_one():
    # Re-using one model for both sides of the comparison yields identical
    # per-sample loss lists, whose rank correlation is exactly 1.
    from pt4al.pretext import extract_losses
    pstate, _, test = _small_models_and_pool()
    first = extract_losses(pstate, test).losses.tolist()
    second = extract_losses(pstate, test).losses.tolist()
    assert first == second
    assert spearman_rho(first, second) == pytest.approx(1.0)


def test_correlation_report_requires_labels():
    pstate, mstate, test = _small_models_and_pool(seed=5)
    with pytest.raises(ValueError):
        correlation_report(pstate, mstate, test.unlabeled())


@pytest.mark.parametrize("side", ["pretext", "main"])
def test_correlation_report_rejects_constant_losses_naming_the_model(side):
    # An all-zero network predicts the uniform distribution, so every sample has the same loss.
    pstate, mstate, test = _small_models_and_pool(seed=5)
    models = {"pretext": pstate, "main": mstate}
    cfg = models[side].config
    models[side] = learner.init_learner(replace(cfg, init_scale=0.0))
    with pytest.raises(ConfigError) as exc:
        correlation_report(models["pretext"], models["main"], test)
    assert str(exc.value) == (f"the {side} losses of all {len(test)} test samples are equal, so their rank "
                              f"correlation is undefined ({side} learning_rate {cfg.learning_rate}, init_scale 0.0)")


def test_scatter_capped_and_seeded():
    pstate, mstate, test = _small_models_and_pool(seed=9)
    report = correlation_report(pstate, mstate, test, scatter_cap=10, scatter_seed=1)
    assert report.n == len(test)
    assert len(report.scatter) == 10
    again = correlation_report(pstate, mstate, test, scatter_cap=10, scatter_seed=1)
    assert [(p.sample_id, p.pretext_rank, p.main_rank) for p in report.scatter] == \
        [(p.sample_id, p.pretext_rank, p.main_rank) for p in again.scatter]
    for pair in report.scatter:
        assert 0.0 <= pair.pretext_rank <= 1.0
        assert 0.0 <= pair.main_rank <= 1.0


def test_scatter_csv(tmp_path):
    pstate, mstate, test = _small_models_and_pool(seed=13)
    report = correlation_report(pstate, mstate, test, scatter_cap=5)
    path = tmp_path / "scatter.csv"
    write_scatter_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,pretext_rank,main_rank"
    assert len(lines) == 6
