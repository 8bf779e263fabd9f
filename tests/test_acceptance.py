"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; the experiment protocols are pinned
to the package defaults (4-class synthetic corpus, 4,000 unlabeled after
the 80/20 split).
"""
from __future__ import annotations

import itertools
import json
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from pt4al import data, diagnostics, learner, loop, pretext
from pt4al.cli import main as cli_main
from pt4al.data import Pool, load_idx, rotate
from pt4al.learner import ConvSpec, LearnerConfig
from pt4al.pretext import LossRecord
from pt4al.sampler import ORDER_HIGH_FIRST, build_batch_plan, uncertainty_sample

from test_learner import finite_diff_grads, max_rel_error


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradients_match_finite_differences():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for trial in range(20):
        cfg = LearnerConfig(
            input_shape=(int(rng.integers(2, 6)),),
            n_classes=int(rng.integers(2, 5)),
            hidden=(int(rng.integers(2, 8)),) if trial % 3 else (),
            activation="tanh",
            seed=trial,
        )
        assert learner.n_parameters(cfg) <= 500
        state = learner.init_learner(cfg)
        x = rng.standard_normal((4, cfg.input_shape[0]))
        y = rng.integers(0, cfg.n_classes, size=4)
        gws, gbs = learner.grad(state, x, y)
        nws, nbs = finite_diff_grads(state, x, y, step=1e-5)
        worst = max(worst, max_rel_error(gws, nws), max_rel_error(gbs, nbs))
        checked += 1
    for seed in (0, 1):
        cfg = LearnerConfig(input_shape=(5, 5, 1), n_classes=3, hidden=(4,),
                            conv=ConvSpec(filters=2, kernel=3), seed=seed)
        assert learner.n_parameters(cfg) <= 500
        state = learner.init_learner(cfg)
        x = rng.random((3, 5, 5, 1))
        y = rng.integers(0, 3, size=3)
        gws, gbs = learner.grad(state, x, y)
        nws, nbs = finite_diff_grads(state, x, y, step=1e-5)
        worst = max(worst, max_rel_error(gws, nws), max_rel_error(gbs, nbs))
        checked += 1
    elapsed = time.perf_counter() - tic
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(1, ok, f"{checked} nets, worst relative error {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. sampler oracle equivalence
# ---------------------------------------------------------------------------

def _proba_state(classes: int, scale: float) -> learner.LearnerState:
    cfg = LearnerConfig(input_shape=(1, classes, 1), n_classes=classes, hidden=(), init_scale=0.0)
    state = learner.init_learner(cfg)
    state.weights[0] = np.eye(classes) * scale
    return state


def _rows_pool(ids, rows) -> Pool:
    rows = np.asarray(rows, dtype=np.float64)
    return Pool(ids, rows.reshape(len(rows), 1, -1, 1))


def _brute_force(batch, state, k):
    probs = learner.predict_proba_batch(state, batch.x)
    ranked = sorted(((float(p.max()), sid) for p, sid in zip(probs, batch.ids.tolist())))
    return [sid for _, sid in ranked[:k]]


def test_criterion_2_uncertainty_sampler_equals_brute_force():
    rng = np.random.default_rng(99)
    mismatches = 0
    # 1,000 random posterior matrices
    for trial in range(1000):
        classes = int(rng.integers(2, 6))
        n = int(rng.integers(2, 40))
        state = _proba_state(classes, scale=float(rng.uniform(1.0, 8.0)))
        if trial % 2 == 0:
            rows = rng.integers(0, 4, size=(n, classes)) / 3.0
        else:
            rows = rng.random((n, classes))
        ids = [int(i) for i in rng.permutation(5 * n)[:n]]
        batch = _rows_pool(ids, rows)
        k = int(rng.integers(1, n + 1))
        got = uncertainty_sample(batch, state, k).selected
        if got != _brute_force(batch, state, k):
            mismatches += 1
    # exhaustive over batch sizes <= 8, all K, with deliberate ties
    exhaustive = 0
    state = _proba_state(3, scale=5.0)
    zero_state = _proba_state(3, scale=0.0)
    for n in range(1, 9):
        for k in range(1, n + 1):
            for trial in range(30):
                rows = (rng.integers(0, 3, size=(n, 3)) / 2.0 if trial % 2 == 0
                        else rng.random((n, 3)))
                ids = [int(i) for i in rng.permutation(40)[:n]]
                batch = _rows_pool(ids, rows)
                use = zero_state if trial % 5 == 0 else state
                got = uncertainty_sample(batch, use, k).selected
                if got != _brute_force(batch, use, k):
                    mismatches += 1
                exhaustive += 1
    ok = mismatches == 0
    _verdict(2, ok, f"1000 random matrices + {exhaustive} exhaustive small batches, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 3. batch-plan invariants
# ---------------------------------------------------------------------------

def _check_plan(plan, records) -> bool:
    ids = [sid for b in plan.batches for sid in b]
    if sorted(ids) != sorted(r.sample_id for r in records):
        return False
    sizes = [len(b) for b in plan.batches]
    if max(sizes) - min(sizes) > 1 or sizes != sorted(sizes, reverse=True):
        return False
    loss = {r.sample_id: r.loss for r in records}
    for a, b in zip(plan.batches, plan.batches[1:]):
        if min(loss[i] for i in a) < max(loss[i] for i in b):
            return False
    return True


def test_criterion_3_batch_plan_invariants():
    rng = np.random.default_rng(7)
    bad = 0
    for trial in range(1000):
        n = int(rng.integers(1, 300))
        if trial % 3 == 0:
            levels = rng.random(int(rng.integers(1, 4)))
            losses = levels[rng.integers(0, len(levels), size=n)]  # heavy ties
        else:
            losses = rng.random(n)
        records = [LossRecord(int(i), float(l)) for i, l in zip(rng.permutation(3 * n)[:n], losses)]
        n_batches = int(rng.integers(1, n + 1))
        plan = build_batch_plan(records, n_batches, ORDER_HIGH_FIRST)
        if not _check_plan(plan, records):
            bad += 1
    # full-scale shape: 50,000 records, I=10 -> ten batches of exactly 5,000
    records = [LossRecord(i, float(l)) for i, l in enumerate(rng.random(50_000))]
    plan = build_batch_plan(records, 10)
    shape_ok = [len(b) for b in plan.batches] == [5000] * 10 and _check_plan(plan, records)
    ok = bad == 0 and shape_ok
    _verdict(3, ok, f"1000 random vectors ({bad} violations); 50k/I=10 -> {[len(b) for b in plan.batches][:3]}... all 5000: {shape_ok}")


# ---------------------------------------------------------------------------
# 4. spearman closed form
# ---------------------------------------------------------------------------

def test_criterion_4_spearman_matches_closed_form():
    worst = 0.0
    count = 0
    for n in range(2, 7):
        base = list(range(1, n + 1))
        for perm in itertools.permutations(base):
            d2 = sum((i + 1 - p) ** 2 for i, p in enumerate(perm))
            closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            got = diagnostics.spearman_rho(base, list(perm))
            worst = max(worst, abs(got - closed))
            count += 1
    example = diagnostics.spearman_rho([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    ok = worst <= 1e-12 and abs(example - 0.8) <= 1e-12
    _verdict(4, ok, f"{count} permutations, worst deviation {worst:.2e}; example rho {example:.3f}")


# ---------------------------------------------------------------------------
# 5. correlation reproduction (desk scale)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_pretext_main_loss_correlation():
    tic = time.perf_counter()
    rhos = []
    for seed in range(5):
        train, test = loop.build_dataset(loop.DatasetSpec(), seed)
        assert len(train) + len(test) >= 2000
        shape = train.x.shape[1:]
        pcfg = replace(loop.default_pretext_config(), input_shape=shape, n_classes=4,
                       seed=seed * 100 + 1, epochs=20)
        pstate, _ = pretext.train_pretext(train.unlabeled(), pcfg)
        mcfg = replace(loop.default_main_config(), input_shape=shape, n_classes=4,
                       seed=seed * 100 + 2, epochs=20)
        mstate, _ = learner.train(learner.init_learner(mcfg), train.x, train.y, mcfg)
        rhos.append(diagnostics.correlation_report(pstate, mstate, test).rho)
    mean_rho = float(np.mean(rhos))
    elapsed = time.perf_counter() - tic
    ok = mean_rho > 0.2 and elapsed < 600.0
    _verdict(5, ok, f"mean rho {mean_rho:.3f} over 5 seeds (per-seed {np.round(rhos, 3)}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. cold-start property (desk scale)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_pt4al_beats_random_curves():
    tic = time.perf_counter()
    base = loop.ALConfig()  # I=5, K=100, 4,000 unlabeled after the split
    pt4al_curves, random_curves = [], []
    for seed in range(10):
        rp = loop.run_al(replace(base, strategy="pt4al", seed=seed))
        rr = loop.run_al(replace(base, strategy="random", seed=seed))
        assert len(rp[0].selected_ids) == 100 and rp[-1].labeled_size == 500
        pt4al_curves.append([r.test_accuracy for r in rp])
        random_curves.append([r.test_accuracy for r in rr])
    p = np.array(pt4al_curves).mean(axis=0)
    r = np.array(random_curves).mean(axis=0)
    dominance = int(np.sum(p > r))
    # fixed-corpus first-iteration protocol (one pretext model, per-seed
    # training randomness), the dedicated cold-start experiment
    summary = loop.cold_start_experiment(base, seeds=list(range(10)))
    cs_p = summary.stats("pt4al")
    cs_r = summary.stats("random")
    elapsed = time.perf_counter() - tic
    ok = p[0] > r[0] and dominance >= 4 and cs_p["mean"] > cs_r["mean"] and elapsed < 1800.0
    _verdict(6, ok, f"iter1 {p[0]:.4f} vs {r[0]:.4f}; per-iteration means pt4al {np.round(p, 4)} "
                    f"random {np.round(r, 4)}; dominance {dominance}/5; coldstart "
                    f"{cs_p['mean']:.4f}+-{cs_p['std']:.4f} vs {cs_r['mean']:.4f}+-{cs_r['std']:.4f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. ablation ordering (soft)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_full_method_at_least_each_ablation():
    base = loop.ALConfig(budget=40)
    strategies = ("pt4al", "pt4al-sampling-only", "pt4al-pretext-only-high", "pt4al-pretext-only-low")
    finals: dict[str, list[float]] = {s: [] for s in strategies}
    for seed in range(5):
        cfg = replace(base, seed=seed)
        train, _ = loop.build_dataset(cfg.dataset, seed)
        records = loop.pretext_model(cfg, train.unlabeled())[1].records
        for strat in strategies:
            recs = records if strat != "pt4al-sampling-only" else None
            reports = loop.run_al(replace(cfg, strategy=strat), loss_records=recs)
            finals[strat].append(reports[-1].test_accuracy)
    means = {s: float(np.mean(a)) for s, a in finals.items()}
    raw = "; ".join(f"{s}: mean {means[s]:.4f} raw {np.round(finals[s], 4)}" for s in strategies)
    print(f"[criterion 7 raw numbers] {raw}")
    ok = all(means["pt4al"] >= means[s] for s in strategies[1:])
    _verdict(7, ok, " ".join(f"{s.split('pt4al-')[-1]}={means[s]:.4f}" for s in strategies))


# ---------------------------------------------------------------------------
# 8. rotation / IDX exactness
# ---------------------------------------------------------------------------

def test_criterion_8_rotation_and_idx_exactness(tmp_path):
    rng = np.random.default_rng(88)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        img = rng.random((n, n, int(rng.integers(1, 3))))
        out = img
        for _ in range(4):
            out = rotate(out, 1)
        if not np.array_equal(out, img):
            failures += 1
    pix = [0, 51, 102, 153, 204, 255, 25, 50]
    img_bytes = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(pix)
    lab_bytes = struct.pack(">II", 0x00000801, 2) + bytes([3, 7])
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lab_bytes)
    pool = load_idx(ip, lp)
    ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
    data.write_idx(pool, ip2, lp2)
    round_trip = ip2.read_bytes() == img_bytes and lp2.read_bytes() == lab_bytes
    ok = failures == 0 and round_trip
    _verdict(8, ok, f"r^4 identity on 100 images ({failures} failures); IDX round-trip bit-exact: {round_trip}")


# ---------------------------------------------------------------------------
# 9. determinism of cmd_run
# ---------------------------------------------------------------------------

def test_criterion_9_cmd_run_byte_identical(tmp_path):
    cfg = {
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"kind": "synthetic", "classes": 4, "n_per_class": 60,
                    "size": 10, "noise": 1.0, "test_fraction": 0.2},
        "pretext": {"hidden": [16], "epochs": 3, "batch_size": 16},
        "main": {"hidden": [32], "epochs": 15, "batch_size": 8},
        "al": {"iterations": 4, "budget": 12, "strategy": "pt4al"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["pretext", str(cfg_path)]) == 0
    assert cli_main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in (out / "reports.csv", out / "queries.csv", out / "run_manifest.json")}
    assert cli_main(["run", str(cfg_path)]) == 0
    second = {p.name: p.read_bytes() for p in (out / "reports.csv", out / "queries.csv", out / "run_manifest.json")}
    ok = first == second
    _verdict(9, ok, f"two cmd_run executions byte-identical across {sorted(first)}: {ok}")
