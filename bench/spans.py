"""Span arithmetic and per-layer aggregation for traced pt4al runs.

A span is one call of a wrapped pt4al function: its name (the module that
defines the function plus the function name, e.g. ``learner.sgd_step``),
start and end on the traced process's ``perf_counter`` clock, the span that
was open when it started (its parent), and a few counts taken from the
call's arguments or result (``attrs``). One traced command yields one list
of spans; ``command_layers`` turns it into the per-layer numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_from_json(rows: list) -> list[Span]:
    """Inverse of the tracer's row format ``[id, parent, name, start, end, attrs]``."""
    return [Span(int(i), None if p is None else int(p), str(n), float(s), float(e), dict(a))
            for i, p, n, s, e, a in rows]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the (start, end) intervals."""
    total = 0.0
    reached = lo
    for start, end in sorted(intervals):
        start, end = max(start, reached), min(end, hi)
        if end > start:
            total += end - start
            reached = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end) for s in spans}


def nearest_rank(sorted_values: list[float], pct) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of samples at or below it."""
    rank = max(1, math.ceil(Fraction(str(pct)) * len(sorted_values) / 100))
    return sorted_values[rank - 1]


TAIL_LADDER = ("50", "75", "90", "95", "99", "99.5", "99.9", "99.95", "99.99")
MIN_BEYOND = 10


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile that leaves at least MIN_BEYOND of n samples above its rank.

    Exact arithmetic, so 10,000 samples qualify for p99.9 (rank 9,990, ten beyond).
    Returns None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        rank = math.ceil(Fraction(pct) * n / 100)
        if n - rank >= MIN_BEYOND:
            best = pct
    return best


def summarize_us(seconds: list[float]) -> dict[str, float]:
    """Median and tail of per-call times in microseconds, with sample count and tail percentile.

    An empty list (the call never happened on this workload) gives zeros; a
    list too short for any tail percentile reports its maximum with tail_pct 100.
    """
    n = len(seconds)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    vals = sorted(s * 1e6 for s in seconds)
    pct = tail_percentile(n)
    return {
        "p50": nearest_rank(vals, "50"),
        "tail": vals[-1] if pct is None else nearest_rank(vals, pct),
        "tail_pct": 100.0 if pct is None else float(pct),
        "n": n,
    }


IO_SPANS = (
    "cli.write_manifest", "learner.save_checkpoint", "pretext.write_loss_records",
    "pretext.read_loss_records", "loop.write_reports_csv", "sampler.write_query_results",
)
PLAN_SPANS = ("sampler.build_batch_plan",)
SELECT_SPANS = (
    "sampler.uniform_first_sample", "sampler.random_sample",
    "sampler.uncertainty_sample", "sampler.entropy_sample",
)
# Layer type and batch rows of the sgd_step calls the workloads make; no workload runs conv.
SGD_BUCKETS = (("dense", 16), ("dense", 64))


def command_layers(spans: list[Span]) -> dict:
    """Per-layer sums and counts of one traced command, plus raw sgd_step times per bucket."""
    by_id = {s.id: s for s in spans}

    def under(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    def total(names) -> float:
        return sum(s.duration for s in spans if s.name in names)

    selfs = self_times(spans)
    out = {
        "data.build_s": total(("loop.build_dataset",)),
        "pretext.train_s": total(("pretext.train_pretext",)),
        "pretext.sgd_s": 0.0,
        "pretext.eval_s": 0.0,
        "pretext.extract_s": total(("pretext.extract_losses",)),
        "pretext.epochs_run": 0,
        "pretext.best_epoch": None,
        "learner.sgd_steps": 0,
        "learner.samples_trained": 0,
        "learner.train_s": total(("learner.train",)),
        "learner.predict_s": 0.0,
        "learner.predict_rows": 0,
        "sampler.plan_s": total(PLAN_SPANS),
        "sampler.select_s": total(SELECT_SPANS),
        "sampler.candidates_scored": 0,
        "loop.round_walls": [],
        "loop.self_s": sum(selfs[s.id] for s in spans if s.name == "loop.run_al"),
        "cli.io_s": total(IO_SPANS),
        "cli.bytes_written": 0,
        "cli.bytes_read": 0,
        "cli.import_s": total(("cli.import",)),
        "root_s": sum(s.duration for s in spans if s.parent is None),
        "sgd_us": {bucket: [] for bucket in SGD_BUCKETS},
    }
    for s in spans:
        if s.name == "learner.sgd_step":
            out["learner.sgd_steps"] += 1
            out["learner.samples_trained"] += s.attrs["rows"]
            bucket = ("conv" if s.attrs["conv"] else "dense", s.attrs["rows"])
            if bucket in out["sgd_us"]:
                out["sgd_us"][bucket].append(s.duration)
            if under(s, "pretext.train_pretext"):
                out["pretext.sgd_s"] += s.duration
        elif s.name == "learner.predict_logits":
            out["learner.predict_s"] += s.duration
            out["learner.predict_rows"] += s.attrs["rows"]
            if under(s, "pretext.train_pretext") and not under(s, "pretext.extract_losses"):
                out["pretext.eval_s"] += s.duration
        elif s.name == "learner.lr_at" and under(s, "pretext.train_pretext"):
            out["pretext.epochs_run"] += 1
        elif s.name == "pretext.train_pretext":
            out["pretext.best_epoch"] = s.attrs["best_epoch"]
        elif s.name in ("sampler.uncertainty_sample", "sampler.entropy_sample"):
            out["sampler.candidates_scored"] += s.attrs["candidates"]
        elif s.name == "loop.run_al":
            out["loop.round_walls"].extend(s.attrs["round_walls"])
        out["cli.bytes_written"] += s.attrs.get("bytes_written", 0)
        out["cli.bytes_read"] += s.attrs.get("bytes_read", 0)
    return out
