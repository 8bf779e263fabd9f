"""Output checks for one repetition of a workload.

Each check reads the CSV contract files a command wrote and returns a list
of problems (empty when the outputs are sound). The digests of the
deterministic outputs are compared across repetitions by the caller.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

DIGEST_FILES = ("losses.csv", "reports.csv", "queries.csv")


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def check_reports(rows: list[list[str]], iterations: int, budget: int) -> list[str]:
    """One row per round; labeled_size grows by exactly K; accuracy lies in [0, 1]."""
    if not rows or rows[0][:3] != ["iteration", "accuracy", "labeled_size"]:
        return ["reports.csv: missing header"]
    body = rows[1:]
    problems = []
    if len(body) != iterations:
        problems.append(f"reports.csv: {len(body)} rounds, expected {iterations}")
    prev = 0
    for row in body:
        size, acc = int(row[2]), float(row[1])
        if size - prev != budget:
            problems.append(f"reports.csv: round {row[0]} labeled_size {size} is not {prev} + {budget}")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"reports.csv: round {row[0]} accuracy {acc} outside [0, 1]")
        prev = size
    return problems


def check_queries(rows: list[list[str]], iterations: int, budget: int) -> list[str]:
    """K ids per round, never the same id in two rounds (or twice in one)."""
    if not rows or rows[0] != ["iteration", "sample_id", "score"]:
        return ["queries.csv: missing header"]
    problems = []
    seen: dict[int, str] = {}
    per_round: dict[str, int] = {}
    for it, sid, _ in rows[1:]:
        sid = int(sid)
        if sid in seen:
            problems.append(f"queries.csv: id {sid} picked in round {seen[sid]} and again in round {it}")
        seen[sid] = it
        per_round[it] = per_round.get(it, 0) + 1
    if len(per_round) != iterations or any(n != budget for n in per_round.values()):
        problems.append(f"queries.csv: picks per round {per_round}, expected {budget} in each of {iterations}")
    return problems


def check_losses(rows: list[list[str]]) -> list[str]:
    """Unique ids with finite, non-negative losses."""
    if not rows or rows[0] != ["sample_id", "pretext_loss"]:
        return ["losses.csv: missing header"]
    ids = [int(r[0]) for r in rows[1:]]
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("losses.csv: repeated sample ids")
    if any(not math.isfinite(float(r[1])) or float(r[1]) < 0 for r in rows[1:]):
        problems.append("losses.csv: loss not finite and non-negative")
    return problems


def check_outputs(out_dir: Path, iterations: int, budget: int, with_losses: bool) -> dict[str, list[str]]:
    """Problems per output file; a missing file is a problem of its own."""
    checks = {
        "reports.csv": lambda rows: check_reports(rows, iterations, budget),
        "queries.csv": lambda rows: check_queries(rows, iterations, budget),
    }
    if with_losses:
        checks["losses.csv"] = check_losses
    problems = {}
    for name, check in checks.items():
        path = out_dir / name
        try:
            problems[name] = check(_rows(path))
        except (OSError, ValueError, IndexError) as exc:
            problems[name] = [f"{name}: unreadable ({exc})"]
    return problems


def accuracies(out_dir: Path) -> list[float]:
    return [float(row[1]) for row in _rows(out_dir / "reports.csv")[1:]]


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each deterministic output file the command sequence wrote."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DIGEST_FILES if (out_dir / name).is_file()}
