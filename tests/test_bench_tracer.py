"""The benchmark tracer's wrap targets still name the functions their callers look up, and its probes fit them."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def test_tracer_targets_resolve_in_every_namespace():
    # Compiled from its source so no bytecode cache is written next to it.
    tracer = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    targets = tracer["_targets"]()
    assert targets
    for name, home, attr, namespaces, _ in targets:
        for ns in namespaces:
            assert getattr(ns, attr) is getattr(home, attr), f"{name}: {ns.__name__}.{attr} moved"


def test_traced_pretext_writes_the_untraced_losses_and_counts_every_rotation_row(tmp_path):
    # As `bench/run.py --trace 1` runs it: the CLI command in a child process behind the
    # tracer, with one BLAS thread. A slow learner, so that every epoch runs its own pass.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "dataset": {"kind": "synthetic", "classes": 3, "n_per_class": 50, "size": 10, "noise": 1.0,
                    "test_fraction": 0.2},
        "pretext": {"hidden": [16], "epochs": 3, "batch_size": 16, "learning_rate": 0.005},
    }))
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    spans_path = tmp_path / "spans.json"
    runs = {}
    for name, command in (("traced", [str(TRACER), str(spans_path), "--"]), ("plain", ["-m", "pt4al.cli"])):
        runs[name] = subprocess.run([sys.executable, *command, "pretext", str(cfg), "--output-dir",
                                     str(tmp_path / name)], env=env, capture_output=True, text=True, timeout=120)
        assert runs[name].returncode == 0, runs[name].stderr
    losses = (tmp_path / "plain" / "losses.csv").read_bytes()
    assert (tmp_path / "traced" / "losses.csv").read_bytes() == losses
    recorded = json.loads(spans_path.read_text(encoding="utf-8"))
    assert recorded["rc"] == 0
    epochs_run = int(re.search(r"best epoch \d+ of (\d+) run", runs["traced"].stdout).group(1))
    pool_size = len(losses.splitlines()) - 1
    assert (epochs_run, pool_size) == (3, 120)
    rows = [attrs["rows"] for _, _, name, _, _, attrs in recorded["spans"] if name == "learner.predict_logits"]
    # One forward call per orientation and epoch, each over the whole pool; no pass after training.
    assert rows == [pool_size] * (4 * epochs_run)
