"""The benchmark tracer's wrap targets still name the functions their callers look up."""
from __future__ import annotations

from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve_in_every_namespace():
    # Compiled from its source so no bytecode cache is written next to it.
    tracer = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    targets = tracer["_targets"]()
    assert targets
    for name, home, attr, namespaces, _ in targets:
        for ns in namespaces:
            assert getattr(ns, attr) is getattr(home, attr), f"{name}: {ns.__name__}.{attr} moved"
