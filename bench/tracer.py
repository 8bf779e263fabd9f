"""Run one pt4al CLI command with its public functions wrapped in spans.

Usage: python3 bench/tracer.py SPANS_JSON -- <pt4al command arguments>

Nothing under src/ changes: each function is wrapped once and the wrapper
is put in every module namespace its callers look it up in (``loop``
imports ``train_pretext`` and the selection rules by name, ``pretext`` and
``learner.train`` reach ``sgd_step`` through the ``learner`` module). Spans
stay in memory and are written once the command returns, together with the
time taken to serialise them (``dump_s``), which is tracing overhead rather
than pt4al work. The process exits with the command's own exit code.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """In-memory span recorder; spans are rows ``[id, parent, name, start, end, attrs]``."""

    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        parent = self._open[-1] if self._open else None
        self.rows.append([len(self.rows), parent, name, start, end, attrs or {}])

    def wrap(self, name: str, fn, probe=None):
        clock = time.perf_counter
        rows, open_ids = self.rows, self._open

        def wrapper(*args, **kwargs):
            row = [len(rows), open_ids[-1] if open_ids else None, name, clock(), None, {}]
            rows.append(row)
            open_ids.append(row[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                open_ids.pop()
                row[4] = clock()
            if probe is not None:
                row[5] = probe(args, result)
            return result

        return wrapper


def _targets():
    """(span name, module that defines it, attribute, namespaces callers use, probe)."""
    from pt4al import cli, learner, loop, pretext, sampler

    def written(pos):
        return lambda args, _: {"bytes_written": os.path.getsize(args[pos])}

    def read(pos):
        return lambda args, _: {"bytes_read": os.path.getsize(args[pos])}

    return [
        ("cli.main", cli, "main", [cli], None),
        ("cli.load_config", cli, "load_config", [cli], None),
        ("cli.write_manifest", cli, "write_manifest", [cli], written(0)),
        ("loop.build_dataset", loop, "build_dataset", [loop], None),
        ("loop.run_al", loop, "run_al", [loop],
         lambda _, reports: {"round_walls": [r.wall_time for r in reports]}),
        ("loop.write_reports_csv", loop, "write_reports_csv", [loop], written(0)),
        ("pretext.train_pretext", pretext, "train_pretext", [pretext, loop],
         lambda _, result: {"best_epoch": result[1].best_epoch}),
        ("pretext.extract_losses", pretext, "extract_losses", [pretext], None),
        ("pretext.write_loss_records", pretext, "write_loss_records", [pretext], written(0)),
        ("pretext.read_loss_records", pretext, "read_loss_records", [pretext], read(0)),
        ("learner.save_checkpoint", learner, "save_checkpoint", [learner], written(1)),
        ("learner.init_learner", learner, "init_learner", [learner], None),
        ("learner.train", learner, "train", [learner], None),
        ("learner.lr_at", learner, "lr_at", [learner], None),
        ("learner.sgd_step", learner, "sgd_step", [learner],
         lambda args, _: {"rows": len(args[1]), "conv": args[0].config.conv is not None}),
        ("learner.predict_logits", learner, "predict_logits", [learner],
         lambda args, _: {"rows": len(args[1])}),
        ("sampler.build_batch_plan", sampler, "build_batch_plan", [sampler, loop], None),
        ("sampler.uniform_first_sample", sampler, "uniform_first_sample", [sampler, loop], None),
        ("sampler.random_sample", sampler, "random_sample", [sampler, loop], None),
        ("sampler.uncertainty_sample", sampler, "uncertainty_sample", [sampler, loop],
         lambda args, _: {"candidates": len(args[0])}),
        ("sampler.entropy_sample", sampler, "entropy_sample", [sampler, loop],
         lambda args, _: {"candidates": len(args[0])}),
        ("sampler.write_query_results", sampler, "write_query_results", [sampler], written(0)),
    ]


def install(tracer: Tracer) -> None:
    for name, home, attr, namespaces, probe in _targets():
        fn = getattr(home, attr)
        wrapped = tracer.wrap(name, fn, probe)
        for module in namespaces:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} is not {home.__name__}.{attr}; update the trace targets")
            setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    from pt4al import cli

    tracer.record("cli.import", _T0, time.perf_counter())
    install(tracer)
    rc = cli.main(cli_args)
    start = time.perf_counter()
    rows = json.dumps(tracer.rows)
    dump_s = time.perf_counter() - start
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"rc": {rc}, "dump_s": {dump_s!r}, "spans": {rows}}}')
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
