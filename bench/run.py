"""pt4al benchmark: the CLI run end to end, or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
pt4al is imported from its ``src/``. Every pt4al command runs in a fresh
process with BLAS pinned to one thread. ``--trace 0`` times the untraced
commands and prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics. Both
check every repetition's outputs. Work files go to ``.bench_runs/`` under
the root and are removed at the end, except one JSON result per run in
``.bench_runs/results/``. The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

DEADLINE_S = 165  # hard cap on one run, so that it always ends within 180 s
SETUP_REPS = 7
MIN_REPS = 2
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    iterations: int
    budget: int
    strategy: str

    def config(self, seed: int) -> dict:
        return {"seed": seed,
                "al": {"iterations": self.iterations, "budget": self.budget, "strategy": self.strategy}}


# Why these two, and why no conv workload: README.md, "Workloads".
WORKLOADS = {
    "pt4al-default": Workload(("pretext", "run"), 5, 100, "pt4al"),
    "entropy-long": Workload(("run",), 8, 150, "entropy"),
}

# (name, unit); directions and bounds live in BENCHMARK.json and README.md.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("al_s", "s"), ("peak_rss_mb", "MB"),
    ("final_accuracy", "fraction"), ("mean_accuracy", "fraction"), ("ok_share", "fraction"),
)
PER_LAYER = (
    ("data.build_s", "s"),
    ("pretext.train_s", "s"), ("pretext.sgd_s", "s"), ("pretext.eval_s", "s"), ("pretext.extract_s", "s"),
    ("pretext.epochs_run", "count"), ("pretext.best_epoch", "index"), ("pretext.useful_epoch_ratio", "ratio"),
    ("learner.sgd_steps", "count"), ("learner.samples_trained", "count"),
    ("learner.train_s", "s"), ("learner.predict_s", "s"), ("learner.predict_rows", "count"),
    *((f"learner.sgd_step_us.{kind}.b{rows}.{stat}", unit)
      for kind, rows in spans.SGD_BUCKETS
      for stat, unit in (("p50", "us"), ("tail", "us"), ("tail_pct", "pct"), ("n", "count"))),
    ("sampler.plan_s", "s"), ("sampler.select_s", "s"), ("sampler.candidates_scored", "count"),
    ("loop.round_s", "s"), ("loop.self_s", "s"),
    ("cli.io_s", "s"), ("cli.bytes_written", "B"), ("cli.bytes_read", "B"), ("cli.import_s", "s"),
    ("process.minor_faults", "count"), ("process.sys_s", "s"),
    ("trace.overhead_s", "s"), ("trace.uncovered_s", "s"),
)
# Which command wrote each checked file, so a bad file fails that command.
WRITER = {"losses.csv": "pretext", "reports.csv": "run", "queries.csv": "run"}


@dataclass
class Proc:
    rc: int
    wall: float
    maxrss_mb: float
    minflt: int
    sys_s: float


@dataclass
class Rep:
    traced: bool
    wall: float = 0.0
    cmd_walls: dict = field(default_factory=dict)
    maxrss_mb: float = 0.0
    minflt: int = 0
    sys_s: float = 0.0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    accuracies: list = field(default_factory=list)
    layers: list = field(default_factory=list)


class Runner:
    """Starts child processes one at a time, each with a log file and the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # Children compile pt4al to bytecode once and reuse it, as an installed package
        # would, whatever the caller's environment says.
        inherited = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        self.env = {**inherited, "PYTHONPATH": str(SRC), **PINNED_THREADS}
        self.attempted = 0
        self.failed = 0
        self._logs = 0

    def spawn(self, argv: list[str]) -> Proc:
        self._logs += 1
        log = self.work / f"log-{self._logs}.txt"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print(f"command failed with exit code {proc.returncode}: {' '.join(argv[1:])}",
                  *tail, sep="\n  ", file=sys.stderr)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_minflt, usage.ru_stime)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_rep(runner: Runner, wl: Workload, cfg_path: Path, index: int, traced: bool) -> Rep:
    out_dir = runner.work / f"rep-{index}"
    rep = Rep(traced)
    for cmd in wl.commands:
        args = [cmd, str(cfg_path), "--output-dir", str(out_dir)]
        spans_path = runner.work / f"rep-{index}-{cmd}-spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "pt4al.cli", *args]
        proc = runner.spawn(argv)
        rep.wall += proc.wall
        rep.cmd_walls[cmd] = proc.wall
        rep.maxrss_mb = max(rep.maxrss_mb, proc.maxrss_mb)
        rep.minflt += proc.minflt
        rep.sys_s += proc.sys_s
        if proc.rc != 0:
            rep.failed.add(cmd)
        elif traced:
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))
            layers = spans.command_layers(spans.spans_from_json(recorded["spans"]))
            layers["uncovered_s"] = proc.wall - layers.pop("root_s") - recorded["dump_s"]
            rep.layers.append(layers)
    found = checks.check_outputs(out_dir, wl.iterations, wl.budget, with_losses="pretext" in wl.commands)
    for name, problems in found.items():
        if problems:
            rep.failed.add(WRITER[name])
            rep.problems.extend(problems)
    if not found["reports.csv"]:
        rep.accuracies = checks.accuracies(out_dir)
    rep.digests = checks.digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def settle_reps(runner: Runner, wl: Workload, reps: list[Rep]) -> None:
    """Compare every repetition's digests with the first one and count failures."""
    reference = reps[0].digests
    for rep in reps:
        for name, digest in rep.digests.items():
            if reference.get(name) != digest:
                rep.failed.add(WRITER[name])
                rep.problems.append(f"{name}: sha256 differs from the first repetition")
        runner.count(len(wl.commands), len(rep.failed))


def repeat(run_one, until: float, deadline: float) -> list:
    """Call run_one(i) until the next call would likely end after `until` (at least MIN_REPS times)."""
    results = []
    started = time.monotonic()
    while True:
        results.append(run_one(len(results)))
        per_call = (time.monotonic() - started) / len(results)
        ends = time.monotonic() + per_call
        if (len(results) >= MIN_REPS and ends > until) or ends > deadline:
            return results


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setup_walls: list[float], reps: list[Rep], runner: Runner) -> dict:
    accs = reps[0].accuracies or [0.0]  # equal in every repetition, or the digest check failed
    return {
        "wall_s": median(r.wall for r in reps),
        "setup_s": median(setup_walls),
        "al_s": median(r.cmd_walls["run"] for r in reps),
        "peak_rss_mb": median(r.maxrss_mb for r in reps),
        "final_accuracy": accs[-1],
        "mean_accuracy": sum(accs) / len(accs),
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }


def _rep_layers(rep: Rep) -> dict:
    """Sum one traced repetition's per-command layer numbers."""
    total: dict = {"sgd_us": {b: [] for b in spans.SGD_BUCKETS}, "loop.round_walls": [],
                   "pretext.best_epoch": None}
    for layers in rep.layers:
        for key, value in layers.items():
            if key == "sgd_us":
                for bucket, times in value.items():
                    total["sgd_us"][bucket].extend(times)
            elif key == "loop.round_walls":
                total[key].extend(value)
            elif key == "pretext.best_epoch":
                total[key] = value if value is not None else total[key]
            else:
                total[key] = total.get(key, 0) + value
    return total


def per_layer(pairs: list[tuple[Rep, Rep]]) -> dict:
    """Per-layer numbers from (untraced, traced) pairs of repetitions that both passed.

    Times are medians over the traced repetitions; counts come from the first
    (they repeat exactly). The tracing overhead is the median difference within
    a pair, because the two repetitions of a pair ran next to each other.
    """
    untraced = [u for u, _ in pairs]
    reps = [_rep_layers(t) for _, t in pairs]
    first = reps[0]
    out = {}
    for name, unit in PER_LAYER:
        if unit == "s" and name in first:
            out[name] = median(r[name] for r in reps)
        elif unit in ("count", "B") and name in first:
            out[name] = first[name]
    epochs, best = first.get("pretext.epochs_run", 0), first.get("pretext.best_epoch")
    out["pretext.epochs_run"] = epochs
    out["pretext.best_epoch"] = -1 if best is None else best
    out["pretext.useful_epoch_ratio"] = (best + 1) / epochs if epochs and best is not None else 0.0
    for kind, rows in spans.SGD_BUCKETS:
        pooled = [t for r in reps for t in r["sgd_us"][(kind, rows)]]
        for stat, value in spans.summarize_us(pooled).items():
            out[f"learner.sgd_step_us.{kind}.b{rows}.{stat}"] = value
    out["loop.round_s"] = median(sum(r["loop.round_walls"]) / max(1, len(r["loop.round_walls"])) for r in reps)
    out["process.minor_faults"] = median(r.minflt for r in untraced)
    out["process.sys_s"] = median(r.sys_s for r in untraced)
    out["trace.overhead_s"] = median(t.wall - u.wall for u, t in pairs)
    out["trace.uncovered_s"] = median(r["uncovered_s"] for r in reps)
    return {name: out.get(name, 0) for name, _ in PER_LAYER}


def environment(runner: Runner) -> dict:
    block = {"blas_pinned_env": PINNED_THREADS}
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"), "env"], cwd=ROOT, env=runner.env,
                         capture_output=True, text=True, timeout=60)
    if out.returncode == 0:
        block.update(json.loads(out.stdout))
    else:
        block["error"] = out.stderr.strip().splitlines()[-1:]
    block["git_commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if git.returncode == 0:
            block["git_commit"] = git.stdout.strip()
    return block


def measure(args, runner: Runner, deadline: float) -> dict:
    wl = WORKLOADS[args.workload]
    cfg_path = runner.work / "config.json"
    cfg_path.write_text(json.dumps(wl.config(args.seed), indent=2), encoding="utf-8")
    until = time.monotonic() + args.seconds
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "config": wl.config(args.seed), "env": environment(runner)}

    def setup_probe() -> float:
        proc = runner.spawn([sys.executable, str(BENCH / "probe.py"), "setup", str(cfg_path)])
        runner.count(1, int(proc.rc != 0))
        return proc.wall

    setup_probe()  # warm the file cache and bytecode before anything is timed
    if args.trace == 0:
        setup_walls = [setup_probe() for _ in range(SETUP_REPS)]
        reps = repeat(lambda i: run_rep(runner, wl, cfg_path, i, traced=False), until, deadline)
        settle_reps(runner, wl, reps)
        metrics = end_to_end(setup_walls, reps, runner)
        units = dict(END_TO_END)
        result["setup_walls"] = setup_walls
    else:
        def pair(i: int) -> tuple[Rep, Rep]:
            return (run_rep(runner, wl, cfg_path, 2 * i, traced=False),
                    run_rep(runner, wl, cfg_path, 2 * i + 1, traced=True))

        pairs = repeat(pair, until, deadline)
        reps = [rep for p in pairs for rep in p]
        settle_reps(runner, wl, reps)
        ok = [(u, t) for u, t in pairs if not u.failed and not t.failed]
        metrics = per_layer(ok) if ok else {n: 0 for n, _ in PER_LAYER}
        units = dict(PER_LAYER)
    result["reps"] = [{"traced": r.traced, "wall": r.wall, "cmd_walls": r.cmd_walls, "maxrss_mb": r.maxrss_mb,
                       "minflt": r.minflt, "sys_s": r.sys_s, "failed": sorted(r.failed), "problems": r.problems}
                      for r in reps]
    result["digests"] = reps[0].digests
    result["accuracies"] = reps[0].accuracies
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return result


def report(result: dict, runner: Runner) -> None:
    print(f"pt4al benchmark: workload {result['workload']}, seed {result['seed']}, trace {result['trace']}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    walls = ", ".join(f"{r['wall']:.3f}" + (" traced" if r["traced"] else "") for r in result["reps"])
    print(f"repetitions: {len(result['reps'])} ({walls} s)")
    print("digests: " + json.dumps(result["digests"], sort_keys=True))
    print("test accuracy per round: " + ", ".join(f"{a:.4f}" for a in result["accuracies"]))
    problems = [p for r in result["reps"] for p in r["problems"]]
    print(f"output check: {runner.attempted - runner.failed}/{runner.attempted} commands ok"
          + "".join(f"\n  {p}" for p in problems))
    for name, metric in result["metrics"].items():
        print(f"  {name:<38} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result["metrics"]}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in [1, 120]")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pt4al" / "cli.py").is_file():
        print(f"pt4al sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by an earlier run that was killed
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    try:
        result = measure(args, runner, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results_dir = RUNS / "results"
    results_dir.mkdir(exist_ok=True)
    result["attempted"], result["failed"] = runner.attempted, runner.failed
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report(result, runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
