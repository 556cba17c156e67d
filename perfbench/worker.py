"""One workload process: set-up, timed passes, an optional traced pass, and
the answer checks.

Usage, from the root of a checkout with `src` on PYTHONPATH (run.py starts
it this way):

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --workdir DIR [--tiny] [--spans-out FILE]

It prints `READY` once set-up is done (run.py times set-up up to that line);
in run and trace modes it then prints one `RESULT <json>` line.

A pass runs every task once, one at a time, on freshly loaded inputs.  Run
mode makes at least corpus.MIN_PASSES passes, and more while another fits
in S seconds.  Trace mode makes one untraced pass and one traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import corpus
from tracer import Tracer, layer_metrics

ROOT = Path.cwd()


def run_pass(c: corpus.Corpus, tasks, guard_error, tracer=None) -> dict:
    """Run the tasks once; inputs are loaded before the clock starts."""
    inputs = c.fresh({n for t in tasks for n in t.inputs})
    results: dict = {}
    gc.collect()
    latencies, outcomes = [], []
    clock = time.perf_counter
    begin = clock()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        start = clock()
        try:
            answer, error = task.call(inputs, results), None
            results[task.name] = answer
        except guard_error as exc:
            answer, error = None, f"refused: {exc}"
        except Exception as exc:  # a task that raises is a failed task, not a crash
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        outcomes.append((answer, error))
    return {"wall": clock() - begin, "latencies": latencies, "outcomes": outcomes}


def check_pass(tasks, outcomes) -> dict[str, str]:
    failures = {}
    for task, (answer, error) in zip(tasks, outcomes):
        if error is None:
            try:
                error = task.check(answer)
            except Exception as exc:  # a malformed answer fails its task
                error = f"answer check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures[task.name] = error
    return failures


def run_passes(c: corpus.Corpus, guard_error, least: int, seconds: float) -> list[dict]:
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(c, c.tasks, guard_error))
        elapsed = time.perf_counter() - begin
        if len(passes) >= least and elapsed + passes[-1]["wall"] > seconds:
            return passes


def traced_layers(c: corpus.Corpus, tracer: Tracer, guard_error, untraced_wall: float,
                  runner, spans_out: str | None) -> tuple[dict, dict]:
    if runner:
        runner.spans_dir = c.workdir / "spans"
        runner.spans_dir.mkdir()
        runner.walls.clear()
    tracer.install()
    try:
        traced = run_pass(c, c.tasks, guard_error, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = tracer.export()
    layers = {"cli.startup_frac": 0.0}
    if runner:
        child = _child_spans(runner.spans_dir)
        base = len(spans)
        spans += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]]
                  for s in child]
        process_wall = sum(runner.walls)
        main_busy = sum(s[2] - s[1] for s in child if s[0] == "cli.main")
        layers["cli.startup_frac"] = (process_wall - main_busy) / process_wall
    layers.update(layer_metrics(spans))
    layers["trace.overhead_frac"] = traced["wall"] / untraced_wall - 1
    if spans_out:
        Path(spans_out).write_text("".join(json.dumps(s) + "\n" for s in spans))
    return layers, traced


def _child_spans(spans_dir: Path) -> list:
    """Merge the span files of traced nlie processes; process k ran task k."""
    merged = []
    files = sorted(spans_dir.glob("*.json"), key=lambda p: int(p.stem))
    for k, path in enumerate(files):
        offset = len(merged)
        for s in json.loads(path.read_text())["spans"]:
            s[3] = s[3] + offset if s[3] >= 0 else -1
            s[4] = k
            s[5] = tuple(s[5]) if s[5] is not None else None
            merged.append(s)
    return merged


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        import nlie

        if not Path(nlie.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"nlie was imported from {nlie.__file__}, not from ./src")
        tracer = Tracer() if args.mode == "trace" else None
        if tracer:
            tracer.install()
        runner = corpus.CliRunner(ROOT) if args.workload == "cli-session" else None
        c = corpus.build(args.workload, nlie, workdir, args.seed, args.tiny, runner)
        if tracer:
            tracer.uninstall()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        if tracer:
            passes = [run_pass(c, c.tasks, nlie.GuardExceeded)]
        else:
            least = corpus.MIN_PASSES[args.workload]
            passes = run_passes(c, nlie.GuardExceeded, least, args.seconds)
        who = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        layers = None
        timed = list(passes)
        if tracer:
            layers, traced = traced_layers(c, tracer, nlie.GuardExceeded, passes[0]["wall"],
                                           runner, args.spans_out)
            passes.append(traced)

        failures: dict[str, str] = {}
        executions = failed = 0
        for p in passes:
            found = check_pass(c.tasks, p["outcomes"])
            executions += len(c.tasks)
            failed += len(found)
            for name, reason in found.items():
                failures.setdefault(name, reason)
        samples = {t.name: [p["latencies"][i] for p in timed] for i, t in enumerate(c.tasks)}
        import numpy

        print("RESULT " + json.dumps({
            "samples": samples,
            "pass_walls": [p["wall"] for p in timed],
            "attempted": executions,
            "failed": failed,
            "failures": failures,
            "peak_rss_mb": peak_rss_mb,
            "layers": layers,
            "numpy": numpy.__version__,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
