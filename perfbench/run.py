"""The nlie benchmark: time to verdict on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload axioms|certify|symbolic|cli-session \
        --seed N --seconds S --trace 0|1 [--tiny]

A closed loop: one client runs one task at a time, each task one public
nlie call or one `python -m nlie` process.  Set-up is timed five times (four
set-up-only processes, two before and two after the measuring one) and
reported as the median.
With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced pass instead.
A full record of the run goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
    "task_ok_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("NLIE_MAX_INSTANCES", None)  # the default guards are part of the benchmark
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Worker:
    """A worker process whose stdout is read line by line under a deadline."""

    def __init__(self, argv: list[str], env: dict, root: Path):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=root)
        self.buffer = b""

    def line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("worker timed out")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"worker exited early (code {self.proc.wait()})")
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def expect(self, prefix: str, deadline: float) -> str:
        while True:
            line = self.line(deadline)
            if line.startswith(prefix):
                return line[len(prefix):]

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(args, root: Path, mode: str, sample: int, deadline: float):
    """Start a worker; returns (set-up seconds, RESULT payload or None)."""
    workdir = HERE / ".work" / f"{os.getpid()}-{sample}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", str(workdir)]
    if args.tiny:
        argv.append("--tiny")
    if mode == "trace":
        argv += ["--spans-out", str(results_path(args, "spans", ".jsonl"))]
    worker = Worker(argv, worker_env(root), root)
    try:
        worker.expect("READY", deadline)
        setup_s = time.perf_counter() - worker.started
        payload = None
        if mode != "setup":
            payload = json.loads(worker.expect("RESULT ", deadline))
        worker.finish(deadline)
        return setup_s, payload
    finally:
        worker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def results_path(args, kind: str, suffix: str) -> Path:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    return out / f"{kind}-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten samples beyond it, and
    the 1-based nearest rank that reads it; the maximum when n <= 10."""
    if n <= 10:
        return 100, n
    q = math.floor(100 * (n - 10) / n)
    return q, math.ceil(q * n / 100)


def task_reading(workload: str, samples: list[float]) -> float:
    """A task's latency: its best sample for an in-process call, its median
    for a CLI process, whose launch jitter the best of a few samples
    amplifies (see README.md)."""
    return statistics.median(samples) if workload == "cli-session" else min(samples)


def end_to_end(workload: str, payload: dict, setups: list[float]) -> tuple[dict, dict]:
    """One reading per task; the failure share counts tasks."""
    best = [task_reading(workload, lat) for lat in payload["samples"].values()]
    n = len(best)
    q, rank = tail_rank(n)
    values = {
        "wall_s": sum(best),
        "setup_s": statistics.median(setups),
        "task_p50_s": statistics.median(best),
        "task_tail_s": sorted(best)[rank - 1],
        "peak_rss_mb": payload["peak_rss_mb"],
        "task_ok_frac": 1 - len(payload["failures"]) / n,
    }
    info = {"tail_percentile": q, "tasks": n, "passes": len(payload["pass_walls"]),
            "pass_walls_s": payload["pass_walls"], "setup_samples_s": setups}
    return values, info


def import_cost(root: Path, rounds: int = 5) -> float:
    """Median wall of `python -c "import nlie"` minus that of a bare
    interpreter, alternating the two."""
    env = worker_env(root)
    bare, full = [], []
    for _ in range(rounds):
        for code, out in (("pass", bare), ("import nlie", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            out.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def run_record(root: Path, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("axioms", "certify", "symbolic", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="a few cheap tasks (self-test)")
    args = ap.parse_args()

    # a terminated run still stops its worker (run_worker closes it on exit)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "nlie" / "__init__.py").is_file():
        print("error: run from the root of an nlie checkout (src/nlie is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # set-up-only workers before and after the measuring one, so the
        # samples spread over the run rather than share one moment
        before = (SETUP_SAMPLES - 1) // 2
        setups = [run_worker(args, root, "setup", k, deadline)[0] for k in range(before)]
        mode = "trace" if args.trace else "run"
        setup_s, payload = run_worker(args, root, mode, before, deadline)
        setups.append(setup_s)
        setups += [run_worker(args, root, "setup", k, deadline)[0]
                   for k in range(before + 1, SETUP_SAMPLES)]
        import_s = import_cost(root) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values, info = end_to_end(args.workload, payload, setups)
    if args.trace:
        values = dict(payload["layers"], **{"cli.import_s": import_s})
        from tracer import LAYER_METRICS

        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    known = set(json.loads((HERE / "expected.json").read_text())["known_defects"]["tasks"])
    unexpected = sorted(set(payload["failures"]) - known)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **info,
        "record": run_record(root, payload["numpy"]),
        "failures": payload["failures"], "unexpected_failures": unexpected,
        "metrics": metrics,
        "task_latencies_s": payload["samples"],
    }
    results_path(args, "run", ".json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"tail percentile p{info['tail_percentile']} of {info['tasks']} tasks; "
          f"{info['passes']} pass(es)")
    for name, reason in payload["failures"].items():
        tag = "unexpected" if name in unexpected else "known defect"
        print(f"failed ({tag}): {name}: {reason[:160]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
