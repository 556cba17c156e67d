"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import nlie  # noqa: E402
import run  # noqa: E402
import seeded  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, tiny: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_corpus(workload: str, seed: int, tmp_path: Path) -> corpus.Corpus:
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir()
    return corpus.build(workload, nlie, workdir, seed, True, corpus.CliRunner(ROOT))


def test_wrong_verdict_and_refusal_count_as_failed(tmp_path):
    c = tiny_corpus("axioms", 1, tmp_path)
    jacobi = next(t for t in c.tasks if t.name == "cross2.Q/jacobi")
    outcomes = [(nlie.Verdict(False, None, 9), None)]
    assert worker.check_pass([jacobi], outcomes) == {
        "cross2.Q/jacobi": "verdict: got False, expected True"}

    def refuse(inputs, results):
        raise nlie.GuardExceeded("over the limit")

    refused = corpus.Task("refused", (), refuse, lambda r: None)
    done = worker.run_pass(c, [refused, jacobi], nlie.GuardExceeded)
    failures = worker.check_pass([refused, jacobi], done["outcomes"])
    assert failures == {"refused": "refused: over the limit"}


def test_each_pass_gets_fresh_input_objects(tmp_path):
    c = tiny_corpus("axioms", 1, tmp_path)
    first, second = c.fresh(["cross2"]), c.fresh(["cross2"])
    assert first["cross2"] is not second["cross2"]
    assert first["cross2"].bracket == second["cross2"].bracket


def test_self_time_of_nested_spans():
    # parent [0, 10] with children [1, 4] and [3, 6] (union 5 s) and a child
    # running past the parent's end, [8, 12], which covers only [8, 10]
    spans = [
        ["structure.theorem1_pipeline", 0.0, 10.0, -1, 0, None],
        ["algebra.check_leibniz", 1.0, 4.0, 0, 0, (5, 0)],
        ["structure.is_simple", 3.0, 6.0, 0, 0, (7, 2)],
        ["linalg.kernel", 2.0, 3.0, 1, 0, None],
        ["linalg.kernel", 8.0, 12.0, 0, 0, None],
        ["linalg.kernel", 9.0, 9.5, 4, 0, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 3.5, 0.5])
    m = tracer.layer_metrics(spans)
    assert m["structure.theorem1_pipeline.self_s"] == pytest.approx(3.0)
    assert m["structure.self_s"] == pytest.approx(6.0)
    assert m["linalg.self_s"] == pytest.approx(5.0)
    # the kernel call nested in another kernel call is not counted twice
    assert m["linalg.kernel.calls"] == 3
    assert m["linalg.kernel.busy_s"] == pytest.approx(5.0)
    assert m["algebra.check_leibniz.instances"] == 5
    assert m["algebra.check_leibniz.instances_per_s"] == pytest.approx(5 / 3)
    assert m["structure.is_simple.points"] == 7
    assert m["structure.is_simple.kernel_nullity"] == 2


def test_tracer_rebinds_every_importing_module():
    t = tracer.Tracer()
    t.install()
    try:
        for module in (nlie, nlie.structure, nlie.cli):
            assert module.is_simple.__wrapped__ is not None
        nlie.is_simple(nlie.vector_product_algebra(2))
    finally:
        t.uninstall()
    assert not hasattr(nlie.structure.is_simple, "__wrapped__")
    assert [s[0] for s in t.spans].count("structure.is_simple") == 1


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(164) == (93, 153)
    assert run.tail_rank(40) == (75, 30)
    for n in range(11, 300):
        q, rank = run.tail_rank(n)
        assert n - rank >= 10
        assert n - math.ceil((q + 1) * n / 100) < 10  # the next percentile has fewer
    assert run.tail_rank(7) == (100, 7)


def test_seeded_basis_change_is_exact_and_repeatable():
    for p in (None, 5, seeded.M61):
        mat, inv = seeded.unitriangular_pair(6, random.Random(3), p)
        assert seeded._matmul(mat, inv, p) == [[int(i == j) for j in range(6)] for i in range(6)]
        assert (mat, inv) == seeded.unitriangular_pair(6, random.Random(3), p)
    assert seeded.random_poly_text(random.Random(4), ("x", "y")) == seeded.random_poly_text(
        random.Random(4), ("x", "y"))


def test_second_seed_gives_other_inputs_and_same_verdicts(tmp_path):
    def verdicts(seed):
        c = tiny_corpus("axioms", seed, tmp_path)
        done = worker.run_pass(c, c.tasks, nlie.GuardExceeded)
        inputs = (tmp_path / f"axioms-{seed}" / "jac23.dense.json").read_text()
        failures = worker.check_pass(c.tasks, done["outcomes"])
        return [r.ok for r, _ in done["outcomes"]], failures, inputs

    ok1, failures1, inputs1 = verdicts(1)
    ok2, failures2, inputs2 = verdicts(2)
    assert inputs1 != inputs2
    assert ok1 == ok2 and failures1 == failures2 == {}


@pytest.mark.parametrize("workload", ["axioms", "certify", "symbolic", "cli-session"])
def test_workload_runs_end_to_end_at_tiny_size(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, 7, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        assert [m["name"] for m in spec[group]] == list(last["metrics"])
        units = {m["name"]: m["unit"] for m in spec[group]}
        assert all(m["unit"] == units[k] for k, m in last["metrics"].items())


def test_same_failures_on_two_seeds_at_full_size_cross_sum(tmp_path):
    """The known large-prime defect fails on every seed, and nothing else."""
    def failures(seed):
        c = corpus.Corpus(nlie, tmp_path, seed, False)
        corpus._build_cross_sum(c)
        done = worker.run_pass(c, c.tasks, nlie.GuardExceeded)
        return sorted(worker.check_pass(c.tasks, done["outcomes"]))

    known = json.loads((HERE / "expected.json").read_text())["known_defects"]["tasks"]
    assert failures(1) == failures(2) == sorted(known)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("axioms", 1, 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
