"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line.  All arithmetic
is exact and every expected value was computed by an independent oracle
before being frozen here.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from nlie.algebra import (
    NLieAlgebra,
    NLiePoissonAlgebra,
    SkewBracketTensor,
    check_generalized_jacobi,
    check_leibniz,
    check_poisson_identity,
)
from nlie.constructions import (
    jacobian_from_derivations,
    truncated_polynomial_algebra,
    vector_product_algebra,
    w_from_derivations,
)
from nlie.fields import PrimeField, QQ
from nlie.linalg import span, unit_vector
from nlie.poly import (
    monomials_up_to,
    truncated_center,
    truncated_derived_span,
    verify_identity_truncated,
)
from nlie.structure import (
    IdealKind,
    brute_force_ideals,
    center,
    derived_subspace,
    element_power,
    ideal_closure,
    is_simple,
    probe_lemma,
    theorem1_pipeline,
    verify_simplicity_certificate,
    _reduce_mod_p,
)
from loop_oracle import ad_operator

F2 = PrimeField(2)
F3 = PrimeField(3)


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE C{number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def truncated_poisson(nvars: int, p: int) -> NLiePoissonAlgebra:
    return jacobian_from_derivations(truncated_polynomial_algebra(nvars, p).derivations)


def reduce_bracket(alg, p: int) -> SkewBracketTensor:
    reduced, _, _ = _reduce_mod_p(alg.bracket, None, p)
    return reduced


def test_c1_axiom_suite():
    start = time.perf_counter()
    for n in range(2, 6):
        v = check_generalized_jacobi(vector_product_algebra(n).bracket)
        assert v.ok, f"vector product, arity {n}"

    for nvars, p in [(2, 3), (2, 5), (3, 2), (3, 3)]:
        alg = truncated_poisson(nvars, p)
        assert check_generalized_jacobi(alg.bracket).ok, (nvars, p)
        assert check_leibniz(alg).ok, (nvars, p)
        assert check_poisson_identity(alg).ok, (nvars, p)

    carrier = truncated_polynomial_algebra(1, 3)
    w23 = w_from_derivations(carrier.derivations, 2)
    assert check_generalized_jacobi(w23.bracket).ok
    w_poisson = NLiePoissonAlgebra(carrier.product, carrier.unit, w23.bracket)
    leib = check_leibniz(w_poisson)
    assert not leib.ok
    # replay the witness from raw data: split a product argument across the
    # bracket's Leibniz expansion and compare both sides in coordinates
    data = leib.witness.data
    i, j, y = data["i"], data["j"], tuple(data["y"])
    d = w23.dim
    field = w23.bracket.field
    ab = carrier.product.entry(i, j)
    lhs = w23.bracket.eval([ab, unit_vector(field, d, y[0])])
    ei = unit_vector(field, d, i)
    ej = unit_vector(field, d, j)
    term1 = carrier.product.eval(ei, w23.bracket.eval([ej, unit_vector(field, d, y[0])]))
    term2 = carrier.product.eval(ej, w23.bracket.eval([ei, unit_vector(field, d, y[0])]))
    rhs = tuple(field.from_int(a + b) for a, b in zip(term1, term2))
    assert lhs == tuple(data["lhs"]) and rhs == tuple(data["rhs"])
    assert lhs != rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    announce(1, True, f"axiom suite exact in {elapsed:.1f}s, Leibniz witness replayed")


def test_c2_pipeline_char3_char5():
    start = time.perf_counter()
    report3 = theorem1_pipeline(truncated_poisson(2, 3))
    assert report3.dims == {
        "algebra": 9, "derived": 8, "center": 1, "intersection": 1, "quotient": 7,
    }
    assert report3.quotient_jacobi.ok
    assert report3.quotient_simple.status == "simple"
    cert = report3.quotient_simple.certificate
    assert cert["method"] == "ExhaustiveProjective"
    assert cert["points"] == 1093  # (3^7 - 1) / 2

    report5 = theorem1_pipeline(truncated_poisson(2, 5))
    assert report5.dims == {
        "algebra": 25, "derived": 24, "center": 1, "intersection": 1, "quotient": 23,
    }
    assert report5.quotient_simple.status == "simple"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    announce(2, True, f"char-3 dims (9,8,1,1,7) with 1093-point closure, char-5 dims "
                      f"(25,24,1,1,23), in {elapsed:.1f}s")


def build_corpus() -> list[NLieAlgebra]:
    corpus = []
    corpus.append(NLieAlgebra(reduce_bracket(vector_product_algebra(2), 2)))
    corpus.append(NLieAlgebra(reduce_bracket(vector_product_algebra(2), 3)))
    corpus.append(NLieAlgebra(reduce_bracket(vector_product_algebra(3), 2)))
    corpus.append(NLieAlgebra(reduce_bracket(vector_product_algebra(3), 3)))

    poisson22 = truncated_poisson(2, 2)
    corpus.append(NLieAlgebra(poisson22.bracket))  # dim 4 over F_2
    from nlie.structure import quotient_algebra

    q, _ = quotient_algebra(NLieAlgebra(poisson22.bracket), center(poisson22))
    corpus.append(q)  # dim 3 quotient

    corpus.append(NLieAlgebra(SkewBracketTensor(1, 2, F2, {})))
    corpus.append(NLieAlgebra(SkewBracketTensor(3, 2, F2, {})))
    corpus.append(NLieAlgebra(SkewBracketTensor(4, 3, F3, {})))

    # cross product plus a central line
    c3 = reduce_bracket(vector_product_algebra(2), 3)
    padded = {k: tuple(list(vec) + [0]) for k, vec in c3.table.items()}
    corpus.append(NLieAlgebra(SkewBracketTensor(4, 2, F3, padded)))

    rng = random.Random(20260815)
    dims = [(F2, 2, 2), (F2, 3, 2), (F2, 4, 2), (F2, 4, 3), (F3, 2, 2), (F3, 3, 2),
            (F3, 4, 2), (F3, 3, 3), (F3, 4, 3), (F2, 3, 3), (F3, 4, 4), (F2, 4, 4)]
    for field, d, arity in dims:
        table = {}
        for args in itertools.combinations(range(d), arity):
            vec = tuple(rng.randrange(field.p) for _ in range(d))
            if any(vec):
                table[args] = vec
        corpus.append(NLieAlgebra(SkewBracketTensor(d, arity, field, table)))
    return corpus


def all_vector_center(alg) -> "span":
    """Oracle: every vector whose bracket against all basis tuples vanishes."""
    t = alg.bracket
    field, d, n = t.field, t.dim, t.arity
    zero = tuple([field.zero] * d)
    members = []
    for coeffs in itertools.product(range(field.p), repeat=d):
        ok = True
        for rest in itertools.combinations(range(d), n - 1):
            vecs = [coeffs] + [unit_vector(field, d, r) for r in rest]
            if t.eval(vecs) != zero:
                ok = False
                break
        if ok:
            members.append(coeffs)
    return span(field, d, members)


def all_pairs_derived(alg) -> "span":
    """Oracle for arity 2: span of the bracket on every pair of vectors."""
    t = alg.bracket
    field, d = t.field, t.dim
    vals = []
    vectors = list(itertools.product(range(field.p), repeat=d))
    for a, b in itertools.combinations(vectors, 2):
        vals.append(t.eval([a, b]))
    return span(field, d, vals)


def test_c3_bruteforce_oracle_corpus():
    corpus = build_corpus()
    assert len(corpus) >= 20
    checked_derived = 0
    for alg in corpus:
        t = alg.bracket
        field, d = t.field, t.dim
        ideals = brute_force_ideals(alg)

        # closure minimality: smallest enumerated ideal containing each seed
        seeds = [unit_vector(field, d, k) for k in range(d)]
        seeds.append(tuple(field.one for _ in range(d)))
        for v in seeds:
            closure = ideal_closure(alg, [v])
            containing = [S for S in ideals if S.contains(v)]
            assert closure == min(containing, key=lambda s: s.dim)

        # center agreement against the all-vectors oracle
        assert center(alg) == all_vector_center(alg)

        # derived subspace agreement against the all-pairs oracle
        if t.arity == 2 and field.p ** d <= 100:
            assert derived_subspace(alg) == all_pairs_derived(alg)
            checked_derived += 1

        # simplicity consistency with the ideal lattice
        verdict = is_simple(alg)
        proper = [S for S in ideals if 0 < S.dim < d]
        lattice_simple = not t.is_zero() and not proper
        assert (verdict.status == "simple") == lattice_simple
        if verdict.status == "not_simple" and verdict.witness is not None:
            assert verdict.witness in ideals
            assert verify_simplicity_certificate(alg, verdict)
    assert checked_derived >= 8
    announce(3, True, f"{len(corpus)} tensors agree with the enumeration oracle")


def test_c4_symbolic_truncation():
    start = time.perf_counter()
    cases = [
        ("jacobi", "jac", 2, 4),
        ("leibniz", "jac", 2, 4),
        ("shift", "jac", 3, 2),
        ("jacobi", "w", 2, 4),
    ]
    for identity, bracket, arity, bound in cases:
        verdict = verify_identity_truncated(identity, bracket, arity, bound)
        assert verdict.ok, (identity, bracket, arity, bound)

    cen = truncated_center("jac", 2, 4)
    assert cen.member_monomials() == ((0, 0),)  # span{1}

    derived = truncated_derived_span("jac", 2, 4)
    assert derived.is_full()
    assert len(monomials_up_to(2, 4)) == 15
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    announce(4, True, f"four identities verified, center span{{1}}, derived full, "
                      f"in {elapsed:.1f}s")


def test_c5_probes_and_flags():
    char3 = truncated_poisson(2, 3)
    field = char3.bracket.field
    d = char3.dim

    r1 = probe_lemma(char3, "L1")
    assert not r1.conclusion_holds
    assert r1.witness.kind == "nilpotent_element"
    v = r1.witness.data["vector"]
    assert any(v)
    assert element_power(char3.product, char3.unit, v, 3) == tuple([0] * d)
    assert any("outside the characteristic-0 hypotheses" in f for f in r1.flags)

    r5 = probe_lemma(char3, "L5")
    assert not r5.conclusion_holds
    assert r5.witness.kind == "nilpotent_ad"
    args = [unit_vector(field, d, k) for k in r5.witness.data["args"]]
    m = ad_operator(char3, args)
    assert not m.is_zero()
    assert m.mul(m).mul(m).is_zero()
    assert any("outside the characteristic-0 hypotheses" in f for f in r5.flags)

    cross = vector_product_algebra(2)
    rq = probe_lemma(cross, "L5")
    assert rq.conclusion_holds and rq.flags == ()
    # exhaustive oracle: no basis-tuple ad over Q is nilpotent
    for k in range(3):
        m = ad_operator(cross, [unit_vector(QQ, 3, k)])
        power = m
        for _ in range(3):
            assert not power.is_zero()
            power = power.mul(m)
    announce(5, True, "char-3 nilpotency witnesses replay and are flagged; "
                      "no nilpotent ad over Q")


def run_cli(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "nlie", *args], capture_output=True, check=False,
    )
    return proc.stdout


def test_c6_cli_determinism(tmp_path):
    char3 = tmp_path / "char3.json"
    cross = tmp_path / "cross.json"
    subprocess.run([sys.executable, "-m", "nlie", "generate", "jacobian-trunc",
                    "--n", "2", "--p", "3", "-o", str(char3)], check=True,
                   capture_output=True)
    subprocess.run([sys.executable, "-m", "nlie", "generate", "vector-product",
                    "--n", "2", "-o", str(cross)], check=True, capture_output=True)

    commands = [
        ["check", "--poisson", "--format", "json", str(char3)],
        ["generate", "jacobian-trunc", "--n", "2", "--p", "3", "--format", "json"],
        ["analyze", "--format", "json", str(char3)],
        ["simple", "--format", "json", "--seed", "3", str(char3)],
        ["simple", "--format", "json", "--seed", "11", str(cross)],
        ["theorem1", "--format", "json", "--seed", "0", str(char3)],
        ["lemmas", "--lemma", "L5", "--format", "json", "--seed", "2", str(char3)],
        ["poly", "verify", "--bracket", "w", "--n", "2", "--identity", "leibniz",
         "--degree", "2", "--format", "json"],
    ]
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first, argv
        json.loads(first)  # every report is well formed JSON
        assert first == second, argv
    announce(6, True, f"{len(commands)} commands byte-identical across reruns")


def test_c7_rational_simplicity_certificate():
    cross = vector_product_algebra(2)
    verdict = is_simple(cross)
    assert verdict.status == "simple"
    cert = verdict.certificate
    assert cert["method"] == "ModPReduction"
    assert cert["p"] == 5
    inner = cert["inner"]
    assert inner == {
        "method": "ExhaustiveProjective", "p": 5, "dim": 3, "points": 31,
    }
    assert verify_simplicity_certificate(cross, verdict)
    announce(7, True, "cross product certified simple via mod-5 reduction, "
                      "certificate replayed")
