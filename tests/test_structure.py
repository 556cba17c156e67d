"""Structural operators: adjoints, series, closures, radicals, quotients,
simplicity verdicts, probes, and the pipeline.

Independent oracles: brute-force subspace enumeration for ideal lattices,
elementwise power enumeration for nilpotency, and hand-computed values on
polynomial quotient rings.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nlie
from nlie.algebra import NLieAlgebra, NLiePoissonAlgebra, SkewBracketTensor, SymProductTensor
from nlie.constructions import (
    jacobian_from_derivations,
    truncated_polynomial_algebra,
    vector_product_algebra,
    w_from_derivations,
)
from nlie.fields import PrimeField, QQ
from nlie.guards import DEFAULT_MAX_ENUM, GuardExceeded
from nlie.linalg import Matrix, SubspaceBasis, span, unit_vector
from nlie.structure import (
    IdealKind,
    brute_force_ideals,
    center,
    derived_series,
    derived_subspace,
    element_power,
    ideal_closure,
    is_ideal,
    is_simple,
    nilradical,
    probe_lemma,
    quotient_algebra,
    subalgebra_on,
    theorem1_pipeline,
    verify_simplicity_certificate,
    _closure,
    _exhaustive_projective,
    _gaussian_binomial,
    _norton,
    _operators,
    _ops_for_kind,
    _reduce_mod_p,
)
from loop_oracle import ad_operator, center_oracle, quotient_oracle, subalgebra_oracle, vec_add

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Z = Fraction(0)
ONE = Fraction(1)


def truncated_poisson(nvars: int, p: int) -> NLiePoissonAlgebra:
    return jacobian_from_derivations(truncated_polynomial_algebra(nvars, p).derivations)


def _decider_args(alg):
    """The bracket, the kind is_simple picks, and that kind's operations."""
    product = alg.product if isinstance(alg, NLiePoissonAlgebra) else None
    kind = IdealKind.POISSON if product is not None else IdealKind.NLIE
    return alg.bracket, kind, _ops_for_kind(alg.bracket, kind, product)


def exhaustive(alg, limit=DEFAULT_MAX_ENUM):
    """The F_p verdict of the exhaustive projective search alone."""
    t, kind, ops = _decider_args(alg)
    return _exhaustive_projective(t, kind, ops, limit, 0)


def norton(alg, seed=0):
    """The F_p verdict of Norton's test alone."""
    t, kind, ops = _decider_args(alg)
    return _norton(t, kind, ops, seed)


def poly_quotient_ring(d: int) -> tuple[SymProductTensor, tuple]:
    """Q[x]/(x^d) on the basis 1, x, ..., x^(d-1)."""
    table = {}
    for i in range(d):
        for j in range(i, d):
            if i + j < d:
                table[(i, j)] = tuple(ONE if k == i + j else Z for k in range(d))
    unit = tuple(ONE if k == 0 else Z for k in range(d))
    return SymProductTensor(d, QQ, table), unit


_FRESH_CLOSURES = """
import json, sys
from nlie.constructions import jacobian_from_derivations, truncated_polynomial_algebra
from nlie.linalg import unit_vector
from nlie.structure import IdealKind, ideal_closure

c3 = jacobian_from_derivations(truncated_polynomial_algebra(2, 3).derivations)
rows = [
    [list(row) for row in ideal_closure(c3, [unit_vector(c3.field, 9, k)], IdealKind(kind)).rows]
    for k, kind in json.loads(sys.argv[1])
]
print(json.dumps({"rows": rows, "numpy": "numpy" in sys.modules}))
"""


def cross_mod(p: int) -> NLieAlgebra:
    reduced, _, _ = _reduce_mod_p(vector_product_algebra(2).bracket, None, p)
    return NLieAlgebra(reduced)


def direct_sum_cross(field) -> NLieAlgebra:
    c = vector_product_algebra(2).bracket
    table = {}
    for (i, j), vec in c.table.items():
        left = [field.parse(str(x)) for x in vec]
        table[(i, j)] = tuple(left + [field.zero] * 3)
        table[(i + 3, j + 3)] = tuple([field.zero] * 3 + left)
    return NLieAlgebra(SkewBracketTensor(6, 2, field, table))


def heisenberg() -> NLieAlgebra:
    """Q^3 with [e1, e2] = e0, the other brackets of basis vectors zero."""
    return NLieAlgebra(SkewBracketTensor(3, 2, QQ, {(1, 2): (ONE, Z, Z)}))


def seeded_basis(alg: NLieAlgebra, seed: int):
    """The algebra in the basis f_a = M e_a for a seeded lower unitriangular
    M, and the map from old to new coordinates (M^-1)."""
    t, f, d = alg.bracket, alg.field, alg.dim
    rng = random.Random(seed)

    def below():
        return rng.randrange(f.p) if f.p else Fraction(rng.randint(-2, 2))

    M = [[f.one if i == j else below() if j < i else f.zero for j in range(d)] for i in range(d)]

    def to_new(v):
        x = list(v)
        for i in range(d):
            for j in range(i):
                x[i] = f.from_int(x[i] - M[i][j] * x[j])
        return tuple(x)

    cols = [tuple(M[i][a] for i in range(d)) for a in range(d)]
    table = {
        key: to_new(t.eval([cols[a] for a in key]))
        for key in itertools.combinations(range(d), t.arity)
    }
    return NLieAlgebra(SkewBracketTensor(d, t.arity, f, table)), to_new


def dense_basis(alg: NLieAlgebra, seed: int) -> NLieAlgebra:
    """The rational algebra in the basis f_a = M e_a for a seeded invertible
    M with every entry in -2..2, so that no f_a lies in a summand."""
    t, d = alg.bracket, alg.dim
    rng = random.Random(seed)
    while True:
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        cols = [tuple(M[i][a] for i in range(d)) for a in range(d)]
        if span(QQ, d, cols).is_full():
            break
    # Gauss-Jordan on [M | I] leaves M^-1 on the right
    aug = [row + [ONE if i == j else Z for j in range(d)] for i, row in enumerate(M)]
    for c in range(d):
        r = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    inv = [row[d:] for row in aug]
    table = {
        key: tuple(sum(inv[i][j] * x for j, x in enumerate(t.eval([cols[a] for a in key])))
                   for i in range(d))
        for key in itertools.combinations(range(d), t.arity)
    }
    return NLieAlgebra(SkewBracketTensor(d, t.arity, QQ, table))


def rational_poisson(extra: dict | None = None) -> NLiePoissonAlgebra:
    """Q^3 with the cross bracket and the product of Q[x,y]/(x,y)^2 on the
    basis 1, x, y (unit e_0), with the product entries `extra` added."""
    e = [unit_vector(QQ, 3, k) for k in range(3)]
    table = {(0, k): e[k] for k in range(3)}
    product = SymProductTensor(3, QQ, {**table, **(extra or {})})
    return NLiePoissonAlgebra(product, e[0], vector_product_algebra(2).bracket)


_OPERATOR_FIELDS = (QQ, F3, PrimeField(2**61 - 1))


def random_tensors(seed: int) -> tuple[SkewBracketTensor, SymProductTensor]:
    """A seeded sparse bracket of arity 2-4 and a commutative product, on
    F^d with n <= d <= 6, over Q, F_3 or F_(2^61-1)."""
    rng = random.Random(seed)
    f = _OPERATOR_FIELDS[seed % 3]
    n = rng.randint(2, 4)
    d = rng.randint(n, 6)

    def vector():
        if f is QQ:
            return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         if rng.random() < 0.4 else Z for _ in range(d))
        return tuple(rng.randrange(f.p) if rng.random() < 0.4 else 0 for _ in range(d))

    keys = list(itertools.combinations(range(d), n))
    pairs = list(itertools.combinations_with_replacement(range(d), 2))
    table = {key: vector() for key in rng.sample(keys, min(len(keys), rng.randint(1, 8)))}
    ptable = {key: vector() for key in rng.sample(pairs, min(len(pairs), rng.randint(0, 5)))}
    return SkewBracketTensor(d, n, f, table), SymProductTensor(d, f, ptable)


@pytest.mark.parametrize("seed", range(60))
def test_operators_match_evaluation(seed):
    # the operators built from the sparse column index against the bracket
    # and product evaluated on basis vectors, entries and cached columns; a
    # tuple or a basis element is left out exactly when its operator is zero
    t, product = random_tensors(seed)
    f, d = t.field, t.dim
    e = [unit_vector(f, d, i) for i in range(d)]
    dense_ads = [
        (idx, ad_operator(t, [e[i] for i in idx]))
        for idx in itertools.combinations(range(d), t.arity - 1)
    ]
    dense_mults = [Matrix(f, zip(*(product.eval(e[k], e[j]) for j in range(d)))) for k in range(d)]
    want_ads = [(idx, m) for idx, m in dense_ads if not m.is_zero()]
    want_mults = [((k,), m) for k, m in enumerate(dense_mults) if not m.is_zero()]
    ads, mults = _operators(t), _operators(product)

    def same(m, want):
        return m == want and [m.matvec(x) for x in e] == [want.matvec(x) for x in e]

    assert [idx for idx, _ in ads] == [idx for idx, _ in want_ads]
    for (idx, m), (_, want) in zip(ads, want_ads):
        assert same(m, want), idx
    assert [k for k, _ in mults] == [k for k, _ in want_mults]
    for (k, m), (_, want) in zip(mults, want_mults):
        assert same(m, want), k
    assert _ops_for_kind(t, IdealKind.POISSON, product) == [m for _, m in ads + mults]


@pytest.mark.parametrize("seed", range(60))
def test_center_matches_per_operator_kernels(seed):
    # also in a seeded basis, where the center is rarely spanned by basis
    # vectors, so that every sign of an adjoint column counts
    t, _ = random_tensors(seed)
    for alg in (NLieAlgebra(t), seeded_basis(NLieAlgebra(t), seed)[0]):
        assert center(alg) == center_oracle(alg.bracket)


@pytest.mark.parametrize("build", [
    lambda: truncated_poisson(2, 3),
    lambda: truncated_poisson(3, 2),
    lambda: vector_product_algebra(3),
    lambda: direct_sum_cross(F3),
])
def test_center_matches_per_operator_kernels_on_constructions(build):
    alg = NLieAlgebra(build().bracket)
    for alg in (alg, seeded_basis(alg, 3)[0]):
        assert center(alg) == center_oracle(alg.bracket)


def w33() -> NLiePoissonAlgebra:
    """`generate w-trunc --n 3 --p 3`: the W bracket with its carrier's product."""
    carrier = truncated_polynomial_algebra(2, 3)
    bracket = w_from_derivations(carrier.derivations, 3).bracket
    return NLiePoissonAlgebra(carrier.product, carrier.unit, bracket)


# the algebras of the golden reports: each call builds a fresh copy, on
# which no structure operator is kept yet
GOLDEN = Path(__file__).parent / "golden"
_GOLDEN_ALGEBRAS = {
    "c3": lambda: truncated_poisson(2, 3),
    "w33": w33,
    "cross": lambda: vector_product_algebra(2),
    "q_square_zero": lambda: nlie.load_path(str(GOLDEN / "q_square_zero.json")).algebra(),
    "cross_sum_f3": lambda: nlie.load_path(str(GOLDEN / "cross_sum_f3.json")).algebra(),
}


def _kept_operators(alg) -> list:
    """The operators kept on each of the algebra's tensors, built now if
    they are not kept yet."""
    kept = [_operators(alg.bracket)]
    if isinstance(alg, NLiePoissonAlgebra):
        kept.append(_operators(alg.product))
    return kept


def _outcome(fn, *args, **kwargs):
    """fn's value, or the class and text of the refusal it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, GuardExceeded) as exc:
        return type(exc), str(exc)


def _tampered(alg, verdict):
    """The verdict with its certificate's dimension, or the inner one's,
    off by one, or with its witness swapped for a basis line that is not
    invariant."""
    from nlie.structure import SimplicityVerdict

    if verdict.certificate is not None:
        certificate = json.loads(json.dumps(verdict.certificate))
        target = certificate.get("inner", certificate)
        target["dim"] += 1
        return SimplicityVerdict("simple", verdict.kind, certificate, None, None, verdict.seed)
    f, d = alg.field, alg.dim
    lines = (span(f, d, [unit_vector(f, d, k)]) for k in range(d))
    line = next(S for S in lines if not is_ideal(alg, S, verdict.kind))
    return SimplicityVerdict("not_simple", verdict.kind, None, line, None, verdict.seed)


@pytest.mark.parametrize("name", list(_GOLDEN_ALGEBRAS))
class TestKeptOperators:
    """The structure operators are built once per tensor and shared by
    every later call, on cold copies (nothing kept) and warm ones."""

    def test_second_call_returns_the_kept_tuple(self, name):
        cold, warm = _GOLDEN_ALGEBRAS[name](), _GOLDEN_ALGEBRAS[name]()
        kept = _kept_operators(warm)
        assert _kept_operators(warm) == kept
        assert all(a is b for a, b in zip(_kept_operators(warm), kept))
        first = _kept_operators(cold)
        assert all(type(ops) is tuple for ops in first)
        assert all(a is b for a, b in zip(_kept_operators(cold), first))
        assert first == kept

    def test_ops_for_kind_returns_a_fresh_list(self, name):
        alg = _GOLDEN_ALGEBRAS[name]()
        product = alg.product if isinstance(alg, NLiePoissonAlgebra) else None
        kind = IdealKind.POISSON if product is not None else IdealKind.NLIE
        ops = _ops_for_kind(alg.bracket, kind, product)
        kept = _kept_operators(alg)
        want = [m for ops in kept for _, m in ops]
        assert type(ops) is list and ops == want
        ops.clear()
        again = _ops_for_kind(alg.bracket, kind, product)
        assert again == want and again is not ops
        assert _kept_operators(alg) == kept

    def test_equal_tensors_keep_separate_operators(self, name):
        a, b = _GOLDEN_ALGEBRAS[name](), _GOLDEN_ALGEBRAS[name]()
        assert a.bracket == b.bracket
        ops_a = _kept_operators(a)
        assert b.bracket._ops is None  # building on a keeps nothing on b
        ops_b = _kept_operators(b)
        assert ops_a == ops_b
        for x, y in zip(ops_a, ops_b):
            assert x is not y
            assert all(m is not n for m, n in zip(x, y))

    def test_results_equal_warm_and_cold(self, name):
        def results(alg):
            f, d = alg.field, alg.dim
            verdict = is_simple(alg, max_enum=100)  # Norton on c3 and w33
            return (
                [ideal_closure(alg, [unit_vector(f, d, k)]) for k in range(d)],
                center(alg),
                verdict,
                verify_simplicity_certificate(alg, verdict, max_enum=100),
                _outcome(brute_force_ideals, alg),
                probe_lemma(alg, "L5", max_enum=100),
            )

        cold, warm = _GOLDEN_ALGEBRAS[name](), _GOLDEN_ALGEBRAS[name]()
        kept = _kept_operators(warm)
        got = results(warm)
        assert got == results(cold)
        assert got[3] is True
        assert _kept_operators(warm) == kept

    def test_one_shape_for_both_tensors(self, name):
        # a product's kept tuple holds (z, Matrix) pairs as a bracket's
        # does, with z = (i,) for multiplication by e_i, in index order
        alg = _GOLDEN_ALGEBRAS[name]()
        for ops in _kept_operators(alg):
            assert all(type(z) is tuple and type(m) is Matrix for z, m in ops)
            assert [z for z, _ in ops] == sorted({z for z, _ in ops})
        if isinstance(alg, NLiePoissonAlgebra):
            mults = _operators(alg.product)
            assert all(len(z) == 1 for z, _ in mults)
            assert {i for (i,), _ in mults} == {i for key in alg.product.entries for i in key}

    def test_tampered_certificate_refused_warm(self, name):
        alg = _GOLDEN_ALGEBRAS[name]()
        verdict = is_simple(alg, max_enum=100)
        _kept_operators(alg)
        assert verify_simplicity_certificate(alg, verdict, max_enum=100)
        assert not verify_simplicity_certificate(alg, _tampered(alg, verdict), max_enum=100)


class TestAdjoints:
    def test_cross_ad_matrix(self):
        cross = vector_product_algebra(2)
        m = ad_operator(cross, [unit_vector(QQ, 3, 2)])
        # b -> b x e3 sends e1 -> -e2, e2 -> e1, e3 -> 0
        assert m.matvec(unit_vector(QQ, 3, 0)) == (Z, -ONE, Z)
        assert m.matvec(unit_vector(QQ, 3, 1)) == (ONE, Z, Z)
        assert m.matvec(unit_vector(QQ, 3, 2)) == (Z, Z, Z)

    def test_ad_argument_count(self):
        cross = vector_product_algebra(2)
        with pytest.raises(ValueError):
            ad_operator(cross, [])

    def test_basis_operator_enumeration(self):
        # every pair of basis vectors of the 4-dim cross product brackets
        # nonzero against some third one
        ads = _operators(vector_product_algebra(3).bracket)
        assert [idx for idx, _ in ads] == list(itertools.combinations(range(4), 2))

    def test_mult_operators_unital(self):
        prod, unit = poly_quotient_ring(3)
        z, l0 = _operators(prod)[0]  # multiplication by 1
        assert z == (0,)
        assert l0.matvec((ONE, Fraction(2), Z)) == (ONE, Fraction(2), Z)


class TestDerivedAndCenter:
    def test_series_conventions(self):
        cross = vector_product_algebra(2)
        assert [s.dim for s in derived_series(cross)] == [3, 3]
        zero = NLieAlgebra(SkewBracketTensor(4, 2, QQ, {}))
        assert [s.dim for s in derived_series(zero)] == [4, 0]
        char3 = truncated_poisson(2, 3)
        assert [s.dim for s in derived_series(char3)] == [9, 8, 8]
        empty = span(F3, 9, [])
        assert [s.dim for s in derived_series(char3, empty)] == [0]

    def test_derived_from_subspace(self):
        char3 = truncated_poisson(2, 3)
        B = derived_subspace(char3)
        assert B.dim == 8
        assert not B.contains(unit_vector(F3, 9, 8))  # x^2*y^2 is not a bracket value
        assert derived_subspace(char3, B).dim == 8

    def test_subspace_of_another_space_refused(self):
        # a plane over F_3 in a rational algebra, which the full-space
        # shortcut must not read as the whole space either
        cross = vector_product_algebra(2)
        for S in (span(F3, 3, [unit_vector(F3, 3, 0), unit_vector(F3, 3, 1)]),
                  SubspaceBasis.full(F3, 3), SubspaceBasis.full(QQ, 4)):
            for call in (derived_subspace, subalgebra_on):
                with pytest.raises(ValueError, match="does not live in the algebra's space"):
                    call(cross, S)

    def test_center(self):
        assert center(vector_product_algebra(2)).is_zero()
        char3 = truncated_poisson(2, 3)
        Zc = center(char3)
        assert Zc.dim == 1
        assert Zc.contains(unit_vector(F3, 9, 0))

    def test_center_of_zero_bracket_is_everything(self):
        zero = NLieAlgebra(SkewBracketTensor(3, 2, QQ, {}))
        assert center(zero).is_full()


class TestIdealsAndClosures:
    def test_derived_subspace_is_an_ideal(self):
        char3 = truncated_poisson(2, 3)
        assert is_ideal(char3, derived_subspace(char3))

    def test_poisson_ideal_requires_both_stabilities(self):
        char3 = truncated_poisson(2, 3)
        constants = span(F3, 9, [unit_vector(F3, 9, 0)])
        assert is_ideal(char3, constants)
        assert not is_ideal(char3, constants, IdealKind.ASSOCIATIVE)  # 1*x = x escapes
        assert not is_ideal(char3, constants, IdealKind.POISSON)

    def test_ideal_refuses_a_subspace_of_another_space(self):
        heis = heisenberg()
        for S in (
            span(QQ, 4, [(ONE, Z, Z, ONE)]),
            span(QQ, 2, [(ONE, Z)]),
            span(F3, 3, [unit_vector(F3, 3, 0)]),
        ):
            for kind in IdealKind:
                with pytest.raises(ValueError, match="does not live in the algebra's space"):
                    is_ideal(heis, S, kind)
        with pytest.raises(ValueError, match="poisson ideal operations require the product"):
            is_ideal(heis, span(QQ, 3, [unit_vector(QQ, 3, 0)]), IdealKind.POISSON)

    def test_associative_closure_oracle(self):
        prod, unit = poly_quotient_ring(4)
        alg = NLiePoissonAlgebra(prod, unit, SkewBracketTensor(4, 2, QQ, {}))
        C = ideal_closure(alg, [unit_vector(QQ, 4, 1)], IdealKind.ASSOCIATIVE)
        assert C == span(QQ, 4, [unit_vector(QQ, 4, k) for k in (1, 2, 3)])

    def test_poisson_closure_in_simple_algebra_is_full(self):
        char3 = truncated_poisson(2, 3)
        C = ideal_closure(char3, [unit_vector(F3, 9, 2)], IdealKind.POISSON)
        assert C.is_full()

    def test_closure_minimality_against_brute_force(self):
        t = cross_mod(3).bracket
        ideals = brute_force_ideals(t)
        for v in [(1, 0, 0), (1, 2, 0), (2, 2, 2)]:
            C = ideal_closure(NLieAlgebra(t), [v])
            containing = [S for S in ideals if S.contains(v)]
            assert C == min(containing, key=lambda s: s.dim)

    @pytest.mark.parametrize("p", [101, 3037000493, 2**61 - 1])
    def test_first_summand_closure_in_a_seeded_basis(self, p):
        # every F_p closure runs the one exact closure loop, including at the
        # two largest primes, where d*(p-1)^2 >= 2^63 would overflow int64
        alg, to_new = seeded_basis(direct_sum_cross(PrimeField(p)), seed=5)
        summand = [to_new(unit_vector(alg.field, 6, k)) for k in range(3)]
        C = ideal_closure(alg, summand[:1])
        assert C.dim == 3
        assert C == span(alg.field, 6, summand)

    @pytest.mark.parametrize("p", [3037000493, 2**61 - 1])
    def test_exhaustive_decides_at_large_p(self, p):
        # past the enumeration limit Norton's test decides on Python ints,
        # and the exhaustive search, given a limit that reaches the point
        # count, is exact too; in the standard basis its first point, e_0,
        # already generates the first summand
        alg, _ = seeded_basis(direct_sum_cross(PrimeField(p)), seed=5)
        v = is_simple(alg)
        assert v.status == "not_simple"
        assert v.witness.dim == 3 and is_ideal(alg, v.witness)
        assert verify_simplicity_certificate(alg, v)
        alg = direct_sum_cross(PrimeField(p))
        points = (p**6 - 1) // (p - 1)
        v = exhaustive(alg, points)
        assert v.status == "not_simple"
        assert v.witness == span(alg.field, 6, [unit_vector(alg.field, 6, k) for k in range(3)])
        assert is_ideal(alg, v.witness)
        assert verify_simplicity_certificate(alg, v)

    @pytest.mark.parametrize("f", [QQ, F3])
    def test_closure_without_operations_is_the_span(self, f):
        rng = random.Random(5)
        for d in (1, 3, 5):
            for count in range(0, d + 2):
                vectors = [tuple(f.from_int(rng.randint(-1, 1)) for _ in range(d))
                           for _ in range(count)]
                assert _closure(f, d, vectors, []) == span(f, d, vectors)

    def test_closure_needs_product_for_assoc_kind(self):
        with pytest.raises(ValueError):
            ideal_closure(vector_product_algebra(2), [(ONE, Z, Z)], IdealKind.ASSOCIATIVE)

    def test_fp_closures_leave_numpy_unloaded(self):
        # pytest has loaded numpy already, so the closures run in a fresh
        # interpreter; they must also match the ones computed here
        c3 = truncated_poisson(2, 3)
        cases = [(1, IdealKind.NLIE), (4, IdealKind.ASSOCIATIVE)]
        expected = [
            [list(row) for row in ideal_closure(c3, [unit_vector(F3, 9, k)], kind).rows]
            for k, kind in cases
        ]
        src = str(Path(nlie.__file__).resolve().parents[1])
        argv = [sys.executable, "-c", _FRESH_CLOSURES, json.dumps([(k, kd.value) for k, kd in cases])]
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120, check=True,
        )
        assert json.loads(proc.stdout) == {"rows": expected, "numpy": False}


def test_projective_points_order_and_laziness():
    from nlie.structure import _projective_points

    for p in (2, 3, 5):
        for k in range(5):
            old = [
                (0,) * lead + (1,) + tail
                for lead in range(k)
                for tail in itertools.product(range(p), repeat=k - 1 - lead)
            ]
            assert list(_projective_points(p, k)) == old
            assert len(old) == _gaussian_binomial(k, 1, p)
    # the first points arrive at once however large the field
    p = 2**61 - 1
    points = _projective_points(p, 6)
    assert [next(points) for _ in range(3)] == [(1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1),
                                                 (1, 0, 0, 0, 0, 2)]


class TestNilradical:
    def test_rational_truncated_ring(self):
        prod, unit = poly_quotient_ring(4)
        nil = nilradical(prod, unit)
        assert nil == span(QQ, 4, [unit_vector(QQ, 4, k) for k in (1, 2, 3)])

    def test_rational_split_ring(self):
        # Q x Q with componentwise product: no nilpotents
        table = {(0, 0): (ONE, Z), (1, 1): (Z, ONE)}
        prod = SymProductTensor(2, QQ, table)
        assert nilradical(prod, (ONE, ONE)).is_zero()

    @pytest.mark.parametrize("nvars,p", [(1, 2), (1, 3), (2, 2), (1, 5)])
    def test_frobenius_matches_bruteforce(self, nvars, p):
        carrier = truncated_polynomial_algebra(nvars, p)
        d = carrier.product.dim
        field = carrier.product.field
        nil = nilradical(carrier.product, carrier.unit)
        # oracle: test v^d = 0 for every vector of F_p^d
        nilpotent = []
        for coeffs in itertools.product(range(p), repeat=d):
            if element_power(carrier.product, carrier.unit, coeffs, d) == tuple(
                [0] * d
            ):
                nilpotent.append(coeffs)
        assert span(field, d, nilpotent) == nil

    def test_unit_validated(self):
        prod, _ = poly_quotient_ring(3)
        with pytest.raises(ValueError):
            nilradical(prod, (Z, ONE, Z))


class TestQuotients:
    def test_quotient_by_center(self):
        char3 = truncated_poisson(2, 3)
        q, qm = quotient_algebra(char3, center(char3))
        assert q.dim == 8
        assert qm.dim == 8
        from nlie.algebra import check_generalized_jacobi

        assert check_generalized_jacobi(q.bracket).ok

    def test_quotient_rejects_non_ideal(self):
        cross = vector_product_algebra(2)
        with pytest.raises(ValueError):
            quotient_algebra(cross, span(QQ, 3, [unit_vector(QQ, 3, 0)]))

    @staticmethod
    def _assert_well_defined(alg, I):
        # shifting any slot's representative by any row of I leaves every
        # projected bracket unchanged
        t = alg.bracket
        q, qm = quotient_algebra(alg, I)
        reps = [unit_vector(t.field, t.dim, r) for r in qm.rep_indices]
        for combo in itertools.combinations(range(qm.dim), t.arity):
            args = [reps[c] for c in combo]
            expected = q.bracket.entry(combo)
            for s, shift in itertools.product(range(t.arity), I.rows):
                moved = list(args)
                moved[s] = vec_add(t.field, args[s], shift)
                assert qm.project(t.eval(moved)) == expected

    @pytest.mark.parametrize("nvars, p", [(2, 3), (3, 2), (3, 3)])
    def test_center_quotient_well_defined(self, nvars, p):
        alg = truncated_poisson(nvars, p)
        self._assert_well_defined(alg, center(alg))

    def test_corpus_quotients_well_defined(self):
        from test_acceptance import build_corpus

        proper = 0
        for alg in build_corpus():
            for I in brute_force_ideals(alg):
                if 0 < I.dim < alg.dim:
                    self._assert_well_defined(alg, I)
                    proper += 1
        assert proper > 0

    @staticmethod
    def _pipeline_input(t):
        """The derived subalgebra's bracket and its central part, the
        quotient that theorem1_pipeline builds."""
        derived = derived_subspace(t)
        inter = derived.intersect(center(t))
        rows = [derived.coordinates_of(row) for row in inter.rows]
        return subalgebra_on(t, derived).bracket, span(t.field, derived.dim, rows)

    @pytest.mark.parametrize("name", [*_GOLDEN_ALGEBRAS, "c32", "c33", "c11"])
    def test_center_and_pipeline_quotients_match_the_oracle(self, name):
        # the quotient is read off the stored pairs; the oracle projects the
        # signed value on every one of the C(q, n) representative tuples
        builders = {"c32": lambda: truncated_poisson(3, 2),
                    "c33": lambda: truncated_poisson(3, 3),
                    "c11": lambda: truncated_poisson(2, 11)}
        t = {**_GOLDEN_ALGEBRAS, **builders}[name]().bracket
        for tensor, I in ((t, center(t)), self._pipeline_input(t)):
            q, qm = quotient_algebra(tensor, I)
            assert q.bracket == quotient_oracle(tensor, I)
            assert qm.rep_indices == tuple(j for j in range(tensor.dim) if j not in I.pivots)

    @pytest.mark.parametrize("name", ["c3", "c33", "cross_sum_f3"])
    def test_seeded_ideal_quotients_match_the_oracle(self, name):
        # closures of seeded sparse vectors, in the given basis and in
        # seeded ones (seconds each for c33, so none there), so that the
        # pivots move; a span that is not an ideal is still refused
        alg = {"c33": lambda: truncated_poisson(3, 3), **_GOLDEN_ALGEBRAS}[name]()
        rng = random.Random(f"quotients of {name}")
        proper = refused = 0
        for basis_seed in (None,) if name == "c33" else (None, 1, 2):
            moved = seeded_basis(alg, basis_seed)[0] if basis_seed else NLieAlgebra(alg.bracket)
            t, f, d = moved.bracket, moved.field, moved.dim
            for _ in range(6):
                v = [f.zero] * d
                for k in rng.sample(range(d), rng.randint(1, 2)):
                    v[k] = f.from_int(rng.choice((1, -1)))
                I = ideal_closure(t, [v])
                q, _ = quotient_algebra(t, I)
                assert q.bracket == quotient_oracle(t, I)
                proper += 0 < I.dim < d
                line = span(f, d, [v])
                if not is_ideal(t, line):
                    with pytest.raises(ValueError, match="^the subspace is not an ideal"):
                        quotient_algebra(t, line)
                    refused += 1
        assert proper > 0 and refused > 0

    @pytest.mark.parametrize("name", ["c3", "c33", "c11"])
    def test_subalgebras_match_the_dense_oracle(self, name):
        # the derived algebra, the center and the closures of a few basis
        # vectors, read into pairs; a seeded span that is not closed is
        # refused by both
        alg = {"c33": lambda: truncated_poisson(3, 3), "c11": lambda: truncated_poisson(2, 11),
               **_GOLDEN_ALGEBRAS}[name]()
        t, f, d = alg.bracket, alg.field, alg.dim
        closed = [derived_subspace(t), center(t)]
        closed += [ideal_closure(t, [unit_vector(f, d, k)]) for k in (1, d // 2, d - 1)]
        for S in closed:
            assert subalgebra_on(t, S).bracket == subalgebra_oracle(t, S)
        rng = random.Random(f"subalgebras of {name}")
        refused = 0
        for _ in range(3):
            rows = [[f.from_int(rng.randint(-1, 1)) for _ in range(d)] for _ in range(t.arity)]
            S = span(f, d, rows)
            try:
                want = subalgebra_oracle(t, S)
            except ValueError:
                with pytest.raises(ValueError, match="^the subspace is not closed"):
                    subalgebra_on(t, S)
                refused += 1
            else:
                assert subalgebra_on(t, S).bracket == want
        assert refused > 0

    def test_subalgebra_on_derived(self):
        char3 = truncated_poisson(2, 3)
        sub = subalgebra_on(char3, derived_subspace(char3))
        assert sub.dim == 8

    def test_subalgebra_requires_closure(self):
        cross = vector_product_algebra(2)
        S = span(QQ, 3, [unit_vector(QQ, 3, 0), unit_vector(QQ, 3, 1)])
        with pytest.raises(ValueError):
            subalgebra_on(cross, S)  # e1 x e2 = e3 escapes


class TestSimplicity:
    def test_exhaustive_on_char3(self):
        char3 = truncated_poisson(2, 3)
        v = is_simple(char3)
        assert v.status == "simple"
        assert v.certificate["method"] == "ExhaustiveProjective"
        assert v.certificate["points"] == 9841
        assert verify_simplicity_certificate(char3, v)

    def test_norton_agrees_on_simple(self):
        char3 = truncated_poisson(2, 3)
        v = norton(char3)
        assert v.status == "simple"
        assert v.certificate["method"] == "Norton"
        assert v.certificate["nullity"] == len(v.certificate["factor"]) - 1
        assert verify_simplicity_certificate(char3, v)

    def test_norton_stops_at_the_certificate_factor(self, monkeypatch):
        # word 0 on c5 has irreducible factors of degrees 4, 8 and 13, and
        # the first already has nullity 4: nothing past it is split or evaluated
        from test_fppoly import recording

        evaluated, split = [], []
        recording(monkeypatch, "at_matrix", evaluated, lambda f, rows, p: f)
        recording(monkeypatch, "_equal_degree", split, lambda f, k, p, rng: k)
        v = norton(truncated_poisson(2, 5))
        assert v.certificate["word"] == 0
        assert evaluated == [v.certificate["factor"]]
        assert len(v.certificate["factor"]) - 1 == v.certificate["nullity"] == 4
        assert split == [4]

    # over F_3, x^2 + x + 1 = (x - 1)^2 is reducible, and x does not divide
    # the characteristic polynomial of the certified word
    @pytest.mark.parametrize(
        "field, value",
        [("factor", [1, 1, 1]), ("factor", [0, 1]), ("nullity", 2), ("word", 1),
         ("factor", None), ("seed", "0"), ("word", True), ("word", -1), ("extra", 0)],
    )
    def test_altered_norton_certificate_fails_replay(self, field, value):
        from nlie.structure import SimplicityVerdict

        char3 = truncated_poisson(2, 3)
        v = norton(char3)
        assert v.certificate.get(field) != value
        altered = SimplicityVerdict(
            v.status, v.kind, dict(v.certificate, **{field: value}), None, None, v.seed
        )
        assert not verify_simplicity_certificate(char3, altered)

    @pytest.mark.parametrize("points", [1, 12345, 31.0, None])
    def test_exhaustive_point_count_replayed(self, points):
        from nlie.structure import SimplicityVerdict

        cross = cross_mod(5)
        v = is_simple(cross)
        assert v.certificate == {"method": "ExhaustiveProjective", "p": 5, "dim": 3,
                                 "points": 31}
        altered = SimplicityVerdict(
            v.status, v.kind, dict(v.certificate, points=points), None, None, v.seed
        )
        assert not verify_simplicity_certificate(cross, altered)

    @pytest.mark.parametrize(
        "inner",
        [{"garbage": 1}, None, "ExhaustiveProjective",
         {"method": "Norton", "p": 5, "dim": 3, "points": 31},
         {"method": "ExhaustiveProjective", "p": 5, "dim": 3, "points": 30},
         {"method": "ExhaustiveProjective", "p": 7, "dim": 3, "points": 57},
         {"method": "ModPReduction", "p": 5, "scale": "1",
          "inner": {"method": "ExhaustiveProjective", "p": 5, "dim": 3, "points": 31}}],
        ids=["garbage", "none", "string", "norton", "points", "other_p", "nested"],
    )
    def test_mod_p_inner_certificate_replayed(self, inner):
        from nlie.structure import SimplicityVerdict

        cross = vector_product_algebra(2)
        v = is_simple(cross)
        altered = SimplicityVerdict(
            v.status, v.kind, dict(v.certificate, inner=inner), None, None, v.seed
        )
        assert not verify_simplicity_certificate(cross, altered)

    @pytest.mark.parametrize("p", [4, 1, 0, "5", None])
    def test_mod_p_prime_replayed(self, p):
        from nlie.structure import SimplicityVerdict

        cross = vector_product_algebra(2)
        v = is_simple(cross)
        altered = SimplicityVerdict(
            v.status, v.kind, dict(v.certificate, p=p), None, None, v.seed
        )
        assert not verify_simplicity_certificate(cross, altered)

    @pytest.mark.parametrize(
        "change",
        [{"status": "bogus"}, {"status": None}, {"kind": "nlie"},
         {"kind": IdealKind.POISSON}, {"certificate": "ExhaustiveProjective"},
         {"certificate": ["x"]}, {"certificate": 5}, {"certificate": None},
         {"status": "not_simple", "witness": "x"}, {"extra": 1}, {"scale": 1},
         {"method": "modpreduction"}, {"extra": {1}}],
        ids=["status", "no-status", "kind-str", "kind-poisson", "cert-str", "cert-list",
             "cert-int", "cert-none", "witness-str", "extra-key", "scale-int", "method",
             "extra-set"],
    )
    def test_malformed_verdict_replays_false(self, change):
        # every verdict replays to a bool: a wrong shape is False, never an error
        from nlie.structure import SimplicityVerdict

        cross = vector_product_algebra(2)
        v = is_simple(cross)
        assert v.certificate["method"] == "ModPReduction"
        assert verify_simplicity_certificate(cross, v)
        fields = {name: getattr(v, name) for name in SimplicityVerdict.__slots__}
        if not change.keys() <= fields.keys():
            change = {"certificate": dict(v.certificate, **change)}
        altered = SimplicityVerdict(**{**fields, **change})
        assert verify_simplicity_certificate(cross, altered) is False

    def test_mod_p_norton_inner_replays(self):
        # an inner Norton certificate, as auto makes past the limit, replays
        cross = vector_product_algebra(2)
        v = is_simple(cross, max_enum=30)
        assert v.certificate["inner"]["method"] == "Norton"
        assert verify_simplicity_certificate(cross, v, max_enum=30)
        assert verify_simplicity_certificate(cross, v)

    def test_norton_word_budget_named(self, monkeypatch):
        from nlie import structure

        monkeypatch.setattr(structure, "_NORTON_WORDS", 0)
        with pytest.raises(GuardExceeded, match="budget of 0 words"):
            norton(truncated_poisson(2, 3))

    def test_norton_agrees_with_oracle_corpus(self):
        from test_acceptance import build_corpus

        corpus = [alg for alg in build_corpus() if not alg.bracket.is_zero()]
        assert len(corpus) == 17
        agree = 0
        for alg in corpus:
            ideals = brute_force_ideals(alg)
            simple = not any(0 < S.dim < alg.dim for S in ideals)
            for seed in range(3):
                v = norton(alg, seed)
                if v.status == "not_simple":
                    assert v.witness in ideals
                assert (v.status == "simple") == simple
                assert verify_simplicity_certificate(alg, v)
                agree += 1
        assert agree == 51

    def test_both_methods_find_proper_ideal(self):
        ds = direct_sum_cross(F3)
        for decide in (exhaustive, norton):
            v = decide(ds)
            assert v.status == "not_simple"
            assert 0 < v.witness.dim < 6
            assert verify_simplicity_certificate(ds, v)

    def test_zero_bracket_conventions(self):
        z = NLieAlgebra(SkewBracketTensor(3, 2, QQ, {}))
        v = is_simple(z)
        assert v.status == "not_simple" and v.witness == span(QQ, 3, [(ONE, Z, Z)])
        line = NLieAlgebra(SkewBracketTensor(1, 2, F2, {}))
        v1 = is_simple(line)
        assert v1.status == "not_simple" and v1.witness is None
        assert verify_simplicity_certificate(line, v1)

    def test_mod_p_reduction_cross(self):
        cross = vector_product_algebra(2)
        v = is_simple(cross)
        assert v.status == "simple"
        assert v.certificate["method"] == "ModPReduction"
        assert v.certificate["p"] == 5
        assert v.certificate["inner"]["method"] == "ExhaustiveProjective"
        assert verify_simplicity_certificate(cross, v)

    def test_mod_p_explicit_prime(self):
        cross = vector_product_algebra(2)
        v = is_simple(cross, mod_p=7)
        assert v.status == "simple" and v.certificate["p"] == 7

    def test_rational_not_simple_via_probing(self):
        ds = direct_sum_cross(QQ)
        v = is_simple(ds)
        assert v.status == "not_simple"
        assert v.witness.dim == 3
        assert verify_simplicity_certificate(ds, v)

    def test_witness_from_another_space_rejected(self):
        from nlie.structure import SimplicityVerdict

        # (1,0,0,1) spans an invariant line of Q^4 under the Heisenberg
        # operators read on its first three coordinates
        heis = heisenberg()
        for witness in (
            span(QQ, 4, [(ONE, Z, Z, ONE)]),
            span(QQ, 5, [unit_vector(QQ, 5, 0), unit_vector(QQ, 5, 3)]),
            span(F3, 3, [unit_vector(F3, 3, 0)]),
        ):
            verdict = SimplicityVerdict("not_simple", IdealKind.NLIE, None, witness)
            assert not verify_simplicity_certificate(heis, verdict)
        center_line = SimplicityVerdict("not_simple", IdealKind.NLIE, None, center(heis))
        assert verify_simplicity_certificate(heis, center_line)

    def test_mod_p_refused_off_q(self):
        for alg in (cross_mod(7), NLieAlgebra(SkewBracketTensor(3, 2, F3, {}))):
            with pytest.raises(ValueError, match="mod_p 5 reduces rational algebras only"):
                is_simple(alg, mod_p=5)

    def test_tampered_witness_rejected(self):
        from nlie.structure import SimplicityVerdict

        ds = direct_sum_cross(F3)
        bogus = SimplicityVerdict(
            "not_simple",
            IdealKind.NLIE,
            None,
            span(F3, 6, [unit_vector(F3, 6, 0)]),  # e1 alone is not invariant
            None,
        )
        assert not verify_simplicity_certificate(ds, bogus)

    def test_seed_determinism(self):
        char3 = truncated_poisson(2, 3)
        a = norton(char3, 5)
        b = norton(char3, 5)
        assert a == b

    def test_guard(self):
        char3 = truncated_poisson(2, 3)
        with pytest.raises(GuardExceeded):
            exhaustive(char3, 10)

    def test_rational_unknown_in_a_dense_basis(self):
        # cross + cross with no basis vector in a summand: every probe
        # closes to the whole space, and every reduction is a direct sum
        # again, so no prime certifies and the honest verdict is "unknown"
        alg = dense_basis(direct_sum_cross(QQ), seed=0)
        v = is_simple(alg)
        attempts = "; ".join(f"p={p}: reduction is not_simple"
                             for p in (5, 7, 11, 13, 17, 19, 23, 29))
        assert v == nlie.SimplicityVerdict(
            "unknown", IdealKind.NLIE, None, None,
            f"no admissible prime certified simplicity ({attempts})", 0)
        assert verify_simplicity_certificate(alg, v)

    def test_rational_poisson_reduces_its_product(self):
        # the product is reduced with the bracket; a product denominator
        # that p divides makes p inadmissible, on deciding and on replay
        alg = rational_poisson()
        v = is_simple(alg)
        assert v.kind is IdealKind.POISSON
        assert v.certificate == {"method": "ModPReduction", "p": 5, "scale": "1", "inner": {
            "method": "ExhaustiveProjective", "p": 5, "dim": 3, "points": 31}}
        assert verify_simplicity_certificate(alg, v)
        fifth = rational_poisson({(1, 1): (Z, Z, Fraction(1, 5))})
        assert not verify_simplicity_certificate(fifth, v)
        v7 = is_simple(fifth)
        assert (v7.status, v7.certificate["p"], v7.certificate["inner"]["points"]) == (
            "simple", 7, 57)
        assert verify_simplicity_certificate(fifth, v7)
        v5 = is_simple(fifth, mod_p=5)
        assert (v5.status, v5.certificate) == ("unknown", None)
        assert v5.reason == "no admissible prime certified simplicity (p=5: inadmissible reduction)"
        assert verify_simplicity_certificate(fifth, v5)

    @pytest.mark.parametrize("factor", [Fraction(1, 5), Fraction(5)])
    def test_rational_reduction_inadmissible_at_p(self, factor):
        # 5 divides a denominator, or every value once the denominators are
        # cleared: p = 5 is skipped, and the next prime certifies
        entries = {key: [(m, factor * c) for m, c in value]
                   for key, value in vector_product_algebra(2).bracket.entries.items()}
        alg = NLieAlgebra(SkewBracketTensor.from_entries(3, 2, QQ, entries))
        v = is_simple(alg)
        assert (v.status, v.certificate["p"]) == ("simple", 7)
        assert verify_simplicity_certificate(alg, v)
        v5 = is_simple(alg, mod_p=5)
        assert v5.reason == "no admissible prime certified simplicity (p=5: inadmissible reduction)"

    def test_rational_reduction_past_the_word_budget(self, monkeypatch):
        from nlie import structure

        monkeypatch.setattr(structure, "_NORTON_WORDS", 0)
        v = is_simple(vector_product_algebra(2), max_enum=1, mod_p=5)
        assert (v.status, v.certificate) == ("unknown", None)
        assert v.reason == ("no admissible prime certified simplicity (p=5: Norton's test drew "
                            "its budget of 0 words without a decisive irreducible factor)")

    def test_replay_refuses_a_certificate_for_another_field(self):
        # a finite-field certificate on a rational algebra, a mod-p
        # reduction on a finite-field one, and a witness that is zero, the
        # whole space, or missing while the bracket is nonzero
        from nlie.structure import SimplicityVerdict

        cross, cross5 = vector_product_algebra(2), cross_mod(5)
        reduction = is_simple(cross)
        exhaustive_cert = reduction.certificate["inner"]
        assert verify_simplicity_certificate(
            cross5, SimplicityVerdict("simple", IdealKind.NLIE, exhaustive_cert, None, None, 0))
        for alg, certificate in ((cross, exhaustive_cert), (cross5, reduction.certificate)):
            verdict = SimplicityVerdict("simple", IdealKind.NLIE, certificate, None, None, 0)
            assert verify_simplicity_certificate(alg, verdict) is False
        for witness in (SubspaceBasis.zero(QQ, 3), SubspaceBasis.full(QQ, 3), None):
            verdict = SimplicityVerdict("not_simple", IdealKind.NLIE, None, witness, None, 0)
            assert verify_simplicity_certificate(cross, verdict) is False


class TestBruteForce:
    def test_subspace_count_f5_d3(self):
        # 1 + 31 + 31 + 1 subspaces of F_5^3; the enumeration itself is the
        # count oracle
        total = sum(_gaussian_binomial(3, r, 5) for r in range(4))
        assert total == 64
        ideals = brute_force_ideals(cross_mod(5))
        assert [S.dim for S in ideals] == [0, 3]

    def test_zero_bracket_all_subspaces(self):
        z = SkewBracketTensor(2, 2, F2, {})
        ideals = brute_force_ideals(NLieAlgebra(z))
        assert len(ideals) == 5  # 1 + 3 + 1

    def test_poisson_kind_restricts(self):
        char2 = truncated_poisson(2, 2)  # dim 4 over F_2: 67 subspaces
        nlie_ideals = brute_force_ideals(char2, IdealKind.NLIE)
        poisson_ideals = brute_force_ideals(char2, IdealKind.POISSON)
        assert {S.dim for S in poisson_ideals} == {0, 4}
        constants = span(F2, 4, [unit_vector(F2, 4, 0)])
        assert constants in nlie_ideals
        assert constants not in poisson_ideals
        assoc_ideals = brute_force_ideals(char2, IdealKind.ASSOCIATIVE)
        for kind, ideals in (
            (IdealKind.NLIE, nlie_ideals),
            (IdealKind.ASSOCIATIVE, assoc_ideals),
            (IdealKind.POISSON, poisson_ideals),
        ):
            assert all(is_ideal(char2, S, kind) for S in ideals), kind
        for S in nlie_ideals:
            assert is_ideal(char2, S, IdealKind.POISSON) == (S in poisson_ideals)

    def test_requires_finite_field(self):
        with pytest.raises(ValueError):
            brute_force_ideals(vector_product_algebra(2))

    def test_guard(self):
        big = SkewBracketTensor(12, 2, F3, {})
        with pytest.raises(GuardExceeded):
            brute_force_ideals(NLieAlgebra(big))


class TestProbes:
    def test_subspace_of_another_space_refused(self):
        # the constants over Q: over F_3 they would be an abelian ideal
        char3 = truncated_poisson(2, 3)
        S = span(QQ, 9, [unit_vector(QQ, 9, 0)])
        for which in ("L2", "L3", "L6_0", "L6", "L7", "L8"):
            with pytest.raises(ValueError, match="does not live in the algebra's space"):
                probe_lemma(char3, which, S)

    def test_l1_char3_frozen(self):
        char3 = truncated_poisson(2, 3)
        r = probe_lemma(char3, "L1")
        assert r.hypotheses_hold
        assert not r.conclusion_holds
        assert r.witness.kind == "nilpotent_element"
        v = r.witness.data["vector"]
        k = r.witness.data["power"]
        assert k == 3
        assert element_power(char3.product, char3.unit, v, 3) == tuple([0] * 9)
        assert element_power(char3.product, char3.unit, v, 2) != tuple([0] * 9)
        assert any("characteristic 3" in f for f in r.flags)

    def test_l5_char3_frozen(self):
        char3 = truncated_poisson(2, 3)
        r = probe_lemma(char3, "L5")
        assert r.hypotheses_hold and not r.conclusion_holds
        assert r.witness.kind == "nilpotent_ad"
        assert r.witness.data["power"] == 3
        (idx,) = r.witness.data["args"]
        m = ad_operator(char3, [unit_vector(F3, 9, idx)])
        assert not m.is_zero()
        sq = m.mul(m)
        assert not sq.is_zero() and sq.mul(m).is_zero()

    def test_l5_rational_cross_holds(self):
        r = probe_lemma(vector_product_algebra(2), "L5")
        assert r.hypotheses_hold and r.conclusion_holds
        assert r.flags == ()

    def test_subspace_probes_on_constants(self):
        char3 = truncated_poisson(2, 3)
        U = span(F3, 9, [unit_vector(F3, 9, 0)])
        for which in ("L2", "L6_0", "L6", "L7", "L8"):
            r = probe_lemma(char3, which, U)
            assert r.hypotheses_hold, which
            assert r.conclusion_holds, which

    def test_l3_full_and_validation(self):
        char3 = truncated_poisson(2, 3)
        full = SubspaceBasis.full(F3, 9)
        r = probe_lemma(char3, "L3", full)
        assert r.hypotheses_hold and r.conclusion_holds
        maximal = span(F3, 9, [unit_vector(F3, 9, k) for k in range(1, 9)])
        with pytest.raises(ValueError):
            probe_lemma(char3, "L3", maximal)

    def test_input_validation(self):
        char3 = truncated_poisson(2, 3)
        with pytest.raises(ValueError):
            probe_lemma(char3, "L6")  # missing subspace
        with pytest.raises(ValueError):
            probe_lemma(char3, "L1", span(F3, 9, [unit_vector(F3, 9, 0)]))
        with pytest.raises(ValueError):
            probe_lemma(char3, "L99")
        with pytest.raises(ValueError):
            probe_lemma(vector_product_algebra(2), "L1")  # no product

    def test_non_ideal_subspace_rejected(self):
        char3 = truncated_poisson(2, 3)
        top = span(F3, 9, [unit_vector(F3, 9, 8)])
        with pytest.raises(ValueError):
            probe_lemma(char3, "L6", top)

    def test_hypotheses_fail_on_non_simple(self):
        carrier = truncated_polynomial_algebra(1, 3)
        alg = NLiePoissonAlgebra(
            carrier.product, carrier.unit, SkewBracketTensor(3, 2, F3, {})
        )
        r = probe_lemma(alg, "L1")
        assert not r.hypotheses_hold
        assert not r.conclusion_holds  # x is nilpotent

    @pytest.mark.parametrize("which", ["L6_0", "L6", "L8"])
    def test_nonzero_bracket_witness(self, which):
        # Q^2 with [e_0, e_1] = e_1: U = span(e_1) is the derived algebra
        # and abelian, and [e_0, e_1] is the first bracket against it
        alg = NLieAlgebra(SkewBracketTensor(2, 2, QQ, {(0, 1): (Z, ONE)}))
        r = probe_lemma(alg, which, span(QQ, 2, [(Z, ONE)]))
        assert not r.hypotheses_hold and not r.conclusion_holds
        assert r.witness == nlie.Witness("nonzero_bracket", {
            "basis_indices": (0,), "middle": (), "last": (Z, ONE), "value": (Z, ONE)})

    def test_l2_walks_the_generated_ideal(self):
        # U = the derived algebra of c3 is its own third derived term, and
        # every bracket of the ideal it generates lands back in it
        char3 = truncated_poisson(2, 3)
        r = probe_lemma(char3, "L2", derived_subspace(char3))
        assert r.hypotheses_hold and r.conclusion_holds and r.witness is None

    def test_l2_escaping_bracket_witness(self):
        # cross + cross on Q^6 with unit e_0 and e_1 * e_3 = e_1 (not an
        # associative product: the probe reads it only as operations); the
        # second summand U generates e_1, and [e_1, e_0] = -e_2 escapes U
        e = [unit_vector(QQ, 6, k) for k in range(6)]
        table = {(0, k): e[k] for k in range(6)}
        table[(1, 3)] = e[1]
        alg = NLiePoissonAlgebra(SymProductTensor(6, QQ, table), e[0],
                                 direct_sum_cross(QQ).bracket)
        r = probe_lemma(alg, "L2", span(QQ, 6, e[3:]))
        assert not r.conclusion_holds
        assert r.witness == nlie.Witness("escaping_bracket", {
            "source": e[1], "basis_indices": (0,), "value": (Z, Z, -ONE, Z, Z, Z)})

    def test_l3_proper_ideal_witness_and_refusal(self):
        # Q x Q with [e_0, e_1] = e_1: span(e_1) is an associative ideal
        # stable under the derived algebra, and the unit's line is not an
        # associative ideal
        product = SymProductTensor(2, QQ, {(0, 0): (ONE, Z), (1, 1): (Z, ONE)})
        alg = NLiePoissonAlgebra(product, (ONE, ONE),
                                 SkewBracketTensor(2, 2, QQ, {(0, 1): (Z, ONE)}))
        r = probe_lemma(alg, "L3", span(QQ, 2, [(Z, ONE)]))
        assert r.hypothesis_notes == ("simplicity (poisson): not_simple", "I nonzero: True")
        assert not r.conclusion_holds
        assert r.witness == nlie.Witness("proper_ideal", {"dim": 1})
        with pytest.raises(ValueError, match="^the subspace is not an associative ideal$"):
            probe_lemma(alg, "L3", span(QQ, 2, [(ONE, ONE)]))


class TestPipeline:
    def test_char3_report(self):
        report = theorem1_pipeline(truncated_poisson(2, 3))
        assert all(v.ok for v in report.axioms.values())
        assert report.poisson_simple.status == "simple"
        assert report.dims == {
            "algebra": 9,
            "derived": 8,
            "center": 1,
            "intersection": 1,
            "quotient": 7,
        }
        assert report.quotient_jacobi.ok
        assert report.quotient_simple.status == "simple"
        assert report.quotient_simple.certificate["points"] == 1093
        assert report.hypotheses_met and report.conclusion_holds
        assert any("characteristic 3" in f for f in report.flags)

    def test_degenerate_input_reported_not_thrown(self):
        carrier = truncated_polynomial_algebra(1, 3)
        alg = NLiePoissonAlgebra(
            carrier.product, carrier.unit, SkewBracketTensor(3, 2, F3, {})
        )
        report = theorem1_pipeline(alg)
        assert not report.hypotheses_met
        assert report.poisson_simple.status == "not_simple"
        assert report.dims["quotient"] == 0
        assert not report.conclusion_holds
        assert any("collapses" in n for n in report.notes)

    def test_requires_product(self):
        with pytest.raises(ValueError):
            theorem1_pipeline(vector_product_algebra(2))
