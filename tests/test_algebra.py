"""Tensor containers and identity checkers.

Expected values for failing cases were computed by hand on small examples
and frozen here; property tests cover the invariances that hold for every
tensor by construction.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from nlie.algebra import (
    NLieAlgebra,
    NLiePoissonAlgebra,
    SkewBracketTensor,
    SymProductTensor,
    canonicalize_index,
    check_assoc_comm_unital,
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
from nlie.linalg import kernel, span
from nlie.structure import is_simple

from loop_oracle import assoc_oracle, jacobi_oracle, leibniz_oracle, shift_oracle

F3 = PrimeField(3)
F5 = PrimeField(5)

Z = Fraction(0)
ONE = Fraction(1)


def test_canonicalize_index():
    assert canonicalize_index((2, 0, 1), 3) == ((0, 1, 2), 1)
    assert canonicalize_index((1, 0), 3) == ((0, 1), -1)
    assert canonicalize_index((1, 1), 3) == (None, 0)
    with pytest.raises(ValueError):
        canonicalize_index((0, 3), 3)


def test_tensor_rejects_bad_tables():
    with pytest.raises(ValueError):
        SkewBracketTensor(3, 2, QQ, {(1, 0): (Z, Z, ONE)})
    with pytest.raises(ValueError):
        SkewBracketTensor(3, 2, QQ, {(0, 1): (Z, ONE)})


def test_bracket_entries_normalised_through_the_field():
    zero = SkewBracketTensor(2, 2, F3, {(0, 1): (3, 0)})
    assert zero.is_zero() and zero == SkewBracketTensor(2, 2, F3)
    assert is_simple(NLieAlgebra(zero)).reason.startswith("the bracket is zero")
    assert SkewBracketTensor(2, 2, F3, {(0, 1): (4, -1)}).table == {(0, 1): (1, 2)}


def test_product_entries_normalised_before_the_conflict_check():
    product = SymProductTensor(2, F3, {(0, 1): (4, 0), (1, 0): (1, 0), (1, 1): (0, 3)})
    assert product == SymProductTensor(2, F3, {(0, 1): (1, 0)})
    with pytest.raises(ValueError, match="conflicting"):
        SymProductTensor(2, F3, {(0, 1): (0, 0), (1, 0): (1, 0)})


def test_component_signs():
    t = SkewBracketTensor(3, 2, QQ, {(0, 1): (Z, Z, ONE)})
    assert t.component((0, 1)) == (Z, Z, ONE)
    assert t.component((1, 0)) == (Z, Z, -ONE)
    assert t.component((1, 1)) == (Z, Z, Z)


def test_eval_bilinear():
    t = SkewBracketTensor(3, 2, QQ, {(0, 1): (Z, Z, ONE)})
    # (2e0 + e1) x (3e1) = 6 e0xe1 = 6e2
    out = t.eval([(Fraction(2), ONE, Z), (Z, Fraction(3), Z)])
    assert out == (Z, Z, Fraction(6))


@given(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
@settings(max_examples=40)
def test_alternation_property(a, b, c):
    # arity-3 tensor over F_5 with a handful of entries
    t = SkewBracketTensor(
        3, 3, F5, {(0, 1, 2): (1, 2, 3)}
    )
    assert t.eval([a, a, c]) == (0, 0, 0)
    swapped = t.eval([b, a, c])
    direct = t.eval([a, b, c])
    assert swapped == tuple(F5.from_int(-x) for x in direct)


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=25)
def test_linearity_property(u, v):
    t = SkewBracketTensor(3, 2, F5, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0)})
    a = (u, 1, 2)
    b = (v, 3, 1)
    c = (2, 0, 4)
    lhs = t.eval([tuple(F5.from_int(x + y) for x, y in zip(a, b)), c])
    rhs = tuple(F5.from_int(x + y) for x, y in zip(t.eval([a, c]), t.eval([b, c])))
    assert lhs == rhs


FIELDS = (PrimeField(2), F3, F5, PrimeField(2**61 - 1), QQ)


def _exact(f, sums) -> tuple:
    """Exact sums as field values: residues in [0, p), or Fractions."""
    return tuple(Fraction(x) if f.p is None else x % f.p for x in sums)


def _perm_sign(idx) -> int:
    if len(set(idx)) < len(idx):
        return 0
    return -1 if sum(a > b for a, b in itertools.combinations(idx, 2)) % 2 else 1


def _assert_normalised(f, vec) -> None:
    for x in vec:
        y = f.from_int(x)
        assert type(y) is type(x) and y == x, (f, vec)


@st.composite
def _field_case(draw):
    """A field, a dimension, an arity, raw tables and arguments.  Over F_p
    entries run from -2p to 3p, so many are negative or p and above;
    over Q they are ints and Fractions."""
    f = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(d, 3)))
    if f.p is None:
        fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        entry = st.one_of(st.integers(-4, 4), fractions)
    else:
        edges = st.sampled_from([-2 * f.p, -f.p, -1, 0, f.p - 1, f.p, f.p + 1, 3 * f.p - 1])
        entry = st.one_of(edges, st.integers(-2 * f.p, 3 * f.p))
    vec = st.lists(entry, min_size=d, max_size=d)
    keys = st.sampled_from(list(itertools.combinations(range(d), n)))
    bracket = draw(st.dictionaries(keys, vec, max_size=4))
    pairs = st.sampled_from(list(itertools.combinations_with_replacement(range(d), 2)))
    product = draw(st.dictionaries(pairs, vec, max_size=4))
    args = draw(st.lists(vec, min_size=n, max_size=n))
    raw = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    rows = draw(st.lists(vec, max_size=4))
    return f, d, n, bracket, product, args, raw, rows


@given(_field_case())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_unreduced_sums_match_expansion(case):
    # both tensors' eval and component, kernel and span on raw
    # entries return normalised values equal to the test's own expansion:
    # over index tuples with permutation signs for the bracket, over index
    # pairs for the product, and rank-nullity against sympy for the echelon
    f, d, n, bracket, product, args, raw, rows = case
    t = SkewBracketTensor(d, n, f, bracket)
    prod = SymProductTensor(d, f, product)
    zero = [0] * d

    expected = list(zero)
    for idx in itertools.product(range(d), repeat=n):
        value, coeff = bracket.get(tuple(sorted(idx))), _perm_sign(idx)
        if coeff and value:
            for a, i in zip(args, idx):
                coeff *= a[i]
            expected = [e + coeff * v for e, v in zip(expected, value)]
    got = t.eval(args)
    _assert_normalised(f, got)
    assert got == _exact(f, expected)

    value = bracket.get(tuple(sorted(raw)), zero)
    got = t.component(raw)
    _assert_normalised(f, got)
    assert got == _exact(f, [_perm_sign(raw) * v for v in value])

    a, b = args[0], args[-1]
    expected = list(zero)
    for i, j in itertools.product(range(d), repeat=2):
        value = product.get((min(i, j), max(i, j)), zero)
        expected = [e + a[i] * b[j] * v for e, v in zip(expected, value)]
    got = prod.eval(a, b)
    _assert_normalised(f, got)
    assert got == _exact(f, expected)

    dom = sympy.QQ if f.p is None else sympy.GF(f.p)
    conv = (lambda x: dom(x.numerator, x.denominator)) if f.p is None else dom
    rank = DomainMatrix([[conv(x) for x in r] for r in rows], (len(rows), d), dom).rank()
    S, K = span(f, d, rows), kernel(f, d, rows)
    for basis in (S, K):
        for r in basis.rows:
            _assert_normalised(f, r)
        for r, p in zip(basis.rows, basis.pivots):
            assert [r[q] for q in basis.pivots] == [int(q == p) for q in basis.pivots]
    assert S.dim == rank and K.dim == d - rank
    for r in rows:  # each input row is its pivot expansion in the span's rows
        expansion = list(zero)
        for row, p in zip(S.rows, S.pivots):
            expansion = [e + r[p] * x for e, x in zip(expansion, row)]
        assert _exact(f, expansion) == _exact(f, r)
        for v in K.rows:
            assert _exact(f, [sum(x * y for x, y in zip(r, v))]) == _exact(f, [0])


class TestJacobiChecker:
    def test_cross_product_passes(self):
        t = SkewBracketTensor(
            3,
            2,
            QQ,
            {
                (0, 1): (Z, Z, ONE),
                (0, 2): (Z, -ONE, Z),
                (1, 2): (ONE, Z, Z),
            },
        )
        v = check_generalized_jacobi(t)
        assert v.ok and v.instances == 9

    def test_failing_tensor_frozen_witness(self):
        # omega(e0,e1) = e2, omega(e0,e2) = e0: the identity breaks first at
        # x = (0,1), y = (2,): lhs = omega(e2, e2) = 0 but
        # rhs = omega(omega(e0,e2), e1) = omega(e0, e1) = e2
        t = SkewBracketTensor(3, 2, QQ, {(0, 1): (Z, Z, ONE), (0, 2): (ONE, Z, Z)})
        v = check_generalized_jacobi(t)
        assert not v.ok
        assert v.witness.kind == "generalized_jacobi"
        assert v.witness.data["x"] == (0, 1)
        assert v.witness.data["y"] == (2,)
        assert v.witness.data["lhs"] == (Z, Z, Z)
        assert v.witness.data["rhs"] == (Z, Z, ONE)

    def test_later_instance_also_fails(self):
        # the same tensor also breaks at x = (0,2), y = (1,); replay both
        # sides from the raw tensor
        t = SkewBracketTensor(3, 2, QQ, {(0, 1): (Z, Z, ONE), (0, 2): (ONE, Z, Z)})
        e = lambda i: tuple(ONE if k == i else Z for k in range(3))
        lhs = t.eval([t.eval([e(0), e(2)]), e(1)])
        rhs_1 = t.eval([t.eval([e(0), e(1)]), e(2)])
        rhs_2 = t.eval([e(0), t.eval([e(2), e(1)])])
        rhs = tuple(a + b for a, b in zip(rhs_1, rhs_2))
        assert lhs != rhs


class TestProductChecker:
    def test_truncated_product_passes(self):
        carrier = truncated_polynomial_algebra(2, 3)
        v = check_assoc_comm_unital(carrier.product, carrier.unit)
        assert v.ok and v.instances == 729

    def test_unit_violation(self):
        # product with e0*e0 = e0 only: e0 is not a unit on e1
        prod = SymProductTensor(2, QQ, {(0, 0): (ONE, Z)})
        v = check_assoc_comm_unital(prod, (ONE, Z))
        assert not v.ok
        assert v.witness.kind == "unit"
        assert v.witness.data["index"] == 1

    def test_associativity_violation_frozen(self):
        # e0*e0 = e1, e0*e1 = e0 (no unit supplied): first failure at
        # (0,0,1): (e0 e0) e1 = e1 e1 = 0 but e0 (e0 e1) = e0 e0 = e1
        prod = SymProductTensor(2, QQ, {(0, 0): (Z, ONE), (0, 1): (ONE, Z)})
        v = check_assoc_comm_unital(prod)
        assert not v.ok
        assert v.witness.kind == "associativity"
        assert v.witness.data["triple"] == (0, 0, 1)
        assert v.witness.data["lhs"] == (Z, Z)
        assert v.witness.data["rhs"] == (Z, ONE)


class TestPoissonCheckers:
    def test_jacobian_family_passes_all(self):
        alg = jacobian_from_derivations(truncated_polynomial_algebra(2, 3).derivations)
        assert check_generalized_jacobi(alg.bracket).ok
        assert check_leibniz(alg).ok
        assert check_poisson_identity(alg).ok

    def test_zero_bracket_satisfies_leibniz(self):
        carrier = truncated_polynomial_algebra(1, 3)
        alg = NLiePoissonAlgebra(
            carrier.product, carrier.unit, SkewBracketTensor(3, 2, F3, {})
        )
        assert check_leibniz(alg).ok
        assert check_poisson_identity(alg).ok

    def test_unit_checked_at_construction(self):
        carrier = truncated_polynomial_algebra(1, 3)
        bad_unit = (0, 1, 0)
        with pytest.raises(ValueError):
            NLiePoissonAlgebra(
                carrier.product, bad_unit, SkewBracketTensor(3, 2, F3, {})
            )


class TestFastPathAgreement:
    """The sparse engine must agree with the per-instance oracle loops,
    witness included, value types too (the repr tells an int from a
    Fraction)."""

    @staticmethod
    def _agree(engine, oracle):
        assert repr(engine) == repr(oracle)
        return engine

    def test_jacobi_agreement(self):
        alg = jacobian_from_derivations(truncated_polynomial_algebra(2, 3).derivations)
        self._agree(check_generalized_jacobi(alg.bracket), jacobi_oracle(alg.bracket))

    def test_failing_witness_agreement(self):
        # seeded random tensor over F_5 that violates the identity
        import random

        rng = random.Random(11)
        table = {}
        for key in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
            table[key] = tuple(rng.randrange(5) for _ in range(4))
        t = SkewBracketTensor(4, 2, F5, table)
        v = self._agree(check_generalized_jacobi(t), jacobi_oracle(t))
        assert not v.ok

    def test_leibniz_and_shift_agreement(self):
        alg = jacobian_from_derivations(truncated_polynomial_algebra(2, 3).derivations)
        self._agree(check_leibniz(alg), leibniz_oracle(alg))
        self._agree(check_poisson_identity(alg), shift_oracle(alg))

    def test_failing_leibniz_and_shift_agreement(self):
        # first-row determinant bracket of arity 3 against the carrier
        # product: 2916 Leibniz and 6561 shift instances, failing early
        carrier = truncated_polynomial_algebra(2, 3)
        w = w_from_derivations(carrier.derivations, 3)
        alg = NLiePoissonAlgebra(carrier.product, carrier.unit, w.bracket)
        expected = {
            (check_leibniz, leibniz_oracle): (2916, {"i": 0, "j": 0, "y": (1, 2)}),
            (check_poisson_identity, shift_oracle): (
                6561, {"a": 0, "b": 0, "c": 1, "u": (2,)}
            ),
        }
        for (checker, oracle), (instances, where) in expected.items():
            v = self._agree(checker(alg), oracle(alg))
            assert not v.ok and v.instances == instances
            assert {k: v.witness.data[k] for k in where} == where

    def test_perturbed_c5_agreement(self):
        # one entry of the dim-25 Jacobian bracket over F_5 moved by one
        c5 = jacobian_from_derivations(truncated_polynomial_algebra(2, 5).derivations)
        table = dict(c5.bracket.table)
        value = list(table[(4, 18)])
        value[0] = (value[0] + 1) % 5
        table[(4, 18)] = tuple(value)
        bracket = SkewBracketTensor(25, 2, F5, table)
        alg = NLiePoissonAlgebra(c5.product, c5.unit, bracket)
        pairs = (
            (check_generalized_jacobi(bracket), jacobi_oracle(bracket)),
            (check_leibniz(alg), leibniz_oracle(alg)),
            (check_poisson_identity(alg), shift_oracle(alg)),
        )
        for engine, oracle in pairs:
            assert not self._agree(engine, oracle).ok

    @pytest.mark.parametrize("n, p, count", [(2, 3, 8), (3, 2, 2)])
    def test_perturbation_sweep_agreement(self, n, p, count):
        # seeded single-entry moves of c3 and c32, alternating bracket and
        # product entries; the oracle loops also walk the mirrored halves
        # (j, i), (b, a) and (k, j, i) that the engine skips
        import random

        rng = random.Random(1)
        alg = jacobian_from_derivations(truncated_polynomial_algebra(n, p).derivations)
        d, arity, f = alg.dim, alg.arity, alg.field
        for move in range(count):
            bracket, product = dict(alg.bracket.table), dict(alg.product.table)
            if move % 2 == 0:
                table, key = bracket, tuple(sorted(rng.sample(range(d), arity)))
            else:  # e_0 stays the unit
                table, key = product, tuple(sorted(rng.choices(range(1, d), k=2)))
            value = list(table.get(key, (0,) * d))
            m = rng.randrange(d)
            value[m] = (value[m] + rng.randrange(1, p)) % p
            table[key] = tuple(value)
            t = SkewBracketTensor(d, arity, f, bracket)
            moved = NLiePoissonAlgebra(SymProductTensor(d, f, product), alg.unit, t)
            pairs = (
                (check_generalized_jacobi(t), jacobi_oracle(t)),
                (check_leibniz(moved), leibniz_oracle(moved)),
                (check_poisson_identity(moved), shift_oracle(moved)),
                (check_assoc_comm_unital(moved.product, moved.unit),
                 assoc_oracle(moved.product, moved.unit)),
            )
            for engine, oracle in pairs:
                self._agree(engine, oracle)

    def test_assoc_agreement(self):
        carrier = truncated_polynomial_algebra(2, 3)
        self._agree(
            check_assoc_comm_unital(carrier.product, carrier.unit),
            assoc_oracle(carrier.product, carrier.unit),
        )


def _inverse(M):
    """The inverse of a square rational matrix, by Gauss-Jordan."""
    d = len(M)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(M)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def _in_basis(alg, M):
    """A rational algebra (bracket, or Poisson algebra) in the basis
    f_a = sum_i M[i][a] e_i."""
    t, d = alg.bracket, alg.dim
    inv = _inverse(M)
    cols = [tuple(Fraction(M[i][a]) for i in range(d)) for a in range(d)]

    def back(v):
        return tuple(sum((inv[i][j] * v[j] for j in range(d)), Z) for i in range(d))

    bracket = SkewBracketTensor(d, t.arity, QQ, {
        key: back(t.eval([cols[a] for a in key]))
        for key in itertools.combinations(range(d), t.arity)
    })
    if not isinstance(alg, NLiePoissonAlgebra):
        return NLieAlgebra(bracket)
    product = SymProductTensor(d, QQ, {
        (a, b): back(alg.product.eval(cols[a], cols[b]))
        for a, b in itertools.combinations_with_replacement(range(d), 2)
    })
    return NLiePoissonAlgebra(product, back(alg.unit), bracket)


def _unimodular(d, seed):
    """A seeded dense integer matrix of determinant 1: lower times upper
    unitriangular, entries of each in -2..2."""
    import random

    rng = random.Random(seed)
    L = [[int(i == j) if j >= i else rng.randint(-2, 2) for j in range(d)] for i in range(d)]
    U = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(d)] for i in range(d)]
    return [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _moved(alg, which, key, m, delta):
    """A copy with `delta` added to the e_m-coefficient of one bracket or
    product entry."""
    t = alg.bracket
    tables = {"bracket": dict(t.table)}
    if isinstance(alg, NLiePoissonAlgebra):
        tables["product"] = dict(alg.product.table)
    table = tables[which]
    value = list(table.get(key, (Z,) * alg.dim))
    value[m] += delta
    table[key] = tuple(value)
    bracket = SkewBracketTensor(alg.dim, t.arity, QQ, tables["bracket"])
    if "product" not in tables:
        return NLieAlgebra(bracket)
    return NLiePoissonAlgebra(SymProductTensor(alg.dim, QQ, tables["product"]), alg.unit, bracket)


def _scaled_cross(s):
    t = vector_product_algebra(2).bracket
    return NLieAlgebra(SkewBracketTensor(3, 2, QQ, {k: tuple(s * x for x in v)
                                                    for k, v in t.table.items()}))


def _square_zero_poisson():
    """Q.1 + so(3) with the cross product as bracket and g.g = 0, in the basis
    (e_0/3, e_1, 2 e_2, e_3/2): the product has 1/3 in every entry, the
    bracket 4, 1 and 1/4, and the unit is 3 f_0."""
    d = 4
    e = [tuple(ONE if k == i else Z for k in range(d)) for i in range(d)]
    product = SymProductTensor(d, QQ, {(0, j): e[j] for j in range(d)})
    bracket = SkewBracketTensor(d, 2, QQ, {(1, 2): e[3], (1, 3): tuple(-x for x in e[2]),
                                           (2, 3): e[1]})
    alg = NLiePoissonAlgebra(product, e[0], bracket)
    diag = (Fraction(1, 3), 1, 2, Fraction(1, 2))
    return _in_basis(alg, [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])


def _q_cases():
    cases = {
        "cross/2": _scaled_cross(Fraction(1, 2)),
        "cross*2/3": _scaled_cross(Fraction(2, 3)),
        "cross*2/3.dense": _in_basis(_scaled_cross(Fraction(2, 3)), _unimodular(3, 5)),
        "cross4/3.dense": _in_basis(NLieAlgebra(SkewBracketTensor(
            5, 4, QQ, {k: tuple(x / 3 for x in v)
                       for k, v in vector_product_algebra(4).bracket.table.items()})),
            _unimodular(5, 7)),
        "square-zero/3": _square_zero_poisson(),
    }
    failing = {}
    for name, alg in cases.items():
        key = min(alg.bracket.table)
        failing[name + ".moved"] = _moved(alg, "bracket", key, 0, Fraction(1, 5))
    sq = cases["square-zero/3"]
    failing["square-zero/3.moved-product"] = _moved(sq, "product", (1, 1), 2, Fraction(1, 3))
    return cases, failing


class TestRationalEngine:
    """Over Q the engine sums scaled ints; every verdict must equal the
    oracle loops' Fraction arithmetic, witness and value types included."""

    @staticmethod
    def _pairs(alg):
        pairs = [(check_generalized_jacobi(alg.bracket), jacobi_oracle(alg.bracket))]
        if isinstance(alg, NLiePoissonAlgebra):
            pairs += [
                (check_leibniz(alg), leibniz_oracle(alg)),
                (check_poisson_identity(alg), shift_oracle(alg)),
                (check_assoc_comm_unital(alg.product, alg.unit),
                 assoc_oracle(alg.product, alg.unit)),
            ]
        return pairs

    def test_constants_are_not_integral(self):
        cases, failing = _q_cases()
        for alg in (*cases.values(), *failing.values()):
            values = {c for v in alg.bracket.table.values() for c in v}
            if isinstance(alg, NLiePoissonAlgebra):
                values |= {c for v in alg.product.table.values() for c in v}
            assert any(c.denominator > 1 for c in values)
        sq = _square_zero_poisson()
        assert Fraction(1, 3) in sq.product.table[(0, 0)] and sq.unit == (3, 0, 0, 0)

    @pytest.mark.parametrize("name", list(_q_cases()[0]))
    def test_passing_copies_agree(self, name):
        alg = _q_cases()[0][name]
        for engine, oracle in self._pairs(alg):
            assert repr(engine) == repr(oracle)
            assert engine.ok

    @pytest.mark.parametrize("name", list(_q_cases()[1]))
    def test_failing_copies_agree(self, name):
        alg = _q_cases()[1][name]
        verdicts = [TestFastPathAgreement._agree(*pair) for pair in self._pairs(alg)]
        failed = [v for v in verdicts if not v.ok]
        assert failed
        for v in failed:
            sides = [c for key in ("lhs", "rhs") for c in v.witness.data[key]]
            assert all(type(c) is Fraction for c in sides) and sides != [Z] * len(sides)


_SWEEP_FIELDS = (PrimeField(2), F3, F5, PrimeField(2**61 - 1), QQ)


@pytest.mark.parametrize("f", _SWEEP_FIELDS, ids=repr)
def test_binary_jacobi_first_witness_sweep(f):
    # seeded binary brackets that fail Jacobi: the engine sums only the
    # sorted triples, and its first witness must be the one the oracle's
    # scan of every (x, y) finds, which has y > x2
    import random

    rng = random.Random(f"binary-sweep:{f!r}")
    if f is QQ:
        values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    else:
        values = sorted({0, 1, f.p - 1, f.p // 2, (f.p - 1) // 3})
    found = 0
    while found < 12:
        d = rng.randint(3, 6)
        keys = list(itertools.combinations(range(d), 2))
        table = {key: tuple(rng.choice(values) if rng.random() < 0.4 else f.zero
                            for _ in range(d))
                 for key in rng.sample(keys, rng.randint(2, len(keys)))}
        t = SkewBracketTensor(d, 2, f, table)
        v = check_generalized_jacobi(t)
        if v.ok:
            continue
        assert repr(v) == repr(jacobi_oracle(t))
        assert v.witness.data["y"][0] > v.witness.data["x"][1]
        found += 1


_PROPERTY_FIELDS = (QQ, PrimeField(2), F3, F5, PrimeField(2**61 - 1))


@st.composite
def _poisson_tables(draw):
    """A sparse bracket and a commutative product with unit e_0 on F^d,
    random entries from a few coefficient values so that identities hold
    now and then and fail otherwise."""
    f = draw(st.sampled_from(_PROPERTY_FIELDS))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    if f is QQ:
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]
    else:
        values = sorted({0, 1, f.p - 1, f.p // 2, (f.p - 1) // 3})
    coeff = st.sampled_from(values)

    def vector():
        return tuple(draw(coeff) for _ in range(d))

    keys = list(itertools.combinations(range(d), n))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []
    bracket = SkewBracketTensor(d, n, f, {key: vector() for key in chosen})
    table = {(0, j): tuple(f.one if k == j else f.zero for k in range(d)) for j in range(d)}
    pairs = [(i, j) for i in range(1, d) for j in range(i, d)]
    for key in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)) if pairs else []:
        table[key] = vector()
    return NLiePoissonAlgebra(SymProductTensor(d, f, table), table[(0, 0)], bracket)


@given(_poisson_tables())
@settings(max_examples=300, deadline=None)
def test_engine_matches_oracle_loops(alg):
    agree = TestFastPathAgreement._agree
    agree(check_generalized_jacobi(alg.bracket), jacobi_oracle(alg.bracket))
    agree(check_leibniz(alg), leibniz_oracle(alg))
    agree(check_assoc_comm_unital(alg.product), assoc_oracle(alg.product))
    if alg.arity >= 2:
        agree(check_poisson_identity(alg), shift_oracle(alg))


def test_guard_refuses_oversized_enumeration():
    from nlie.guards import GuardExceeded

    t = SkewBracketTensor(3, 2, F3, {(0, 1): (0, 0, 1)})
    with pytest.raises(GuardExceeded):
        check_generalized_jacobi(t, max_instances=1)


def test_guard_limit_names_its_source(monkeypatch):
    from nlie.guards import ENV_VAR, effective_limit

    monkeypatch.delenv(ENV_VAR, raising=False)
    assert effective_limit(None, 7, "max_enum") == 7
    assert effective_limit(3, 7, "max_enum") == 3
    for bad in (0, -1, "x"):
        with pytest.raises(ValueError, match=f"max_enum must be an integer >= 1, got {bad!r}"):
            effective_limit(bad, 7, "max_enum")
    monkeypatch.setenv(ENV_VAR, "12")
    assert effective_limit(None, 7, "max_enum") == 12
    t = SkewBracketTensor(3, 2, F3, {(0, 1): (0, 0, 1)})
    for bad in ("abc", "0", ""):
        monkeypatch.setenv(ENV_VAR, bad)
        with pytest.raises(ValueError, match=f"NLIE_MAX_INSTANCES .* got {bad!r}"):
            check_generalized_jacobi(t)
