"""Built-in algebra families.

The jacobian-style bracket is cross-checked against a completely separate
symbolic computation (polynomial determinants over Q, then truncation and
reduction), so the two routes only agree if both are right.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nlie.algebra import (
    SkewBracketTensor,
    SymProductTensor,
    check_generalized_jacobi,
    check_leibniz,
    check_poisson_identity,
    default_var_names,
    monomial_text,
)
from nlie.constructions import (
    DerivationSet,
    _det_bracket_table,
    check_commuting,
    check_derivation,
    jacobian_from_derivations,
    truncated_polynomial_algebra,
    vector_product_algebra,
    w_from_derivations,
)
from nlie.fields import PrimeField, QQ
from nlie.linalg import Matrix, unit_vector
from nlie.poly import Poly, jac_bracket

from loop_oracle import dense, derivation_oracle, det_bracket_table_oracle, vec_add

F3 = PrimeField(3)
Z = Fraction(0)
ONE = Fraction(1)


class TestVectorProduct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_jacobi_all_arities(self, n):
        alg = vector_product_algebra(n)
        assert alg.dim == n + 1
        assert check_generalized_jacobi(alg.bracket).ok

    def test_cross_product_table(self):
        alg = vector_product_algebra(2)
        t = alg.bracket
        assert t.entry((0, 1)) == (Z, Z, ONE)
        assert t.entry((0, 2)) == (Z, -ONE, Z)
        assert t.entry((1, 2)) == (ONE, Z, Z)

    def test_over_prime_field(self):
        alg = vector_product_algebra(3, F3)
        assert check_generalized_jacobi(alg.bracket).ok

    def test_rejects_unary(self):
        with pytest.raises(ValueError):
            vector_product_algebra(1)


class TestTruncatedCarrier:
    def test_grlex_names_frozen(self):
        carrier = truncated_polynomial_algebra(2, 3)
        assert carrier.names == (
            "1", "x", "y", "x^2", "x*y", "y^2", "x^2*y", "x*y^2", "x^2*y^2",
        )

    # c3 and w33 share the carrier in x, y; c33's is in x, y, z
    @pytest.mark.parametrize("nvars", [2, 3])
    def test_names_are_the_polynomial_monomials(self, nvars):
        carrier = truncated_polynomial_algebra(nvars, 3)
        names = default_var_names(nvars)
        assert len(carrier.names) == len(carrier.exponents) == 3**nvars
        for e, name in zip(carrier.exponents, carrier.names):
            assert monomial_text(e, names) == name == Poly.monomial(e).render(names)

    def test_truncation_kills_pth_powers(self):
        carrier = truncated_polynomial_algebra(1, 3)
        x = unit_vector(F3, 3, 1)
        x2 = carrier.product.eval(x, x)
        assert x2 == (0, 0, 1)
        assert carrier.product.eval(x2, x) == (0, 0, 0)

    def test_partial_derivative_entries(self):
        carrier = truncated_polynomial_algebra(2, 3)
        dx = carrier.derivations.maps[0]
        i_x2y = carrier.names.index("x^2*y")
        i_xy = carrier.names.index("x*y")
        out = dx.matvec(unit_vector(F3, 9, i_x2y))
        assert out[i_xy] == 2 and sum(c != 0 for c in out) == 1

    def test_derivation_validation(self):
        carrier = truncated_polynomial_algebra(1, 3)
        bogus = Matrix(F3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert not check_derivation(carrier.product, bogus).ok
        with pytest.raises(ValueError):
            DerivationSet(carrier.product, carrier.unit, [bogus])

    def test_derivation_check_guard(self, monkeypatch):
        from nlie.guards import GuardExceeded

        # d/dx on F_3[x]/(x^3): the Leibniz check of its arity-1 bracket
        # has d^2 = 9 instances
        product = truncated_polynomial_algebra(1, 3).product
        dx = Matrix(F3, [[0, 1, 0], [0, 0, 2], [0, 0, 0]])
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "8")
        with pytest.raises(GuardExceeded, match="Leibniz check: 9 instances exceed the bound 8"):
            check_derivation(product, dx)
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "9")
        assert check_derivation(product, dx) == derivation_oracle(product, dx)

    def test_commuting_validation(self):
        carrier = truncated_polynomial_algebra(2, 2)
        assert check_commuting(carrier.derivations.maps).ok

    def test_dimension_guard(self):
        from nlie.guards import GuardExceeded

        with pytest.raises(GuardExceeded):
            truncated_polynomial_algebra(12, 11)

    def test_product_table_guard(self, monkeypatch):
        from nlie.guards import GuardExceeded

        # 112 stored pairs of 27 coefficients each, past the bound
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "1000")
        with pytest.raises(GuardExceeded, match="3024 instances exceed the bound 1000"):
            truncated_polynomial_algebra(3, 3)


class TestJacobianBracket:
    def test_bracket_tuple_guard(self, monkeypatch):
        from nlie.guards import GuardExceeded

        # the carrier stores 656 coefficients, but C(16, 4) = 1820 tuples
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "1000")
        carrier = truncated_polynomial_algebra(4, 2)
        with pytest.raises(GuardExceeded, match="1820 instances exceed the bound 1000"):
            jacobian_from_derivations(carrier.derivations)

    def test_symbolic_cross_check_char3(self):
        """Tensor entries must equal the symbolic Jacobian determinant of
        the corresponding monomials, truncated (drop exponents >= p) and
        reduced mod p."""
        p = 3
        carrier = truncated_polynomial_algebra(2, p)
        alg = jacobian_from_derivations(carrier.derivations)
        exps = carrier.exponents
        index = {e: i for i, e in enumerate(exps)}
        for a, b in combinations(range(len(exps)), 2):
            symbolic = jac_bracket([Poly.monomial(exps[a]), Poly.monomial(exps[b])])
            expected = [0] * len(exps)
            for e, c in symbolic.terms.items():
                if all(x < p for x in e):
                    expected[index[e]] = int(c) % p
            assert alg.bracket.entry((a, b)) == tuple(expected), (exps[a], exps[b])

    @pytest.mark.parametrize("nvars,p", [(2, 3), (3, 2)])
    def test_axioms(self, nvars, p):
        alg = jacobian_from_derivations(truncated_polynomial_algebra(nvars, p).derivations)
        assert check_generalized_jacobi(alg.bracket).ok
        assert check_leibniz(alg).ok
        assert check_poisson_identity(alg).ok


class TestWBracket:
    def test_jacobi_passes_leibniz_fails(self):
        from nlie.algebra import NLiePoissonAlgebra

        carrier = truncated_polynomial_algebra(1, 3)
        w = w_from_derivations(carrier.derivations, 2)
        assert check_generalized_jacobi(w.bracket).ok
        paired = NLiePoissonAlgebra(carrier.product, carrier.unit, w.bracket)
        verdict = check_leibniz(paired)
        assert not verdict.ok
        # frozen: first failure at products of constants, y = (x):
        # w(1*1, x) = w(1, x) = 1 but 1*w(1,x) + w(1,x)*1 = 2
        data = verdict.witness.data
        assert (data["i"], data["j"], data["y"]) == (0, 0, (1,))
        assert data["lhs"] == (1, 0, 0)
        assert data["rhs"] == (2, 0, 0)

    def test_witness_replays(self):
        carrier = truncated_polynomial_algebra(1, 3)
        w = w_from_derivations(carrier.derivations, 2).bracket
        prod = carrier.product
        e0 = unit_vector(F3, 3, 0)
        e1 = unit_vector(F3, 3, 1)
        lhs = w.eval([prod.eval(e0, e0), e1])
        rhs = vec_add(
            F3,
            prod.eval(e0, w.eval([e0, e1])),
            prod.eval(w.eval([e0, e1]), e0),
        )
        assert lhs != rhs

    def test_arity_map_count_mismatch(self):
        carrier = truncated_polynomial_algebra(1, 3)
        with pytest.raises(ValueError):
            w_from_derivations(carrier.derivations, 3)


def _small_product(f):
    """F[x, y]/(x^3, y^2, x^2*y) on the basis 1, x, 3x^2, y, x*y, with the
    Euler derivations x d/dx and y d/dy, which hold in every characteristic."""
    third = Fraction(1, 3) if f.p is None else f.inv(3)
    one = f.one
    table = {(0, k): [one if m == k else 0 for m in range(5)] for k in range(5)}
    table[(1, 1)] = [0, 0, third, 0, 0]
    table[(1, 3)] = [0, 0, 0, 0, one]
    euler = [{1: [(1, 1)], 2: [(2, 2)], 4: [(4, 1)]}, {3: [(3, 1)], 4: [(4, 1)]}]
    maps = [Matrix.from_columns(f, 5, cols) for cols in euler]
    return SymProductTensor(5, f, table), maps


_DERIVATION_PRODUCTS = [
    ("carrier", 1, 2), ("carrier", 2, 2), ("carrier", 3, 2), ("carrier", 1, 3),
    ("carrier", 2, 3), ("carrier", 1, 5), ("small", None, 2**61 - 1), ("small", None, None),
]


@st.composite
def _derivation_case(draw):
    kind, nvars, p = draw(st.sampled_from(_DERIVATION_PRODUCTS))
    if kind == "carrier":
        carrier = truncated_polynomial_algebra(nvars, p)
        product, maps = carrier.product, list(carrier.derivations.maps)
    else:
        product, maps = _small_product(QQ if p is None else PrimeField(p))
    f, d = product.field, product.dim
    if f.p is None:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    else:
        entry = st.one_of(st.just(0), st.just(0), st.sampled_from([1, f.p - 1, 2 % f.p]),
                          st.integers(0, f.p - 1))
    shape = draw(st.integers(0, 4))  # 0: a true map with one entry moved, 1: a true map
    if shape > 1:
        rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
        return product, Matrix(f, rows)
    rows = [list(r) for r in dense(draw(st.sampled_from(maps)))]
    if shape == 0:
        src = draw(st.sampled_from([(i, k) for i in range(d) for k in range(d) if rows[i][k]]))
        dst = draw(st.sampled_from([(i, k) for i in range(d) for k in range(d)]))
        value, rows[src[0]][src[1]] = rows[src[0]][src[1]], 0
        rows[dst[0]][dst[1]] += value
    return product, Matrix(f, rows)


@given(_derivation_case())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_derivation_check_matches_loop(case):
    # verdict, witness and instance count as the dense per-pair loop gives them
    product, m = case
    assert repr(check_derivation(product, m)) == repr(derivation_oracle(product, m))


@st.composite
def _det_case(draw):
    nvars, p = draw(st.sampled_from([(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (1, 7)]))
    carrier = truncated_polynomial_algebra(nvars, p)
    f, d = carrier.product.field, carrier.product.dim
    arity = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    vec = st.lists(entry, min_size=d, max_size=d)
    rows = draw(st.lists(st.lists(vec, min_size=d, max_size=d), min_size=arity, max_size=arity))
    if draw(st.booleans()):  # w-shaped: the arguments themselves in the first row
        rows[0] = [unit_vector(f, d, i) for i in range(d)]
    return carrier.product, arity, [[tuple(map(f.from_int, v)) for v in row] for row in rows]


@given(_det_case())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_det_bracket_table_matches_dense_expansion(case):
    # the sparse expansion on the column index, normalised by the bracket
    # tensor's from_entries, against the dense expansion through the product's eval
    product, arity, rows = case
    f, d = product.field, product.dim
    pairs = [[tuple((i, c) for i, c in enumerate(v) if c) for v in row] for row in rows]
    table = _det_bracket_table(d, arity, f, product, pairs)
    got = SkewBracketTensor.from_entries(d, arity, f, table)
    want = SkewBracketTensor(d, arity, f, det_bracket_table_oracle(d, arity, f, product, rows))
    assert repr(got.entries) == repr(want.entries)
    assert repr(got.table) == repr(want.table)
