"""Built-in algebra families.

The jacobian-style bracket is cross-checked against a completely separate
symbolic computation (polynomial determinants over Q, then truncation and
reduction), so the two routes only agree if both are right.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from nlie.algebra import check_generalized_jacobi, check_leibniz, check_poisson_identity
from nlie.constructions import (
    DerivationSet,
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
        from nlie.linalg import vec_add

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
