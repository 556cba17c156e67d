"""Polynomial arithmetic over F_p behind Norton's test: characteristic
polynomials and factorizations against sympy, at small and large primes."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nlie import _fppoly

PRIMES = [2, 3, 5, 101, 3037000493, 2**61 - 1]
X = sympy.Symbol("x")


def sympy_factors(f, p):
    """Monic irreducible factors with multiplicities, in _fppoly's order."""
    _, factors = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    out = []
    for g, m in factors:
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.append(([c * inv % p for c in coeffs], m))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return p, rows


@st.composite
def products(draw):
    """A monic product of powers of random monic polynomials, so repeated
    and p-th-power factors occur."""
    p = draw(st.sampled_from(PRIMES))
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)) + [1]
        for _ in range(draw(st.sampled_from([1, 2, p, p + 1] if p < 6 else [1, 2, 3]))):
            f = _fppoly._mul(f, g, p)
    return p, f


class TestCharpoly:
    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, case):
        p, rows = case
        want = sympy.Matrix(rows).charpoly(X).all_coeffs()
        assert _fppoly.charpoly(rows, p) == [int(c) % p for c in reversed(want)]

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_cayley_hamilton(self, case):
        p, rows = case
        assert not any(map(any, _fppoly.at_matrix(_fppoly.charpoly(rows, p), rows, p)))


class TestFactor:
    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_charpoly_factors_match_sympy(self, case):
        p, rows = case
        f = _fppoly.charpoly(rows, p)
        assert _fppoly.factor(f, p) == sympy_factors(f, p)

    @given(products())
    @settings(max_examples=60, deadline=None)
    def test_repeated_factors_match_sympy(self, case):
        p, f = case
        assert _fppoly.factor(f, p) == sympy_factors(f, p)

    @pytest.mark.parametrize(
        "f, p, irreducible",
        [([1, 1, 1], 2, True), ([1, 1, 1], 3, False), ([1, 0, 1], 3, True),
         ([0, 1], 5, True), ([1, 0, 1], 101, False), ([1, 0, 1], 2**61 - 1, True)],
    )
    def test_is_irreducible(self, f, p, irreducible):
        # a monic f is irreducible when it is its own one factor
        assert (_fppoly.factor(f, p) == [(f, 1)]) is irreducible
