"""Polynomial arithmetic over F_p behind Norton's test: characteristic
polynomials and distinct irreducible factors against sympy, at small and
large primes, and the laziness of the factor generator."""

import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nlie import _fppoly

PRIMES = [2, 3, 5, 101, 3037000493, 2**61 - 1]
X = sympy.Symbol("x")


def sympy_factors(f, p):
    """The distinct monic irreducible factors, in _fppoly's order."""
    _, factors = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    out = []
    for g, _ in factors:
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.append([c * inv % p for c in coeffs])
    return sorted(out, key=lambda g: (len(g), g))


def recording(monkeypatch, name, calls, pick):
    """Wrap _fppoly's `name` so each call appends pick(*args) to calls."""
    inner = getattr(_fppoly, name)

    def wrapper(*args):
        calls.append(pick(*args))
        return inner(*args)

    monkeypatch.setattr(_fppoly, name, wrapper)


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

    @given(matrices(), st.integers(0, 2**61))
    @settings(max_examples=30, deadline=None)
    def test_linear_at_matrix_is_a_shift(self, case, c):
        p, rows = case
        c %= p
        shifted = [
            [(x + c * (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(rows)
        ]
        assert _fppoly.at_matrix([c, 1], rows, p) == shifted


class TestFactor:
    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_charpoly_factors_match_sympy(self, case):
        p, rows = case
        f = _fppoly.charpoly(rows, p)
        assert list(_fppoly.factors(f, p)) == sympy_factors(f, p)

    @given(products())
    @settings(max_examples=60, deadline=None)
    def test_repeated_factors_match_sympy(self, case):
        p, f = case
        assert list(_fppoly.factors(f, p)) == sympy_factors(f, p)

    @pytest.mark.parametrize(
        "f, p, irreducible",
        [([1, 1, 1], 2, True), ([1, 1, 1], 3, False), ([1, 0, 1], 3, True),
         ([0, 1], 5, True), ([1, 0, 1], 101, False), ([1, 0, 1], 2**61 - 1, True)],
    )
    def test_is_irreducible(self, f, p, irreducible):
        # a monic f is irreducible when it is its own one factor
        assert (list(_fppoly.factors(f, p)) == [f]) is irreducible

    # x·q1·q2 with distinct irreducible cubics q1 and q2
    @pytest.mark.parametrize(
        "p, q1, q2", [(2, [1, 1, 0, 1], [1, 0, 1, 1]), (3, [1, 2, 0, 1], [2, 2, 0, 1])]
    )
    def test_first_factor_splits_only_degree_one(self, monkeypatch, p, q1, q2):
        for q in (q1, q2):
            assert sympy.Poly(list(reversed(q)), X, modulus=p).is_irreducible
        split = []
        recording(monkeypatch, "_equal_degree", split, lambda f, k, p, rng: k)
        factors = _fppoly.factors(_fppoly._mul([0, 1], _fppoly._mul(q1, q2, p), p), p)
        assert next(factors) == [0, 1]
        assert split == [1]
        assert list(factors) == sorted([q1, q2])
        assert set(split) == {1, 3}


class CountingRandom(random.Random):
    """random.Random that fails the test instead of hanging once a retry
    loop has drawn far more than the split budget allows."""

    def __init__(self, seed, fixed=None):
        super().__init__(seed)
        self.fixed, self.calls = fixed, 0

    def randrange(self, *args):
        self.calls += 1
        assert self.calls < 10**5, "the split retries without a bound"
        return super().randrange(*args) if self.fixed is None else self.fixed


class TestEqualDegree:
    def test_linear_factors_at_degree_two_raise(self):
        # (x-1)(x-2)(x-3)(x-4) over F_5 has no factor of degree 2; with the
        # seed that factors() uses at p = 5 it once retried forever
        f = [1]
        for r in (1, 2, 3, 4):
            f = _fppoly._mul(f, [-r % 5, 1], 5)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="k=2"):
            _fppoly._equal_degree(f, 2, 5, CountingRandom(5))
        assert time.perf_counter() - start < 1

    def test_draws_that_never_split_exhaust_the_budget(self):
        # two distinct irreducible quadratics over F_3; an all-zero draw is a
        # constant, which never splits
        f = _fppoly._mul([1, 0, 1], [2, 1, 1], 3)
        rng = CountingRandom(0, fixed=0)
        with pytest.raises(ValueError, match="k=2 over F_3"):
            _fppoly._equal_degree(f, 2, 3, rng)
        assert rng.calls == 4 * _fppoly._SPLIT_DRAWS  # one coefficient per degree of f
        assert sorted(_fppoly._equal_degree(f, 2, 3, CountingRandom(0))) == [[1, 0, 1], [2, 1, 1]]
