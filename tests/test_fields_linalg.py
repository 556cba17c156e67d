"""Field arithmetic and exact linear algebra."""

import itertools
import operator
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nlie.constructions import (
    DerivationSet,
    jacobian_from_derivations,
    truncated_polynomial_algebra,
    w_from_derivations,
)
from nlie.fields import PrimeField, QQ, _is_prime
from nlie.linalg import (
    EchelonAccumulator,
    Matrix,
    SubspaceBasis,
    det_expand,
    kernel,
    span,
    unit_vector,
)
from nlie.poly import Poly, jac_bracket, w_bracket

from loop_oracle import dense, stacked_kernel_intersect

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestFields:
    def test_rational_parse_fmt(self):
        assert QQ.parse("3/4") == Fraction(3, 4)
        assert QQ.parse("-2") == Fraction(-2)
        # algebra files write a value as its str
        assert str(QQ.parse("-1/3")) == "-1/3"
        assert str(QQ.parse("10/2")) == "5"

    def test_prime_field_ops(self):
        assert F5.from_int(3 + 4) == 2
        assert F5.from_int(3 * 4) == 2
        assert F5.from_int(-2) == 3
        assert F5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
        assert F5.parse("-1") == 4

    def test_prime_field_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_is_prime_agrees_with_sieve(self):
        n = 200_000
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, n, i))
        assert [_is_prime(k) for k in range(n)] == sieve

    @pytest.mark.parametrize("n", [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..31
        318665857834031151167461,  # strong pseudoprime to bases 2..37
    ])
    def test_rejects_pseudoprimes(self, n):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)

    def test_large_primes_are_quick(self):
        start = time.perf_counter()
        for p in (3037000493, 2**61 - 1):
            assert PrimeField(p).p == p
        assert time.perf_counter() - start < 1.0

    def test_refuses_beyond_the_deterministic_bound(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            PrimeField(2**127 - 1)

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            F3.inv(0)

    def test_inv_large_prime(self):
        p = 2**61 - 1
        F = PrimeField(p)
        for a in (1, 2, p - 1, 123456789123456789, -5):
            assert F.from_int(a * F.inv(a)) == 1
            assert F.inv(a) == pow(a, p - 2, p)
        for zero in (0, p, -p):
            with pytest.raises(ZeroDivisionError):
                F.inv(zero)

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20)
    def test_fp_inverse_property(self, a, b):
        assert F5.from_int((a % 5 or 1) * F5.inv(a % 5 or 1)) == 1


class TestMatrix:
    def test_kernel_oracle(self):
        # x + 2y = 0 over Q: kernel spanned by (-2, 1), canonical (1, -1/2)
        m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]])
        k = kernel(QQ, 2, dense(m))
        assert k.dim == 1
        (row,) = k.rows
        assert m.matvec(row) == (Fraction(0), Fraction(0))

    def test_matvec_identity(self):
        m = Matrix(F3, [unit_vector(F3, 3, i) for i in range(3)])
        assert m.matvec((1, 2, 0)) == (1, 2, 0)

    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=30)
    def test_rank_nullity(self, rows):
        m = Matrix(F5, rows)
        rank = span(F5, 3, rows).dim  # the row space
        assert rank + kernel(F5, 3, dense(m)).dim == 3


def _sympy_field(f):
    """The sympy domain of an nlie field and the map back to nlie values."""
    if f == QQ:
        return sympy.QQ, lambda e: Fraction(int(e.numerator), int(e.denominator))
    return sympy.GF(f.p), lambda e: int(e) % f.p


@pytest.mark.parametrize(
    "field", [QQ, F3, F5, PrimeField(2**61 - 1)], ids=["Q", "F3", "F5", "Fm61"]
)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_products_and_echelon_match_sympy(field, n, k, m, data):
    # the sparse columns read back as the dense input, the unreduced matvec
    # and product, transpose, zero test and equality, and the echelon
    # reduction, against sympy's exact matrices over the same field, value
    # types included; the zero matrix of each shape too
    from sympy.polys.matrices import DomainMatrix

    dom, back = _sympy_field(field)
    ints = st.integers(-3, 3)
    a = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(ints, min_size=m, max_size=m), min_size=k, max_size=k))
    v = data.draw(st.lists(ints, min_size=k, max_size=k))
    A = Matrix(field, [[field.from_int(x) for x in row] for row in a])
    B = Matrix(field, [[field.from_int(x) for x in row] for row in b])
    da = DomainMatrix([[dom(x) for x in row] for row in a], (n, k), dom)
    db = DomainMatrix([[dom(x) for x in row] for row in b], (k, m), dom)
    dv = DomainMatrix([[dom(x)] for x in v], (k, 1), dom)

    def grid(dm):
        return tuple(tuple(back(e) for e in row) for row in dm.to_list())

    assert (A.nrows, A.ncols) == (n, k)
    assert repr(dense(A)) == repr(grid(da))
    assert repr(dense(A.transpose())) == repr(grid(da.transpose()))
    assert repr(dense(A.mul(B))) == repr(grid(da * db))
    column = [row[0] for row in dense(B)]
    assert repr(A.matvec(column)) == repr(tuple(row[0] for row in grid(da * db)))
    got = A.matvec([field.from_int(x) for x in v])
    assert repr(got) == repr(tuple(row[0] for row in grid(da * dv)))
    assert A.is_zero() == da.is_zero_matrix
    # rows are normalised once, so unreduced input gives the same matrix
    assert A == Matrix(field, a) and hash(A) == hash(Matrix(field, a))
    assert A == A.transpose().transpose()
    assert (A == B) == ((n, k) == (k, m) and grid(da) == grid(db))
    if n == k:
        lift = 0 if field == QQ else field.p
        cols = {j: [(i, a[i][j] - lift) for i in range(n)] for j in range(n)}
        C = Matrix.from_columns(field, n, cols)
        assert C == A and hash(C) == hash(A)
    zero = Matrix(field, [[field.zero] * k] * n)
    assert zero.is_zero() and zero.transpose().is_zero() and zero.mul(B).is_zero()
    assert zero.transpose() == Matrix(field, [[0] * n] * k)
    assert zero.matvec(column) == (field.zero,) * n
    assert (zero == A) == A.is_zero()
    assert (zero == zero.transpose()) == (n == k)
    R, pivots = da.rref()
    rows = [tuple(back(e) for e in row) for row in R.to_list()[: len(pivots)]]
    S = span(field, k, dense(A))
    assert S.pivots == tuple(pivots)
    assert repr(S.rows) == repr(tuple(rows))


class TestSubspaces:
    def test_canonical_equality(self):
        a = span(QQ, 3, [(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(2), Fraction(0))])
        b = span(QQ, 3, [(Fraction(3), Fraction(0), Fraction(0)), (Fraction(1), Fraction(1), Fraction(0))])
        assert a == b
        assert hash(a) == hash(b)
        # an entry outside [0, p) is normalised even when no pivot reduces it
        c = span(F3, 2, [(1, 5)])
        assert c == span(F3, 2, [(1, 2)]) and c.rows == ((1, 2),)

    def test_trusted_freezes_containers(self):
        # equality must not depend on whether the caller handed in lists
        a = SubspaceBasis._trusted(F3, 2, [[1, 0]], [0])
        b = span(F3, 2, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_contains_and_coordinates(self):
        S = span(F3, 3, [(1, 0, 2), (0, 1, 1)])
        v = (1, 1, 0)  # = row0 + row1
        assert S.contains(v)
        coords = S.coordinates_of(v)
        assert coords == (1, 1)
        assert not S.contains((0, 0, 1))
        assert S.coordinates_of((0, 0, 1)) is None
        # 3 is zero in F_3, though no row of the zero subspace touches it
        assert SubspaceBasis.zero(F3, 1).contains((3,))

    def test_sum_intersect_dims(self):
        a = span(F3, 4, [unit_vector(F3, 4, 0), unit_vector(F3, 4, 1)])
        b = span(F3, 4, [unit_vector(F3, 4, 1), unit_vector(F3, 4, 2)])
        assert a.sum(b).dim == 3
        assert a.intersect(b).dim == 1
        assert a.intersect(b).contains(unit_vector(F3, 4, 1))

    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), max_size=3),
        st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), max_size=3),
    )
    @settings(max_examples=40)
    def test_dim_formula(self, va, vb):
        a = span(F3, 4, va)
        b = span(F3, 4, vb)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim

    @pytest.mark.parametrize("field", [F2, F3])
    @pytest.mark.parametrize("seed", range(30))
    def test_intersect_matches_enumeration(self, field, seed):
        # every vector of U that W contains, against the echelon pass and
        # the stacked-kernel recombination it replaced
        rng = random.Random(seed)
        d = rng.randint(1, 4)

        def random_span():
            vecs = [[rng.randrange(field.p) for _ in range(d)] for _ in range(rng.randint(0, d))]
            return span(field, d, vecs)

        U, W = random_span(), random_span()
        if seed % 5 == 0:
            W = U.sum(W)  # U inside W
        members = []
        for coeffs in itertools.product(range(field.p), repeat=U.dim):
            v = [sum(c * row[i] for c, row in zip(coeffs, U.rows)) % field.p for i in range(d)]
            if W.contains(v):
                members.append(v)
        want = span(field, d, members)
        got = U.intersect(W)
        assert got == want and got.pivots == want.pivots
        assert got == stacked_kernel_intersect(U, W) == W.intersect(U)

    def test_accumulator_matches_span(self):
        vecs = [(1, 2, 0), (2, 1, 1), (0, 0, 2), (1, 1, 1)]
        acc = EchelonAccumulator(F3, 3)
        for v in vecs:
            acc.add(v)
        assert acc.to_subspace() == span(F3, 3, vecs)

    def test_zero_and_full(self):
        z = SubspaceBasis.zero(F2, 3)
        f = SubspaceBasis.full(F2, 3)
        assert z.is_zero() and not z.is_full()
        assert f.is_full()


class TestDeterminant:
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.one_of(
                    st.just([0] * n),
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_expansion_matches_sympy(self, m):
        got = det_expand(m, 0, operator.add, operator.neg, operator.mul, lambda x: x == 0)
        assert got == sympy.Matrix(m).det()

    def test_arity_seven_refused_everywhere(self):
        limit = "limited to arity 6"
        with pytest.raises(ValueError, match=limit):
            jac_bracket([Poly.variable(7, i) for i in range(7)])
        with pytest.raises(ValueError, match=limit):
            w_bracket([Poly.variable(6, i % 6) for i in range(7)])
        # zero maps are commuting derivations of any carrier
        carrier = truncated_polynomial_algebra(1, 2)
        f, d = carrier.product.field, carrier.product.dim
        zero = Matrix(f, [[f.zero] * d] * d)
        for maps, build in [
            (7, jacobian_from_derivations),
            (6, lambda ds: w_from_derivations(ds, 7)),
        ]:
            ds = DerivationSet(carrier.product, carrier.unit, [zero] * maps)
            with pytest.raises(ValueError, match=limit):
                build(ds)
