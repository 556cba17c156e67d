"""Exact polynomial arithmetic and the symbolic bracket layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from loop_oracle import (
    bracket_oracle,
    poly_power_oracle,
    poly_product_oracle,
    truncated_center_oracle,
    truncated_derived_span_oracle,
)

from nlie.guards import GuardExceeded
from nlie.poly import (
    Poly,
    PolyParseError,
    default_var_names,
    jac_bracket,
    monomials_up_to,
    parse_poly,
    truncated_center,
    truncated_derived_span,
    verify_identity_truncated,
    w_bracket,
)

XY = ("x", "y")


def P(src: str, names=XY) -> Poly:
    return parse_poly(src, names)


class TestPolyArithmetic:
    def test_basic_ops(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")
        assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
        assert P("x") - P("x") == Poly.zero(2)

    def test_degree(self):
        assert Poly.zero(2).degree() == -1
        assert P("5").degree() == 0
        assert P("x^2*y + x").degree() == 3

    def test_partial(self):
        assert P("x^3*y").partial(0) == P("3*x^2*y")
        assert P("x^3*y").partial(1) == P("x^3")
        assert P("7").partial(0) == Poly.zero(2)

    def test_pow_negative(self):
        with pytest.raises(ValueError):
            P("x") ** -1

    @pytest.mark.parametrize("src, terms", [
        ("x^100000", 1),
        ("(x+y+1)^20", 231),
        # the term count alone bounds the outer square by C(154, 2)^2 > 10^8;
        # degree 32 in 2 variables bounds it by C(34, 2)^2
        ("((x+y+1)^16)^2", 561),
        ("0^1000", 0),
    ])
    def test_pow_within_guard(self, src, terms):
        assert len(P(src).terms) == terms

    def test_pow_guard(self, monkeypatch):
        with pytest.raises(GuardExceeded, match="^polynomial power: "):
            P("(x+y+1)^1000")
        P("(x+y+1)^5")
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "100")
        refusal = "^polynomial power: 441 instances exceed the bound 100$"
        with pytest.raises(GuardExceeded, match=refusal):
            P("(x+y+1)^5")

    @given(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)
    )
    @settings(max_examples=30)
    def test_distributivity(self, ca, cb, ea, eb):
        a = Poly.monomial((ea, 0), ca)
        b = Poly.monomial((0, eb), cb)
        c = P("x + 2*y")
        assert (a + b) * c == a * c + b * c

    def test_second_derivative_of_square(self):
        # d^2(b^2)/dx^2 = 2 (db/dx)^2 + 2 b d^2b/dx^2, the iterated Leibniz
        # consequence any derivation satisfies
        b = P("x^2*y + 3*x - y^2")
        lhs = (b * b).partial(0).partial(0)
        db = b.partial(0)
        two = Poly.const(2, 2)
        rhs = two * (db * db) + two * (b * b.partial(0).partial(0))
        assert lhs == rhs


def rational_polys(nvars: int, max_terms: int = 4):
    """Polynomials of up to max_terms rational terms, the zero one included."""
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda terms: Poly(nvars, terms)
    )


def bracket_args(data, nvars: int, count: int) -> list[Poly]:
    """count arguments; sometimes one is a rational multiple of another, so
    the bracket cancels to zero."""
    args = [data.draw(rational_polys(nvars)) for _ in range(count)]
    if count > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(count)))[:2]
        c = data.draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
        args[j] = Poly.const(nvars, c) * args[i]
    return args


def assert_normalised(r: Poly) -> None:
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert r == Poly(r.nvars, dict(r.terms))


class TestScaledProducts:
    """The scaled-int products against the one-Fraction-at-a-time oracle."""

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_products_match_oracle(self, data):
        nvars = data.draw(st.integers(1, 3))
        a, b = data.draw(rational_polys(nvars)), data.draw(rational_polys(nvars))
        k = data.draw(st.integers(0, 4))
        pairs = [
            (a * b, poly_product_oracle(a, b)),
            # the cross terms cancel
            ((a + b) * (a - b), poly_product_oracle(a + b, a - b)),
            (a ** k, poly_power_oracle(a, k)),
            (jac_bracket(args := bracket_args(data, nvars, nvars)), bracket_oracle("jac", args)),
            (w_bracket(args := bracket_args(data, nvars, nvars + 1)), bracket_oracle("w", args)),
        ]
        for got, want in pairs:
            assert got == want
            assert_normalised(got)

    @pytest.mark.parametrize("bracket, args", [
        ("jac", "1/2*x^2*y - 3*y; 3/4*x^2*y - 9/2*y"),
        ("w", "1/2*x^2*y - 3*y; x*y^2 + 2/3*x; -x^2*y + 6*y"),
        ("w", "x; 0; y"),
    ])
    def test_brackets_cancel_to_zero(self, bracket, args):
        polys = [P(text) for text in args.split(";")]
        fn = jac_bracket if bracket == "jac" else w_bracket
        assert fn(polys).is_zero() and bracket_oracle(bracket, polys).is_zero()


class TestParser:
    def test_roundtrip(self):
        for src in ("x^2 - 3*y", "1/2*x*y + y^4", "-x", "0", "(x + y)^3"):
            p = P(src)
            assert P(p.render(XY)) == p

    def test_render_orders_terms(self):
        assert P("y^3 + x^3").render(XY) == "x^3 + y^3"
        assert P("y + x^2").render(XY) == "x^2 + y"

    def test_error_positions(self):
        with pytest.raises(PolyParseError, match="unknown variable 'z'"):
            P("z")
        with pytest.raises(PolyParseError, match="negative exponent"):
            P("x^-1")
        with pytest.raises(PolyParseError, match="zero denominator"):
            P("1/0")
        with pytest.raises(PolyParseError, match="unexpected 'y'"):
            P("x y")
        with pytest.raises(PolyParseError, match="end of input"):
            P("")

    @pytest.mark.parametrize("src, message, position", [
        ("x^\u0662", "expected a non-negative integer exponent", 2),  # Arabic-Indic 2
        ("x^\u00b2", "expected a non-negative integer exponent", 2),  # superscript 2
        ("\u0663*x", "unexpected '\u0663'", 0),  # Arabic-Indic 3
        ("1/\u0662", "expected an integer after '/'", 2),
        ("x^2\u0662", "unexpected '\u0662'", 3),
        ("\uff13", "unexpected '\uff13'", 0),  # fullwidth 3
    ])
    def test_only_ascii_digits(self, src, message, position):
        with pytest.raises(PolyParseError, match=f"{message} at position {position}") as info:
            P(src)
        assert info.value.position == position


class TestBrackets:
    def test_jac_frozen_value(self):
        # det [[2x, y^2], [0, 2xy]] = 4 x^2 y
        out = jac_bracket([P("x^2"), P("x*y^2")])
        assert out == P("4*x^2*y")

    def test_jac_antisymmetry_and_leibniz_spot(self):
        a, b, c = P("x^2 + y"), P("x*y"), P("y^2 - x")
        assert jac_bracket([a, b]) == -jac_bracket([b, a])
        assert jac_bracket([a * b, c]) == a * jac_bracket([b, c]) + jac_bracket([a, c]) * b

    def test_w_frozen_values(self):
        x = ("x",)
        assert w_bracket([P("1", x), P("x", x)]) == P("1", x)
        assert w_bracket([P("x", x), P("x^2", x)]) == P("x^2", x)

    def test_ternary_jac(self):
        xyz = ("x", "y", "z")
        out = jac_bracket([P("x", xyz), P("y", xyz), P("z", xyz)])
        assert out == P("1", xyz)

    def test_argument_counts(self):
        with pytest.raises(ValueError):
            jac_bracket([P("x")])
        with pytest.raises(ValueError):
            w_bracket([P("x", ("x",))])


class TestTruncatedVerification:
    @pytest.mark.parametrize("identity", ["jacobi", "leibniz", "shift"])
    def test_jac_satisfies_all(self, identity):
        v = verify_identity_truncated(identity, "jac", 2, 2)
        assert v.ok

    def test_w_satisfies_jacobi(self):
        assert verify_identity_truncated("jacobi", "w", 2, 2).ok

    def test_w_fails_leibniz_frozen_witness(self):
        v = verify_identity_truncated("leibniz", "w", 2, 2)
        assert not v.ok
        data = v.witness.data
        assert data["args"] == ((0,), (0,), (1,))
        assert data["lhs"] == "1"
        assert data["rhs"] == "2"

    def test_witness_replays_symbolically(self):
        one = Poly.monomial((0,))
        x = Poly.monomial((1,))
        lhs = w_bracket([one * one, x])
        rhs = one * w_bracket([one, x]) + w_bracket([one, x]) * one
        assert lhs != rhs

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity_truncated("cocycle", "jac", 2, 2)

    def test_instance_guard(self):
        with pytest.raises(GuardExceeded):
            verify_identity_truncated("jacobi", "jac", 2, 4, max_instances=10)


class TestTruncatedSubspaces:
    def test_monomials_up_to(self):
        assert len(monomials_up_to(2, 4)) == 15
        assert monomials_up_to(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_derived_span_full_jac(self):
        spanned = truncated_derived_span("jac", 2, 2)
        assert spanned.is_full()
        assert spanned.dim == 6

    def test_derived_span_full_w(self):
        spanned = truncated_derived_span("w", 2, 2)
        assert spanned.is_full()

    def test_center_is_constants_jac(self):
        cen = truncated_center("jac", 2, 2)
        assert cen.basis.dim == 1
        (row,) = cen.basis.rows
        assert row[0] == 1 and all(c == 0 for c in row[1:])

    # each degree whose kernel oracle takes at most about a second
    ORACLE_GRID = [
        *(("jac", 2, d) for d in range(1, 7)),
        *(("w", 2, d) for d in range(1, 7)),
        ("jac", 3, 1),
        *(("w", 3, d) for d in range(1, 4)),
    ]

    @pytest.mark.parametrize("bracket,arity,degree", ORACLE_GRID)
    def test_center_matches_kernel_oracle(self, bracket, arity, degree):
        assert truncated_center(bracket, arity, degree) == truncated_center_oracle(
            bracket, arity, degree
        )

    @pytest.mark.parametrize("bracket,arity,degree", ORACLE_GRID)
    def test_derived_span_matches_full_sweep(self, bracket, arity, degree):
        assert truncated_derived_span(bracket, arity, degree) == truncated_derived_span_oracle(
            bracket, arity, degree
        )

    @pytest.mark.parametrize(
        "bracket,arity,degree,nominal",
        [
            ("jac", 2, 2, 6 * 15),  # 6 coordinates, 15 co-arguments of degree <= 4
            ("w", 3, 2, 6 * 210),  # 6 coordinates, C(21, 2) pairs of degree <= 5
        ],
    )
    def test_center_guard_counts_every_instance(self, bracket, arity, degree, nominal):
        truncated_center(bracket, arity, degree, max_instances=nominal)
        with pytest.raises(GuardExceeded, match=f": {nominal} instances exceed the bound"):
            truncated_center(bracket, arity, degree, max_instances=nominal - 1)

    def test_derived_span_guard_counts_every_instance(self):
        # C(28, 2) pairs of monomials of degree <= 6
        truncated_derived_span("jac", 2, 4, max_instances=378)
        with pytest.raises(GuardExceeded, match=": 378 instances exceed the bound"):
            truncated_derived_span("jac", 2, 4, max_instances=377)

    def test_default_var_names(self):
        assert default_var_names(2) == ("x", "y")
        assert default_var_names(4) == ("x1", "x2", "x3", "x4")
