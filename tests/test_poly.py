"""Exact polynomial arithmetic and the symbolic bracket layer."""

import sys
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st
from loop_oracle import (
    bracket_oracle,
    parse_poly_oracle,
    poly_det_oracle,
    poly_power_oracle,
    poly_product_oracle,
    truncated_center_oracle,
    truncated_derived_span_oracle,
)

from nlie.algebra import Verdict, Witness
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

    def test_pow_squares_only_to_the_top_bit(self, monkeypatch):
        a = P("x - 2/3*y")
        products = []
        mul = Poly.__mul__

        def counted(p, q):
            products.append(1)
            return mul(p, q)

        monkeypatch.setattr(Poly, "__mul__", counted)
        for k in range(71):
            products.clear()
            got = a**k
            assert len(products) <= max(k.bit_length() - 1 + k.bit_count() - 1, 0)
            assert got == poly_power_oracle(a, k)

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


def rich_bracket_args(data, nvars: int, count: int) -> list[Poly]:
    """count arguments of 6 to 16 rational terms; argument k draws its
    denominators from the divisors of its own b_k^2, the b_k distinct primes.
    Sometimes one argument is zero, or a rational multiple of another plus
    a constant, so the bracket cancels to a lower-order value or to zero."""
    top = {1: 15, 2: 3, 3: 2}[nvars]
    exponents = st.tuples(*[st.integers(0, top)] * nvars)
    primes = data.draw(st.permutations([2, 3, 5, 7, 11]))
    args = []
    for b in primes[:count]:
        coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, b, b * b]))
        terms = data.draw(st.dictionaries(exponents, coeffs, min_size=6, max_size=16))
        args.append(Poly(nvars, terms))
    shape = data.draw(st.sampled_from(["plain", "zero", "multiple"]))
    i, j = data.draw(st.permutations(range(count)))[:2] if count > 1 else (0, 0)
    if shape == "zero":
        args[i] = Poly.zero(nvars)
    elif shape == "multiple" and count > 1:
        c = data.draw(st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4)))
        args[j] = Poly.const(nvars, c) * args[i] + Poly.const(nvars, data.draw(st.integers(0, 2)))
    return args


class TestScaledDeterminant:
    """The determinant brackets on scaled rows against the expansion over
    whole Poly values and the one-Fraction-at-a-time permutation oracle."""

    @pytest.mark.parametrize("bracket, arity, examples", [
        ("jac", 1, 40), ("jac", 2, 40), ("jac", 3, 20),
        ("w", 2, 40), ("w", 3, 20), ("w", 4, 6),
    ])
    def test_brackets_match_both_oracles(self, bracket, arity, examples):
        fn, nvars = (jac_bracket, arity) if bracket == "jac" else (w_bracket, arity - 1)

        # a failing example is reported as drawn: shrinking one through the
        # permutation oracle took minutes per case
        @given(st.data())
        @settings(max_examples=examples, deadline=None, derandomize=True,
                  phases=(Phase.explicit, Phase.reuse, Phase.generate))
        def check(data):
            args = rich_bracket_args(data, nvars, arity)
            got = fn(args)
            assert_normalised(got)
            assert got == poly_det_oracle(bracket, args)
            assert got == bracket_oracle(bracket, args)

        check()


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

    def test_nesting_depth_refused(self):
        assert P("(" * 100 + "x" + ")" * 100) == P("x")
        # the refusal names the first '(' past the limit, whitespace counted
        for opener, position in (("(", 100), (" ( ", 301)):
            for depth in (101, 400):
                with pytest.raises(PolyParseError) as info:
                    P(opener * depth + "x" + ")" * depth)
                message = f"parentheses nested deeper than 100 at position {position}"
                assert (str(info.value), info.value.position) == (message, position)

    @pytest.fixture
    def default_digit_limit(self):
        # the cases below sit at the interpreter's default limit
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(saved)

    def test_oversized_literals_refused(self, default_digit_limit):
        # str() refuses ints longer than the interpreter's limit, so the
        # parser refuses a digit run or a literal power past it, at the
        # literal, before the power is computed (3^20000000 took 8 s)
        limit = default_digit_limit
        long_run = "1" * (limit + 1)
        for src, message, position in (
            ("x + " + long_run, "integer literal", 4),
            ("1/" + long_run + "*x", "integer literal", 2),
            ("3^10000*x", "literal power", 0),
            ("x*3^20000000", "literal power", 2),
            ("2*x - 10^" + str(limit), "literal power", 6),
            ("1/3^9013", "literal power", 0),  # the denominator has 4301 digits
        ):
            with pytest.raises(PolyParseError) as info:
                P(src)
            want = f"{message} has more than {limit} digits at position {position}"
            assert (str(info.value), info.value.position) == (want, position)

    def test_literals_up_to_the_limit_accepted(self, default_digit_limit):
        limit = default_digit_limit
        assert P("1" * limit) == Poly.const(2, int("1" * limit))
        assert P("10^" + str(limit - 1)) == Poly.const(2, 10 ** (limit - 1))
        assert P("3^9012*x") == Poly.const(2, 3**9012) * P("x")
        assert P("1/3^9012") == Poly.const(2, Fraction(1, 3**9012))
        for src in ("0^100000000 + x", "1^100000000 + x - 1", "(1/1)^100000000 + x - 1"):
            assert P(src) == P("x")

    def test_parenthesized_powers_refused(self, default_digit_limit):
        # a power's coefficients are bounded from the base's largest
        # numerator and denominator, the exact coefficient of a one-term
        # base's power; the parser refuses at the '(' before the power is
        # computed ((3)^20000000 ran for seconds, then failed to print)
        limit = default_digit_limit
        for src, position in (
            ("(3)^200000*x", 0),
            ("x*(3)^20000000", 2),
            ("x - 2*((3))^9013", 6),
            ("((3)^100)^100", 0),
            ("(1/3)^9013", 0),  # the denominator has 4301 digits
            ("(-3)^9013 + y", 0),
            ("(2*x + 3)^9013", 0),
            # a multi-term base: the sum of its numerators scaled by the lcm
            # L of its denominators (4), or L itself (6), to the k
            ("(x + 3*y)^7143", 0),
            ("y - (1/2*x + 1/3*y)^5527", 4),
        ):
            with pytest.raises(PolyParseError) as info:
                P(src)
            want = f"parenthesized power has more than {limit} digits at position {position}"
            assert (str(info.value), info.value.position) == (want, position)
        for base, k in ((Poly.const(2, 3), 9013), (Poly.const(2, Fraction(1, 3)), 9013),
                        (P("3*x + y"), 9013), (P("x + 3*y"), 7143), (P("1/2*x + 1/3*y"), 5527)):
            with pytest.raises(ValueError, match=f"^power has more than {limit} digits$"):
                base**k

    def test_parenthesized_powers_up_to_the_limit_accepted(self, default_digit_limit):
        assert P("(3)^9012*x") == Poly.const(2, 3**9012) * P("x")
        assert P("(-1/3)^9012") == Poly.const(2, Fraction(1, 3**9012))
        for src in ("(0)^100000000 + x", "(1)^100000000 + x - 1", "(-1)^100000001 + x + 1"):
            assert P(src) == P("x")
        assert P("(x + y)^60") == poly_power_oracle(P("x + y"), 60)
        assert P("(2*x - 1/2*y)^40") == poly_power_oracle(P("2*x - 1/2*y"), 40)

    def test_literal_limit_follows_the_interpreter(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # no limit
            assert P("1" * (limit + 1)) == Poly.const(2, int("1" * (limit + 1)))
            assert P("3^10000") == Poly.const(2, 3**10000)
        finally:
            sys.set_int_max_str_digits(limit)

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_oracle_parser(self, data):
        text = data.draw(poly_texts())
        if data.draw(st.booleans()):
            text = data.draw(mutated(text))
        with pytest.MonkeyPatch.context() as mp:
            # keeps the nested powers small; refusals must agree too
            mp.setenv("NLIE_MAX_INSTANCES", str(10**5))
            got, want = parse_outcome(parse_poly, text), parse_outcome(parse_poly_oracle, text)
        assert got == want
        if isinstance(got, Poly):
            assert got.nvars == 2 and all(type(c) is Fraction for c in got.terms.values())


# the non-ASCII digits of test_only_ascii_digits, and spaces str.isspace takes
_ODD_DIGITS = "\u0662\u00b2\u0663\uff13"
_SPACES = ("", "", " ", "  ", "\t", "\n", "\u00a0", "\u3000")


@st.composite
def poly_texts(draw, depth: int = 3) -> str:
    """Texts of the parser's grammar in x and y: rational and integer
    literals, '^k' with k <= 5, unary signs, parentheses up to `depth` deep
    and whitespace between any two tokens."""
    def ws() -> str:
        return draw(st.sampled_from(_SPACES))

    def atom(depth: int) -> str:
        kind = draw(st.integers(0, 2 if depth else 1))
        if kind == 0:
            num = draw(st.integers(0, 12))
            den = draw(st.none() | st.integers(1, 6))
            return str(num) if den is None else f"{num}{ws()}/{ws()}{den}"
        if kind == 1:
            return draw(st.sampled_from(XY))
        return f"({expr(depth - 1)}{ws()})"

    def expr(depth: int) -> str:
        out = [ws(), draw(st.sampled_from(("", "+", "-")))]
        for i in range(draw(st.integers(1, 3))):
            if i:
                out.append(ws() + draw(st.sampled_from("+-")))
            for j in range(draw(st.integers(1, 2))):
                if j:
                    out.append(ws() + "*")
                out.append(ws() + atom(depth))
                if draw(st.booleans()):
                    out.append(f"{ws()}^{ws()}{draw(st.integers(0, 5))}")
        return "".join(out)

    return expr(depth) + ws()


def mutated(text: str):
    """`text` with one character deleted, inserted or replaced."""
    chars = st.sampled_from("0123456789xyz_+-*/^() " + _ODD_DIGITS + "".join(_SPACES))
    at = st.integers(0, len(text))
    return st.one_of(
        at.map(lambda i: text[:i] + text[i + 1:]),
        st.tuples(at, chars).map(lambda t: text[:t[0]] + t[1] + text[t[0]:]),
        st.tuples(at, chars).map(lambda t: text[:t[0]] + t[1] + text[t[0] + 1:]),
    )


def parse_outcome(parse, text: str):
    """The parsed Poly, or the refusal's class, message and position."""
    try:
        return parse(text, XY)
    except (PolyParseError, GuardExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


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

    def test_w_fails_shift_frozen_witness(self):
        v = verify_identity_truncated("shift", "w", 2, 2)
        assert v == Verdict(False, Witness("truncated_shift", {
            "bracket": "w", "arity": 2, "degree_bound": 2,
            "args": ((0,), (0,), (1,)), "lhs": "1", "rhs": "2"}), 27)

    @pytest.mark.parametrize("arity, degree", [(3, 2), (4, 1)])
    def test_w_satisfies_jacobi_at_higher_arity(self, arity, degree):
        assert verify_identity_truncated("jacobi", "w", arity, degree).ok

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
