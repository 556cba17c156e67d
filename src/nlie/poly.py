"""Sparse multivariate polynomials over the rationals, the two determinant
brackets evaluated symbolically, and degree-truncated verification of the
bracket identities.

Monomials are exponent tuples ordered graded-lexicographically (constant
first, higher total degree later; within a degree, earlier variables carry
higher exponents first).  Truncated checks enumerate monomial tuples, which
is exhaustive for the stated degree bound by multilinearity; reports always
carry the bound, since no finite truncation proves the identity in all
degrees.

Coefficients are Fractions.  A product scales both operands to ints by the
lcm of their denominators, and a determinant bracket scales each row of its
grid once, by the lcm of that row's denominators; either sums the term
products as ints and makes one Fraction per result term (w_bracket on three
10-term arguments: 3.2 -> 1.3 ms in process).  A power refuses, through the
instance guard, a result that could hold too many terms, refuses one whose
coefficients could have more digits than str() prints (bounded by the sum of
the base's scaled numerators to the k, and by its scale to the k), and
squares only up to the top bit of its exponent.  The parser folds each
term's literals and variables into one coefficient and exponent tuple, so
only a parenthesized factor is powered or multiplied as a Poly.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Sequence
from fractions import Fraction

from .algebra import (IDENTITIES, Record, Verdict, Witness, default_var_names, grlex_key,
                      monomial_text)
from .fields import QQ
from .guards import DEFAULT_MAX_INSTANCES, check_instances
from .linalg import SubspaceBasis, check_det_arity, det_expand, sparse_add, sparse_neg, unit_vector

Exponents = tuple[int, ...]


class Poly:
    """Polynomial over Q with sparse exponent-tuple terms.

    Immutable by convention; arithmetic returns new values, zero
    coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        clean: dict[Exponents, Fraction] = {}
        for e, c in (terms or {}).items():
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
            if c != 0:
                clean[tuple(e)] = Fraction(c)
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {e: Fraction(1)})

    @classmethod
    def monomial(cls, e: Exponents, c=1) -> "Poly":
        return cls(len(e), {tuple(e): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        (a, b), scale = _scaled((self, other))
        return Poly(self.nvars, _fractions(_int_product(a, b), scale * scale))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        # the result has at most as many terms as k-multisets of the base's
        # terms, or as monomials of degree <= k * deg, whichever is fewer
        t = max(len(self.terms), 1)
        bound = min(math.comb(k + t - 1, t - 1),
                    math.comb(self.nvars + k * max(self.degree(), 0), self.nvars))
        check_instances(bound**2, None, DEFAULT_MAX_INSTANCES, "polynomial power")
        # scaled by the lcm L of its denominators, the base has int
        # coefficients; each coefficient of the power is then an int no
        # larger than the sum of theirs to the k, over a divisor of L^k
        # (exact for a one-term base)
        (scaled,), scale = _scaled((self,))
        if _too_long(k, sum(abs(c) for _, c in scaled), scale):
            raise ValueError(f"power has more than {sys.get_int_max_str_digits()} digits")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:  # no square past the top bit
                base = base * base
        return Poly.const(self.nvars, 1) if result is None else result

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative in variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                low = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[low] = out.get(low, Fraction(0)) + c * e[i]
        return Poly(self.nvars, out)

    def render(self, var_names: Sequence[str] | None = None) -> str:
        """Canonical text form, highest graded-lex term first; parses back
        to an equal polynomial."""
        if not self.terms:
            return "0"
        names = var_names or default_var_names(self.nvars)
        if len(names) != self.nvars:
            raise ValueError("wrong number of variable names")
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mag = -c if c < 0 else c
            if not any(e):
                body = str(mag)
            elif mag == 1:
                body = monomial_text(e, names)
            else:
                body = f"{mag}*{monomial_text(e, names)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.nvars == self.nvars and other.terms == self.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.render()})"


def _scaled(polys: Sequence[Poly]) -> tuple[list[list[tuple[Exponents, int]]], int]:
    """(each polynomial's (exponent, int) pairs, scale): every coefficient
    times the lcm of all their denominators, taken as is when that is 1."""
    scale = math.lcm(*{c.denominator for p in polys for c in p.terms.values()})
    if scale == 1:
        return [[(e, c.numerator) for e, c in p.terms.items()] for p in polys], 1
    return [[(e, c.numerator * (scale // c.denominator)) for e, c in p.terms.items()]
            for p in polys], scale


def _int_product(a, b):
    """The (exponent, int sum) pairs of a product of pair lists, zero sums kept."""
    out: dict[Exponents, int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out.items()


def _fractions(sums, scale: int) -> dict[Exponents, Fraction]:
    """One Fraction(sum, scale) per nonzero sum."""
    if scale == 1:
        return {e: Fraction(s) for e, s in sums if s}
    return {e: Fraction(s, scale) for e, s in sums if s}


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# str.isdigit would also take other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")
# each nesting level costs the parser's recursion a few frames
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent over: sums of '*'-joined factors, each a rational
    literal, a declared variable, an optionally '^'-powered atom, or a
    parenthesized subexpression.  '/' occurs only inside rational literals.
    An expression sums its terms' (exponent, coefficient) pairs into one Poly.
    """

    def __init__(self, src: str, var_names: Sequence[str]):
        self.src = src
        self.depth = 0
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.nvars = len(var_names)
        self.skip_to(0)

    def error(self, message: str, position: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.pos if position is None else position)

    def skip_to(self, end: int) -> None:
        """Move past a token that ends at `end` and the whitespace after it,
        so `pos` is always at the next token; `end` stays for the errors
        that name the token's end."""
        src, pos = self.src, end
        while pos < len(src) and src[pos].isspace():
            pos += 1
        self.end, self.pos = end, pos

    def peek(self) -> str:
        return self.src[self.pos : self.pos + 1]

    def take(self) -> str:
        ch = self.peek()
        self.skip_to(self.pos + 1)
        return ch

    def parse(self) -> Poly:
        value = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return value

    def expr(self) -> Poly:
        out: dict[Exponents, Fraction | int] = {}
        ch = self.peek()
        sign = -1 if ch == "-" else 1
        if ch in ("+", "-"):
            self.take()
        while True:
            for e, c in self.term():
                out[e] = out.get(e, 0) + sign * c
            ch = self.peek()
            if ch not in ("+", "-"):
                return Poly(self.nvars, out)
            self.take()
            sign = -1 if ch == "-" else 1

    def term(self) -> list[tuple[Exponents, Fraction | int]]:
        coef, exps, poly = 1, [0] * self.nvars, None
        while True:
            at = self.pos
            base, k = self.atom(), self.exponent()
            if isinstance(base, Poly):
                if k is not None:
                    try:
                        base = base**k
                    except ValueError as exc:  # its coefficients are too long to print
                        raise self.error(f"parenthesized {exc}", at) from None
                poly = base if poly is None else poly * base
            elif isinstance(base, str):
                exps[self.vars[base]] += 1 if k is None else k
            else:
                if k is not None and _too_long(k, base.numerator, base.denominator):
                    limit = sys.get_int_max_str_digits()
                    raise self.error(f"literal power has more than {limit} digits", at)
                coef *= base if k is None else base**k
            if self.peek() != "*":
                break
            self.take()
        if poly is None:
            return [(tuple(exps), coef)]
        return [(tuple(map(operator.add, e, exps)), c * coef) for e, c in poly.terms.items()]

    def exponent(self) -> int | None:
        """The k of a following '^k', or None when no '^' follows."""
        if self.peek() != "^":
            return None
        self.take()
        if self.peek() == "-":
            raise self.error("negative exponent")
        return self.integer("expected a non-negative integer exponent")

    def atom(self) -> Poly | str | Fraction | int:
        """A parenthesized Poly, a declared variable's name, or a literal."""
        ch = self.peek()
        if ch == "(":
            if self.depth == _MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {_MAX_DEPTH}")
            self.take()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return value
        if ch in _DIGITS:
            num = self.integer("expected an integer")
            if self.peek() == "/":
                self.take()
                den = self.integer("expected an integer after '/'")
                if den == 0:
                    raise self.error("zero denominator", self.end)
                return Fraction(num, den)
            return num
        if ch.isalpha() or ch == "_":
            name = self.identifier()
            if name not in self.vars:
                raise self.error(f"unknown variable {name!r}", self.end)
            return name
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {ch!r}")

    def integer(self, missing: str) -> int:
        """A run of ASCII digits; `missing` is the error when there is none,
        and a run too long to print again is refused at its start."""
        src, start = self.src, self.pos
        end = start
        while end < len(src) and src[end] in _DIGITS:
            end += 1
        if end == start:
            raise self.error(missing)
        if end - start > (limit := sys.get_int_max_str_digits()) > 0:
            raise self.error(f"integer literal has more than {limit} digits")
        self.skip_to(end)
        return int(src[start:end])

    def identifier(self) -> str:
        src, start = self.src, self.pos
        end = start
        while end < len(src) and (src[end].isalnum() or src[end] == "_"):
            end += 1
        self.skip_to(end)
        return src[start:end]


def _too_long(k: int, *ints: int) -> bool:
    """Whether n**k has more digits than str() prints for some n >= 0 in
    `ints`; the power is computed only near the limit."""
    limit = sys.get_int_max_str_digits()
    for n in ints:
        # for n > 1, 2**bits > n**k >= 2**(bits / 2), and 2**(3.321 * limit) < 10**limit
        bits = k * n.bit_length()
        if limit and n > 1 and bits * 1000 > 3321 * limit and (
            bits > 7 * limit or n**k >= 10**limit
        ):
            return True
    return False


def parse_poly(src: str, var_names: Sequence[str]) -> Poly:
    return _Parser(src, var_names).parse()


def jac_bracket(args: Sequence[Poly]) -> Poly:
    """det[partial_r(u_s)] for n arguments in n variables, expanded over
    permutations on its transpose: row s holds the partials of u_s."""
    n = len(args)
    if n < 1:
        raise ValueError("need at least one argument")
    check_det_arity(n)
    if any(u.nvars != n for u in args):
        raise ValueError(f"arguments must live in exactly {n} variables")
    grid = [[u.partial(r) for r in range(n)] for u in args]
    return _det(grid, n)


def w_bracket(args: Sequence[Poly]) -> Poly:
    """Determinant bracket whose first row is the arguments themselves and
    row r+1 applies partial_r; n arguments in n-1 variables.  Expanded on
    the transpose, whose row s is u_s and its partials."""
    n = len(args)
    if n < 2:
        raise ValueError("need at least two arguments")
    check_det_arity(n)
    if any(u.nvars != n - 1 for u in args):
        raise ValueError(f"arguments must live in exactly {n - 1} variables")
    grid = [[u, *(u.partial(r) for r in range(n - 1))] for u in args]
    return _det(grid, args[0].nvars)


def _det(grid: list[list[Poly]], nvars: int) -> Poly:
    """The determinant on ints: it is linear in each row, so row r is scaled by
    the lcm L_r of its denominators and the int sums divide by the product of
    the L_r.  The result terms are in normal form as built."""
    value = Poly(nvars)
    if all(any(p.terms for p in line) for line in grid):  # else a zero row
        rows, scales = zip(*map(_scaled, grid))
        sums = det_expand(rows, {}, sparse_add, sparse_neg, _int_product, operator.not_)
        value.terms = _fractions(sums.items(), math.prod(scales))
    return value


def _bracket_fn(bracket: str, arity: int):
    if bracket == "jac":
        return jac_bracket, arity
    if bracket == "w":
        return w_bracket, arity - 1
    raise ValueError(f"unknown bracket {bracket!r} (expected 'jac' or 'w')")


def monomials_up_to(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of total degree <= degree, graded-lex order."""
    out = [
        e
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree
    ]
    out.sort(key=grlex_key)
    return out


def verify_identity_truncated(
    identity: str,
    bracket: str,
    arity: int,
    degree_bound: int,
    max_instances: int | None = None,
) -> Verdict:
    """Check one bracket identity exactly on every tuple of monomials of
    per-argument degree <= degree_bound.

    identity 'jacobi' nests the bracket both ways; 'leibniz' multiplies the
    first slot; 'shift' moves a product factor between the first two slots.
    Exhaustive at this truncation by multilinearity; silence above the
    bound is not claimed.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    fn, nvars = _bracket_fn(bracket, arity)
    monos = [Poly.monomial(e) for e in monomials_up_to(nvars, degree_bound)]
    m = len(monos)
    if identity == "jacobi":
        slots = 2 * arity - 1
    elif identity == "leibniz":
        slots = arity + 1
    elif identity == "shift":
        if arity < 2:
            raise ValueError("the shift identity needs arity >= 2")
        slots = arity + 1
    else:
        raise ValueError(f"unknown identity {identity!r} (expected one of {IDENTITIES})")
    total = m**slots
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, f"truncated {identity} check")

    cache: dict[tuple[Poly, ...], Poly] = {}

    def call(argv: tuple[Poly, ...]) -> Poly:
        value = cache.get(argv)
        if value is None:
            value = fn(list(argv))
            cache[argv] = value
        return value

    def witness(argv, lhs, rhs):
        return Verdict(
            False,
            Witness(
                f"truncated_{identity}",
                {
                    "bracket": bracket,
                    "arity": arity,
                    "degree_bound": degree_bound,
                    "args": tuple(next(iter(p.terms)) for p in argv),
                    "lhs": lhs.render(),
                    "rhs": rhs.render(),
                },
            ),
            total,
        )

    n = arity
    if identity == "jacobi":
        for xs in itertools.product(monos, repeat=n):
            inner = call(xs)
            for ys in itertools.product(monos, repeat=n - 1):
                lhs = call((inner, *ys))
                rhs = Poly.zero(nvars)
                for i in range(n):
                    mid = call((xs[i], *ys))
                    rhs = rhs + call((*xs[:i], mid, *xs[i + 1 :]))
                if lhs != rhs:
                    return witness([*xs, *ys], lhs, rhs)
    elif identity == "leibniz":
        for a, b in itertools.product(monos, repeat=2):
            ab = a * b
            for us in itertools.product(monos, repeat=n - 1):
                lhs = call((ab, *us))
                rhs = a * call((b, *us)) + call((a, *us)) * b
                if lhs != rhs:
                    return witness([a, b, *us], lhs, rhs)
    else:
        for a, b, c in itertools.product(monos, repeat=3):
            ab = a * b
            bc = b * c
            ac = a * c
            for us in itertools.product(monos, repeat=n - 2):
                lhs = call((ab, c, *us))
                rhs = call((a, bc, *us)) + call((b, ac, *us))
                if lhs != rhs:
                    return witness([a, b, c, *us], lhs, rhs)
    return Verdict(True, None, total)


class TruncatedSubspace(Record):
    """A subspace of the span of the degree-bounded monomials, with the
    monomial coordinate order made explicit: the exponent tuple of each
    coordinate of the SubspaceBasis `basis`."""

    __slots__ = ("nvars", "degree_bound", "monomials", "basis")

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_full(self) -> bool:
        return self.basis.is_full()

    def member_monomials(self) -> tuple[Exponents, ...]:
        """The monomials lying in the subspace (meaningful when the basis
        consists of unit vectors, as the bracket span always does)."""
        out = []
        for row in self.basis.rows:
            support = [j for j, c in enumerate(row) if c != 0]
            if len(support) == 1 and row[support[0]] == 1:
                out.append(self.monomials[support[0]])
        return tuple(out)


def _unit_span(nvars: int, degree_bound: int, coords: list[Exponents], members):
    """The span of the coordinate monomials at the indices `members`."""
    d = len(coords)
    basis = SubspaceBasis(QQ, d, [unit_vector(QQ, d, i) for i in members])
    return TruncatedSubspace(nvars, degree_bound, tuple(coords), basis)


def truncated_derived_span(
    bracket: str, arity: int, degree_bound: int, max_instances: int | None = None
) -> TruncatedSubspace:
    """Span of all bracket values on monomial tuples, cut to degree <=
    degree_bound.

    Both determinant brackets drop the total input degree by their number
    of variables (arity for 'jac', arity-1 for 'w') and send monomial tuples
    to scalar multiples of single monomials, so inputs of total degree up to
    the bound plus that drop are exhaustive and the intersection with the
    truncation is just membership.  The sweep stops once every coordinate
    monomial is hit.
    """
    fn, nvars = _bracket_fn(bracket, arity)
    inputs = monomials_up_to(nvars, degree_bound + nvars)
    total = math.comb(len(inputs), arity)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "truncated derived span")
    coords = monomials_up_to(nvars, degree_bound)
    coord_index = {e: i for i, e in enumerate(coords)}
    hits: set[int] = set()
    for combo in itertools.combinations(inputs, arity):
        if sum(sum(e) for e in combo) > degree_bound + nvars:
            continue
        terms = fn([Poly.monomial(e) for e in combo]).terms
        if len(terms) > 1:
            raise AssertionError("determinant bracket of monomials must be a monomial")
        i = coord_index.get(next(iter(terms), None))  # None also for a zero value
        if i is not None:
            hits.add(i)
            if len(hits) == len(coords):
                break
    return _unit_span(nvars, degree_bound, coords, hits)


def truncated_center(
    bracket: str, arity: int, degree_bound: int, max_instances: int | None = None
) -> TruncatedSubspace:
    """Elements of degree <= degree_bound killed by the bracket against
    every tuple of co-argument monomials of degree <= degree_bound + arity.

    A degree-truncated shadow of the center: membership here is necessary,
    not sufficient, for lying in the center of the full algebra.  Against
    fixed co-arguments, distinct monomials go to multiples of distinct
    monomials, so the center is spanned by the coordinate monomials whose
    every bracket vanishes; each coordinate's walk stops at its first
    nonzero bracket.
    """
    fn, nvars = _bracket_fn(bracket, arity)
    coords = monomials_up_to(nvars, degree_bound)
    cargs = monomials_up_to(nvars, degree_bound + arity)
    total = len(coords) * math.comb(len(cargs), arity - 1)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "truncated center")
    others = [[Poly.monomial(e) for e in combo]
              for combo in itertools.combinations(cargs, arity - 1)]
    members = [
        i for i, e in enumerate(coords)
        if all(fn([Poly.monomial(e), *rest]).is_zero() for rest in others)
    ]
    return _unit_span(nvars, degree_bound, coords, members)
