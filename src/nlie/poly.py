"""Sparse multivariate polynomials over the rationals, the two determinant
brackets evaluated symbolically, and degree-truncated verification of the
bracket identities.

Monomials are exponent tuples ordered graded-lexicographically (constant
first, higher total degree later; within a degree, earlier variables carry
higher exponents first).  Truncated checks enumerate monomial tuples, which
is exhaustive for the stated degree bound by multilinearity; reports always
carry the bound, since no finite truncation proves the identity in all
degrees.

Coefficients are Fractions.  A product scales each operand's coefficients
to ints by the lcm of its denominators, sums the term products as ints, and
makes one Fraction per result term.  A power refuses, through the instance
guard, a result that could hold too many terms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from .algebra import IDENTITIES, Record, Verdict, Witness, default_var_names, grlex_key
from .fields import QQ
from .guards import DEFAULT_MAX_INSTANCES, check_instances
from .linalg import SubspaceBasis, check_det_arity, det_expand, unit_vector

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
        a, la = _scaled(self.terms)
        b, lb = _scaled(other.terms)
        out: dict[Exponents, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        scale = la * lb
        if scale == 1:
            return Poly(self.nvars, {e: Fraction(s) for e, s in out.items() if s})
        return Poly(self.nvars, {e: Fraction(s, scale) for e, s in out.items() if s})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        # the result has at most as many terms as k-multisets of the base's
        # terms, or as monomials of degree <= k * deg, whichever is fewer
        t = max(len(self.terms), 1)
        bound = min(math.comb(k + t - 1, t - 1),
                    math.comb(self.nvars + k * max(self.degree(), 0), self.nvars))
        check_instances(bound**2, None, DEFAULT_MAX_INSTANCES, "polynomial power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
            factors = []
            for v, a in zip(names, e):
                if a == 1:
                    factors.append(v)
                elif a > 1:
                    factors.append(f"{v}^{a}")
            mag = -c if c < 0 else c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag), *factors])
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


def _scaled(terms: dict[Exponents, Fraction]) -> tuple[dict[Exponents, int], int]:
    """(terms with int coefficients, scale): every coefficient times the lcm
    of the denominators."""
    scale = math.lcm(*{c.denominator for c in terms.values()})
    return {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}, scale


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# str.isdigit would also take other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive descent over: sums of '*'-joined factors, each a rational
    literal, a declared variable, an optionally '^'-powered atom, or a
    parenthesized subexpression.  '/' occurs only inside rational literals.
    """

    def __init__(self, src: str, var_names: Sequence[str]):
        self.src = src
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.nvars = len(var_names)

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> Poly:
        value = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return value

    def expr(self) -> Poly:
        ch = self.peek()
        negate = False
        if ch in ("+", "-"):
            self.take()
            negate = ch == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                return value
            self.take()
            rhs = self.term()
            value = value + rhs if ch == "+" else value - rhs

    def term(self) -> Poly:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        if self.peek() == "-":
            raise self.error("negative exponent")
        return base ** self.integer("expected a non-negative integer exponent")

    def atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.take()
            value = self.expr()
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
                    raise self.error("zero denominator")
                return Poly.const(self.nvars, Fraction(num, den))
            return Poly.const(self.nvars, num)
        if ch.isalpha() or ch == "_":
            name = self.identifier()
            if name not in self.vars:
                raise self.error(f"unknown variable {name!r}")
            return Poly.variable(self.nvars, self.vars[name])
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {ch!r}")

    def integer(self, missing: str) -> int:
        """A run of ASCII digits; `missing` is the error when there is none."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise self.error(missing)
        return int(self.src[start : self.pos])

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (
            self.src[self.pos].isalnum() or self.src[self.pos] == "_"
        ):
            self.pos += 1
        return self.src[start : self.pos]


def parse_poly(src: str, var_names: Sequence[str]) -> Poly:
    return _Parser(src, var_names).parse()


def jac_bracket(args: Sequence[Poly]) -> Poly:
    """det[partial_r(u_s)] for n arguments in n variables, expanded over
    permutations with exact arithmetic."""
    n = len(args)
    if n < 1:
        raise ValueError("need at least one argument")
    check_det_arity(n)
    if any(u.nvars != n for u in args):
        raise ValueError(f"arguments must live in exactly {n} variables")
    grid = [[args[s].partial(r) for s in range(n)] for r in range(n)]
    return _det(grid, n)


def w_bracket(args: Sequence[Poly]) -> Poly:
    """Determinant bracket whose first row is the arguments themselves and
    row r+1 applies partial_r; n arguments in n-1 variables."""
    n = len(args)
    if n < 2:
        raise ValueError("need at least two arguments")
    check_det_arity(n)
    if any(u.nvars != n - 1 for u in args):
        raise ValueError(f"arguments must live in exactly {n - 1} variables")
    grid = [list(args)]
    for r in range(n - 1):
        grid.append([u.partial(r) for u in args])
    return _det(grid, args[0].nvars)


def _det(grid: list[list[Poly]], nvars: int) -> Poly:
    return det_expand(grid, Poly.zero(nvars), Poly.__add__, Poly.__neg__, Poly.__mul__,
                      Poly.is_zero)


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

    Both determinant brackets drop the total input degree by a fixed amount
    (arity for 'jac', arity-1 for 'w') and send monomial tuples to scalar
    multiples of single monomials, so inputs of total degree up to the bound
    plus that drop are exhaustive and the intersection with the truncation
    is just membership.  The sweep stops once every coordinate monomial is
    hit.
    """
    fn, nvars = _bracket_fn(bracket, arity)
    drop = arity if bracket == "jac" else arity - 1
    inputs = monomials_up_to(nvars, degree_bound + drop)
    total = math.comb(len(inputs), arity)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "truncated derived span")
    coords = monomials_up_to(nvars, degree_bound)
    coord_index = {e: i for i, e in enumerate(coords)}
    hits: set[int] = set()
    for combo in itertools.combinations(inputs, arity):
        if sum(sum(e) for e in combo) > degree_bound + drop:
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
