"""Per-instance loops: the reference the library's sparse engine is
compared against.

Each identity loop walks every basis instance in lexicographic order,
evaluates both sides with the tensors' own multilinear `eval`, and stops at
the first instance whose sides differ.  The verdicts, instance counts and
witnesses are the ones the library must report.  `ad_operator` evaluates
an adjoint operator on every basis vector, the dense twin of the library's
sparse operator builders, and the center loop intersects the kernel of each
adjoint operator one at a time.  The quotient loop projects the bracket of
every representative tuple, and the subalgebra loop keeps the coordinates of
every bracket of a subspace's rows in a dense table.  The derivation loop checks each basis
pair on dense images, and the determinant bracket table expands on dense
vectors through the product's `eval`.  The truncated center is the exact
kernel of one coefficient row per (co-argument tuple, output monomial), and
the truncated derived span is the span of every bracket value in the degree
budget, swept to the end.  Polynomial products multiply and sum one
Fraction at a time, and the determinant brackets expand over every
permutation on those products; `poly_det_oracle` expands them through
`det_expand` on whole `Poly` values, one sum and product at a time.  The
tuple-keyed kernel is the library's scaled-int product and determinant with
a new exponent tuple built for every term product.  The polynomial parser
builds a whole `Poly` for every literal and variable and combines them one
`+`, `-`, `*` and `^` at a time.
"""

import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from nlie.algebra import SkewBracketTensor, Verdict, Witness
from nlie.fields import QQ
from nlie.linalg import (
    Matrix,
    SubspaceBasis,
    det_expand,
    is_zero_vector,
    kernel,
    normalized,
    span,
    sparse_add,
    sparse_neg,
    unit_vector,
)
from nlie.poly import (
    Poly,
    PolyParseError,
    TruncatedSubspace,
    _bracket_fn,
    monomials_up_to,
)


def zero_vector(field, dim: int) -> tuple:
    return (field.zero,) * dim


def vec_add(field, a, b) -> tuple:
    """a + b, normalised through the field."""
    return normalized(field, [x + y for x, y in zip(a, b, strict=True)])


def dense(m: Matrix) -> tuple:
    """The rows of a matrix, read off its sparse columns."""
    rows = [[m.field.zero] * m.ncols for _ in range(m.nrows)]
    for k, col in enumerate(m.columns):
        for i, x in col:
            rows[i][k] = x
    return tuple(map(tuple, rows))


def ad_operator(alg, args) -> Matrix:
    """Matrix of b -> bracket(b, args...) in the standard basis, for an
    algebra or its bracket tensor."""
    t = getattr(alg, "bracket", alg)
    if len(args) != t.arity - 1:
        raise ValueError(f"expected {t.arity - 1} arguments, got {len(args)}")
    cols = [t.eval([unit_vector(t.field, t.dim, k), *args]) for k in range(t.dim)]
    return Matrix(t.field, zip(*cols))


def jacobi_oracle(t) -> Verdict:
    d, n, f = t.dim, t.arity, t.field
    xs = list(itertools.combinations(range(d), n))
    ys = list(itertools.combinations(range(d), n - 1))
    total = len(xs) * len(ys)
    for x in xs:
        for y in ys:
            ybasis = [unit_vector(f, d, i) for i in y]
            vx = t.entry(x)
            lhs = t.eval([vx, *ybasis]) if not is_zero_vector(vx) else zero_vector(f, d)
            rhs = zero_vector(f, d)
            for s in range(n):
                w = t.component((x[s],) + y)
                if is_zero_vector(w):
                    continue
                rest = x[:s] + x[s + 1 :]
                term = t.eval([w, *(unit_vector(f, d, i) for i in rest)])
                if s % 2 == 1:
                    term = tuple(f.from_int(-c) for c in term)
                rhs = vec_add(f, rhs, term)
            if lhs != rhs:
                data = {"x": x, "y": y, "lhs": lhs, "rhs": rhs}
                return Verdict(False, Witness("generalized_jacobi", data), total)
    return Verdict(True, None, total)


def assoc_oracle(product, unit=None) -> Verdict:
    d, f = product.dim, product.field
    total = d**3
    basis = [unit_vector(f, d, i) for i in range(d)]
    if unit is not None:
        for i in range(d):
            got = product.eval(tuple(unit), basis[i])
            if got != basis[i]:
                return Verdict(
                    False, Witness("unit", {"index": i, "lhs": got, "rhs": basis[i]}), total
                )
    for i in range(d):
        for j in range(d):
            pij = product.entry(i, j)
            for k in range(d):
                lhs = product.eval(pij, basis[k])
                rhs = product.eval(basis[i], product.entry(j, k))
                if lhs != rhs:
                    data = {"triple": (i, j, k), "lhs": lhs, "rhs": rhs}
                    return Verdict(False, Witness("associativity", data), total)
    return Verdict(True, None, total)


def leibniz_oracle(alg) -> Verdict:
    t, product = alg.bracket, alg.product
    d, n, f = t.dim, t.arity, t.field
    ys = list(itertools.combinations(range(d), n - 1))
    total = d * d * len(ys)
    for i in range(d):
        for j in range(d):
            for y in ys:
                ybasis = [unit_vector(f, d, k) for k in y]
                pij = product.entry(i, j)
                lhs = t.eval([pij, *ybasis]) if not is_zero_vector(pij) else zero_vector(f, d)
                wj = t.component((j,) + y)
                wi = t.component((i,) + y)
                rhs = vec_add(
                    f,
                    product.eval(unit_vector(f, d, i), wj),
                    product.eval(wi, unit_vector(f, d, j)),
                )
                if lhs != rhs:
                    data = {"i": i, "j": j, "y": y, "lhs": lhs, "rhs": rhs}
                    return Verdict(False, Witness("leibniz", data), total)
    return Verdict(True, None, total)


def shift_oracle(alg) -> Verdict:
    t, product = alg.bracket, alg.product
    d, n, f = t.dim, t.arity, t.field
    us = list(itertools.combinations(range(d), n - 2))
    total = d * d * d * len(us)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for u in us:
                    ubasis = [unit_vector(f, d, k) for k in u]
                    ea, eb, ec = (unit_vector(f, d, k) for k in (a, b, c))
                    lhs = t.eval([product.entry(a, b), ec, *ubasis])
                    rhs = vec_add(
                        f,
                        t.eval([ea, product.entry(b, c), *ubasis]),
                        t.eval([eb, product.entry(a, c), *ubasis]),
                    )
                    if lhs != rhs:
                        data = {"a": a, "b": b, "c": c, "u": u, "lhs": lhs, "rhs": rhs}
                        return Verdict(False, Witness("poisson_compatibility", data), total)
    return Verdict(True, None, total)


def derivation_oracle(product, d_matrix) -> Verdict:
    """D(ei*ej) == D(ei)*ej + ei*D(ej) on every basis pair i <= j, each side
    from dense images and the product's own `eval`."""
    dim, f = product.dim, product.field
    total = dim * dim
    basis = [unit_vector(f, dim, i) for i in range(dim)]
    images = [d_matrix.matvec(basis[i]) for i in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            lhs = d_matrix.matvec(product.entry(i, j))
            rhs = vec_add(f, product.eval(images[i], basis[j]), product.eval(basis[i], images[j]))
            if lhs != rhs:
                return Verdict(
                    False, Witness("derivation", {"pair": (i, j), "lhs": lhs, "rhs": rhs}), total
                )
    return Verdict(True, None, total)


def det_bracket_table_oracle(dim, arity, field, product, rows) -> dict:
    """det[rows[r][i_s]] for every increasing tuple, with rows[r][i] a dense
    coefficient vector, expanded on dense vectors through the product's
    `eval`; only the nonzero values are kept."""
    zero = zero_vector(field, dim)

    def add(a, b):
        return vec_add(field, a, b)

    def neg(a):
        return tuple(field.from_int(-c) for c in a)

    table = {}
    for key in itertools.combinations(range(dim), arity):
        grid = [[row[i] for i in key] for row in rows]
        acc = det_expand(grid, zero, add, neg, product.eval, is_zero_vector)
        if not is_zero_vector(acc):
            table[key] = acc
    return table


def stacked_kernel_intersect(U, W):
    """U ∩ W from the kernel of the stacked bases [U^t | -W^t]: each kernel
    vector (a, b) gives the common vector sum_r a_r u_r."""
    f, d = U.field, U.ambient_dim
    stacked = [[u[i] for u in U.rows] + [f.from_int(-w[i]) for w in W.rows] for i in range(d)]
    vectors = []
    for sol in kernel(f, U.dim + W.dim, stacked).rows if U.rows and W.rows else ():
        v = zero_vector(f, d)
        for c, u in zip(sol, U.rows):
            v = vec_add(f, v, tuple(f.from_int(c * x) for x in u))
        vectors.append(v)
    return SubspaceBasis(f, d, vectors)


def center_oracle(t):
    d, f = t.dim, t.field
    K = SubspaceBasis.full(f, d)
    for idx in itertools.combinations(range(d), t.arity - 1):
        m = ad_operator(t, [unit_vector(f, d, i) for i in idx])
        if not m.is_zero():
            K = stacked_kernel_intersect(K, kernel(f, d, dense(m)))
    return K


def quotient_oracle(t, I):
    """The bracket on the coset representatives at the non-pivot
    coordinates of I, from the signed `component` of every one of the
    C(q, n) increasing representative tuples, each reduced modulo I."""
    reps = [j for j in range(t.dim) if j not in I.pivots]
    table = {}
    for combo in itertools.combinations(range(len(reps)), t.arity):
        reduced = I.reduce(t.component([reps[c] for c in combo]))
        table[combo] = tuple(reduced[j] for j in reps)
    return SkewBracketTensor(len(reps), t.arity, t.field, table)


def subalgebra_oracle(t, S):
    """The bracket in the coordinates of S, from a dense table: the
    coordinates of the bracket of every increasing tuple of S's rows, each
    a dim(S)-length vector, zero ones included."""
    table = {}
    for combo in itertools.combinations(range(S.dim), t.arity):
        coords = S.coordinates_of(t.eval([S.rows[c] for c in combo]))
        if coords is None:
            raise ValueError("the subspace is not closed under the bracket")
        table[combo] = coords
    return SkewBracketTensor(S.dim, t.arity, t.field, table)


def truncated_center_oracle(bracket, arity, degree_bound):
    """The kernel of the rows indexed by (co-argument tuple, output
    monomial), each holding the coefficients with which the coordinate
    monomials reach that output."""
    fn, nvars = _bracket_fn(bracket, arity)
    coords = monomials_up_to(nvars, degree_bound)
    cargs = monomials_up_to(nvars, degree_bound + arity)
    rows: dict[tuple, list[Fraction]] = {}
    for t, combo in enumerate(itertools.combinations(cargs, arity - 1)):
        others = [Poly.monomial(e) for e in combo]
        for i, e in enumerate(coords):
            value = fn([Poly.monomial(e), *others])
            for out_e, c in value.terms.items():
                row = rows.setdefault((t, out_e), [Fraction(0)] * len(coords))
                row[i] += c
    basis = kernel(QQ, len(coords), [rows[k] for k in sorted(rows)])
    return TruncatedSubspace(nvars, degree_bound, tuple(coords), basis)


def truncated_derived_span_oracle(bracket, arity, degree_bound):
    """The span of the coefficient vectors of every bracket value on
    monomial tuples whose total degree keeps the value inside the
    truncation."""
    fn, nvars = _bracket_fn(bracket, arity)
    drop = arity if bracket == "jac" else arity - 1
    coords = monomials_up_to(nvars, degree_bound)
    index = {e: i for i, e in enumerate(coords)}
    vectors = []
    for combo in itertools.combinations(monomials_up_to(nvars, degree_bound + drop), arity):
        if sum(map(sum, combo)) <= degree_bound + drop:
            v = [Fraction(0)] * len(coords)
            for e, c in fn([Poly.monomial(e) for e in combo]).terms.items():
                v[index[e]] += c
            vectors.append(v)
    return TruncatedSubspace(nvars, degree_bound, tuple(coords), span(QQ, len(coords), vectors))


def poly_product_oracle(a: Poly, b: Poly) -> Poly:
    """a * b, term by term over Fractions."""
    out: dict[tuple, Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(a.nvars, out)


def poly_power_oracle(a: Poly, k: int) -> Poly:
    """a ** k, as k products."""
    out = Poly.const(a.nvars, 1)
    for _ in range(k):
        out = poly_product_oracle(out, a)
    return out


def bracket_grid(bracket: str, args) -> list:
    """The bracket's determinant grid as defined: 'jac' is [partial_r(u_s)],
    'w' has the arguments as its first row and partial_r(u_s) below."""
    n = len(args)
    if bracket == "jac":
        return [[u.partial(r) for u in args] for r in range(n)]
    return [list(args), *([u.partial(r) for u in args] for r in range(n - 1))]


def bracket_oracle(bracket: str, args) -> Poly:
    """The determinant bracket over every permutation, on oracle products."""
    n = len(args)
    grid = bracket_grid(bracket, args)
    total = Poly.zero(args[0].nvars)
    for perm in itertools.permutations(range(n)):
        term = Poly.const(total.nvars, 1)
        for r, s in enumerate(perm):
            term = poly_product_oracle(term, grid[r][s])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = total - term if odd else total + term
    return total


def poly_det_oracle(bracket: str, args) -> Poly:
    """The determinant bracket expanded by `det_expand` over `Poly` addition,
    negation and product on the grid as defined."""
    zero = Poly.zero(args[0].nvars)
    return det_expand(bracket_grid(bracket, args), zero, Poly.__add__, Poly.__neg__,
                      Poly.__mul__, Poly.is_zero)


def _tuple_scaled(polys) -> tuple[list, int]:
    """Each polynomial's (exponent tuple, int) pairs, scaled by the lcm of
    all their denominators, and that lcm."""
    scale = math.lcm(*{c.denominator for p in polys for c in p.terms.values()})
    return [[(e, c.numerator * (scale // c.denominator)) for e, c in p.terms.items()]
            for p in polys], scale


def _tuple_int_product(a, b):
    """The (exponent tuple, int sum) pairs of a product, zero sums kept."""
    out: dict[tuple, int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out.items()


def _tuple_fractions(sums, scale: int) -> dict:
    return {e: Fraction(s, scale) for e, s in sums if s}


def tuple_product(a: Poly, b: Poly) -> Poly:
    """a * b on scaled ints keyed by exponent tuples."""
    (x, y), scale = _tuple_scaled((a, b))
    return Poly(a.nvars, _tuple_fractions(_tuple_int_product(x, y), scale * scale))


def tuple_power(a: Poly, k: int) -> Poly:
    """a ** k by the library's squarings, up to the top bit of k, each a
    tuple-keyed product."""
    result, base = None, a
    while k:
        if k & 1:
            result = base if result is None else tuple_product(result, base)
        k >>= 1
        if k:
            base = tuple_product(base, base)
    return Poly.const(a.nvars, 1) if result is None else result


def tuple_bracket(bracket: str, args) -> Poly:
    """The determinant bracket on the library's grid, one row per argument
    (its partials, after the argument itself for 'w'), each row scaled once
    and expanded by `det_expand` on tuple-keyed pairs."""
    n = len(args)
    if bracket == "jac":
        grid = [[u.partial(r) for r in range(n)] for u in args]
    else:
        grid = [[u, *(u.partial(r) for r in range(n - 1))] for u in args]
    value = Poly(args[0].nvars)
    if all(any(p.terms for p in line) for line in grid):
        rows, scales = zip(*map(_tuple_scaled, grid))
        sums = det_expand(rows, {}, sparse_add, sparse_neg, _tuple_int_product, operator.not_)
        value.terms = _tuple_fractions(sums.items(), math.prod(scales))
    return value


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


def parse_poly_oracle(src: str, var_names: Sequence[str]) -> Poly:
    return _Parser(src, var_names).parse()
