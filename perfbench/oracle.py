"""The benchmark's own exact evaluator.

It works on raw structure-constant tables (dicts from index tuples to value
tuples), never on nlie objects, so a wrong answer from nlie cannot agree with
it by sharing code.  Values are Fractions over Q (p is None) or ints mod p.
Used only after the timed phase: to replay failure witnesses, to recompute
dimensions, and to build sympy references for polynomial brackets.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


def _norm(x, p):
    return x % p if p else Fraction(x)


def _sort_sign(idx):
    """Sorted tuple and permutation sign, or (None, 0) on a repeated index."""
    if len(set(idx)) != len(idx):
        return None, 0
    arr, sign = list(idx), 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return tuple(arr), sign


class RawAlgebra:
    """Bracket table (increasing keys), optional product table (i <= j)
    and unit, over Q or F_p."""

    def __init__(self, dim, arity, p, bracket, product=None, unit=None):
        self.dim, self.arity, self.p = dim, arity, p
        self.bracket = {tuple(k): tuple(_norm(c, p) for c in v) for k, v in bracket.items()}
        self.product = (
            None if product is None
            else {tuple(k): tuple(_norm(c, p) for c in v) for k, v in product.items()}
        )
        self.unit = None if unit is None else tuple(_norm(c, p) for c in unit)
        self._ads = None

    def zero(self):
        return (_norm(0, self.p),) * self.dim

    def basis(self, i):
        return tuple(_norm(1 if j == i else 0, self.p) for j in range(self.dim))

    def add(self, a, b):
        return tuple(_norm(x + y, self.p) for x, y in zip(a, b))

    def bracket_eval(self, args):
        out = [0] * self.dim
        supports = [[(i, c) for i, c in enumerate(a) if c] for a in args]
        for combo in itertools.product(*supports):
            key, sign = _sort_sign([i for i, _ in combo])
            value = self.bracket.get(key) if sign else None
            if value is None:
                continue
            coeff = sign
            for _, c in combo:
                coeff *= c
            for m, t in enumerate(value):
                out[m] += coeff * t
        return tuple(_norm(x, self.p) for x in out)

    def product_eval(self, a, b):
        out = [0] * self.dim
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                value = self.product.get((min(i, j), max(i, j))) if cb else None
                if value is None:
                    continue
                for m, t in enumerate(value):
                    out[m] += ca * cb * t
        return tuple(_norm(x, self.p) for x in out)

    def ad_matrix(self, args):
        """Rows-by-columns matrix of x -> bracket(x, args...)."""
        cols = [self.bracket_eval([self.basis(k), *args]) for k in range(self.dim)]
        return [[cols[k][i] for k in range(self.dim)] for i in range(self.dim)]

    def ad_operators(self):
        if self._ads is None:
            self._ads = [
                self.ad_matrix([self.basis(i) for i in idx])
                for idx in itertools.combinations(range(self.dim), self.arity - 1)
            ]
        return self._ads


def matmul(a, b, p):
    return [
        [_norm(sum(a[i][t] * b[t][j] for t in range(len(b))), p) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def matvec(m, v, p):
    return tuple(_norm(sum(m[i][j] * v[j] for j in range(len(v))), p) for i in range(len(m)))


class Echelon:
    """Incremental row echelon basis with exact arithmetic."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot column -> row with 1 at the pivot

    def reduce(self, vec):
        v = [_norm(c, self.p) for c in vec]
        for j, row in self.rows.items():
            c = v[j]
            if c:
                v = [_norm(x - c * y, self.p) for x, y in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        lead = next((j for j, c in enumerate(v) if c), None)
        if lead is None:
            return None
        inv = pow(v[lead], -1, self.p) if self.p else 1 / v[lead]
        v = [_norm(c * inv, self.p) for c in v]
        for j, row in self.rows.items():
            c = row[lead]
            if c:
                self.rows[j] = [_norm(x - c * y, self.p) for x, y in zip(row, v)]
        self.rows[lead] = v
        return v

    @property
    def rank(self):
        return len(self.rows)


def rank(rows, p):
    ech = Echelon(p)
    for r in rows:
        ech.add(r)
    return ech.rank


def closure_dim(alg: RawAlgebra, seeds):
    """Dimension of the smallest subspace containing the seeds and closed
    under every basis adjoint."""
    ops = alg.ad_operators()
    ech = Echelon(alg.p)
    queue = [r for s in seeds if (r := ech.add(s)) is not None]
    while queue and ech.rank < alg.dim:
        v = queue.pop()
        for m in ops:
            r = ech.add(matvec(m, v, alg.p))
            if r is not None:
                queue.append(r)
    return ech.rank


@functools.cache
def center_dim(alg: RawAlgebra):
    rows = [row for m in alg.ad_operators() for row in m]
    return alg.dim - rank(rows, alg.p)


# ---------------------------------------------------------------------------
# witness replay: recompute both sides from the raw tables


def _sides(alg: RawAlgebra, kind: str, data: dict):
    e = alg.basis
    if kind == "generalized_jacobi":
        x, y = tuple(data["x"]), tuple(data["y"])
        ys = [e(i) for i in y]
        lhs = alg.bracket_eval([alg.bracket_eval([e(i) for i in x]), *ys])
        rhs = alg.zero()
        for s in range(len(x)):
            inner = alg.bracket_eval([e(x[s]), *ys])
            args = [e(i) for i in x]
            args[s] = inner
            rhs = alg.add(rhs, alg.bracket_eval(args))
        return lhs, rhs
    if kind == "leibniz":
        i, j, y = data["i"], data["j"], [e(k) for k in data["y"]]
        lhs = alg.bracket_eval([alg.product_eval(e(i), e(j)), *y])
        rhs = alg.add(alg.product_eval(e(i), alg.bracket_eval([e(j), *y])),
                      alg.product_eval(alg.bracket_eval([e(i), *y]), e(j)))
        return lhs, rhs
    if kind == "poisson_compatibility":
        a, b, c, u = e(data["a"]), e(data["b"]), e(data["c"]), [e(k) for k in data["u"]]
        pe = alg.product_eval
        lhs = alg.bracket_eval([pe(a, b), c, *u])
        rhs = alg.add(alg.bracket_eval([a, pe(b, c), *u]), alg.bracket_eval([b, pe(a, c), *u]))
        return lhs, rhs
    if kind == "associativity":
        i, j, k = data["triple"]
        pe = alg.product_eval
        return pe(pe(e(i), e(j)), e(k)), pe(e(i), pe(e(j), e(k)))
    if kind == "unit":
        return alg.product_eval(alg.unit, e(data["index"])), e(data["index"])
    raise ValueError(f"no replay for witness kind {kind!r}")


def replay_identity_witness(alg: RawAlgebra, witness) -> str | None:
    """None when the witness's two sides are recomputed exactly and differ."""
    lhs, rhs = _sides(alg, witness.kind, witness.data)
    got_lhs = tuple(_norm(c, alg.p) for c in witness.data["lhs"])
    got_rhs = tuple(_norm(c, alg.p) for c in witness.data["rhs"])
    if (lhs, rhs) != (got_lhs, got_rhs):
        return f"{witness.kind} witness sides do not replay"
    if lhs == rhs:
        return f"{witness.kind} witness is not a failure"
    return None


def power(alg: RawAlgebra, vector, k: int) -> tuple:
    """vector^k under the product, k >= 1."""
    v = tuple(_norm(c, alg.p) for c in vector)
    acc = v
    for _ in range(k - 1):
        acc = alg.product_eval(acc, v)
    return acc


def replay_nilpotent_element(alg: RawAlgebra, vector, k: int) -> str | None:
    if not any(power(alg, vector, k - 1)):
        return "nilpotent witness vanishes below the stated power"
    if any(power(alg, vector, k)):
        return "nilpotent witness does not vanish at the stated power"
    return None


def replay_nilpotent_ad(alg: RawAlgebra, args, power: int) -> str | None:
    m = alg.ad_matrix([alg.basis(i) for i in args])
    if not any(any(r) for r in m):
        return "nilpotent adjoint witness is zero"
    step = m
    for _ in range(power - 1):
        step = matmul(step, m, alg.p)
    if any(any(r) for r in step):
        return "adjoint witness is not nilpotent at the stated power"
    return None


# ---------------------------------------------------------------------------
# sympy references for the polynomial layer


@functools.cache
def sympy_poly_dict(text: str, names: tuple):
    import sympy

    syms = sympy.symbols(names)
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict=dict(zip(names, syms)))
    return _as_dict(sympy.Poly(expr, *syms))


@functools.cache
def sympy_bracket_dict(texts: tuple, names: tuple, kind: str):
    """det of the Jacobian ('jac') or of the matrix whose first row is the
    arguments and whose later rows are their partials ('w')."""
    import sympy

    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    exprs = [sympy.parse_expr(t.replace("^", "**"), local_dict=local) for t in texts]
    rows = [] if kind == "jac" else [exprs]
    rows += [[sympy.diff(f, s) for f in exprs] for s in syms]
    return _as_dict(sympy.Poly(sympy.Matrix(rows).det(method="berkowitz").expand(), *syms))


def sympy_monomial_bracket(kind: str, arity: int, exponents) -> dict:
    nvars = arity if kind == "jac" else arity - 1
    names = tuple(f"v{i}" for i in range(nvars))
    texts = tuple("*".join(["1"] + [f"{n}^{k}" for n, k in zip(names, e) if k])
                  for e in exponents)
    return sympy_bracket_dict(texts, names, kind)


def _as_dict(poly) -> dict:
    return {
        tuple(e): Fraction(int(c.p), int(c.q))
        for e, c in poly.as_dict().items()
        if c != 0
    }
