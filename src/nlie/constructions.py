"""Builders for the classical families: the (n+1)-dimensional vector product
bracket, Jacobian-determinant brackets from commuting derivations, and the
variant whose determinant keeps the arguments themselves in the first row.

Derivation matrices are validated, never trusted: getting their semantics
wrong silently would poison every downstream structural computation.  Each
is checked by the Leibniz engine as the arity-1 bracket e_k -> D(e_k), and
the determinant brackets multiply the derivations' sparse columns through
the carrier product's column index, the one the checkers read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence

from .algebra import (
    NLieAlgebra,
    NLiePoissonAlgebra,
    Record,
    SkewBracketTensor,
    SymProductTensor,
    Verdict,
    Witness,
    _leibniz,
    _mult_columns,
    default_var_names,
    grlex_key,
    monomial_text,
)
from .fields import QQ, Field, PrimeField
from .guards import DEFAULT_MAX_ENUM, check_instances
from .linalg import Matrix, check_det_arity, det_expand, sparse_add, sparse_neg, unit_vector


def check_derivation(product: SymProductTensor, d_matrix: Matrix) -> Verdict:
    """Check D(ei*ej) == D(ei)*ej + ei*D(ej) on all basis pairs: the
    Leibniz check of the arity-1 bracket e_k -> D(e_k)."""
    if d_matrix.field != product.field:
        raise ValueError("derivation matrix field does not match the product")
    if d_matrix.nrows != product.dim or d_matrix.ncols != product.dim:
        raise ValueError("derivation matrix shape does not match the dimension")
    entries = {(k,): col for k, col in enumerate(d_matrix.columns)}
    bracket = SkewBracketTensor.from_entries(product.dim, 1, product.field, entries)
    verdict = _leibniz(product, bracket, None)
    if verdict.ok:
        return verdict
    w = verdict.witness.data
    data = {"pair": (w["i"], w["j"]), "lhs": w["lhs"], "rhs": w["rhs"]}
    return Verdict(False, Witness("derivation", data), verdict.instances)


def check_commuting(maps: Sequence[Matrix]) -> Verdict:
    """Check Dr*Ds == Ds*Dr for every pair of maps."""
    total = len(maps) * (len(maps) - 1) // 2
    for r in range(len(maps)):
        for s in range(r + 1, len(maps)):
            if maps[r].mul(maps[s]) != maps[s].mul(maps[r]):
                return Verdict(False, Witness("commuting", {"pair": (r, s)}), total)
    return Verdict(True, None, total)


class DerivationSet:
    """Commuting derivations of a fixed commutative unital product.

    Construction re-derives both properties from the matrices; a violation
    raises with the offending witness.
    """

    __slots__ = ("product", "unit", "maps")

    def __init__(self, product: SymProductTensor, unit: Sequence, maps: Sequence[Matrix]):
        unit = tuple(unit)
        if len(unit) != product.dim:
            raise ValueError("unit vector has the wrong length")
        maps = tuple(maps)
        for k, m in enumerate(maps):
            verdict = check_derivation(product, m)
            if not verdict.ok:
                raise ValueError(f"map {k} is not a derivation: witness {verdict.witness.data}")
        verdict = check_commuting(maps)
        if not verdict.ok:
            raise ValueError(f"maps do not commute: witness {verdict.witness.data}")
        self.product = product
        self.unit = unit
        self.maps = maps

    @property
    def dim(self) -> int:
        return self.product.dim

    @property
    def field(self) -> Field:
        return self.product.field

    def __repr__(self):
        return f"DerivationSet({len(self.maps)} maps, dim={self.dim}, {self.field})"


def vector_product_algebra(n: int, field: Field = QQ) -> NLieAlgebra:
    """The alternating n-ary bracket on F^(n+1) defined by the formal
    determinant whose first n rows are the arguments and whose last row is
    the basis itself.

    On the increasing basis tuple omitting index m the value is
    (-1)^(n+m) * e_m (0-based).  The sign convention follows from placing
    the basis row last; the generalized Jacobi checker certifies the axioms
    independently of that choice.  The guard counts (n+1)^2 coefficients,
    the nominal dense size of the table, until the guards count stored
    nonzeros (ROADMAP item 8).
    """
    if n < 2:
        raise ValueError("the vector product bracket needs arity >= 2")
    d = n + 1
    check_instances(d * d, None, DEFAULT_MAX_ENUM, "vector product coefficients")
    entries = {
        tuple(i for i in range(d) if i != m): ((m, -1 if (n + m) % 2 else 1),) for m in range(d)
    }
    names = tuple(f"e{i + 1}" for i in range(d))
    return NLieAlgebra(SkewBracketTensor.from_entries(d, n, field, entries), names)


def _det_bracket_table(
    dim: int,
    arity: int,
    field: Field,
    product: SymProductTensor,
    rows: list[Sequence],
) -> dict:
    """Expand det[rows[r][i_s]] in the carrier algebra for every increasing
    tuple (i_1, .., i_n): rows[r][i] holds the (index, coefficient) pairs of
    the determinant entry in row r for basis index i.  Returns each tuple's
    (index, unreduced sum) pairs, for `SkewBracketTensor.from_entries`.
    Products read the carrier's column index.  The tuple count is guarded
    by the enumeration limit."""
    check_instances(math.comb(dim, arity), None, DEFAULT_MAX_ENUM, "determinant bracket tuples")
    mult = _mult_columns(dim, product.entries)

    def mul(a, b):
        out: dict = {}
        for i, x in a:
            cols = mult[i]
            for j, y in b:
                for m, t in cols.get(j, ()):
                    out[m] = out.get(m, 0) + x * y * t
        return out.items()

    table = {}
    for key in itertools.combinations(range(dim), arity):
        grid = [[row[i] for i in key] for row in rows]
        acc = det_expand(grid, {}, sparse_add, sparse_neg, mul, operator.not_)
        if any(map(field.from_int, acc.values())):  # sums that vanish in the field store nothing
            table[key] = acc.items()
    return table


def jacobian_from_derivations(ds: DerivationSet) -> NLiePoissonAlgebra:
    """Bracket of arity n = number of maps, with structure constants
    det[D_r(e_{i_s})]_{r,s} multiplied out in the carrier algebra; paired
    with the carrier's product and unit.
    """
    n = len(ds.maps)
    if n < 1:
        raise ValueError("need at least one derivation")
    check_det_arity(n)
    dim, f = ds.dim, ds.field
    table = _det_bracket_table(dim, n, f, ds.product, [m.columns for m in ds.maps])
    bracket = SkewBracketTensor.from_entries(dim, n, f, table)
    return NLiePoissonAlgebra(ds.product, ds.unit, bracket)


def w_from_derivations(ds: DerivationSet, arity: int) -> NLieAlgebra:
    """Bracket of the given arity from arity-1 commuting derivations: the
    determinant's first row is the arguments themselves, row r+1 applies
    map r.  Returned as a bare n-Lie algebra: this bracket genuinely
    violates the Leibniz pairing with the carrier product, so no Poisson
    container is offered.
    """
    if arity < 2:
        raise ValueError("need arity >= 2")
    check_det_arity(arity)
    if len(ds.maps) != arity - 1:
        raise ValueError(f"need exactly {arity - 1} maps for arity {arity}, got {len(ds.maps)}")
    dim, f = ds.dim, ds.field
    rows = [[((i, f.one),) for i in range(dim)], *(m.columns for m in ds.maps)]
    table = _det_bracket_table(dim, arity, f, ds.product, rows)
    return NLieAlgebra(SkewBracketTensor.from_entries(dim, arity, f, table))


class TruncatedCarrier(Record):
    """Monomial-basis truncated polynomial algebra with its partials, a
    DerivationSet, and each basis monomial's name and exponent tuple."""

    __slots__ = ("product", "unit", "derivations", "names", "exponents")


def truncated_polynomial_algebra(nvars: int, p: int) -> TruncatedCarrier:
    """F_p[x1..xk] with every variable's p-th power set to zero: dimension
    p^k, monomial basis in graded lexicographic order (constant first).

    This carrier makes the formal partials honest derivations: the boundary
    term p*x^(p-1) vanishes in characteristic p.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    field = PrimeField(p)
    dim = p**nvars
    # the guard counts a dim-length vector for each monomial pair (i <= j)
    # whose product survives the truncation, the nominal dense size of the
    # table, until the guards count stored nonzeros (ROADMAP item 8): per
    # variable, p(p+1)/2 ordered exponent pairs and (p+1)//2 diagonal ones
    pairs = ((p * (p + 1) // 2) ** nvars + ((p + 1) // 2) ** nvars) // 2
    check_instances(
        pairs * dim, None, DEFAULT_MAX_ENUM, "truncated polynomial product coefficients"
    )
    exps = sorted(itertools.product(range(p), repeat=nvars), key=grlex_key)
    index = {e: i for i, e in enumerate(exps)}
    var_names = default_var_names(nvars)

    table = {}
    for i, a in enumerate(exps):
        for j in range(i, dim):
            b = exps[j]
            s = tuple(x + y for x, y in zip(a, b))
            if all(c < p for c in s):
                table[(i, j)] = ((index[s], field.one),)
    product = SymProductTensor.from_entries(dim, field, table)
    unit = unit_vector(field, dim, index[(0,) * nvars])

    maps = []
    for t in range(nvars):
        # d/dx_t sends the monomial e to e[t] times e with x_t lowered once
        cols = {
            j: [(index[e[:t] + (e[t] - 1,) + e[t + 1 :]], e[t])] for j, e in enumerate(exps) if e[t]
        }
        maps.append(Matrix.from_columns(field, dim, cols))
    ds = DerivationSet(product, unit, maps)
    names = tuple(monomial_text(e, var_names) for e in exps)
    return TruncatedCarrier(product, unit, ds, names, tuple(exps))
