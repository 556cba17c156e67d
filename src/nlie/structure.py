"""Structural analysis of skew brackets and their companion products:
adjoint operators, derived series, centers, ideal closures, nilradicals,
quotients, certified simplicity verdicts, statement probes, and the
derived-modulo-center pipeline.

Subspaces are the working currency; everything returns canonical
SubspaceBasis values so results compare by value.  Every ideal closure, over
Q and every F_p, runs one exact loop on Python values.  Simplicity over F_p
closes every projective point with that same loop while their count fits
the enumeration limit, exactly at every p.  Past the limit, Norton's
irreducibility test decides in a few exact spins (its polynomial arithmetic
is in _fppoly, loaded on first use).
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from collections.abc import Sequence

from .algebra import (
    PROBE_IDS,
    NLieAlgebra,
    NLiePoissonAlgebra,
    Record,
    SkewBracketTensor,
    SymProductTensor,
    Verdict,
    Witness,
    _integral,
    _mult_columns,
    check_assoc_comm_unital,
    check_generalized_jacobi,
    check_leibniz,
    unit_failure,
)
from .fields import Field, PrimeField, RationalField
from .guards import (
    DEFAULT_MAX_ENUM,
    DEFAULT_MAX_SUBSPACES,
    GuardExceeded,
    effective_limit,
)
from .linalg import (
    EchelonAccumulator,
    Matrix,
    SubspaceBasis,
    kernel,
    span,
    unit_vector,
)

AlgebraLike = NLieAlgebra | SkewBracketTensor

DEFAULT_REDUCTION_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
# words Norton's test draws before it gives up
_NORTON_WORDS = 64


class IdealKind(Enum):
    NLIE = "nlie"
    ASSOCIATIVE = "associative"
    POISSON = "poisson"


def _bracket_of(alg: AlgebraLike) -> SkewBracketTensor:
    if isinstance(alg, SkewBracketTensor):
        return alg
    return alg.bracket


def _product_of(alg: AlgebraLike) -> SymProductTensor | None:
    return alg.product if isinstance(alg, NLiePoissonAlgebra) else None


def _check_space(S: SubspaceBasis, field: Field, dim: int) -> None:
    if S.field != field or S.ambient_dim != dim:
        raise ValueError("the subspace does not live in the algebra's space")


def _char_flags(field: Field) -> tuple[str, ...]:
    if isinstance(field, PrimeField):
        return (f"characteristic {field.p}: outside the characteristic-0 hypotheses",)
    return ()


# ---------------------------------------------------------------------------
# adjoint and multiplication operators


def _operators(t: SkewBracketTensor | SymProductTensor) -> tuple:
    """The nonzero operators (z, op_z), a Matrix with column k = t(e_k, e_z),
    from basis tuples z in lexicographic order: the adjoints of a bracket
    on strictly increasing z, and the multiplications ((i,), L_i) of a
    product.  Built on first use from the stored pairs and kept on the
    tensor: the value of a key is column key[s] of the operator at the key
    without slot s, negated from an odd slot of the alternating bracket."""
    if t._ops is None:
        f, d = t.field, t.dim
        alternating = isinstance(t, SkewBracketTensor)
        ops: dict = defaultdict(lambda: [()] * d)
        for key, col in t.entries.items():
            odd = tuple([(m, f.from_int(-c)) for m, c in col]) if alternating else col
            for s, k in enumerate(key):
                ops[key[:s] + key[s + 1 :]][k] = odd if s % 2 else col
        t._ops = tuple((z, Matrix._trusted(f, d, tuple(ops[z]))) for z in sorted(ops))
    return t._ops


def _ops_for_kind(
    t: SkewBracketTensor, kind: IdealKind, product: SymProductTensor | None
) -> list[Matrix]:
    """The nonzero operations whose invariant subspaces are the kind's
    ideals: adjoints in lexicographic tuple order, multiplications, or
    both."""
    ops: list[Matrix] = []
    if kind in (IdealKind.NLIE, IdealKind.POISSON):
        ops.extend(m for _, m in _operators(t))
    if kind in (IdealKind.ASSOCIATIVE, IdealKind.POISSON):
        if product is None:
            raise ValueError(f"{kind.value} ideal operations require the product")
        ops.extend(m for _, m in _operators(product))
    return ops


# ---------------------------------------------------------------------------
# derived series and center


def derived_subspace(alg: AlgebraLike, S: SubspaceBasis | None = None) -> SubspaceBasis:
    """Span of all bracket values on tuples from S (the whole space when S
    is omitted)."""
    t = _bracket_of(alg)
    if S is not None:
        _check_space(S, t.field, t.dim)
    if S is None or S.is_full():
        return span(t.field, t.dim, map(t.entry, t.entries))
    acc = EchelonAccumulator(t.field, t.dim)
    for combo in itertools.combinations(S.rows, t.arity):
        acc.add(t.eval(list(combo)))
        if acc.dim == t.dim:
            break
    return acc.to_subspace()


def derived_series(alg: AlgebraLike, S: SubspaceBasis | None = None) -> list[SubspaceBasis]:
    """S, bracket(S,...,S), ... down to stabilization.  The stabilizing
    repeat is included; a zero term ends the list immediately."""
    t = _bracket_of(alg)
    if S is None:
        S = SubspaceBasis.full(t.field, t.dim)
    series = [S]
    while not series[-1].is_zero():
        nxt = derived_subspace(t, series[-1])
        series.append(nxt)
        if nxt == series[-2]:
            break
    return series


def center(alg: AlgebraLike) -> SubspaceBasis:
    """Elements whose bracket against every basis tuple vanishes: the
    kernel of every adjoint operator stacked, one row (z, m) for the
    e_m-coefficient of ad_z."""
    t = _bracket_of(alg)
    f, d = t.field, t.dim
    if t.is_zero():
        return SubspaceBasis.full(f, d)
    rows: dict = defaultdict(lambda: [f.zero] * d)
    for z, m in _operators(t):
        for k, col in enumerate(m.columns):
            for r, c in col:
                rows[z, r][k] = c
    return kernel(f, d, rows.values())


# ---------------------------------------------------------------------------
# ideal predicates and closures


def _is_invariant(S: SubspaceBasis, ops: Sequence[Matrix]) -> bool:
    """Whether every operator maps S into itself."""
    return all(S.contains(m.matvec(row)) for m in ops for row in S.rows)


def is_ideal(alg: AlgebraLike, S: SubspaceBasis, kind: IdealKind = IdealKind.NLIE) -> bool:
    """Whether S is closed under the kind's operations (adjoints,
    multiplications, or both)."""
    t = _bracket_of(alg)
    _check_space(S, t.field, t.dim)
    return _is_invariant(S, _ops_for_kind(t, kind, _product_of(alg)))


def _closure(
    field: Field, dim: int, seed_vectors: Sequence[Sequence], ops: list[Matrix]
) -> SubspaceBasis:
    acc = EchelonAccumulator(field, dim)
    queue = [r for v in seed_vectors if (r := acc.add(v)) is not None]
    while queue and acc.dim < dim:
        v = queue.pop()
        for m in ops:
            r = acc.add(m.matvec(v))
            if r is not None:
                if acc.dim == dim:
                    break
                queue.append(r)
    return acc.to_subspace()


def ideal_closure(
    alg: AlgebraLike,
    S: SubspaceBasis | Sequence[Sequence],
    kind: IdealKind = IdealKind.NLIE,
) -> SubspaceBasis:
    """Smallest subspace containing S closed under the kind's operations
    (adjoints, multiplications, or both)."""
    t = _bracket_of(alg)
    vectors = list(S.rows) if isinstance(S, SubspaceBasis) else list(S)
    return _closure(t.field, t.dim, vectors, _ops_for_kind(t, kind, _product_of(alg)))


# ---------------------------------------------------------------------------
# nilradical


def element_power(product: SymProductTensor, unit: Sequence, v: Sequence, k: int) -> tuple:
    """v^k under the product, by binary powering (k >= 0; v^0 = unit)."""
    if k < 0:
        raise ValueError("negative power")
    result = tuple(unit)
    base = tuple(v)
    while k:
        if k & 1:
            result = product.eval(result, base)
        base = product.eval(base, base)
        k >>= 1
    return result


def nilradical(product: SymProductTensor, unit: Sequence) -> SubspaceBasis:
    """The subspace of nilpotent elements of a commutative associative
    unital algebra.

    Over the rationals this is the radical of the trace form
    (a,b) -> trace(L_ab).  Over F_p the p-th-power map is additive and
    F_p-linear, and an element is nilpotent iff enough iterates of it
    vanish, so the nilpotent set is the kernel of an iterated power map;
    both routes compute the same saturated set {v : v^dim = 0}.
    """
    field = product.field
    d = product.dim
    unit = tuple(unit)
    if unit_failure(product, unit) is not None:
        raise ValueError("the supplied vector is not a unit for the product")
    if isinstance(field, RationalField):
        # tau_k = trace(L_{e_k}), and the Gram entry (i, j) = trace(L_{e_i e_j})
        mult = _mult_columns(d, product.entries)
        taus = [sum((c for j, col in mult[k].items() for m, c in col if m == j), field.zero)
                for k in range(d)]
        gram = [[sum((c * taus[m] for m, c in mult[i].get(j, ())), field.zero) for j in range(d)]
                for i in range(d)]
        nil = kernel(field, d, gram)
    else:
        # the s-th power of the p-th-power map sends e_k to e_k^(p^s)
        size = field.p
        while size < d:
            size *= field.p
        cols = [element_power(product, unit, unit_vector(field, d, k), size) for k in range(d)]
        nil = kernel(field, d, zip(*cols))
    if not _is_invariant(nil, [m for _, m in _operators(product)]):
        raise AssertionError("nilpotent set is not an ideal; the product is not associative")
    return nil


class QuotientMap(Record):
    """Projection data for a quotient by a subspace: representatives are
    the standard basis vectors at the non-pivot coordinates."""

    __slots__ = ("ideal", "rep_indices")

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    def project(self, vec: Sequence) -> tuple:
        reduced = self.ideal.reduce(vec)
        return tuple(reduced[j] for j in self.rep_indices)


# ---------------------------------------------------------------------------
# quotients and restrictions


def quotient_algebra(alg: AlgebraLike, I: SubspaceBasis) -> tuple[NLieAlgebra, QuotientMap]:
    """Bracket on coset representatives at the non-pivot coordinates of I,
    which must be an ideal."""
    t = _bracket_of(alg)
    if not is_ideal(t, I):
        raise ValueError("the subspace is not an ideal: some bracket image escapes it")
    qm = QuotientMap(I, tuple(j for j in range(t.dim) if j not in I.pivots))
    # a key of representatives is increasing, and so is its renumbering
    renumber = {j: c for c, j in enumerate(qm.rep_indices)}
    entries = {}
    for key in t.entries:
        if all(j in renumber for j in key):
            value = qm.project(t.entry(key))
            entries[tuple(renumber[j] for j in key)] = [(c, x) for c, x in enumerate(value) if x]
    return NLieAlgebra(SkewBracketTensor.from_entries(qm.dim, t.arity, t.field, entries)), qm


def subalgebra_on(alg: AlgebraLike, S: SubspaceBasis) -> NLieAlgebra:
    """The bracket re-expressed in the coordinates of S; S must be closed
    under it."""
    t = _bracket_of(alg)
    _check_space(S, t.field, t.dim)
    entries: dict[tuple[int, ...], list] = {}
    for combo in itertools.combinations(range(S.dim), t.arity):
        coords = S.coordinates_of(t.eval([S.rows[c] for c in combo]))
        if coords is None:
            raise ValueError("the subspace is not closed under the bracket")
        if pairs := [(c, x) for c, x in enumerate(coords) if x]:
            entries[combo] = pairs
    return NLieAlgebra(SkewBracketTensor.from_entries(S.dim, t.arity, t.field, entries))


# ---------------------------------------------------------------------------
# simplicity


class SimplicityVerdict(Record):
    """`status` is "simple", "not_simple" or "unknown" for ideals of the IdealKind
    `kind`; `certificate` is a dict or None, `witness` a SubspaceBasis or None."""

    __slots__ = ("status", "kind", "certificate", "witness", "reason", "seed")
    _defaults = {"certificate": None, "witness": None, "reason": None, "seed": 0}


def _projective_points(p: int, k: int):
    """Representatives of the projective points of F_p^k, first nonzero
    coordinate 1, with the tail after it counted up last coordinate fastest.
    Lazy at every p: the tail is an odometer, so no range(p) is materialised."""
    for lead in range(k):
        head = (0,) * lead + (1,)
        tail = [0] * (k - 1 - lead)
        while True:
            yield head + tuple(tail)
            i = len(tail) - 1
            while i >= 0 and tail[i] == p - 1:
                tail[i] = 0
                i -= 1
            if i < 0:
                break
            tail[i] += 1


def _first_proper_closure(
    field: Field, dim: int, vectors, ops: list[Matrix]
) -> SubspaceBasis | None:
    """The first closure of these vectors, in order, that is nonzero and
    proper; None when there is none."""
    for v in vectors:
        closure = _closure(field, dim, [v], ops)
        if 0 < closure.dim < dim:
            return closure
    return None


def _exhaustive_projective(
    t: SkewBracketTensor, kind: IdealKind, ops: list[Matrix], limit: int, seed: int
) -> SimplicityVerdict:
    p, d = t.field.p, t.dim
    points = _gaussian_binomial(d, 1, p)
    if points > limit:
        raise GuardExceeded(
            f"exhaustive projective enumeration needs {points} closures > limit {limit}"
        )
    witness = _first_proper_closure(t.field, d, _projective_points(p, d), ops)
    if witness is not None:
        return SimplicityVerdict(
            "not_simple",
            kind,
            None,
            witness,
            "a projective point generates a proper invariant subspace",
            seed,
        )
    certificate = {
        "method": "ExhaustiveProjective",
        "p": p,
        "dim": d,
        "points": points,
    }
    return SimplicityVerdict("simple", kind, certificate, None, None, seed)


def _norton_word(ops: list[Matrix], p: int, d: int, seed: int, word: int) -> list[list[int]]:
    """The seeded word P·Q + R, where P, Q and R are random F_p-combinations
    of all the operations."""
    from . import _fppoly
    rng = random.Random(f"norton:{seed}:{word}")
    entries = [[(i, j, x) for j, col in enumerate(m.columns) for i, x in col] for m in ops]

    def pick() -> list[list[int]]:
        acc = [[0] * d for _ in range(d)]
        for nonzero in entries:
            c = rng.randrange(p)
            if c:
                for i, j, x in nonzero:
                    acc[i][j] += c * x
        return [[x % p for x in row] for row in acc]

    a, b, c = pick(), pick(), pick()
    return [
        [(x + y) % p for x, y in zip(row, add)]
        for row, add in zip(_fppoly.matmul(a, b, p), c)
    ]


def _norton_decide(
    t: SkewBracketTensor,
    kind: IdealKind,
    ops: list[Matrix],
    transposed: list[Matrix],
    seed: int,
    word: int,
) -> SimplicityVerdict | None:
    """One seeded word of Norton's test in the Holt-Rees form: a verdict,
    or None when the word does not decide.

    Take an irreducible factor f of the word A's characteristic polynomial
    with nullity f(A) = deg f.  Then ker f(A) is one-dimensional over
    F_p[A]/(f), so a proper invariant subspace U that meets it contains all
    of it, and spinning any one kernel vector under the operations stays
    inside U.  If U misses it, f(A) is injective on U, hence f(A) has a
    kernel on V/U, and the annihilator of U, which is invariant under the
    transposed operations, meets ker f(A)^t; the same argument spins one
    vector of it inside that annihilator.  So two whole spins prove the
    module irreducible, and a proper spin is a witness.  A word without
    such a factor still spins the kernel of its first factor, which often
    exposes an invariant subspace.
    """
    from . import _fppoly
    field = t.field
    p, d = field.p, t.dim
    rows = _norton_word(ops, p, d, seed, word)
    first = good = None
    for f in _fppoly.factors(_fppoly.charpoly(rows, p), p):
        fA = _fppoly.at_matrix(f, rows, p)
        ker = kernel(field, d, fA)
        first = first or (f, fA, ker)
        if ker.dim == len(f) - 1:
            good = (f, fA, ker)
            break
    f, fA, ker = good or first
    # each spin closes the first row of a nonzero kernel
    spin = _closure(field, d, ker.rows[:1], ops)
    if spin.dim < d:
        return SimplicityVerdict(
            "not_simple",
            kind,
            None,
            spin,
            "a kernel vector of f(A) spins to a proper invariant subspace",
            seed,
        )
    dual = _closure(field, d, kernel(field, d, zip(*fA)).rows[:1], transposed)
    if dual.dim < d:
        witness = kernel(field, d, dual.rows)
        if not _is_invariant(witness, ops):
            raise AssertionError("claimed invariant subspace is not invariant")
        return SimplicityVerdict(
            "not_simple",
            kind,
            None,
            witness,
            "the annihilator of a transposed-operation spin is a proper invariant subspace",
            seed,
        )
    if good is None:
        return None
    certificate = {
        "method": "Norton",
        "p": p,
        "dim": d,
        "seed": seed,
        "word": word,
        "factor": f,
        "nullity": ker.dim,
    }
    return SimplicityVerdict("simple", kind, certificate, None, None, seed)


def _norton(
    t: SkewBracketTensor, kind: IdealKind, ops: list[Matrix], seed: int
) -> SimplicityVerdict:
    """Norton's irreducibility test: the seeded words in order, up to a
    fixed budget, until one decides."""
    transposed = [m.transpose() for m in ops]
    for word in range(_NORTON_WORDS):
        verdict = _norton_decide(t, kind, ops, transposed, seed, word)
        if verdict is not None:
            return verdict
    raise GuardExceeded(
        f"Norton's test drew its budget of {_NORTON_WORDS} words without a "
        "decisive irreducible factor"
    )


def _zero_bracket_verdict(
    t: SkewBracketTensor, kind: IdealKind, product: SymProductTensor | None, seed: int
) -> SimplicityVerdict:
    d = t.dim
    reason = "the bracket is zero; abelian algebras are not simple by convention"
    units = (unit_vector(t.field, d, k) for k in range(d))
    witness = _first_proper_closure(t.field, d, units, _ops_for_kind(t, kind, product))
    if witness is None:
        reason += "; no proper nonzero invariant subspace exists to exhibit"
    return SimplicityVerdict("not_simple", kind, None, witness, reason, seed)


def _reduce_mod_p(
    t: SkewBracketTensor, product: SymProductTensor | None, p: int
) -> tuple[SkewBracketTensor, SymProductTensor | None, int] | None:
    """Clear bracket denominators by their lcm (a nonzero scale does not
    change the invariant-subspace lattice) and reduce mod p; the product
    must be p-integral as it stands.  None when p is inadmissible."""
    entries, scale = _integral(t.entries, t.field)
    if scale % p == 0:
        return None
    field = PrimeField(p)
    reduced_t = SkewBracketTensor.from_entries(t.dim, t.arity, field, entries)
    if reduced_t.is_zero():
        return None
    if product is None:
        return reduced_t, None, scale
    try:
        entries = {
            key: [(m, c.numerator * pow(c.denominator, -1, p)) for m, c in value]
            for key, value in product.entries.items()
        }
    except ValueError:  # a denominator divisible by p
        return None
    return reduced_t, SymProductTensor.from_entries(product.dim, field, entries), scale


def _mod_p_certificate(p: int, scale: int, inner: dict) -> dict:
    return {"method": "ModPReduction", "p": p, "scale": str(scale), "inner": inner}


def _is_simple_fp(
    t: SkewBracketTensor,
    kind: IdealKind,
    product: SymProductTensor | None,
    limit: int,
    seed: int,
) -> SimplicityVerdict:
    ops = _ops_for_kind(t, kind, product)
    if _gaussian_binomial(t.dim, 1, t.field.p) <= limit:
        return _exhaustive_projective(t, kind, ops, limit, seed)
    return _norton(t, kind, ops, seed)


def is_simple(
    alg: AlgebraLike,
    *,
    mod_p: int | None = None,
    max_enum: int | None = None,
    seed: int = 0,
) -> SimplicityVerdict:
    """Certified simplicity verdict for the ideals of the algebra's kind:
    Poisson ideals when it has a product, n-Lie ideals otherwise (so
    `is_simple(alg.bracket)` gives the n-Lie verdict of a Poisson algebra).

    Over F_p: exhaustive projective closure when the point count fits the
    enumeration limit, Norton's irreducibility test otherwise; both
    decide, and Norton raises GuardExceeded if its word budget runs out.
    Over Q: proper ideals are searched by closing basis and seeded random
    vectors (sound for not-simple), and simplicity is certified through a
    mod-p reduction (sound direction only), so "unknown" is a possible
    honest outcome.  A zero bracket is never simple, by convention.
    `mod_p` needs the rationals.
    """
    t = _bracket_of(alg)
    if mod_p is not None and not isinstance(t.field, RationalField):
        raise ValueError(f"mod_p {mod_p} reduces rational algebras only")
    product = _product_of(alg)
    kind = IdealKind.POISSON if product is not None else IdealKind.NLIE
    limit = effective_limit(max_enum, DEFAULT_MAX_ENUM, "max_enum")
    if t.is_zero():
        return _zero_bracket_verdict(t, kind, product, seed)
    if isinstance(t.field, PrimeField):
        return _is_simple_fp(t, kind, product, limit, seed)
    ops = _ops_for_kind(t, kind, product)
    rng = random.Random(seed)
    probes = [unit_vector(t.field, t.dim, k) for k in range(t.dim)]
    for _ in range(8):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim))
        if any(v):
            probes.append(v)
    witness = _first_proper_closure(t.field, t.dim, probes, ops)
    if witness is not None:
        return SimplicityVerdict(
            "not_simple",
            kind,
            None,
            witness,
            "a probed vector generates a proper invariant subspace",
            seed,
        )
    primes = (mod_p,) if mod_p is not None else DEFAULT_REDUCTION_PRIMES
    attempts = []
    for p in primes:
        reduced = _reduce_mod_p(t, product, p)
        if reduced is None:
            attempts.append(f"p={p}: inadmissible reduction")
            continue
        reduced_t, reduced_product, scale = reduced
        try:
            inner = _is_simple_fp(reduced_t, kind, reduced_product, limit, seed)
        except GuardExceeded as exc:
            attempts.append(f"p={p}: {exc}")
            continue
        if inner.status == "simple":
            certificate = _mod_p_certificate(p, scale, inner.certificate)
            return SimplicityVerdict("simple", kind, certificate, None, None, seed)
        attempts.append(f"p={p}: reduction is {inner.status}")
    return SimplicityVerdict(
        "unknown",
        kind,
        None,
        None,
        "no admissible prime certified simplicity (" + "; ".join(attempts) + ")",
        seed,
    )


def verify_simplicity_certificate(
    alg: AlgebraLike, verdict: SimplicityVerdict, *, max_enum: int | None = None
) -> bool:
    """Replay a verdict: witnesses are re-checked for invariance, an
    exhaustive or Norton certificate re-runs the decider it names (the
    whole search, or its one word) with the verdict's seed and must come
    back identical, by type as well as value, and a mod-p reduction must
    re-derive whole and replay its inner certificate on the reduced
    algebra.  True or False for any verdict: a status, kind, certificate
    or witness of the wrong shape gives False."""
    limit = effective_limit(max_enum, DEFAULT_MAX_ENUM, "max_enum")
    return _replay(_bracket_of(alg), _product_of(alg), verdict, limit)


def _replay(
    t: SkewBracketTensor, product: SymProductTensor | None, verdict: SimplicityVerdict, limit: int
) -> bool:
    status, kind = verdict.status, verdict.kind
    if status == "unknown":
        return True
    if not isinstance(kind, IdealKind) or (kind is not IdealKind.NLIE and product is None):
        return False
    if status == "not_simple":
        witness = verdict.witness
        if witness is None:
            return t.is_zero() or t.dim == 0
        if not isinstance(witness, SubspaceBasis):
            return False
        if witness.field != t.field or witness.ambient_dim != t.dim:
            return False
        if not 0 < witness.dim < t.dim:
            return False
        return _is_invariant(witness, _ops_for_kind(t, kind, product))
    certificate = verdict.certificate
    if status != "simple" or not isinstance(certificate, dict):
        return False
    method = certificate.get("method")
    if method in ("ExhaustiveProjective", "Norton"):
        if not isinstance(t.field, PrimeField):
            return False
        ops = _ops_for_kind(t, kind, product)
        if method == "ExhaustiveProjective":
            rerun = _exhaustive_projective(t, kind, ops, limit, verdict.seed)
        else:
            word = certificate.get("word")
            if type(word) is not int or word < 0:
                return False
            transposed = [m.transpose() for m in ops]
            rerun = _norton_decide(t, kind, ops, transposed, verdict.seed, word)
        return rerun is not None and _same_certificate(rerun.certificate, certificate)
    if method == "ModPReduction":
        p, inner = certificate.get("p"), certificate.get("inner")
        if not (
            isinstance(t.field, RationalField)
            and isinstance(p, int)
            and p > 1
            and isinstance(inner, dict)
        ):
            return False
        try:
            reduced = _reduce_mod_p(t, product if kind is not IdealKind.NLIE else None, p)
        except ValueError:  # p is not a prime
            return False
        if reduced is None:
            return False
        reduced_t, reduced_product, scale = reduced
        if not _same_certificate(_mod_p_certificate(p, scale, inner), certificate):
            return False
        inner_verdict = SimplicityVerdict("simple", kind, inner, None, None, verdict.seed)
        return _replay(reduced_t, reduced_product, inner_verdict, limit)
    return False


def _same_certificate(a: dict, b) -> bool:
    """Whether two certificates print the same in a report: by type as well
    as value, in any key order."""
    try:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    except (TypeError, ValueError):
        return False


def brute_force_ideals(
    alg: AlgebraLike,
    kind: IdealKind = IdealKind.NLIE,
    max_subspaces: int | None = None,
) -> list[SubspaceBasis]:
    """Every subspace closed under the kind's operations, by enumerating
    all echelon normal forms.  Test oracle; finite fields only."""
    t = _bracket_of(alg)
    product = _product_of(alg)
    field = t.field
    if not isinstance(field, PrimeField):
        raise ValueError("subspace enumeration requires a finite field")
    p, d = field.p, t.dim
    limit = effective_limit(max_subspaces, DEFAULT_MAX_SUBSPACES, "max_subspaces")
    total = sum(_gaussian_binomial(d, r, p) for r in range(d + 1))
    if total > limit:
        raise GuardExceeded(f"{total} subspaces exceed the limit {limit}")
    ops = _ops_for_kind(t, kind, product)
    found = []
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            # the choices for each echelon row: 1 at its pivot, 0 at the
            # other pivots, anything at the later columns; the subspaces of
            # one pivot set share these row tuples
            choices = []
            for lead in pivots:
                free = [j for j in range(lead + 1, d) if j not in pivots]
                rows = []
                for values in itertools.product(range(p), repeat=len(free)):
                    row = [0] * d
                    row[lead] = 1
                    for j, c in zip(free, values):
                        row[j] = c
                    rows.append(tuple(row))
                choices.append(rows)
            for rows in itertools.product(*choices):
                S = SubspaceBasis._trusted(field, d, rows, pivots)
                if _is_invariant(S, ops):
                    found.append(S)
    return found


def _gaussian_binomial(d: int, r: int, p: int) -> int:
    num = den = 1
    for i in range(r):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# statement probes


_PROBE_TEXT = {
    "L1": (
        "the algebra is simple",
        "there are no nonzero nilpotent elements (the nilradical is zero)",
    ),
    "L2": (
        "U is an ideal of the derived subalgebra; the algebra is simple",
        "brackets of the associative ideal generated by the third derived term "
        "of U against arbitrary tuples land inside U",
    ),
    "L3": (
        "I is a nonzero associative ideal stable under bracketing with the "
        "derived subalgebra; the algebra is simple",
        "I is the whole algebra",
    ),
    "L5": (
        "the algebra is simple",
        "every nilpotent adjoint operator from a basis tuple is zero",
    ),
    "L6_0": (
        "U is an abelian ideal of the derived subalgebra; the algebra is simple",
        "brackets with one free slot, derived-subalgebra slots, and a U slot vanish",
    ),
    "L6": (
        "U is an abelian ideal of the derived subalgebra; the algebra is simple",
        "brackets of arbitrary tuples against U vanish",
    ),
    "L7": (
        "U is an ideal of the derived subalgebra whose third derived term is "
        "zero; the algebra is simple",
        "brackets of arbitrary tuples against the first derived term of U vanish",
    ),
    "L8": (
        "U is an ideal of the derived subalgebra whose third derived term is "
        "zero; the algebra is simple",
        "brackets of arbitrary tuples against U vanish",
    ),
}


class ProbeReport(Record):
    """One probe's statements and whether each holds; `witness` is a Witness
    or None, the notes and flags are tuples of strings."""

    __slots__ = (
        "probe",
        "hypothesis",
        "conclusion",
        "hypotheses_hold",
        "hypothesis_notes",
        "conclusion_holds",
        "witness",
        "flags",
        "seed",
    )


def _stable_under(t: SkewBracketTensor, U: SubspaceBasis, B: SubspaceBasis) -> bool:
    """Whether bracket(u, b_2, .., b_n) lies in U for every row u of U and
    every combination of rows of B."""
    return all(
        U.contains(t.eval([u, *combo]))
        for u in U.rows
        for combo in itertools.combinations(B.rows, t.arity - 1)
    )


def _vanishing_against(
    t: SkewBracketTensor, free_slots: int, mids: SubspaceBasis | None, last: SubspaceBasis
) -> Witness | None:
    """First nonzero value of bracket(e_i1..e_i<free>, mids..., u), scanning
    increasing index tuples, then increasing mid combinations, then rows of
    the last subspace.  None when everything vanishes."""
    field = t.field
    mid_count = t.arity - 1 - free_slots
    mid_rows = mids.rows if mids is not None else ()
    for idx in itertools.combinations(range(t.dim), free_slots):
        head = [unit_vector(field, t.dim, i) for i in idx]
        for mid_combo in itertools.combinations(mid_rows, mid_count):
            for u in last.rows:
                value = t.eval([*head, *mid_combo, u])
                if any(value):
                    return Witness(
                        "nonzero_bracket",
                        {
                            "basis_indices": idx,
                            "middle": tuple(mid_combo),
                            "last": u,
                            "value": value,
                        },
                    )
    return None


def _contained_images(
    t: SkewBracketTensor, source: SubspaceBasis, target: SubspaceBasis
) -> Witness | None:
    """First bracket(source row, basis tuple) escaping the target."""
    for v in source.rows:
        for idx, m in _operators(t):
            value = m.matvec(v)
            if not target.contains(value):
                return Witness(
                    "escaping_bracket",
                    {"source": v, "basis_indices": idx, "value": value},
                )
    return None


def probe_lemma(
    alg: AlgebraLike,
    which: str,
    subspace: SubspaceBasis | None = None,
    *,
    seed: int = 0,
    max_enum: int | None = None,
) -> ProbeReport:
    """Evaluate one probe's hypothesis and conclusion independently and
    exactly; the report never asserts the implication itself.

    L1 and L5 take no subspace; L2/L6_0/L6/L7/L8 take a candidate U
    (validated as an ideal of the derived subalgebra); L3 takes a candidate
    I (validated as an associative ideal stable under bracketing with the
    derived subalgebra).
    """
    which = which.upper()
    if which not in PROBE_IDS:
        raise ValueError(f"unknown probe {which!r}; expected one of {PROBE_IDS}")
    t = _bracket_of(alg)
    product = _product_of(alg)
    unit = alg.unit if isinstance(alg, NLiePoissonAlgebra) else None
    field = t.field
    needs_subspace = which not in ("L1", "L5")
    if needs_subspace and subspace is None:
        raise ValueError(f"probe {which} requires a subspace")
    if not needs_subspace and subspace is not None:
        raise ValueError(f"probe {which} takes no subspace")
    if subspace is not None:
        _check_space(subspace, field, t.dim)
    if which in ("L1", "L2", "L3") and product is None:
        raise ValueError(f"probe {which} requires a product")
    if needs_subspace:
        B = derived_subspace(t)
        U = subspace
        if which == "L3" and not is_ideal(alg, U, IdealKind.ASSOCIATIVE):
            raise ValueError("the subspace is not an associative ideal")
        if not _stable_under(t, U, B):
            raise ValueError(
                "the subspace is not stable under bracketing with the derived subalgebra"
                if which == "L3"
                else "the subspace is not an ideal of the derived subalgebra: "
                "a bracket image escapes it"
            )

    simplicity = is_simple(alg, seed=seed, max_enum=max_enum)
    simple_ok = simplicity.status == "simple"
    notes = [f"simplicity ({simplicity.kind.value}): {simplicity.status}"]
    hyp_ok = simple_ok
    flags = _char_flags(field)
    hypothesis, conclusion = _PROBE_TEXT[which]
    witness: Witness | None = None

    if which == "L1":
        nil = nilradical(product, unit)
        conclusion_ok = nil.is_zero()
        if not conclusion_ok:
            v = nil.rows[0]
            power, k = tuple(v), 1
            while any(power):
                power = product.eval(power, v)
                k += 1
            witness = Witness("nilpotent_element", {"vector": v, "power": k})
    elif which == "L5":
        conclusion_ok = True
        for idx, m in _operators(t):
            step, k = m, 1
            while k < t.dim and not step.is_zero():
                step = step.mul(m)
                k += 1
            if step.is_zero():
                conclusion_ok = False
                witness = Witness("nilpotent_ad", {"args": idx, "power": k})
                break
    elif which == "L3":
        nonzero = not U.is_zero()
        notes.append(f"I nonzero: {nonzero}")
        hyp_ok = hyp_ok and nonzero
        conclusion_ok = U.is_full()
        if not conclusion_ok:
            witness = Witness("proper_ideal", {"dim": U.dim})
    elif which in ("L6_0", "L6"):
        abelian = derived_subspace(t, U).is_zero()
        notes.append(f"U abelian: {abelian}")
        hyp_ok = hyp_ok and abelian
        if which == "L6_0":
            witness = _vanishing_against(t, 1, B, U)
        else:
            witness = _vanishing_against(t, t.arity - 1, None, U)
        conclusion_ok = witness is None
    else:
        u1 = derived_subspace(t, U)
        u2 = derived_subspace(t, u1)
        u3 = derived_subspace(t, u2)
        if which == "L2":
            generated = ideal_closure(alg, u3, IdealKind.ASSOCIATIVE)
            witness = _contained_images(t, generated, U)
            conclusion_ok = witness is None
        else:
            notes.append(f"U^(3) zero: {u3.is_zero()}")
            hyp_ok = hyp_ok and u3.is_zero()
            target = u1 if which == "L7" else U
            witness = _vanishing_against(t, t.arity - 1, None, target)
            conclusion_ok = witness is None

    return ProbeReport(
        which,
        hypothesis,
        conclusion,
        hyp_ok,
        tuple(notes),
        conclusion_ok,
        witness,
        flags,
        seed,
    )


# ---------------------------------------------------------------------------
# the derived-modulo-center pipeline


class PipelineReport(Record):
    """A theorem1_pipeline run: the axiom Verdicts and the dimensions by
    name, SimplicityVerdicts, and the notes and flags as tuples of strings."""

    __slots__ = (
        "axioms",
        "poisson_simple",
        "dims",
        "quotient_jacobi",
        "quotient_simple",
        "hypotheses_met",
        "conclusion_holds",
        "flags",
        "notes",
        "seed",
    )


def theorem1_pipeline(
    alg: NLiePoissonAlgebra, *, seed: int = 0, max_enum: int | None = None
) -> PipelineReport:
    """Full run: axiom checks, Poisson simplicity, derived subspace and
    center, then the quotient of the derived subalgebra by its central part
    with a fresh Jacobi check and simplicity verdict.

    The characteristic-0 hypothesis is reported as a flag, never silently
    assumed; a nonzero characteristic does not stop the computation.
    """
    if not isinstance(alg, NLiePoissonAlgebra):
        raise ValueError("the pipeline needs a product and unit alongside the bracket")
    t = alg.bracket
    field = t.field
    axioms = {
        "associative_commutative_unital": check_assoc_comm_unital(alg.product, alg.unit),
        "generalized_jacobi": check_generalized_jacobi(t),
        "leibniz": check_leibniz(alg),
    }
    poisson_simple = is_simple(alg, seed=seed, max_enum=max_enum)
    derived = derived_subspace(t)
    Z = center(t)
    inter = derived.intersect(Z)
    dims = {
        "algebra": t.dim,
        "derived": derived.dim,
        "center": Z.dim,
        "intersection": inter.dim,
        "quotient": derived.dim - inter.dim,
    }
    assert dims["intersection"] <= min(dims["derived"], dims["center"])
    notes = [name for name, v in axioms.items() if not v.ok]
    notes = [f"axiom failed: {name}" for name in notes]
    if poisson_simple.status != "simple":
        notes.append(f"poisson simplicity: {poisson_simple.status}")
    if dims["quotient"] == 0:
        quotient_jacobi = Verdict(True, None, 0)
        quotient_simple = SimplicityVerdict(
            "not_simple",
            IdealKind.NLIE,
            None,
            None,
            "the quotient is zero-dimensional",
            seed,
        )
        notes.append("the derived subalgebra is central; the quotient collapses")
    else:
        sub = subalgebra_on(t, derived)
        inter_rows = [derived.coordinates_of(row) for row in inter.rows]
        inter_sub = span(field, derived.dim, inter_rows)
        quotient, _ = quotient_algebra(sub, inter_sub)
        quotient_jacobi = check_generalized_jacobi(quotient.bracket)
        quotient_simple = is_simple(quotient, seed=seed, max_enum=max_enum)
    hypotheses_met = all(v.ok for v in axioms.values()) and poisson_simple.status == "simple"
    conclusion_holds = quotient_simple.status == "simple"
    return PipelineReport(
        axioms,
        poisson_simple,
        dims,
        quotient_jacobi,
        quotient_simple,
        hypotheses_met,
        conclusion_holds,
        _char_flags(field),
        tuple(notes),
        seed,
    )
