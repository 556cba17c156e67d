"""The four workloads as lists of tasks.

A task is one public nlie call (or, in cli-session, one `python -m nlie`
process).  Building the tasks is the workload's set-up: it runs the
constructions, applies the seeded basis changes, and writes each algebra to
a file that every pass loads (inputs over F_(2^61-1) are rebuilt in memory
instead), so nlie receives only generated inputs.
Each task carries a check that runs after the timed phase and compares the
answer with `expected.json` and with the independent evaluator in
`oracle.py`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import oracle
import seeded
from seeded import M61

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = ("axioms", "certify", "symbolic", "cli-session")
# Passes per run at the least (see worker.py); each in-process task is
# reported at its best sample.  On a shared host the CPU speed swings by up
# to 40% within seconds; the best of 20 or more samples spread over a run
# reads the fast speed steadily, the best of ten does not.  A cli-session
# pass is 24 processes, about 7 s, and reports each task at its median.
MIN_PASSES = {"axioms": 20, "certify": 20, "symbolic": 20, "cli-session": 4}
# The basis of the cross (+) cross simplicity searches (see _build_cross_sum).
SEARCH_BASIS_SEED = 20260816


@dataclass
class Task:
    name: str
    inputs: tuple[str, ...]  # algebras the call takes, loaded fresh for each pass
    call: Callable[[dict, dict], object]  # (inputs, earlier results by task name)
    check: Callable[[object], "str | None"]  # None when the answer is right


class Corpus:
    """Set-up state shared by the builders of one workload.

    `makers` builds a fresh copy of each input algebra: every pass gets new
    objects, loaded from their files, so nothing nlie might keep on an
    algebra object carries over from one pass to the next.
    """

    def __init__(self, nlie, workdir: Path, seed: int, tiny: bool):
        self.nlie = nlie
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.tasks: list[Task] = []
        self.makers: dict[str, Callable[[], object]] = {}

    def add(self, name: str, inputs: tuple[str, ...], call, check) -> None:
        self.tasks.append(Task(name, inputs, call, check))

    def fresh(self, names) -> dict:
        return {n: self.makers[n]() for n in names}

    def store(self, name: str, alg) -> oracle.RawAlgebra:
        """Write an algebra file that each pass loads; returns the raw
        tables as parsed by the benchmark itself."""
        path = str(self.workdir / f"{name}.json")
        text = self.nlie.dumps(alg)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.makers[name] = lambda: self.nlie.load_path(path).algebra()
        self.makers[name]()  # the loader validates the generated input once in set-up
        return raw_from_document(json.loads(text))

    def keep(self, name: str, spec: tuple) -> oracle.RawAlgebra:
        """An input built in memory from integer tables on each pass."""
        self.makers[name] = lambda: self.algebra(*spec)
        self.makers[name]()
        return oracle.RawAlgebra(*spec[:3], spec[3], *spec[4:])

    def field(self, p: int | None):
        if p is None:
            return self.nlie.QQ
        if p == M61:
            # PrimeField(2^61-1) proves primality by trial division up to
            # 1.5e9 (minutes), so this field object skips that check.
            f = object.__new__(self.nlie.PrimeField)
            f.__dict__.update(p=p, characteristic=p, zero=0, one=1)
            return f
        return self.nlie.PrimeField(p)

    def algebra(self, dim, arity, p, table, product=None, unit=None):
        """nlie algebra from integer tables (reduced mod p, or Fractions)."""
        nl, f = self.nlie, self.field(p)
        conv = (lambda c: c % p) if p else Fraction
        bracket = nl.SkewBracketTensor(
            dim, arity, f, {k: tuple(conv(c) for c in v) for k, v in table.items()})
        if product is None:
            return nl.NLieAlgebra(bracket)
        prod = nl.SymProductTensor(
            dim, f, {k: tuple(conv(c) for c in v) for k, v in product.items()})
        return nl.NLiePoissonAlgebra(prod, tuple(conv(c) for c in unit), bracket)

    def dense_copy(self, raw: oracle.RawAlgebra):
        """The same algebra in a seeded basis: invertible over F_p,
        unimodular over Q.  Returns integer tables for `algebra`."""
        mat, inv = seeded.unitriangular_pair(raw.dim, self.rng, raw.p)
        table = seeded.change_basis(_ints(raw.bracket), raw.dim, raw.arity, mat, inv, raw.p)
        if raw.product is None:
            return (raw.dim, raw.arity, raw.p, table)
        product = seeded.change_basis(_ints(raw.product), raw.dim, 2, mat, inv, raw.p,
                                      symmetric=True)
        unit = seeded.transform_vector(inv, [int(c) for c in raw.unit], raw.p)
        return (raw.dim, raw.arity, raw.p, table, product, unit)


def _ints(table: dict) -> dict:
    out = {}
    for k, v in table.items():
        if any(isinstance(c, Fraction) and c.denominator != 1 for c in v):
            raise ValueError("basis changes here need integral structure constants")
        out[k] = tuple(int(c) for c in v)
    return out


def raw_from_document(doc: dict) -> oracle.RawAlgebra:
    """Parse an algebra file without nlie's loader."""
    p = None if doc["field"] == "Q" else doc["field"]["Fp"]
    dim = doc["dimension"]

    def vec(value):
        out = [0] * dim
        for k, c in value.items():
            out[int(k)] = Fraction(c) if p is None else int(c)
        return out

    bracket = {tuple(e["args"]): vec(e["value"]) for e in doc["bracket"]}
    product = unit = None
    if "product" in doc:
        product = {(e["i"], e["j"]): vec(e["value"]) for e in doc["product"]}
        unit = [Fraction(c) if p is None else int(c) for c in doc["unit"]]
    return oracle.RawAlgebra(dim, doc["arity"], p, bracket, product, unit)


def cross_table(n: int) -> dict:
    """Vector product on F^(n+1): the key omitting m maps to (-1)^(n+m) e_m."""
    d = n + 1
    return {
        tuple(i for i in range(d) if i != m): tuple(
            ((-1) ** (n + m) if j == m else 0) for j in range(d))
        for m in range(d)
    }


def _first_failure_ok(raw, verdict) -> str | None:
    if verdict.witness is None:
        return "failing verdict without a witness"
    return oracle.replay_identity_witness(raw, verdict.witness)


def _expect(value, want, what: str) -> str | None:
    return None if value == want else f"{what}: got {value!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# axioms: identity checkers


def _instance_count(check: str, d: int, n: int) -> int:
    return {
        "jacobi": comb(d, n) * comb(d, n - 1),
        "leibniz": d * d * comb(d, n - 1),
        "shift": d ** 3 * comb(d, n - 2) if n >= 2 else 0,
        "assoc": d ** 3,
    }[check]


def _checker_call(nl, check: str, name: str):
    if check == "jacobi":
        return lambda a, r: nl.check_generalized_jacobi(a[name].bracket)
    if check == "leibniz":
        return lambda a, r: nl.check_leibniz(a[name])
    if check == "shift":
        return lambda a, r: nl.check_poisson_identity(a[name])
    return lambda a, r: nl.check_assoc_comm_unital(a[name].product, a[name].unit)


def _add_checks(c: Corpus, label: str, base: str, name: str, raw, checks) -> None:
    expected = EXPECTED["axioms"]["verdicts"][base]
    for check in checks:
        want = expected[check]

        def verify(v, raw=raw, want=want, check=check):
            bad = _expect(v.ok, want, "verdict") or _expect(
                v.instances, _instance_count(check, raw.dim, raw.arity), "instances")
            if bad or v.ok:
                return bad
            return _first_failure_ok(raw, v)

        c.add(f"{label}/{check}", (name,), _checker_call(c.nlie, check, name), verify)


def build_axioms(c: Corpus) -> None:
    nl = c.nlie
    four = ("jacobi", "leibniz", "shift", "assoc")
    for n in (2, 3) if c.tiny else (2, 3, 4, 5):
        raw = c.store(f"cross{n}", nl.vector_product_algebra(n))
        _add_checks(c, f"cross{n}.Q", "cross", f"cross{n}", raw, ("jacobi",))
        if n <= 4:
            raw = c.store(f"cross{n}.dense", c.algebra(*c.dense_copy(raw)))
            _add_checks(c, f"cross{n}.Q.dense", "cross", f"cross{n}.dense", raw, ("jacobi",))
        table = {k: tuple(x % M61 for x in v) for k, v in cross_table(n).items()}
        raw = c.keep(f"cross{n}.M61", (n + 1, n, M61, table))
        _add_checks(c, f"cross{n}.M61", "cross", f"cross{n}.M61", raw, ("jacobi",))
        if n == 3:
            raw = c.keep("cross3.M61.dense", c.dense_copy(raw))
            _add_checks(c, "cross3.M61.dense", "cross", "cross3.M61.dense", raw, ("jacobi",))

    for nvars, p in [(2, 3), (3, 2)] if c.tiny else [(2, 3), (2, 5), (3, 2)]:
        carrier = nl.truncated_polynomial_algebra(nvars, p)
        name = f"jac{nvars}{p}"
        raw = c.store(name, nl.jacobian_from_derivations(carrier.derivations))
        # associativity is a pure-Python loop over d^3 products (0.1 s sparse
        # and 3.5 s dense at d = 25), so c5 skips it and only c3 gets a
        # dense copy: every call stays short enough to sample often
        _add_checks(c, name, "jacobian-trunc", name, raw, four if raw.dim <= 9 else four[:3])
        if (nvars, p) == (2, 3):
            raw_d = c.store(f"{name}.dense", c.algebra(*c.dense_copy(raw)))
            _add_checks(c, f"{name}.dense", "jacobian-trunc", f"{name}.dense", raw_d, four)
        if (nvars, p) == (2, 5):
            key, m, coeff = seeded.perturbation(c.rng, raw.dim, p)
            table = _ints(raw.bracket)
            table[key] = tuple(coeff if j == m else 0 for j in range(raw.dim))
            spec = (raw.dim, raw.arity, p, table, _ints(raw.product), raw.unit)
            raw = c.store("jac25.perturbed", c.algebra(*spec))
            _add_checks(c, "jac25.perturbed", "perturbed", "jac25.perturbed", raw,
                        ("leibniz", "shift"))

    for n in (2,) if c.tiny else (2, 3):
        carrier = nl.truncated_polynomial_algebra(n - 1, 3)
        w = nl.w_from_derivations(carrier.derivations, n)
        raw = c.store(f"w{n}3", nl.NLiePoissonAlgebra(carrier.product, carrier.unit, w.bracket))
        _add_checks(c, f"w{n}3", f"w{n}3", f"w{n}3", raw,
                    ("jacobi", "leibniz") if n == 2 else four)


# ---------------------------------------------------------------------------
# certify: simplicity and structure


def _simple_check(raw, want: dict):
    def verify(v):
        bad = _expect(v.status, want["status"], "status")
        if bad:
            return bad
        cert = v.certificate or {}
        method = cert.get("method")
        if "method" in want and method != want["method"]:
            return f"method: got {method!r}, expected {want['method']!r}"
        if "points" in want and cert.get("points") != want["points"]:
            return f"points: got {cert.get('points')!r}, expected {want['points']!r}"
        if v.status == "not_simple":
            return _proper_invariant(raw, v.witness)
        return None

    return verify


def _proper_invariant(raw, subspace) -> str | None:
    if subspace is None:
        # a zero bracket on a line is not simple by convention, with no
        # proper nonzero subspace to show
        ok = raw.dim <= 1 and not raw.bracket
        return None if ok else "not-simple verdict without a witness subspace"
    rows = [tuple(r) for r in subspace.rows]
    if not 0 < len(rows) < raw.dim:
        return f"witness subspace has dimension {len(rows)}"
    if oracle.closure_dim(raw, rows) != len(rows):
        return "witness subspace is not invariant"
    return None


def build_certify(c: Corpus) -> None:
    nl = c.nlie
    exp = EXPECTED["certify"]
    raws = {}
    trunc = [(3, 2)] if c.tiny else [(2, 5), (3, 2)]
    for nvars, p in trunc:
        carrier = nl.truncated_polynomial_algebra(nvars, p)
        name = f"c{nvars}{p}"
        raws[name] = c.store(name, nl.jacobian_from_derivations(carrier.derivations))
    for n in (2,) if c.tiny else (2, 3):
        raws[f"cross{n}"] = c.store(f"cross{n}", nl.vector_product_algebra(n))

    # Simplicity, the pipeline and the probes run on c32, (3,2) over F_2
    # (255 projective points), not on c3 (9841 points, 3 to 4 s a call): a
    # call that long cannot be sampled often enough in a run to be steady.
    for name in ["cross2", "c32"] if c.tiny else ["cross2", "cross3", "c32"]:
        c.add(f"is_simple/{name}", (name,), lambda a, r, name=name: nl.is_simple(a[name]),
              _simple_check(raws[name], exp["simple"][name]))
        if name != "c32":  # replaying c32 would repeat its 255-point closure
            c.add(f"verify/{name}", (name,),
                  lambda a, r, name=name: nl.verify_simplicity_certificate(
                      a[name], r[f"is_simple/{name}"]),
                  lambda ok: _expect(ok, True, "replay"))
    c.add("theorem1/c32", ("c32",), lambda a, r: nl.theorem1_pipeline(a["c32"]),
          _pipeline_check(exp["theorem1"]["c32"]))
    # L5 recomputes simplicity like every probe; L1 would repeat that cost
    c.add("probe/L5/c32", ("c32",), lambda a, r: nl.probe_lemma(a["c32"], "L5"),
          _probe_check(raws["c32"], exp["probe"]["L5"]))

    if not c.tiny:
        raws["cross5"] = c.store("cross5", nl.vector_product_algebra(5))
    for name in ["c32"] if c.tiny else ["c25", "cross5"]:
        raw, want = raws[name], exp["structure"][name]
        c.add(f"center/{name}", (name,), lambda a, r, name=name: nl.center(a[name]),
              lambda z, raw=raw, want=want: _center_check(raw, z, want["center"]))
        c.add(f"derived_series/{name}", (name,),
              lambda a, r, name=name: nl.derived_series(a[name]),
              lambda s, want=want: _expect([x.dim for x in s], want["derived_series"],
                                           "derived series dims"))
        if "nilradical" in want:
            c.add(f"nilradical/{name}", (name,),
                  lambda a, r, name=name: nl.nilradical(a[name].product, a[name].unit),
                  lambda z, raw=raw, want=want: _nilradical_check(raw, z, want["nilradical"]))

    _build_c3_corpus(c)
    _build_cross_sum(c)


def _pipeline_check(want: dict):
    def verify(r):
        dims = [r.dims[k] for k in ("algebra", "derived", "center", "intersection", "quotient")]
        return (
            _expect(dims, want["dims"], "pipeline dims")
            or _expect(r.quotient_jacobi.ok, True, "quotient Jacobi")
            or _expect(r.quotient_simple.status, "simple", "quotient simplicity")
            or _expect(r.hypotheses_met, True, "hypotheses met")
            or _expect(r.conclusion_holds, True, "conclusion holds")
        )

    return verify


def _probe_check(raw, want: dict):
    def verify(r):
        bad = (
            _expect(r.conclusion_holds, want["conclusion_holds"], "conclusion")
            or _expect(r.hypotheses_hold, want["hypotheses_hold"], "hypotheses")
            or _expect(r.witness.kind if r.witness else None, want["witness"], "witness kind")
            or _expect(any(f"characteristic {raw.p}" in f for f in r.flags), True, "char flag")
        )
        if bad:
            return bad
        data = r.witness.data
        if r.witness.kind == "nilpotent_element":
            return oracle.replay_nilpotent_element(raw, data["vector"], data["power"])
        return oracle.replay_nilpotent_ad(raw, data["args"], data["power"])

    return verify


def _center_check(raw, z, want_dim: int) -> str | None:
    bad = _expect(z.dim, want_dim, "center dim") or _expect(
        oracle.center_dim(raw), want_dim, "center dim (evaluator)")
    if bad:
        return bad
    for row in z.rows:
        for m in raw.ad_operators():
            if any(oracle.matvec(m, row, raw.p)):
                return "a center basis vector has a nonzero bracket"
    return None


def _nilradical_check(raw, z, want_dim: int) -> str | None:
    bad = _expect(z.dim, want_dim, "nilradical dim")
    if bad:
        return bad
    if any(any(oracle.power(raw, row, raw.dim)) for row in z.rows):
        return "a nilradical basis vector is not nilpotent"
    return None


def _c3_tensors(c: Corpus):
    """The 22 bracket tensors over F_2 and F_3 of acceptance criterion C3."""
    nl = c.nlie
    out = []
    for n, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
        out.append((p, n + 1, n, {k: tuple(x % p for x in v) for k, v in cross_table(n).items()}))
    carrier = nl.truncated_polynomial_algebra(2, 2)
    poisson22 = nl.jacobian_from_derivations(carrier.derivations)
    out.append((2, 4, 2, poisson22.bracket.table))
    quotient, _ = nl.quotient_algebra(nl.NLieAlgebra(poisson22.bracket), nl.center(poisson22))
    out.append((2, quotient.dim, 2, quotient.bracket.table))
    out += [(2, 1, 2, {}), (2, 3, 2, {}), (3, 4, 3, {})]
    padded = {k: tuple(x % 3 for x in v) + (0,) for k, v in cross_table(2).items()}
    out.append((3, 4, 2, padded))
    rng = random.Random(20260815)
    for p, d, arity in [(2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 2, 2), (3, 3, 2),
                        (3, 4, 2), (3, 3, 3), (3, 4, 3), (2, 3, 3), (3, 4, 4), (2, 4, 4)]:
        table = {}
        for args in itertools.combinations(range(d), arity):
            vec = tuple(rng.randrange(p) for _ in range(d))
            if any(vec):
                table[args] = vec
        out.append((p, d, arity, table))
    return out


def _build_c3_corpus(c: Corpus) -> None:
    nl = c.nlie
    tensors = _c3_tensors(c)
    for k, (p, d, arity, table) in enumerate(tensors[:4] if c.tiny else tensors):
        tag = f"c3corpus{k}"
        raw = c.store(tag, c.algebra(d, arity, p, table))
        c.add(f"brute_force_ideals/{tag}", (tag,),
              lambda a, r, tag=tag: nl.brute_force_ideals(a[tag]),
              lambda ideals, raw=raw: _expect(
                  {_rref(s.rows) for s in ideals}, _invariant_subspaces(raw),
                  "invariant subspaces"))
        for j in range(3):
            v = tuple(c.rng.randrange(p) for _ in range(d))
            if not any(v):
                v = (1,) + v[1:]
            c.add(f"ideal_closure/{tag}/{j}", (tag,),
                  lambda a, r, tag=tag, v=v: nl.ideal_closure(a[tag], [v]),
                  lambda s, raw=raw, v=v: _expect(_rref(s.rows), _rref_closure(raw, v),
                                                  "closure"))
        c.add(f"center/{tag}", (tag,), lambda a, r, tag=tag: nl.center(a[tag]),
              lambda z, raw=raw: _center_check(raw, z, oracle.center_dim(raw)))
        c.add(f"is_simple/{tag}", (tag,), lambda a, r, tag=tag: nl.is_simple(a[tag]),
              lambda v, raw=raw: _simple_check(raw, {"status": _lattice_status(raw)})(v))


def _rref(rows) -> tuple:
    return tuple(tuple(int(x) for x in r) for r in rows)


def _lattice_status(raw) -> str:
    simple = bool(raw.bracket) and all(len(s) in (0, raw.dim) for s in _invariant_subspaces(raw))
    return "simple" if simple else "not_simple"


@functools.cache
def _rref_closure(raw, v) -> tuple:
    ech = oracle.Echelon(raw.p)
    ech.add(v)
    queue = [v]
    ops = raw.ad_operators()
    while queue:
        w = queue.pop()
        for m in ops:
            r = ech.add(oracle.matvec(m, w, raw.p))
            if r is not None:
                queue.append(r)
    return _rref(ech.rows[j] for j in sorted(ech.rows))


@functools.cache
def _invariant_subspaces(raw) -> frozenset:
    """Every invariant subspace is a sum of cyclic ones, so close the set
    of closures of single vectors under sums."""
    principal = {
        _rref_closure(raw, v)
        for v in itertools.product(range(raw.p), repeat=raw.dim) if any(v)
    }
    found = {()}
    frontier = [()]
    while frontier:
        s = frontier.pop()
        for q in principal:
            ech = oracle.Echelon(raw.p)
            for r in s + q:
                ech.add(r)
            t = _rref(ech.rows[j] for j in sorted(ech.rows))
            if t not in found:
                found.add(t)
                frontier.append(t)
    return frozenset(found)


def _build_cross_sum(c: Corpus) -> None:
    """cross (+) cross in a changed basis: the first summand is a 3-dim
    ideal, so the algebra is not simple.

    The closures run in a seeded basis.  is_simple stops at the first
    projective point or kernel seed that lies in a proper ideal, so its cost
    is that point's place in the search, which the basis decides: over ten
    seeds it took 0.5 to 10 ms at p = 3 and 0.9 to 16 ms at p = 101.  It
    runs in one fixed basis, so that a new seed does not redraw its cost.
    """
    nl = c.nlie
    block = cross_table(2)
    table = {k: v + (0, 0, 0) for k, v in block.items()}
    table.update({tuple(i + 3 for i in k): (0, 0, 0) + v for k, v in block.items()})
    want = EXPECTED["certify"]["cross_sum"]
    fixed = random.Random(SEARCH_BASIS_SEED)
    for p in (3, 101) if c.tiny else (3, 101, 3037000493, M61):
        reduced = {k: tuple(x % p for x in v) for k, v in table.items()}
        mat, inv = seeded.unitriangular_pair(6, c.rng, p)
        moved = seeded.change_basis(reduced, 6, 2, mat, inv, p)
        v = seeded.transform_vector(inv, (c.rng.randrange(1, p), c.rng.randrange(p),
                                          c.rng.randrange(p), 0, 0, 0), p)
        tag = "p" + ("M61" if p == M61 else str(p))
        raw = c.keep(f"cross_sum.{tag}", (6, 2, p, moved))
        c.add(f"cross_sum/{tag}/ideal_closure", (f"cross_sum.{tag}",),
              lambda a, r, tag=tag, v=v: nl.ideal_closure(a[f"cross_sum.{tag}"], [v]),
              lambda s, raw=raw, v=v: _expect(s.dim, want["closure_dim"], "closure dim")
              or _expect(oracle.closure_dim(raw, [v]), want["closure_dim"],
                         "closure dim (evaluator)"))
        mat, inv = seeded.unitriangular_pair(6, fixed, p)
        search = f"cross_sum.{tag}.fixed"
        raw = c.keep(search, (6, 2, p, seeded.change_basis(reduced, 6, 2, mat, inv, p)))
        c.add(f"cross_sum/{tag}/is_simple", (search,),
              lambda a, r, search=search: nl.is_simple(a[search]),
              _simple_check(raw, {"status": want["status"]}))


# ---------------------------------------------------------------------------
# symbolic: the sparse polynomial layer


def build_symbolic(c: Corpus) -> None:
    nl = c.nlie
    exp = EXPECTED["symbolic"]
    cases = exp["verify"][:2] if c.tiny else exp["verify"]
    for case in cases:
        identity, bracket, arity, degree, ok = (case[k] for k in (
            "identity", "bracket", "arity", "degree", "ok"))
        c.add(f"verify/{bracket}/{identity}/n{arity}/d{degree}", (),
              lambda a, r, args=(identity, bracket, arity, degree):
              nl.verify_identity_truncated(*args),
              lambda v, ok=ok, bracket=bracket, identity=identity, arity=arity:
              _expect(v.ok, ok, "verdict")
              or (None if v.ok else _poly_witness_check(v.witness, bracket, identity, arity)))
    c.add("truncated_center/jac/n2/d4", (), lambda a, r: nl.truncated_center("jac", 2, 4),
          lambda z: _expect([list(e) for e in z.member_monomials()], exp["center_members"],
                            "center members") or _expect(z.dim, 1, "center dim"))
    c.add("truncated_derived_span/jac/n2/d4", (),
          lambda a, r: nl.truncated_derived_span("jac", 2, 4),
          lambda s: _expect(s.is_full(), True, "derived span full"))

    names = ("x", "y")
    count = 4 if c.tiny else 16
    texts = [seeded.random_poly_text(c.rng, names) for _ in range(count)]
    for i, text in enumerate(texts):
        c.add(f"parse_poly/{i}", (), lambda a, r, text=text: nl.parse_poly(text, names),
              lambda poly, text=text: _expect(_terms(poly), oracle.sympy_poly_dict(text, names),
                                              "parsed polynomial"))
    for i in range(count // 2):
        pair = (texts[2 * i], texts[2 * i + 1])
        c.add(f"jac_bracket/{i}", (),
              lambda a, r, i=i: nl.jac_bracket([r[f"parse_poly/{2 * i}"],
                                                r[f"parse_poly/{2 * i + 1}"]]),
              lambda poly, pair=pair: _expect(
                  _terms(poly), oracle.sympy_bracket_dict(pair, names, "jac"), "jac bracket"))
    for i in range(count // 3 + 1):
        idx = [(i + k) % count for k in range(3)]
        triple = tuple(texts[k] for k in idx)
        c.add(f"w_bracket/{i}", (),
              lambda a, r, idx=idx: nl.w_bracket([r[f"parse_poly/{k}"] for k in idx]),
              lambda poly, triple=triple: _expect(
                  _terms(poly), oracle.sympy_bracket_dict(triple, names, "w"), "w bracket"))


def _terms(poly) -> dict:
    return {tuple(e): Fraction(v) for e, v in poly.terms.items()}


def _poly_witness_check(witness, bracket: str, identity: str, arity: int) -> str | None:
    """Recompute both sides of a truncated-identity witness with sympy."""
    if identity != "leibniz":
        return f"no replay for a {identity} witness"
    a, b, *us = witness.data["args"]
    nvars = arity if bracket == "jac" else arity - 1
    prod = tuple(x + y for x, y in zip(a, b))
    lhs = oracle.sympy_monomial_bracket(bracket, arity, [prod, *us])
    rb = oracle.sympy_monomial_bracket(bracket, arity, [b, *us])
    ra = oracle.sympy_monomial_bracket(bracket, arity, [a, *us])
    rhs: dict = {}
    for term, mono in ((rb, a), (ra, b)):
        for e, coef in term.items():
            key = tuple(x + y for x, y in zip(e, mono))
            rhs[key] = rhs.get(key, 0) + coef
    rhs = {k: v for k, v in rhs.items() if v}
    names = ("x", "y", "z")[:nvars]
    if (lhs, rhs) != (oracle.sympy_poly_dict(witness.data["lhs"], names),
                      oracle.sympy_poly_dict(witness.data["rhs"], names)):
        return "polynomial witness sides do not replay"
    return "polynomial witness is not a failure" if lhs == rhs else None


# ---------------------------------------------------------------------------
# cli-session: short `python -m nlie` processes


class CliRunner:
    """Runs one nlie process per task.  Traced sessions go through
    clishim.py, which times cli.main inside the process."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.spans_dir: Path | None = None
        self.walls: list[float] = []
        self.spawned = 0

    def run(self, args: list[str]):
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "nlie", *args]
        else:
            self.spawned += 1
            argv = [sys.executable, str(HERE / "clishim.py"),
                    str(self.spans_dir / f"{self.spawned}.json"), *args]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=self.root,
                              env=self.env, timeout=120, check=False)
        self.walls.append(time.perf_counter() - start)
        return proc.returncode, proc.stdout, proc.stderr


def build_cli_session(c: Corpus, runner: CliRunner) -> None:
    nl = c.nlie
    files = {}
    raws = {}

    def put(name, alg):
        path = c.workdir / f"{name}.json"
        text = nl.dumps(alg)
        path.write_text(text)
        files[name] = str(path)
        raws[name] = raw_from_document(json.loads(text))

    put("cross", nl.vector_product_algebra(2))
    put("cross4", nl.vector_product_algebra(4))
    carrier = nl.truncated_polynomial_algebra(2, 3)
    put("c3", nl.jacobian_from_derivations(carrier.derivations))
    w = nl.w_from_derivations(nl.truncated_polynomial_algebra(1, 3).derivations, 2)
    small = nl.truncated_polynomial_algebra(1, 3)
    put("w23", nl.NLiePoissonAlgebra(small.product, small.unit, w.bracket))
    put("c3dense", c.algebra(*c.dense_copy(raws["c3"])))
    bad = json.loads((c.workdir / "cross.json").read_text())
    bad["bracket"][1]["args"] = list(reversed(bad["bracket"][1]["args"]))
    (c.workdir / "bad.json").write_text(json.dumps(bad))
    files["bad"] = str(c.workdir / "bad.json")

    session = EXPECTED["cli-session"]
    texts = [seeded.random_poly_text(c.rng, ("x", "y"), terms=2) for _ in range(12)]
    for k, entry in enumerate(session[:4] if c.tiny else session):
        argv = [files.get(a[1:], a) if a.startswith("@") else a for a in entry["argv"]]
        poly_args = None
        if "poly_args" in entry:
            start = entry["poly_args"] * entry["arity"] % len(texts)
            poly_args = [texts[(start + i) % len(texts)] for i in range(entry["arity"])]
            argv += ["--args", "; ".join(poly_args)]
        argv += ["--format", "json"]
        name = f"{k:02d}/" + " ".join(a for a in entry["argv"])
        c.add(name, (), lambda a, r, argv=argv: runner.run(argv),
              lambda out, entry=entry, poly_args=poly_args: _cli_check(
                  out, entry, raws, poly_args))


def _cli_check(out, entry: dict, raws: dict, poly_args) -> str | None:
    code, stdout, stderr = out
    bad = _expect(code, entry["exit"], "exit code")
    if bad:
        return bad + (f" ({stderr.strip()[:200]})" if stderr else "")
    if code == 2:
        return None if entry["stderr_has"] in stderr else f"message lacks {entry['stderr_has']!r}"
    report = json.loads(stdout)
    results = report["results"]
    for path, want in entry.get("fields", {}).items():
        value = results
        for part in path.split("."):
            value = value[int(part)] if isinstance(value, list) else value[part]
        if value != want:
            return f"{path}: got {value!r}, expected {want!r}"
    if "witness_of" in entry:
        raw = raws[entry["witness_of"]]
        for check in results["checks"].values():
            if not check["ok"]:
                w = check["witness"]
                return oracle.replay_identity_witness(
                    raw, _Witness(w["kind"], _coerce(w["data"])))
    if poly_args is not None:
        want = oracle.sympy_bracket_dict(tuple(poly_args), ("x", "y"), entry["bracket"])
        return _expect(oracle.sympy_poly_dict(results["value"], ("x", "y")), want,
                       "bracket value")
    if "cross_table" in entry:
        n = entry["cross_table"]
        want = oracle.RawAlgebra(n + 1, n, None, cross_table(n)).bracket
        return _expect(raw_from_document(results["algebra"]).bracket, want, "generated table")
    return None


@dataclass(frozen=True)
class _Witness:
    kind: str
    data: dict


def _coerce(data: dict) -> dict:
    def conv(x):
        if isinstance(x, list):
            return tuple(conv(y) for y in x)
        if isinstance(x, str):
            return Fraction(x)
        return x

    return {k: conv(v) for k, v in data.items()}


def build(workload: str, nlie, workdir: Path, seed: int, tiny: bool, runner=None) -> Corpus:
    c = Corpus(nlie, workdir, seed, tiny)
    if workload == "axioms":
        build_axioms(c)
    elif workload == "certify":
        build_certify(c)
    elif workload == "symbolic":
        build_symbolic(c)
    elif workload == "cli-session":
        build_cli_session(c, runner)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    names = [t.name for t in c.tasks]
    if len(set(names)) != len(names):
        raise AssertionError("task names must be unique")
    return c
