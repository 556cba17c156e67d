"""Command line interface.

Subcommands: check, generate, analyze, simple, theorem1, lemmas, poly.
Every command emits either readable text (default) or a JSON report with
sorted keys; reports carry the command, the input file digest when there is
one, the options that affect the result, and the results themselves.
Wall-clock timing is printed in text mode only, so JSON reports are
byte-identical across reruns with the same inputs and seed.

Exit codes: 0 = computed (including not-simple/unknown verdicts),
1 = a requested check failed, 2 = malformed input or an exceeded guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from enum import Enum
from fractions import Fraction
from collections.abc import Sequence

from .algebra import (
    IDENTITIES,
    PROBE_IDS,
    NLieAlgebra,
    NLiePoissonAlgebra,
    Record,
    SkewBracketTensor,
    check_assoc_comm_unital,
    check_generalized_jacobi,
    check_leibniz,
    check_poisson_identity,
)
from .fields import PrimeField, QQ
from .guards import GuardExceeded
from .linalg import SubspaceBasis, span


def _render(x):
    """Recursive conversion to JSON-serializable data.  Fractions become
    "a/b" strings; prime-field residues stay integers."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, SubspaceBasis):
        return {"dim": x.dim, "basis": [_render(row) for row in x.rows]}
    if isinstance(x, Record):
        return {name: _render(getattr(x, name)) for name in x.__slots__}
    if isinstance(x, dict):
        return {str(k): _render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_render(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)


def _sha256(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(command: str, options: dict, results: dict, path: str | None = None) -> dict:
    report = {"command": command, "options": _render(options), "results": _render(results)}
    if path is not None:
        report["input"] = {"path": path, "sha256": _sha256(path)}
    return report


def _compact(x) -> str:
    return json.dumps(_render(x), sort_keys=True)


# ---------------------------------------------------------------------------
# handlers; each returns (exit_code, report, text_lines), and each imports
# the layers it runs that not every command needs


def _axioms(loaded, poisson: bool) -> dict:
    """Jacobi, then, with the product, its axioms, Leibniz and shift."""
    axioms = {"generalized_jacobi": check_generalized_jacobi(loaded.bracket)}
    if poisson:
        alg = loaded.as_poisson()
        axioms["associative_commutative_unital"] = check_assoc_comm_unital(
            alg.product, alg.unit
        )
        axioms["leibniz"] = check_leibniz(alg)
        axioms["shift"] = check_poisson_identity(alg)
    return axioms


def _cmd_check(args):
    from . import algfile

    loaded = algfile.load_path(args.file)
    if args.poisson and not loaded.has_product:
        raise algfile.AlgebraFileError("--poisson requires a product and unit in the file")
    checks = _axioms(loaded, args.poisson)
    all_ok = all(v.ok for v in checks.values())
    results = {"checks": checks, "all_passed": all_ok}
    lines = []
    for name, v in checks.items():
        lines.append(f"{name}: {'pass' if v.ok else 'FAIL'} ({v.instances} instances)")
        if not v.ok:
            lines.append(f"  witness: {_compact(v.witness)}")
    lines.append("all checks passed" if all_ok else "some checks FAILED")
    return (0 if all_ok else 1), _report("check", {"poisson": args.poisson}, results, args.file), lines


def _cmd_generate(args):
    from . import algfile
    from .constructions import (
        jacobian_from_derivations,
        truncated_polynomial_algebra,
        vector_product_algebra,
        w_from_derivations,
    )

    min_n = 1 if args.kind in ("jacobian-trunc", "zero") else 2
    if args.n < min_n:
        raise ValueError(f"generate {args.kind} needs --n >= {min_n}")
    if args.kind in ("jacobian-trunc", "w-trunc"):
        if args.p is None:
            raise ValueError(f"generate {args.kind} needs --p")
        try:
            PrimeField(args.p)
        except ValueError as exc:
            raise ValueError(f"generate {args.kind} --p: {exc}") from None
    if args.kind == "zero":
        if args.dim is None or args.dim < 1:
            raise ValueError("generate zero needs --dim >= 1")
        algfile.check_shape(args.dim, args.n)
    if args.kind == "vector-product":
        alg = vector_product_algebra(args.n)
    elif args.kind == "jacobian-trunc":
        carrier = truncated_polynomial_algebra(args.n, args.p)
        built = jacobian_from_derivations(carrier.derivations)
        alg = NLiePoissonAlgebra(built.product, built.unit, built.bracket, carrier.names)
    elif args.kind == "w-trunc":
        carrier = truncated_polynomial_algebra(args.n - 1, args.p)
        built = w_from_derivations(carrier.derivations, args.n)
        # The carrier product is included so the Leibniz failure of this
        # bracket can be demonstrated with `check --poisson`.
        alg = NLiePoissonAlgebra(carrier.product, carrier.unit, built.bracket, carrier.names)
    else:
        alg = NLieAlgebra(SkewBracketTensor(args.dim, args.n, QQ, {}))
    text = algfile.dumps(alg)
    doc = algfile.to_document(alg)
    options = {"kind": args.kind, "n": args.n}
    if args.kind in ("jacobian-trunc", "w-trunc"):
        options["p"] = args.p
    if args.kind == "zero":
        options["dim"] = args.dim
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        results = {"written": args.output, "algebra": doc}
        lines = [
            f"wrote {args.output}: dimension {alg.dim}, arity {alg.arity}, "
            f"{len(alg.bracket.entries)} bracket entries"
        ]
    else:
        results = {"algebra": doc}
        lines = [text.rstrip("\n")]
    return 0, _report("generate", options, results), lines


def _cmd_analyze(args):
    from . import algfile
    from .structure import center, derived_series, derived_subspace, nilradical

    loaded = algfile.load_path(args.file)
    t = loaded.bracket
    axioms = _axioms(loaded, loaded.has_product)
    series = derived_series(t)
    Z = center(t)
    results = {
        "field": algfile._field_descriptor(t.field),
        "dimension": t.dim,
        "arity": t.arity,
        "bracket_is_zero": t.is_zero(),
        "axioms": axioms,
        "derived_dim": derived_subspace(t).dim,
        "derived_series_dims": [s.dim for s in series],
        "center": Z,
    }
    if loaded.has_product:
        results["nilradical"] = nilradical(loaded.product, loaded.unit)
    lines = [
        f"field: {_compact(results['field'])}, dimension {t.dim}, arity {t.arity}",
    ]
    for name, v in axioms.items():
        lines.append(f"{name}: {'pass' if v.ok else 'FAIL'}")
    lines.append("derived series dims: " + " -> ".join(str(s.dim) for s in series))
    lines.append(f"center dim: {Z.dim}")
    if loaded.has_product:
        lines.append(f"nilradical dim: {results['nilradical'].dim}")
    return 0, _report("analyze", {}, results, args.file), lines


def _cmd_simple(args):
    from . import algfile
    from .structure import is_simple

    loaded = algfile.load_path(args.file)
    verdict = is_simple(
        loaded.algebra(),
        mod_p=args.mod_p,
        max_enum=args.max_enum,
        seed=args.seed,
    )
    options = {"mod_p": args.mod_p, "max_enum": args.max_enum, "seed": args.seed}
    lines = [f"status: {verdict.status} (kind: {verdict.kind.value})"]
    if verdict.certificate is not None:
        lines.append(f"certificate: {_compact(verdict.certificate)}")
    if verdict.witness is not None:
        lines.append(f"witness: proper invariant subspace of dim {verdict.witness.dim}")
        for row in verdict.witness.rows:
            lines.append(f"  {_compact(row)}")
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    return 0, _report("simple", options, {"verdict": verdict}, args.file), lines


def _cmd_theorem1(args):
    from . import algfile
    from .structure import theorem1_pipeline

    loaded = algfile.load_path(args.file)
    if not loaded.has_product:
        raise algfile.AlgebraFileError("the pipeline requires a product and unit in the file")
    report = theorem1_pipeline(loaded.as_poisson(), seed=args.seed)
    lines = []
    for name, v in report.axioms.items():
        lines.append(f"axiom {name}: {'pass' if v.ok else 'FAIL'}")
    lines.append(f"poisson simplicity: {report.poisson_simple.status}")
    dims = report.dims
    lines.append(
        "dims: algebra {algebra}, derived {derived}, center {center}, "
        "intersection {intersection}, quotient {quotient}".format(**dims)
    )
    lines.append(f"quotient jacobi: {'pass' if report.quotient_jacobi.ok else 'FAIL'}")
    lines.append(f"quotient simplicity: {report.quotient_simple.status}")
    lines.append(f"hypotheses met: {report.hypotheses_met}")
    lines.append(f"conclusion holds: {report.conclusion_holds}")
    for flag in report.flags:
        lines.append(f"flag: {flag}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return 0, _report("theorem1", {"seed": args.seed}, {"pipeline": report}, args.file), lines


def _parse_subspace(text: str, loaded) -> SubspaceBasis:
    from . import algfile

    field, dim = loaded.field, loaded.dimension
    vectors = []
    for chunk in text.split(";"):
        parts = [c.strip() for c in chunk.split(",")]
        if len(parts) != dim:
            raise algfile.AlgebraFileError(
                f"subspace vector {chunk!r} has {len(parts)} coordinates, expected {dim}"
            )
        vectors.append(
            tuple(algfile.parse_coefficient(field, c, "subspace") for c in parts)
        )
    return span(field, dim, vectors)


def _cmd_lemmas(args):
    from . import algfile
    from .structure import probe_lemma

    loaded = algfile.load_path(args.file)
    sub = _parse_subspace(args.subspace, loaded) if args.subspace else None
    report = probe_lemma(loaded.algebra(), args.lemma, sub, seed=args.seed)
    options = {"lemma": args.lemma, "subspace": args.subspace, "seed": args.seed}
    lines = [
        f"probe {report.probe}",
        f"hypothesis: {report.hypothesis}",
        f"  holds: {report.hypotheses_hold} ({'; '.join(report.hypothesis_notes)})",
        f"conclusion: {report.conclusion}",
        f"  holds: {report.conclusion_holds}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {_compact(report.witness)}")
    for flag in report.flags:
        lines.append(f"flag: {flag}")
    return 0, _report("lemmas", options, {"probe": report}, args.file), lines


def _cmd_poly(args):
    from .poly import (
        Poly,
        _bracket_fn,
        default_var_names,
        parse_poly,
        truncated_center,
        truncated_derived_span,
        verify_identity_truncated,
    )

    bracket_fn, nvars = _bracket_fn(args.bracket, args.n)
    if nvars < 1:
        raise ValueError(f"--n {args.n} leaves no variables for bracket {args.bracket!r}")
    names = default_var_names(nvars)
    if args.vars:
        names = tuple(v.strip() for v in args.vars.split(","))
        if len(names) != nvars or not all(names):
            raise ValueError(
                f"--vars must list exactly {nvars} nonempty names for "
                f"bracket {args.bracket!r} with --n {args.n}"
            )
    options: dict = {"action": args.action, "bracket": args.bracket, "n": args.n,
                     "vars": list(names)}
    code = 0

    if args.action == "eval":
        if not args.args:
            raise ValueError("poly eval requires --args")
        parts = [p.strip() for p in args.args.split(";" if ";" in args.args else ",")]
        if len(parts) != args.n:
            raise ValueError(f"expected {args.n} arguments, got {len(parts)}")
        polys = [parse_poly(p, names) for p in parts]
        value = bracket_fn(polys)
        options["args"] = parts
        results = {"value": value.render(names)}
        lines = [f"value: {results['value']}"]
    elif args.action == "verify":
        if not args.identity:
            raise ValueError("poly verify requires --identity")
        verdict = verify_identity_truncated(args.identity, args.bracket, args.n, args.degree)
        options["identity"] = args.identity
        options["degree"] = args.degree
        results = {"verdict": verdict}
        status = "pass" if verdict.ok else "FAIL"
        lines = [
            f"{args.identity} for bracket {args.bracket} "
            f"(n={args.n}, degree<={args.degree}): {status} "
            f"({verdict.instances} instances)"
        ]
        if not verdict.ok:
            lines.append(f"witness: {_compact(verdict.witness)}")
            code = 1
    elif args.action == "derived":
        spanned = truncated_derived_span(args.bracket, args.n, args.degree)
        options["degree"] = args.degree
        results = {
            "dim": spanned.dim,
            "ambient_dim": len(spanned.monomials),
            "is_full": spanned.is_full(),
            "monomials": [
                Poly.monomial(e).render(names) for e in spanned.member_monomials()
            ],
        }
        if spanned.is_full():
            lines = [
                f"derived span: all {spanned.dim} monomials of degree <= {args.degree}"
            ]
        else:
            lines = [
                f"derived span: dim {spanned.dim} of {len(spanned.monomials)}",
                "members: " + ", ".join(results["monomials"]),
            ]
    else:  # center
        cen = truncated_center(args.bracket, args.n, args.degree)
        options["degree"] = args.degree
        members = [Poly.monomial(e).render(names) for e in cen.member_monomials()]
        results = {
            "dim": cen.basis.dim,
            "ambient_dim": len(cen.monomials),
            "members": members,
        }
        lines = [f"center: span{{{', '.join(members)}}}" if members else "center: 0"]
    return code, _report("poly", options, results), lines


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="nlie",
        description="exact computations with alternating n-ary brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="verify the defining identities")
    p.add_argument("file", help="algebra file (JSON)")
    p.add_argument(
        "--poisson",
        action="store_true",
        help="also check the product axioms, Leibniz, and the shift identity",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("generate", parents=[common], help="write a built-in example")
    p.add_argument(
        "kind", choices=("vector-product", "jacobian-trunc", "w-trunc", "zero")
    )
    p.add_argument("--n", type=int, required=True, help="bracket arity")
    p.add_argument("--p", type=int, help="characteristic for truncated families")
    p.add_argument("--dim", type=int, help="dimension (zero bracket only)")
    p.add_argument("-o", "--output", help="output path (stdout when omitted)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("analyze", parents=[common], help="derived series, center, nilradical")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("simple", parents=[common], help="certified simplicity verdict")
    p.add_argument("file")
    p.add_argument("--mod-p", type=int, dest="mod_p", help="reduction prime (rational input)")
    p.add_argument("--max-enum", type=int, dest="max_enum", help="enumeration limit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_simple)

    p = sub.add_parser(
        "theorem1", parents=[common], help="derived-modulo-center simplicity pipeline"
    )
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("lemmas", parents=[common], help="probe one statement's hypothesis and conclusion")
    p.add_argument("file")
    p.add_argument("--lemma", required=True, choices=PROBE_IDS)
    p.add_argument(
        "--subspace",
        help='subspace basis: vectors separated by ";", coordinates by ","',
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("poly", parents=[common], help="symbolic brackets on polynomials")
    p.add_argument("action", choices=("eval", "verify", "derived", "center"))
    p.add_argument("--bracket", choices=("jac", "w"), required=True)
    p.add_argument("--identity", choices=IDENTITIES, help="identity for verify")
    p.add_argument("--n", type=int, default=2, help="bracket arity")
    p.add_argument("--vars", help="comma-separated variable names")
    p.add_argument("--degree", type=int, default=4, help="truncation degree bound")
    p.add_argument("--args", help="bracket arguments, comma- or semicolon-separated")
    p.set_defaults(handler=_cmd_poly)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, report, lines = args.handler(args)
    except (ValueError, GuardExceeded) as exc:  # AlgebraFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - start:.2f}s")
    return code
