"""Spans around nlie's public functions, installed from outside the package.

`Tracer.install` replaces each function named in `WRAPPED` by a wrapper in
every `nlie` module namespace that holds it (`from .x import f` copies the
binding, so patching the defining module alone would miss callers).  A span
is (name, start, end, parent span, task, count); spans stay in memory until
`layer_metrics` reduces them.  Self time is a span's duration minus the part
of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

WRAPPED = {
    "algebra": ("check_generalized_jacobi", "check_leibniz", "check_poisson_identity",
                "check_assoc_comm_unital"),
    "structure": ("is_simple", "verify_simplicity_certificate", "ideal_closure", "center",
                  "derived_subspace", "derived_series", "nilradical", "quotient_algebra",
                  "subalgebra_on", "probe_lemma", "theorem1_pipeline", "brute_force_ideals"),
    "linalg": ("kernel", "span", "SubspaceBasis.intersect"),
    "poly": ("verify_identity_truncated", "truncated_center", "truncated_derived_span",
             "parse_poly", "jac_bracket", "w_bracket"),
    "cli": ("main",),
    "algfile": ("load_path", "dumps"),
    "constructions": ("vector_product_algebra", "truncated_polynomial_algebra",
                      "jacobian_from_derivations", "w_from_derivations"),
}


def _gaussian_total(dim: int, p: int) -> int:
    total = 0
    for r in range(dim + 1):
        num = den = 1
        for i in range(r):
            num *= p ** (dim - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _certificate_points(cert) -> tuple[int, int]:
    """Projective points closed and KernelSeeds nullity named by a
    simplicity certificate."""
    if not cert:
        return 0, 0
    method = cert.get("method")
    if method == "ExhaustiveProjective":
        return cert["points"], 0
    if method == "KernelSeeds":
        return 2 * cert["points_per_side"], cert["nullity"]
    if method == "ModPReduction":
        return _certificate_points(cert.get("inner"))
    return 0, 0


def _count(name: str, args, result):
    """The work count a span carries, read from its arguments or result."""
    if name.startswith("check_") or name == "verify_identity_truncated":
        return (result.instances, 0)
    if name == "is_simple":
        return _certificate_points(result.certificate)
    if name == "brute_force_ideals":
        bracket = getattr(args[0], "bracket", args[0])
        return (_gaussian_total(bracket.dim, bracket.field.p), 0)
    if name == "load_path":
        return (os.path.getsize(args[0]), 0)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task, count]
        self.stack: list[int] = []
        self.task = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualified: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        short = qualified.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [qualified, clock(), 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _count(short, args, result)
            return result

        return wrapper

    def install(self) -> None:
        homes = {module: importlib.import_module(f"nlie.{module}") for module in WRAPPED}
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "nlie" or n.startswith("nlie."))]
        for module, names in WRAPPED.items():
            home = homes[module]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{module}.{name}", original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def export(self) -> list[list]:
        return [list(s) for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _outermost(spans: list[list], i: int) -> bool:
    """True when no ancestor of span i has the same name."""
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS: list[tuple[str, str, str]] = []


def _metric(name: str, unit: str, better: str) -> None:
    LAYER_METRICS.append((name, unit, better))


for _fn in WRAPPED["algebra"]:
    _metric(f"algebra.{_fn}.calls", "count", "lower")
    _metric(f"algebra.{_fn}.busy_s", "s", "lower")
    _metric(f"algebra.{_fn}.instances", "count", "lower")
    _metric(f"algebra.{_fn}.instances_per_s", "1/s", "higher")
_metric("algebra.self_s", "s", "lower")
for _what, _unit, _better in (("calls", "count", "lower"), ("busy_s", "s", "lower"),
                              ("self_s", "s", "lower"), ("points", "count", "lower"),
                              ("points_per_s", "1/s", "higher"),
                              ("kernel_nullity", "count", "lower")):
    _metric(f"structure.is_simple.{_what}", _unit, _better)
for _fn in ("verify_simplicity_certificate", "ideal_closure"):
    _metric(f"structure.{_fn}.calls", "count", "lower")
    _metric(f"structure.{_fn}.busy_s", "s", "lower")
for _fn in ("center", "derived_subspace", "derived_series", "nilradical", "quotient_algebra",
            "subalgebra_on"):
    _metric(f"structure.{_fn}.busy_s", "s", "lower")
for _fn in ("probe_lemma", "theorem1_pipeline"):
    _metric(f"structure.{_fn}.calls", "count", "lower")
    _metric(f"structure.{_fn}.busy_s", "s", "lower")
    _metric(f"structure.{_fn}.self_s", "s", "lower")
_metric("structure.brute_force_ideals.calls", "count", "lower")
_metric("structure.brute_force_ideals.busy_s", "s", "lower")
_metric("structure.brute_force_ideals.subspaces", "count", "lower")
_metric("structure.self_s", "s", "lower")
for _fn in ("kernel", "span", "SubspaceBasis.intersect"):
    _metric(f"linalg.{_fn}.calls", "count", "lower")
    _metric(f"linalg.{_fn}.busy_s", "s", "lower")
_metric("linalg.self_s", "s", "lower")
_metric("poly.verify_identity_truncated.calls", "count", "lower")
_metric("poly.verify_identity_truncated.busy_s", "s", "lower")
_metric("poly.verify_identity_truncated.instances", "count", "lower")
_metric("poly.verify_identity_truncated.instances_per_s", "1/s", "higher")
_metric("poly.truncated_center.busy_s", "s", "lower")
_metric("poly.truncated_derived_span.busy_s", "s", "lower")
for _fn in ("parse_poly", "jac_bracket", "w_bracket"):
    _metric(f"poly.{_fn}.calls", "count", "lower")
    _metric(f"poly.{_fn}.busy_s", "s", "lower")
_metric("poly.self_s", "s", "lower")
_metric("cli.import_s", "s", "lower")
_metric("cli.main.calls", "count", "lower")
_metric("cli.main.busy_s", "s", "lower")
_metric("cli.startup_frac", "frac", "lower")
_metric("algfile.load_path.calls", "count", "lower")
_metric("algfile.load_path.busy_s", "s", "lower")
_metric("algfile.load_mb_per_s", "MB/s", "higher")
_metric("algfile.dumps.calls", "count", "lower")
_metric("algfile.dumps.busy_s", "s", "lower")
_metric("constructions.calls", "count", "lower")
_metric("constructions.busy_s", "s", "lower")
_metric("constructions.self_s", "s", "lower")
_metric("trace.overhead_frac", "frac", "lower")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to the per-layer values named in LAYER_METRICS, except
    cli.import_s, cli.startup_frac and trace.overhead_frac, which need
    process timings the spans do not hold."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, list[int]] = {}
    module_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        if _outermost(spans, i):
            busy[name] = busy.get(name, 0.0) + (s[2] - s[1])
        own[name] = own.get(name, 0.0) + selfs[i]
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + selfs[i]
        if s[5] is not None:
            acc = counts.setdefault(name, [0, 0])
            acc[0] += s[5][0]
            acc[1] += s[5][1]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        head, _, what = name.rpartition(".")
        if what == "calls" and head != "constructions":
            out[name] = calls.get(head, 0)
        elif what == "busy_s" and head != "constructions":
            out[name] = busy.get(head, 0.0)
        elif what == "self_s" and "." in head:
            out[name] = own.get(head, 0.0)
        elif what == "self_s":
            out[name] = module_self.get(head, 0.0)
        elif what in ("instances", "points", "subspaces"):
            out[name] = counts.get(head, [0, 0])[0]
        elif what in ("instances_per_s", "points_per_s"):
            out[name] = rate(counts.get(head, [0, 0])[0], busy.get(head, 0.0))
        elif what == "kernel_nullity":
            out[name] = counts.get(head, [0, 0])[1]
    builders = [f"constructions.{f}" for f in WRAPPED["constructions"]]
    out["constructions.calls"] = sum(calls.get(b, 0) for b in builders)
    out["constructions.busy_s"] = sum(busy.get(b, 0.0) for b in builders)
    loaded = counts.get("algfile.load_path", [0, 0])[0]
    out["algfile.load_mb_per_s"] = rate(loaded / 1e6, busy.get("algfile.load_path", 0.0))
    return out
