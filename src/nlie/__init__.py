"""Exact computations with alternating n-ary brackets: identity checking,
structure analysis, certified simplicity, and symbolic polynomial brackets.

`import nlie` loads no submodule.  Each public name below, and each of the
submodules that define them, is served on first use (PEP 562); `nlie.X` is
always the submodule's current binding of X, and a command pays only for
the layers it runs.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "NLieAlgebra", "NLiePoissonAlgebra", "SkewBracketTensor", "SymProductTensor",
        "Verdict", "Witness", "check_assoc_comm_unital", "check_generalized_jacobi",
        "check_leibniz", "check_poisson_identity", "IDENTITIES", "PROBE_IDS",
    ),
    "algfile": ("AlgebraFileError", "LoadedAlgebra", "dumps", "load_path", "loads",
                "to_document"),
    "constructions": (
        "DerivationSet", "TruncatedCarrier", "check_commuting", "check_derivation",
        "jacobian_from_derivations", "truncated_polynomial_algebra",
        "vector_product_algebra", "w_from_derivations",
    ),
    "fields": ("PrimeField", "QQ", "RationalField"),
    "guards": ("GuardExceeded",),
    "linalg": ("EchelonAccumulator", "Matrix", "SubspaceBasis", "kernel", "span"),
    "poly": (
        "Poly", "PolyParseError", "jac_bracket", "monomials_up_to", "parse_poly",
        "truncated_center", "truncated_derived_span", "verify_identity_truncated",
        "w_bracket",
    ),
    "structure": (
        "IdealKind", "PipelineReport", "ProbeReport", "QuotientMap", "SimplicityVerdict",
        "brute_force_ideals", "center", "derived_series", "derived_subspace",
        "ideal_closure", "is_ideal", "is_simple", "nilradical", "probe_lemma",
        "quotient_algebra", "subalgebra_on", "theorem1_pipeline", "verify_simplicity_certificate",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__():
    return sorted({*globals(), *__all__})
