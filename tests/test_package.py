"""The lazily loaded package namespace: `nlie.X` serves every public name
from its submodule, always the submodule's current binding."""

import importlib
import sys

import pytest

import nlie

# every name `nlie` exported before its namespace became lazy, by defining module
PUBLIC = {
    "algebra": (
        "NLieAlgebra", "NLiePoissonAlgebra", "SkewBracketTensor", "SymProductTensor",
        "Verdict", "Witness", "check_assoc_comm_unital", "check_generalized_jacobi",
        "check_leibniz", "check_poisson_identity",
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
        "IDENTITIES", "Poly", "PolyParseError", "jac_bracket", "monomials_up_to",
        "parse_poly", "truncated_center", "truncated_derived_span",
        "verify_identity_truncated", "w_bracket",
    ),
    "structure": (
        "IdealKind", "PipelineReport", "ProbeReport", "PROBE_IDS", "QuotientMap",
        "SimplicityVerdict", "brute_force_ideals", "center",
        "derived_series", "derived_subspace", "ideal_closure", "is_ideal", "is_simple",
        "nilradical", "probe_lemma", "quotient_algebra",
        "subalgebra_on", "theorem1_pipeline",
        "verify_simplicity_certificate",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_public_names():
    assert len(nlie.__all__) == len(set(nlie.__all__))
    assert sorted(nlie.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_its_submodule_binding(module, name):
    home = importlib.import_module(f"nlie.{module}")
    assert getattr(nlie, name) is getattr(home, name)
    assert name in dir(nlie)


def test_submodules_are_attributes():
    for module in PUBLIC:
        assert getattr(nlie, module) is sys.modules[f"nlie.{module}"]


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nlie.no_such_name  # noqa: B018
    assert not hasattr(nlie, "cli_main")


def test_follows_rebinding(monkeypatch):
    original = nlie.structure.is_simple

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(nlie.structure, "is_simple", patched)
    assert nlie.is_simple is patched
    monkeypatch.undo()
    assert nlie.is_simple is original
