"""End-to-end command line coverage via in-process main() calls."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import nlie
from nlie import algebra, algfile, constructions, poly, structure
from nlie.cli import _render, main

CROSS = {
    "field": "Q",
    "dimension": 3,
    "arity": 2,
    "bracket": [
        {"args": [0, 1], "value": {"2": "1"}},
        {"args": [0, 2], "value": {"1": "-1"}},
        {"args": [1, 2], "value": {"0": "1"}},
    ],
}


@pytest.fixture
def cross_path(tmp_path):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(CROSS))
    return str(path)


@pytest.fixture
def char3_path(tmp_path):
    path = tmp_path / "char3.json"
    assert main(["generate", "jacobian-trunc", "--n", "2", "--p", "3", "-o", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    capsys.readouterr()  # drop output left over from fixtures
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_pass(self, capsys, cross_path):
        code, out, _ = run(capsys, ["check", cross_path])
        assert code == 0
        assert "generalized_jacobi: pass" in out

    def test_fail_exit_one(self, capsys, tmp_path):
        bad = dict(CROSS, bracket=[
            {"args": [0, 1], "value": {"2": "1"}},
            {"args": [0, 2], "value": {"0": "1"}},
        ])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 1
        assert "generalized_jacobi: FAIL" in out

    def test_poisson_checks_all_identities(self, capsys, char3_path):
        code, out, _ = run(capsys, ["check", "--poisson", char3_path])
        assert code == 0
        for name in ("associative_commutative_unital", "generalized_jacobi", "leibniz", "shift"):
            assert f"{name}: pass" in out

    def test_poisson_without_product(self, capsys, cross_path):
        code, _, err = run(capsys, ["check", "--poisson", cross_path])
        assert code == 2
        assert "product" in err

    def test_leibniz_failure_detected(self, capsys, tmp_path):
        path = tmp_path / "w23.json"
        assert main(["generate", "w-trunc", "--n", "2", "--p", "3", "-o", str(path)]) == 0
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0  # the bracket alone is fine
        code, out, _ = run(capsys, ["check", "--poisson", str(path)])
        assert code == 1
        assert "leibniz: FAIL" in out


class TestMalformedInput:
    def bad_file(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def test_unknown_field(self, capsys, tmp_path):
        path = self.bad_file(tmp_path, dict(CROSS, extra=1))
        code, _, err = run(capsys, ["check", path])
        assert code == 2 and "extra" in err

    def test_non_increasing_args(self, capsys, tmp_path):
        doc = dict(CROSS, bracket=[{"args": [1, 0], "value": {"2": "1"}}])
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, doc)])
        assert code == 2 and "strictly increasing" in err

    def test_decimal_coefficient(self, capsys, tmp_path):
        doc = dict(CROSS, bracket=[{"args": [0, 1], "value": {"2": "1.5"}}])
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, doc)])
        assert code == 2

    def test_product_without_unit(self, capsys, tmp_path):
        doc = dict(CROSS, product=[{"i": 0, "j": 0, "value": {"0": "1"}}])
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, doc)])
        assert code == 2 and "unit" in err

    def test_invalid_json(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, "{not json")])
        assert code == 2

    @pytest.mark.parametrize("value, offender", [
        ({"2": "1", "02": "5"}, "'02'"),  # one index given twice
        ({"2": "\u0661"}, "'\u0661'"),  # Arabic-Indic digits: a coefficient,
        ({"\u0662": "1"}, "'\u0662'"),  # and an index
        ({"\u00b2": "1"}, "'\u00b2'"),  # a superscript, which str.isdigit accepts
        ({"2": "1\n"}, "'1\\n'"),
    ])
    def test_malformed_value_named(self, capsys, tmp_path, value, offender):
        doc = dict(CROSS, bracket=[{"args": [0, 1], "value": value}])
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, doc)])
        assert code == 2 and "bracket entry 0" in err and offender in err

    def test_duplicate_json_key(self, capsys, tmp_path):
        text = json.dumps(CROSS).replace('{"2": "1"}', '{"2": "1", "2": "5"}')
        assert text.count('"2": ') == 2
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, text)])
        assert code == 2 and "duplicate key '2'" in err

    def test_deep_nesting(self, capsys, tmp_path):
        code, out, err = run(capsys, ["check", self.bad_file(tmp_path, "[" * 100_000)])
        assert code == 2 and out == "" and "invalid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", str(tmp_path / "absent.json")])
        assert code == 2

    def test_prime_beyond_primality_bound(self, capsys, tmp_path):
        doc = dict(CROSS, field={"Fp": 2**127 - 1}, bracket=[])
        code, _, err = run(capsys, ["check", self.bad_file(tmp_path, doc)])
        assert code == 2 and "3317044064679887385961981" in err

    @pytest.mark.parametrize("command", ["check", "analyze", "simple"])
    @pytest.mark.parametrize("dim, arity, message", [
        (3, 2**70, f'"arity" {2**70} exceeds dimension + 1 = 4'),
        (2**70, 2, f'"dimension": {2**70} instances exceed the bound 1000000'),
    ])
    def test_shape_beyond_limits_refused(self, capsys, tmp_path, command, dim, arity, message):
        # refused on loading: the arity overflowed the checkers' tuple
        # enumeration, and the dimension sized every vector a command builds
        doc = {"field": "Q", "dimension": dim, "arity": arity, "bracket": []}
        code, out, err = run(capsys, [command, self.bad_file(tmp_path, doc)])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_env_limit_named(self, capsys, monkeypatch, cross_path, value):
        monkeypatch.setenv("NLIE_MAX_INSTANCES", value)
        code, out, err = run(capsys, ["simple", cross_path])
        assert code == 2 and out == ""
        assert err == f"error: NLIE_MAX_INSTANCES must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_max_enum_below_one(self, capsys, cross_path, value):
        code, _, err = run(capsys, ["simple", cross_path, "--max-enum", value])
        assert code == 2
        assert err == f"error: max_enum must be an integer >= 1, got {value}\n"


POISSON_DOC = dict(CROSS, product=[{"i": 0, "j": k, "value": {str(k): "1"}} for k in range(3)],
                   unit=["1", "0", "0"])


def _with_entry(doc, table="bracket", at=0, **change):
    """doc with only its entry `at` of `table`, changed by `change`."""
    return dict(doc, **{table: [dict(doc[table][at], **change)]})


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# one malformed document per refusal of the loader, with the whole message
_LOADER_REFUSALS = {
    "field-keys": (dict(CROSS, field={"Fp": 3, "p": 3}),
                   "field object must have exactly the key \"Fp\", got ['Fp', 'p']"),
    "field-char-str": (dict(CROSS, field={"Fp": "3"}),
                       "field characteristic must be an integer, got '3'"),
    "field-char-bool": (dict(CROSS, field={"Fp": True}),
                        "field characteristic must be an integer, got True"),
    "field-not-prime": (dict(CROSS, field={"Fp": 4}), "not a prime: 4"),
    "field-name": (dict(CROSS, field="R"), "field must be \"Q\" or {\"Fp\": p}, got 'R'"),
    "coefficient-int": (_with_entry(CROSS, value={"2": 1}),
                        "bracket entry 0: coefficients must be strings, got 1"),
    "residue-fraction": (dict(_with_entry(CROSS, value={"2": "1/2"}), field={"Fp": 5}),
                         "bracket entry 0: '1/2' is not a decimal residue"),
    "value-list": (_with_entry(CROSS, value=["1"]),
                   "bracket entry 0: value must be an object mapping index to coefficient"),
    "value-index-range": (_with_entry(CROSS, value={"3": "1"}),
                          "bracket entry 0: value index 3 out of range for dimension 3"),
    "document-list": ([CROSS], "top-level document must be a JSON object"),
    "no-field": (_without(CROSS, "field"), 'missing required field "field"'),
    "no-dimension": (_without(CROSS, "dimension"), 'missing required field "dimension"'),
    "no-bracket": (_without(CROSS, "bracket"), 'missing required field "bracket"'),
    "dimension-zero": (dict(CROSS, dimension=0), '"dimension" must be an integer >= 1, got 0'),
    "dimension-str": (dict(CROSS, dimension="3"),
                      "\"dimension\" must be an integer >= 1, got '3'"),
    "dimension-bool": (dict(CROSS, dimension=True),
                       '"dimension" must be an integer >= 1, got True'),
    "arity-zero": (dict(CROSS, arity=0), '"arity" must be an integer >= 1, got 0'),
    "bracket-object": (dict(CROSS, bracket={"args": [0, 1]}),
                       '"bracket" must be a list of entries'),
    "names-length": (dict(CROSS, basis_names=["a", "b"]),
                     '"basis_names" must be a list of 3 nonempty strings'),
    "names-empty": (dict(CROSS, basis_names=["a", "", "c"]),
                    '"basis_names" must be a list of 3 nonempty strings'),
    "names-string": (dict(CROSS, basis_names="abc"),
                     '"basis_names" must be a list of 3 nonempty strings'),
    "names-repeat": (dict(CROSS, basis_names=["a", "b", "a"]),
                     '"basis_names" must be distinct'),
    "entry-keys": (dict(CROSS, bracket=[{"args": [0, 1]}]),
                   'bracket entry 0: must be an object with exactly "args" and "value"'),
    "entry-extra": (_with_entry(CROSS, sign=1),
                    'bracket entry 0: must be an object with exactly "args" and "value"'),
    "entry-list": (dict(CROSS, bracket=[[0, 1]]),
                   'bracket entry 0: must be an object with exactly "args" and "value"'),
    "args-length": (_with_entry(CROSS, args=[0, 1, 2]),
                    "bracket entry 0: args must be a list of 2 integers"),
    "args-string": (_with_entry(CROSS, args=[0, "1"]),
                    "bracket entry 0: args must be a list of 2 integers"),
    "args-bool": (_with_entry(CROSS, args=[False, True]),
                  "bracket entry 0: args must be a list of 2 integers"),
    "args-range": (_with_entry(CROSS, args=[1, 3]),
                   "bracket entry 0: args [1, 3] out of range for dimension 3"),
    "args-repeat": (dict(CROSS, bracket=[CROSS["bracket"][0]] * 2),
                    "bracket entry 1: duplicate args [0, 1]"),
    "product-object": (dict(POISSON_DOC, product={"i": 0}),
                       '"product" must be a list of entries'),
    "product-keys": (_with_entry(POISSON_DOC, "product", 1, k=0),
                     'product entry 0: must be an object with exactly "i", "j", "value"'),
    "product-i-string": (_with_entry(POISSON_DOC, "product", 1, i="0"),
                         "product entry 0: \"i\" must be an integer in [0, 3), got '0'"),
    "product-j-bool": (_with_entry(POISSON_DOC, "product", 1, j=True),
                       'product entry 0: "j" must be an integer in [0, 3), got True'),
    "product-j-range": (_with_entry(POISSON_DOC, "product", 1, j=3),
                        'product entry 0: "j" must be an integer in [0, 3), got 3'),
    "product-repeat": (dict(POISSON_DOC, product=POISSON_DOC["product"]
                            + [{"i": 1, "j": 0, "value": {}}]),
                       "product entry 3: duplicate pair (1, 0)"),
    "unit-length": (dict(POISSON_DOC, unit=["1", "0"]),
                    '"unit" must be a list of 3 coefficient strings'),
    "unit-string": (dict(POISSON_DOC, unit="100"),
                    '"unit" must be a list of 3 coefficient strings'),
    "unit-coefficient": (dict(POISSON_DOC, unit=["1", "0", "x"]),
                         "unit[2]: 'x' is not a rational of the form \"a\" or \"a/b\""),
}


@pytest.mark.parametrize("name", list(_LOADER_REFUSALS))
def test_loader_refusal_named(capsys, tmp_path, name):
    doc, message = _LOADER_REFUSALS[name]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, ["check", str(path)]) == (2, "", f"error: {message}\n")


def test_loader_refusal_base_documents_load(capsys, tmp_path):
    # the documents the table breaks are valid as they stand
    for doc in (CROSS, POISSON_DOC):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, ["check", str(path)])[0] in (0, 1)


def test_wide_file_loads_in_memory_of_its_size():
    # a 2 KB file declaring dimension 10^5: the loader parses values into
    # sparse pairs, so no allocation follows the dimension
    doc = {"field": "Q", "dimension": 10**5, "arity": 2,
           "bracket": [{"args": [k, k + 1], "value": {str(k + 2): "1"}} for k in range(50)]}
    text = json.dumps(doc)
    assert len(text) < 2500
    tracemalloc.start()
    try:
        loaded = algfile.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded.bracket.entries) == 50 and loaded.bracket.dim == 10**5
    assert peak < 2**20, f"loading allocated {peak} bytes"


class TestGenerate:
    @pytest.mark.parametrize("argv", [
        ["generate", "vector-product", "--n", "3"],
        ["generate", "jacobian-trunc", "--n", "2", "--p", "3"],
        ["generate", "w-trunc", "--n", "2", "--p", "3"],
        ["generate", "zero", "--dim", "4", "--n", "2"],
    ])
    def test_roundtrip_through_check(self, capsys, tmp_path, argv):
        path = tmp_path / "out.json"
        assert main(argv + ["-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 0

    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, ["generate", "vector-product", "--n", "2"])
        assert code == 0
        body, _, _ = out.rpartition("\nelapsed:")
        doc = json.loads(body)
        assert doc["dimension"] == 3 and doc["arity"] == 2
        assert doc["basis_names"] == ["e1", "e2", "e3"]

    def test_rejects_bad_parameters(self, capsys):
        code, _, err = run(capsys, ["generate", "jacobian-trunc", "--n", "2", "--p", "4"])
        assert code == 2

    def test_construction_guard_refuses(self, capsys, tmp_path):
        # 13267701 stored product pairs of 101^2 coefficients each
        path = tmp_path / "out.json"
        code, out, err = run(capsys, ["generate", "jacobian-trunc", "--n", "2", "--p", "101",
                                      "-o", str(path)])
        assert code == 2 and out == "" and not path.exists()
        assert err == (f"error: truncated polynomial product coefficients: {13267701 * 101**2} "
                       "instances exceed the bound 1000000\n")

    def test_vector_product_guard_refuses(self, capsys, tmp_path):
        # (n + 1)^2 stored coefficients, past the bound
        path = tmp_path / "out.json"
        code, out, err = run(capsys, ["generate", "vector-product", "--n", "1000",
                                      "-o", str(path)])
        assert code == 2 and out == "" and not path.exists()
        assert err == ("error: vector product coefficients: 1002001 "
                       "instances exceed the bound 1000000\n")

    def test_vector_product_guard_follows_the_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("NLIE_MAX_INSTANCES", "100")
        path = tmp_path / "out.json"
        code, _, err = run(capsys, ["generate", "vector-product", "--n", "10", "-o", str(path)])
        assert code == 2 and "vector product coefficients: 121" in err
        assert not path.exists()
        assert main(["generate", "vector-product", "--n", "9", "-o", str(path)]) == 0
        assert algfile.load_path(str(path)).dimension == 10

    @pytest.mark.parametrize("argv, digest", [
        (["jacobian-trunc", "--n", "1", "--p", "5"],
         "4929a4a074309da40179453b19b3da73f6a8aa7c18a583f0135dc8225583649c"),
        (["jacobian-trunc", "--n", "2", "--p", "7"],
         "3c5e3efcb22677ac90abc45a2d750bb6ee7c57d32596602a0a1b049057e28409"),
        (["jacobian-trunc", "--n", "2", "--p", "11"],
         "09e1728bf13eaf8bf69734073a2280eca2a60f35fe9f09267bdb5cc2358af40f"),
        (["jacobian-trunc", "--n", "4", "--p", "2"],
         "c5daaf67b80a2326a1eacf360ca643f1db4e1a7e355dce4f317b08e2614e75d1"),
        (["w-trunc", "--n", "2", "--p", "3"],
         "d48a168a5de459ae37b2ec83ff8213a52c343dc727de32d2ed5ee9623df39c99"),
        (["w-trunc", "--n", "2", "--p", "5"],
         "b24062e4312e20afb760dd559622851ddf08ad5eef705fc7d091e257de231250"),
        (["w-trunc", "--n", "3", "--p", "5"],
         "45c48ce18df2e6b17a428df4108d0fb517ef48b475b1a30c5e94e930d4493c2e"),
        (["w-trunc", "--n", "4", "--p", "2"],
         "5dafcf2b0267701fbb7fe2d8c350f9d71ea04409142cd8b6df1e790fb8514bab"),
    ])
    def test_generated_file_pinned(self, capsys, tmp_path, argv, digest):
        # the written file, byte for byte
        path = tmp_path / "out.json"
        assert main(["generate", *argv, "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, flag", [
        (["jacobian-trunc", "--n", "0", "--p", "3"], "--n"),
        (["jacobian-trunc", "--n", "2", "--p", "4"], "--p"),
        (["w-trunc", "--n", "2", "--p", "4"], "--p"),
        (["zero", "--n", "0", "--dim", "2"], "--n"),
        (["zero", "--n", "2", "--dim", "-1"], "--dim"),
        (["zero", "--n", "2", "--dim", "0"], "--dim"),
        (["vector-product", "--n", "1"], "--n"),
    ])
    def test_refusal_names_the_flag(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, ["generate", *argv, "-o", str(path)])
        assert code == 2 and out == "" and flag in err
        assert not path.exists()

    @pytest.mark.parametrize("dim, n, named", [
        ("3", "5", '"arity" 5'), ("1000001", "2", '"dimension": 1000001'),
    ])
    def test_zero_refuses_what_the_loader_refuses(self, capsys, tmp_path, dim, n, named):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, ["generate", "zero", "--dim", dim, "--n", n,
                                      "-o", str(path)])
        assert code == 2 and out == "" and named in err
        assert not path.exists()

    def test_zero_at_arity_dimension_plus_one_loads(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["generate", "zero", "--dim", "1", "--n", "2", "-o", str(path)]) == 0
        capsys.readouterr()
        code, _, _ = run(capsys, ["check", str(path)])
        assert code == 0

    def test_zero_needs_dim(self, capsys):
        code, out, err = run(capsys, ["generate", "zero", "--n", "2"])
        assert code == 2 and out == ""
        assert "--dim" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, n", [("jacobian-trunc", "2"), ("w-trunc", "3")])
    def test_truncated_needs_p(self, capsys, kind, n):
        code, out, err = run(capsys, ["generate", kind, "--n", n])
        assert code == 2 and out == ""
        assert "--p" in err and "None" not in err


class TestAnalyze:
    def test_json_shape(self, capsys, char3_path):
        code, out, _ = run(capsys, ["analyze", "--format", "json", char3_path])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "analyze"
        assert report["input"]["path"] == char3_path
        assert len(report["input"]["sha256"]) == 64
        res = report["results"]
        assert res["dimension"] == 9
        assert res["derived_series_dims"] == [9, 8, 8]
        assert res["center"]["dim"] == 1
        assert res["nilradical"]["dim"] == 8

    def test_text_has_timing(self, capsys, cross_path):
        code, out, _ = run(capsys, ["analyze", cross_path])
        assert code == 0
        assert "elapsed:" in out


class TestSimple:
    def test_cross_certificate(self, capsys, cross_path):
        code, out, _ = run(capsys, ["simple", "--format", "json", cross_path])
        assert code == 0
        res = json.loads(out)["results"]["verdict"]
        assert res["status"] == "simple"
        assert res["certificate"]["method"] == "ModPReduction"
        assert res["certificate"]["p"] == 5

    def test_json_determinism(self, capsys, char3_path):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["simple", "--format", "json", "--seed", "7", char3_path])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_large_p_decides(self, capsys, tmp_path):
        # Norton's test decides past the enumeration limit; a limit that
        # reaches the point count forces the exhaustive search, which is
        # exact at every p and meets its first proper point, e_0 of
        # cross (+) cross, at once
        p = 2**61 - 1
        path = tmp_path / "cross_m61.json"
        path.write_text(json.dumps(dict(CROSS, field={"Fp": p})))
        code, out, _ = run(capsys, ["simple", "--format", "json", str(path)])
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["status"] == "simple"
        assert verdict["certificate"]["method"] == "Norton"
        path = tmp_path / "cross_sum_m61.json"
        bracket = CROSS["bracket"] + [
            {"args": [i + 3 for i in e["args"]],
             "value": {str(int(k) + 3): c for k, c in e["value"].items()}}
            for e in CROSS["bracket"]
        ]
        path.write_text(json.dumps(dict(CROSS, field={"Fp": p}, dimension=6, bracket=bracket)))
        points = (p**6 - 1) // (p - 1)
        code, out, _ = run(capsys, ["simple", "--format", "json", "--max-enum", str(points),
                                    str(path)])
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["status"] == "not_simple"
        assert verdict["witness"]["basis"] == [[int(i == k) for i in range(6)] for k in range(3)]
        alg = nlie.load_path(str(path)).algebra()
        witness = nlie.span(alg.field, 6, verdict["witness"]["basis"])
        replay = nlie.SimplicityVerdict("not_simple", nlie.IdealKind.NLIE, None, witness)
        assert nlie.is_ideal(alg, witness)
        assert nlie.verify_simplicity_certificate(alg, replay)

    def test_mod_p_refused_off_q(self, capsys, tmp_path):
        path = tmp_path / "cross_f7.json"
        path.write_text(json.dumps(dict(CROSS, field={"Fp": 7})))
        code, out, err = run(capsys, ["simple", "--mod-p", "5", "--format", "json", str(path)])
        assert code == 2 and out == ""
        assert err == "error: mod_p 5 reduces rational algebras only\n"

    def test_not_simple_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        assert main(["generate", "zero", "--dim", "3", "--n", "2", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["simple", "--format", "json", str(path)])
        assert code == 0
        assert json.loads(out)["results"]["verdict"]["status"] == "not_simple"


class TestTheorem1:
    def test_char3_json(self, capsys, char3_path):
        code, out, _ = run(capsys, ["theorem1", "--format", "json", char3_path])
        assert code == 0
        res = json.loads(out)["results"]["pipeline"]
        assert res["dims"] == {
            "algebra": 9, "derived": 8, "center": 1, "intersection": 1, "quotient": 7,
        }
        assert res["hypotheses_met"] is True
        assert res["conclusion_holds"] is True
        assert any("characteristic 3" in f for f in res["flags"])

    def test_requires_product(self, capsys, cross_path):
        code, _, err = run(capsys, ["theorem1", cross_path])
        assert code == 2


class TestLemmas:
    def test_l1_report(self, capsys, char3_path):
        code, out, _ = run(capsys, ["lemmas", "--lemma", "L1", "--format", "json", char3_path])
        assert code == 0
        res = json.loads(out)["results"]["probe"]
        assert res["hypotheses_hold"] is True
        assert res["conclusion_holds"] is False
        assert res["witness"]["kind"] == "nilpotent_element"

    def test_subspace_parsing(self, capsys, char3_path):
        code, out, _ = run(capsys, [
            "lemmas", "--lemma", "L6", "--subspace", "1,0,0,0,0,0,0,0,0",
            "--format", "json", char3_path,
        ])
        assert code == 0
        assert json.loads(out)["results"]["probe"]["conclusion_holds"] is True

    def test_bad_subspace_exit_two(self, capsys, char3_path):
        code, _, err = run(capsys, ["lemmas", "--lemma", "L6", "--subspace", "1,0", char3_path])
        assert code == 2
        code, _, err = run(capsys, ["lemmas", "--lemma", "L6", char3_path])
        assert code == 2  # L6 needs a subspace


class TestPoly:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                    "--args", "x^2; x*y^2"])
        assert code == 0
        assert "4*x^2*y" in out

    def test_verify_pass_and_fail(self, capsys):
        code, _, _ = run(capsys, ["poly", "verify", "--bracket", "jac", "--n", "2",
                                  "--identity", "jacobi", "--degree", "3"])
        assert code == 0
        code, out, _ = run(capsys, ["poly", "verify", "--bracket", "w", "--n", "2",
                                    "--identity", "leibniz", "--degree", "2",
                                    "--format", "json"])
        assert code == 1
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["ok"] is False
        data = verdict["witness"]["data"]
        assert data["lhs"] == "1" and data["rhs"] == "2"

    def test_center_text(self, capsys):
        code, out, _ = run(capsys, ["poly", "center", "--bracket", "jac", "--n", "2",
                                    "--degree", "4"])
        assert code == 0
        assert "span{1}" in out

    def test_power_guard_exit_two(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                      "--args", "(x+y+1)^1000; x"])
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err.startswith("error: polynomial power: ")

    def test_multi_term_power_too_long_to_print_exit_two(self, capsys):
        # 4^1100 has 663 digits: refused at once, at the '(' (the power took
        # about a second, then str() failed naming neither factor nor position)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            start = time.perf_counter()
            got = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                               "--args", "(x+3*y)^1100; y"])
            assert time.perf_counter() - start < 1
        finally:
            sys.set_int_max_str_digits(saved)
        assert got == (2, "", "error: parenthesized power has more than 640 digits at position 0\n")

    def test_bad_expression_exit_two(self, capsys):
        code, _, err = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                    "--args", "x^2; z"])
        assert code == 2 and "z" in err

    def test_deep_nesting_exit_two(self, capsys):
        code, out, err = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                      "--args", "(" * 400 + "x" + ")" * 400 + "; y"])
        assert code == 2 and not out
        assert err == "error: parentheses nested deeper than 100 at position 100\n"

    @pytest.mark.parametrize("args, position", [
        ("3^10000*x; y", 0), ("x + 3^20000000; y", 4), ("x*" + "7" * 5000 + "; y", 2),
        ("(3)^200000*x; y", 0), ("x + (3)^20000000; y", 4),
    ])
    def test_oversized_literal_exit_two(self, capsys, args, position):
        start = time.perf_counter()
        code, out, err = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                      "--args", args])
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        limit = sys.get_int_max_str_digits()
        assert err.startswith("error: ") and err.endswith(
            f" has more than {limit} digits at position {position}\n")

    @pytest.mark.parametrize("args", ["x^\u0662; y", "\u0663*x; y", "x^\u00b2; y"])
    def test_non_ascii_digit_exit_two(self, capsys, args):
        code, out, err = run(capsys, ["poly", "eval", "--bracket", "jac", "--n", "2",
                                      "--args", args])
        assert code == 2 and not out
        assert " at position " in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


GOLDEN = Path(__file__).parent / "golden"

_GENERATED = {
    "c3": ["jacobian-trunc", "--n", "2", "--p", "3"],
    "c5": ["jacobian-trunc", "--n", "2", "--p", "5"],
    "w33": ["w-trunc", "--n", "3", "--p", "3"],
    "cross": ["vector-product", "--n", "2"],
    "cross4": ["vector-product", "--n", "4"],
    "c32": ["jacobian-trunc", "--n", "3", "--p", "2"],
    "c33": ["jacobian-trunc", "--n", "3", "--p", "3"],
    "c11": ["jacobian-trunc", "--n", "2", "--p", "11"],
}


def _golden_input(name, tmp_path):
    if name not in _GENERATED:
        return str(GOLDEN / f"{name}.json")
    path = tmp_path / f"{name}.json"
    if not path.exists():
        assert main(["generate", *_GENERATED[name], "-o", str(path)]) == 0
    return str(path)


def _golden_text(out, path):
    report = json.loads(out)
    assert report["input"].pop("path") == path
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _perturbed_c5(path):
    # one entry of the dim-25 Jacobian bracket over F_5 moved by one
    from nlie.algebra import NLiePoissonAlgebra, SkewBracketTensor
    from nlie.constructions import jacobian_from_derivations, truncated_polynomial_algebra

    c5 = jacobian_from_derivations(truncated_polynomial_algebra(2, 5).derivations)
    table = dict(c5.bracket.table)
    value = list(table[(4, 18)])
    value[0] = (value[0] + 1) % 5
    table[(4, 18)] = tuple(value)
    bracket = SkewBracketTensor(25, 2, c5.field, table)
    path.write_text(nlie.dumps(NLiePoissonAlgebra(c5.product, c5.unit, bracket)))


@pytest.mark.parametrize("name, exit_code", [
    ("c3", 0), ("c5", 0), ("c5_perturbed", 1), ("w33", 1), ("q_failing", 1), ("c33", 0),
    ("q_square_zero", 0), ("q_square_zero_moved", 1),
])
def test_check_reports_match_golden(capsys, tmp_path, name, exit_code):
    # golden reports were written by the per-instance checkers, before the
    # sparse engine replaced them (c33 by the sparse engine, before it
    # skipped mirrored instances, and the q_square_zero pair by the engine
    # that summed Fractions); only the input path is dropped
    if name == "c5_perturbed":
        path = str(tmp_path / f"{name}.json")
        _perturbed_c5(Path(path))
    else:
        path = _golden_input(name, tmp_path)
    code, out, _ = run(capsys, ["check", "--poisson", "--format", "json", path])
    assert code == exit_code
    assert _golden_text(out, path) == (GOLDEN / f"check_poisson_{name}.json").read_text()


def test_analyze_report_matches_golden(capsys, tmp_path):
    # written before the checkers skipped mirrored instances and summed the
    # instances of one outer key together
    path = _golden_input("c5", tmp_path)
    code, out, _ = run(capsys, ["analyze", "--format", "json", path])
    assert code == 0
    assert _golden_text(out, path) == (GOLDEN / "analyze_c5.json").read_text()


@pytest.mark.parametrize("name", ["q_square_zero", "q_square_zero_moved"])
def test_q_fixture_analyze_matches_golden(capsys, name):
    # Poisson algebras over Q with 1/3 in the product and 1/4 in the
    # bracket, the second with one bracket entry moved by 1/5; written by
    # the checkers that summed Fractions, before they summed scaled ints
    path = _golden_input(name, None)
    code, out, _ = run(capsys, ["analyze", "--format", "json", path])
    assert code == 0
    assert _golden_text(out, path) == (GOLDEN / f"analyze_{name}.json").read_text()


@pytest.mark.parametrize("command", ["analyze", "theorem1"])
def test_c33_structure_reports_match_golden(capsys, tmp_path, command):
    # written before the adjoint operators and the center were built from
    # the checkers' sparse column index; c33 has arity 3, so odd-slot signs
    # reach the center, the quotient and Norton's test
    path = _golden_input("c33", tmp_path)
    code, out, _ = run(capsys, [command, "--format", "json", path])
    assert code == 0
    assert _golden_text(out, path) == (GOLDEN / f"{command}_c33.json").read_text()


def test_large_quotient_report_matches_golden(capsys, tmp_path):
    # c11 (dimension 121): the pipeline's quotient has dimension 119; written
    # before the quotient was read off the stored pairs
    path = _golden_input("c11", tmp_path)
    code, out, _ = run(capsys, ["theorem1", "--format", "json", path])
    assert code == 0
    assert _golden_text(out, path) == (GOLDEN / "theorem1_c11.json").read_text()


# golden report, the command before the input, and the input: generated,
# or a file in the golden directory
_SIMPLICITY_GOLDEN = [
    ("simple_cross", ["simple"], "cross"),
    ("simple_cross4", ["simple"], "cross4"),
    ("simple_c32", ["simple"], "c32"),
    ("simple_cross_sum_f3", ["simple"], "cross_sum_f3"),
    ("theorem1_c32", ["theorem1"], "c32"),
    ("lemmas_L5_cross", ["lemmas", "--lemma", "L5"], "cross"),
]


@pytest.mark.parametrize("golden, command, name", _SIMPLICITY_GOLDEN)
def test_simplicity_reports_match_golden(capsys, tmp_path, golden, command, name):
    # golden reports were written by the int64 exhaustive search, before the
    # exact closure loop replaced it; only the input path is dropped
    path = _golden_input(name, tmp_path)
    code, out, _ = run(capsys, [*command, "--format", "json", path])
    assert code == 0
    assert _golden_text(out, path) == (GOLDEN / f"{golden}.json").read_text()


# golden report, exit code and the poly command line; the first six reports
# were written by the one-Fraction-at-a-time product, the last two by the
# determinant expansion over whole polynomials, and none holds an input path
_POLY_GOLDEN = [
    ("poly_eval_w3", 0, ["eval", "--bracket", "w", "--n", "3",
                         "--args", "1/2*x^2*y-3*y;x*y^2+2/3*x;(x-2*y+1)^2"]),
    ("poly_eval_jac2", 0, ["eval", "--bracket", "jac", "--n", "2",
                           "--args", "1/2*x^3*y-2/3*y^2+x;3/4*x*y^2-5*x+1/3*y"]),
    ("poly_verify_jac2_leibniz", 0, ["verify", "--bracket", "jac", "--n", "2",
                                     "--identity", "leibniz", "--degree", "3"]),
    ("poly_verify_w2_leibniz", 1, ["verify", "--bracket", "w", "--n", "2",
                                   "--identity", "leibniz", "--degree", "2"]),
    ("poly_center_w3", 0, ["center", "--bracket", "w", "--n", "3", "--degree", "2"]),
    ("poly_derived_jac2", 0, ["derived", "--bracket", "jac", "--n", "2", "--degree", "4"]),
    ("poly_eval_jac3", 0, ["eval", "--bracket", "jac", "--n", "3", "--args",
                           "1/2*x^2*y-3*y*z+2/5*z^2;x*y*z+2/3*x^2-7/4*z;(x-2*y+1/3*z)^2"]),
    ("poly_eval_w4", 0, ["eval", "--bracket", "w", "--n", "4", "--args",
                         "1/2*x*y-3/7*z^2+x;y^2*z+2/3*x;(x+y-1/2)^2;5/6*x*z-y+1/4"]),
    # powered literals, variables and parentheses folded into one term
    ("poly_eval_folded", 0, ["eval", "--bracket", "jac", "--n", "2", "--args",
                             "2^3*x^2*(1/2)^2*y - 3/4*x*y^3; (x - 2*y + 1/3)^3 - 5*x^2"]),
]


@pytest.mark.parametrize("golden, exit_code, argv", _POLY_GOLDEN)
def test_poly_reports_match_golden(capsys, golden, exit_code, argv):
    code, out, _ = run(capsys, ["poly", *argv, "--format", "json"])
    assert code == exit_code
    assert out == (GOLDEN / f"{golden}.json").read_text()


@pytest.mark.parametrize("name, method", [
    ("c32", "ExhaustiveProjective"), ("c33", "Norton"), ("cross", "ModPReduction"),
])
def test_certificate_read_back_from_report_replays(capsys, tmp_path, name, method):
    path = _golden_input(name, tmp_path)
    code, out, _ = run(capsys, ["simple", "--format", "json", path])
    assert code == 0
    v = json.loads(out)["results"]["verdict"]
    assert v["certificate"]["method"] == method
    verdict = nlie.SimplicityVerdict(
        v["status"], nlie.IdealKind(v["kind"]), v["certificate"], None, v["reason"], v["seed"]
    )
    assert nlie.verify_simplicity_certificate(nlie.load_path(path).algebra(), verdict)


_IMPORT_WEIGHT = """
import contextlib, io, json, sys

def loaded():
    return sorted(
        m for m, mod in sys.modules.items()
        if mod is not None and m not in preloaded
        and (m in ("numpy", "dataclasses", "inspect") or m.startswith("nlie."))
    )

preloaded = set(sys.modules)
import nlie
seen = [loaded()]
from nlie.cli import main
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    seen.append(loaded())
    outs.append(out.getvalue())
print(json.dumps({"codes": codes, "loaded": seen, "outs": outs}))
"""


def _fresh_run(*commands, block_numpy=False):
    """Run CLI commands in one fresh interpreter (pytest has imported numpy
    and every nlie module already), where `import numpy` fails if
    block_numpy.  Returns the exit codes, the sorted numpy, dataclasses,
    inspect and nlie.* modules loaded after `import nlie` and after each
    command, leaving out what the interpreter had loaded before it, and
    each command's stdout."""
    src = str(Path(nlie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = _IMPORT_WEIGHT
    if block_numpy:
        script = "import sys\nsys.modules['numpy'] = None\n" + script
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    got = json.loads(proc.stdout)
    return got["codes"], got["loaded"], got["outs"]


def test_no_command_loads_numpy_dataclasses_or_inspect(cross_path, char3_path, tmp_path):
    c5_path = str(tmp_path / "c5.json")
    assert main(["generate", "jacobian-trunc", "--n", "2", "--p", "5", "-o", c5_path]) == 0
    c32_path = _golden_input("c32", tmp_path)
    codes, loaded, outs = _fresh_run(
        ["check", "--poisson", char3_path],
        ["check", "--poisson", c5_path],
        ["analyze", cross_path],
        ["poly", "verify", "--bracket", "jac", "--n", "2", "--identity", "jacobi",
         "--degree", "2"],
        ["simple", "--format", "json", cross_path],
        ["simple", c32_path],
        ["lemmas", "--lemma", "L5", cross_path],
        ["theorem1", c32_path],
    )
    assert codes == [0] * 8
    # a heavy module absent after import nlie stays absent after each command
    heavy = {"numpy", "dataclasses", "inspect"} - set(loaded[0])
    assert "numpy" in heavy
    assert not any(heavy.intersection(mods) for mods in loaded[1:])
    verdict = json.loads(outs[4])["results"]["verdict"]
    assert verdict["certificate"]["inner"]["method"] == "ExhaustiveProjective"


def test_simplicity_reports_without_numpy(tmp_path):
    paths = [_golden_input(name, tmp_path) for _, _, name in _SIMPLICITY_GOLDEN]
    codes, _, outs = _fresh_run(
        *([*command, "--format", "json", path]
          for (_, command, _), path in zip(_SIMPLICITY_GOLDEN, paths)),
        block_numpy=True,
    )
    assert codes == [0] * len(paths)
    for (golden, _, _), path, out in zip(_SIMPLICITY_GOLDEN, paths, outs):
        assert _golden_text(out, path) == (GOLDEN / f"{golden}.json").read_text()


def test_norton_loads_only_past_the_limit(cross_path, tmp_path):
    exhaustive = ["nlie.algebra", "nlie.algfile", "nlie.cli", "nlie.fields", "nlie.guards",
                  "nlie.linalg", "nlie.structure"]
    codes, loaded, _ = _fresh_run(["simple", cross_path], ["lemmas", "--lemma", "L5", cross_path])
    assert codes == [0, 0]
    assert loaded[1:] == [exhaustive, exhaustive]
    large = tmp_path / "cross_m61.json"
    large.write_text(json.dumps(dict(CROSS, field={"Fp": 2**61 - 1})))
    codes, loaded, outs = _fresh_run(["simple", "--format", "json", str(large)])
    assert codes == [0]
    assert "numpy" not in loaded[1] and "nlie._fppoly" in loaded[1]
    assert json.loads(outs[0])["results"]["verdict"]["certificate"]["method"] == "Norton"


def test_each_command_loads_only_its_layers(cross_path, char3_path):
    core = ["nlie.algebra", "nlie.cli", "nlie.fields", "nlie.guards", "nlie.linalg"]
    base = sorted([*core, "nlie.algfile"])
    codes, loaded, _ = _fresh_run(["check", cross_path], ["check", "--poisson", char3_path])
    assert codes == [0, 0]
    assert loaded == [[], base, base]
    # poly reads no algebra file, so it does not load algfile
    codes, loaded, _ = _fresh_run(
        ["poly", "verify", "--bracket", "w", "--n", "3", "--identity", "jacobi",
         "--degree", "1"])
    assert codes == [0]
    assert loaded[1] == sorted([*core, "nlie.poly"])
    codes, loaded, _ = _fresh_run(["generate", "jacobian-trunc", "--n", "2", "--p", "3"])
    assert codes == [0]
    assert loaded[1] == sorted([*base, "nlie.constructions"])


# every result record with its fields in declared order, which is the key
# order of its rendered report
_RECORDS = [
    (algebra.Witness, ("kind", "data")),
    (algebra.Verdict, ("ok", "witness", "instances")),
    (algfile.LoadedAlgebra,
     ("field", "dimension", "arity", "basis_names", "bracket", "product", "unit")),
    (constructions.TruncatedCarrier, ("product", "unit", "derivations", "names", "exponents")),
    (poly.TruncatedSubspace, ("nvars", "degree_bound", "monomials", "basis")),
    (structure.QuotientMap, ("ideal", "rep_indices")),
    (structure.SimplicityVerdict,
     ("status", "kind", "certificate", "witness", "reason", "seed")),
    (structure.ProbeReport,
     ("probe", "hypothesis", "conclusion", "hypotheses_hold", "hypothesis_notes",
      "conclusion_holds", "witness", "flags", "seed")),
    (structure.PipelineReport,
     ("axioms", "poisson_simple", "dims", "quotient_jacobi", "quotient_simple",
      "hypotheses_met", "conclusion_holds", "flags", "notes", "seed")),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[c.__name__ for c, _ in _RECORDS])
def test_record_semantics(cls, fields):
    values = [f"{name}-value" for name in fields]
    rec = cls(*values)
    same = cls(**dict(zip(fields, values)))
    assert rec == same and hash(rec) == hash(same)
    assert rec != cls(*values[:-1], "other")
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert getattr(rec, fields[0]) == values[0]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({shown})"
    assert list(_render(rec).items()) == list(zip(fields, values))
    for args, kwargs in [
        ((), {}),  # a missing field
        ((*values, "surplus"), {}),
        (values, {"extra": 1}),
        (values, {fields[0]: values[0]}),  # a field by position and by keyword
    ]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


def test_witness_data_is_fresh_per_instance():
    a, b = algebra.Witness("k"), algebra.Witness("k")
    assert a.data == {} and a.data is not b.data
    assert a == b
