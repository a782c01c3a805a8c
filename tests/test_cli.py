"""Command line driver: exit codes, determinism, report round-trips."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from ringext.canonical import InternalInconsistency
from ringext.cli import main
from ringext.serialize import RESERVED_LABELS

from tests.conftest import CORPUS, corpus_doc, expected_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def input_path(name):
    return os.path.join(CORPUS, f"{name}.json")


def write_doc(tmp_path, doc, name="input.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


# -- analyze -------------------------------------------------------------------

def test_analyze_json_exit_zero(capsys):
    code, out, err = run_cli(capsys, "analyze", input_path("qc2_q"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["separable"] is True
    assert doc["dims"]["tensor_square"] == 4


def test_analyze_text_mentions_verdicts(capsys):
    code, out, _ = run_cli(capsys, "analyze", input_path("qc2_q"), "--text")
    assert code == 0
    assert "separable" in out
    assert "input error" not in out


def test_analyze_deterministic_modulo_timestamp(capsys):
    code1, out1, _ = run_cli(capsys, "analyze", input_path("f2c2_f2"), "--json")
    code2, out2, _ = run_cli(capsys, "analyze", input_path("f2c2_f2"), "--json")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_analyze_output_file(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    code, out, _ = run_cli(capsys, "analyze", input_path("qc2_q"), "--json",
                           "-o", target)
    assert code == 0
    assert out == ""
    with open(target, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == "analyze"


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_output_path_is_input_error(tmp_path, where):
    target = str(tmp_path / "absent" / "out.json") if where == "missing_directory" \
        else str(tmp_path)
    src = os.path.join(os.path.dirname(CORPUS), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "ringext.cli", "analyze", input_path("b_eq_a"),
         "-o", target], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"input error at {target}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# -- usage and input errors ------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["analyze", input_path("qc2_q"), "--seed", "4"],
     "unrecognized arguments: --seed 4"),
    (["certify", "nope", input_path("qc2_q")], "invalid choice: 'nope'"),
    ([], "the following arguments are required"),
])
def test_usage_error_is_exit_one(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ringext")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: ringext" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/input.json")
    assert code == 1
    assert "input error" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"field": "Q",,}', encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(p))
    assert code == 1
    assert "malformed JSON" in err
    assert f"{p}:1:" in err


def test_float_scalar_is_input_error(tmp_path, capsys):
    doc = corpus_doc("qc2_q")
    doc["algebra"] = {"dim": 2, "unit": [1.0, 0],
                      "mult": doc["algebra"].get("mult", [])}
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "input error" in err


def test_nonassociative_table_is_input_error(tmp_path, capsys):
    # corrupted C3 table: (e1 e1) e1 = e0 but e1 (e1 e1) = e1
    doc = {
        "field": "Q",
        "algebra": {"dim": 3, "unit": ["1", "0", "0"],
                    "mult": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                             [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "0"]],
                             [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]]},
    }
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "associative" in err


def test_out_of_range_subgroup_index_is_input_error(tmp_path, capsys):
    doc = {"field": "Q",
           "algebra": {"group": {"order": 2, "cayley": [[0, 1], [1, 0]]}},
           "subalgebra": {"subgroup": [0, 7]}}
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "$.subalgebra.subgroup" in err
    assert "out of range" in err


_SWAP = [["0", "1"], ["1", "0"]]
_EYE2 = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("module, reason", [
    # g acting as 2: g g = e would have to act as 4
    ({"dim": 1, "left_action": [[["1"]], [["2"]]]}, "not a representation"),
    ({"dim": 1, "left_action": [[["2"]], [["1"]]]}, "unit"),
    # each side is a C2 action, but swapping and sign-flipping do not commute
    ({"dim": 2, "left_action": [_EYE2, _SWAP],
      "right_action": [_EYE2, [["1", "0"], ["0", "-1"]]]}, "do not commute"),
])
def test_module_that_is_not_a_bimodule_is_input_error(tmp_path, capsys,
                                                      module, reason):
    doc = corpus_doc("qc2_q")
    doc["modules"] = [dict(module, label="bad")]
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "$.modules[0]" in err
    assert reason in err
    assert out == ""


@pytest.mark.parametrize("side", ["left_action", "right_action"])
def test_wrong_action_count_fails_before_building(tmp_path, capsys, side):
    # a one-sided module builds a dim x dim identity for its other side;
    # the action count must be refused before that is built
    doc = corpus_doc("qc2_q")
    doc["modules"] = [{"label": "big", "dim": 10**9, side: []}]
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert f"$.modules[0].{side}:" in err
    assert out == ""

    report = expected_doc("qc2_q")
    report["input"]["modules"] = doc["modules"]
    code, out, err = run_cli(capsys, "verify", write_doc(tmp_path, report))
    assert code == 1
    assert f"$.modules[0].{side}:" in err
    assert "report verifies" not in out


@pytest.mark.parametrize("text", ["1_0", "0.5e1", "1e999999", "1\n"])
def test_rational_outside_schema_grammar_is_input_error(tmp_path, capsys,
                                                        text):
    # Fraction() would read these as 10, 5, an unprintable number and 1
    doc = {"field": "Q",
           "algebra": {"dim": 1, "mult": [[[text]]], "unit": ["1"]}}
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "$.algebra.mult[0][0][0]" in err
    assert repr(text) in err


HUGE = "9" * 5000   # past the interpreter's 4300-digit int conversion limit


@pytest.mark.parametrize("text", [
    '{"field": {"Fp": %s}, "algebra": {"dim": 1, "mult": [[[1]]], '
    '"unit": [1]}}' % HUGE,
    '{"field": "Q", "algebra": {"dim": 1, "mult": [[[%s]]], '
    '"unit": [1]}}' % HUGE,
    '{"field": "Q", "algebra": {"dim": 1, "mult": %s, "unit": [1]}}'
    % ("[" * 100000 + "]" * 100000),
], ids=["modulus", "structure_constant", "deep_nesting"])
def test_unreadable_json_is_input_error(tmp_path, capsys, text):
    p = tmp_path / "unreadable.json"
    p.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(p))
    assert code == 1
    assert f"input error at {p}:" in err


@pytest.mark.parametrize("p", [561, 41041, 3215031751, 2**82 + 1])
def test_composite_or_oversized_modulus_is_input_error(tmp_path, capsys, p):
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # a modulus past the bound up to which primality is decided
    doc = {"field": {"Fp": p},
           "algebra": {"dim": 1, "mult": [[[1]]], "unit": [1]}}
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 1
    assert "$.field.Fp" in err


def test_large_prime_modulus_is_accepted(tmp_path, capsys):
    doc = {"field": {"Fp": 2**61 - 1},
           "algebra": {"group": {"order": 2, "cayley": [[0, 1], [1, 0]]}}}
    code, out, _ = run_cli(capsys, "analyze", write_doc(tmp_path, doc), "--json")
    assert code == 0
    assert json.loads(out)["field"] == {"Fp": 2**61 - 1}


def test_unknown_module_label_is_input_error(capsys):
    code, _, err = run_cli(capsys, "equivalence", input_path("qc2_q"),
                           "--module", "missing")
    assert code == 1
    assert "missing" in err


@pytest.mark.parametrize("label", RESERVED_LABELS)
def test_reserved_module_label_is_input_error(tmp_path, capsys, label):
    """No module may take a key of the equivalences block as its label,
    in an input or in a report's input echo."""
    doc = corpus_doc("qc2_q")
    doc["modules"][0]["label"] = label
    path = write_doc(tmp_path, doc)
    message = f'module label "{label}" is reserved'
    for argv in (["analyze", path], ["equivalence", path, "--module", label]):
        assert run_cli(capsys, *argv) == (
            1, "", f"input error at $.modules: {message}\n")

    report = expected_doc("qc2_q")
    report["input"]["modules"][0]["label"] = label
    code, out, err = run_cli(capsys, "verify", write_doc(tmp_path, report))
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


# -- certify -------------------------------------------------------------------

def test_certify_separable_true(capsys):
    code, out, _ = run_cli(capsys, "certify", "separable",
                           input_path("qs3_qa3"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certify"]["verdict"] is True
    assert doc["certify"]["verified"] is True
    assert doc["certify"]["certificate"] is not None


def test_certify_false_verdict_still_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "certify", "separable",
                           input_path("f2c2_f2"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certify"]["verdict"] is False
    assert doc["certify"]["certificate"] is None


def test_certify_all_kinds_on_one_input(capsys):
    for kind, verdict in (("separable", True), ("split", True),
                          ("hsep", False), ("d2-left", True),
                          ("d2-right", True)):
        code, out, _ = run_cli(capsys, "certify", kind,
                               input_path("qs3_qa3"), "--json")
        assert code == 0
        assert json.loads(out)["certify"]["verdict"] is verdict


# -- equivalence and normality ---------------------------------------------------

def test_equivalence_regular_module(capsys):
    code, out, _ = run_cli(capsys, "equivalence", input_path("qc2_q"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    eq = doc["equivalences"]["regular"]
    assert eq["gamma"]["status"] == "verified"
    assert eq["induction"]["status"] == "verified"


def test_equivalence_user_module(capsys):
    code, out, _ = run_cli(capsys, "equivalence", input_path("qc2_q"),
                           "--module", "sign", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "sign" in doc["equivalences"]


def test_normality_suite(capsys):
    code, out, _ = run_cli(capsys, "normality", input_path("qs3_qa3"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    norm = doc["normality"]
    assert norm["centralizer_suite"]["all_equal"] is True
    assert norm["double_centralizer"]["strict"] is True
    assert norm["prebraided"]["holds"] is True


def test_hopf_on_group_extension(capsys):
    code, out, _ = run_cli(capsys, "hopf", input_path("qq8_qi"), "--json")
    assert code == 0
    doc = json.loads(out)
    hopf = doc["normality"]["hopf"]
    assert hopf["subgroup_normal"] is True
    assert hopf["augmentation_test"] is True


def test_hopf_rejects_nongroup_input(capsys):
    code, _, err = run_cli(capsys, "hopf", input_path("m2q_t2"))
    assert code == 1
    assert "input error" in err


# -- verify ---------------------------------------------------------------------

def test_verify_roundtrip(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    code, _, _ = run_cli(capsys, "analyze", input_path("qc2_q"), "--json",
                         "-o", target)
    assert code == 0
    code2, out2, _ = run_cli(capsys, "verify", target)
    assert code2 == 0
    assert "report verifies" in out2


def test_verify_detects_tampered_certificate(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    run_cli(capsys, "analyze", input_path("qc2_q"), "--json", "-o", target)
    with open(target, encoding="utf-8") as fh:
        doc = json.load(fh)
    cert = doc["classification"]["certificates"]["separability_element"]
    cert["element"][0] = "99"
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli(capsys, "verify", target)
    assert code == 1
    assert "separability" in (out + err)


def test_verify_detects_flag_certificate_mismatch(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    run_cli(capsys, "analyze", input_path("qc2_q"), "--json", "-o", target)
    with open(target, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["classification"]["hseparable"] = True
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli(capsys, "verify", target)
    assert code == 1


def _set(path, value):
    def edit(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


def _drop_endo(doc):
    del doc["classification"]["certificates"]["left_quasibase"]["pairs"][0]["endo"]


_CERTS = ("classification", "certificates")
_QB = _CERTS + ("left_quasibase",)
_HS = _CERTS + ("hsep_system",)


def _extra_key(*path):
    return _set(path + ("extra",), 1)


def _drop_tool(doc):
    del doc["tool"]


def _other_prime(doc):
    doc["field"] = {"Fp": 5}


def _drop_dims(doc):
    del doc["dims"]


def _drop_classification(doc):
    # an analyze report has no certify block, so this leaves neither
    del doc["classification"]


# a well-formed field that contradicts the input echo: only verify sees it
_other_prime.schema_accepts = True


@pytest.mark.parametrize("name, edit, where", [
    ("qq8_qi", _set(("classification",), []), "$.classification"),
    ("qq8_qi", _set(_CERTS, ["separability_element"]),
     "$.classification.certificates"),
    ("qq8_qi", _set(_CERTS, 7), "$.classification.certificates"),
    ("qq8_qi", _set(_CERTS + ("bogus",), {}),
     "$.classification.certificates"),
    ("qq8_qi", _set(_QB + ("pairs",), 5),
     "$.classification.certificates.left_quasibase"),
    ("qq8_qi", _drop_endo,
     "$.classification.certificates.left_quasibase.pairs[0]"),
    ("qq8_qi", _set(_QB + ("reverse_order",), "no"),
     "$.classification.certificates.left_quasibase.reverse_order"),
    ("qq8_qi", _extra_key(*_CERTS, "separability_element"),
     "$.classification.certificates.separability_element"),
    ("qq8_qi", _extra_key(*_CERTS, "conditional_expectation"),
     "$.classification.certificates.conditional_expectation"),
    ("m2q_q", _extra_key(*_HS), "$.classification.certificates.hsep_system"),
    ("qq8_qi", _extra_key(*_QB), "$.classification.certificates.left_quasibase"),
    ("qq8_qi", _extra_key(*_CERTS, "right_quasibase"),
     "$.classification.certificates.right_quasibase"),
    ("qq8_qi", _extra_key(*_QB, "pairs", 0),
     "$.classification.certificates.left_quasibase.pairs[0]"),
    ("m2q_q", _extra_key(*_HS, "pairs", 0),
     "$.classification.certificates.hsep_system.pairs[0]"),
    ("qc2_q", _set(("classification", "separable"), 1),
     "$.classification.separable"),
    ("qc2_q", _set(("classification", "separable"), "yes"),
     "$.classification.separable"),
    ("qc2_q", _set(("classification", "hseparable"), None),
     "$.classification.hseparable"),
    ("qc2_q", _set(("classification", "hseparable"), 0),
     "$.classification.hseparable"),
    ("qc2_q", _set(("classification", "endo_ring_detection"), "banana"),
     "$.classification.endo_ring_detection"),
    ("qc2_q", _set(("classification", "base_projective"), 7),
     "$.classification.base_projective"),
    ("qc2_q", _set(("classification", "module_facts"), []),
     "$.classification.module_facts"),
    ("qc2_q", _set(("classification", "consistency_notes"), ["ok", 3]),
     "$.classification.consistency_notes"),
    ("qc2_q", _set(("equivalences",), {"regular": {"status": "nonsense"}}),
     "$.equivalences.regular.status"),
    ("qc2_q", _set(("equivalences",), {"regular": {"status": "verified"}}),
     "$.equivalences.regular"),
    ("qc2_q", _set(("equivalences",), [True]), "$.equivalences"),
    ("qc2_q", _set(("equivalences", "base_change_of_total",
                    "naturality_samples"), "three"),
     "$.equivalences.base_change_of_total.naturality_samples"),
    ("qc2_q", _set(("equivalences", "sign", "gamma", "domain_dim"), True),
     "$.equivalences.sign.gamma.domain_dim"),
    ("qc2_q", _set(("equivalences", "regular", "chi", "checks"), []),
     "$.equivalences.regular.chi.checks"),
    ("qc2_q", _set(("equivalences", "regular", "triangle"), "yes"),
     "$.equivalences.regular.triangle"),
    ("qc2_q", _set(("equivalences", "tensor_ring_fg_projective_over_"
                    "centralizer"), 1),
     "$.equivalences.tensor_ring_fg_projective_over_centralizer"),
    ("qc2_q", _set(("normality",), [1, 2]), "$.normality"),
    ("qc2_q", _set(("normality", "base_normal_on_sample"), "yes"),
     "$.normality.base_normal_on_sample"),
    ("qc2_q", _set(("normality", "base_ideal_contractions"), {}),
     "$.normality.base_ideal_contractions"),
    ("qc2_q", _set(("normality", "hopf", "subgroup_normal"), None),
     "$.normality.hopf.subgroup_normal"),
    ("qc2_q", _set(("normality", "prebraided"), True),
     "$.normality.prebraided"),
    ("qc2_q", _set(("seed",), "x"), "$.seed"),
    ("qc2_q", _set(("field",), 7), "$.field"),
    ("qc2_q", _other_prime, "$.field"),
    ("qc2_q", _set(("tool",), 5), "$.tool"),
    ("qc2_q", _set(("command",), [1]), "$.command"),
    ("qc2_q", _drop_tool, "$.tool"),
    ("qc2_q", _set(("generated_at",), 5), "$.generated_at"),
    ("qc2_q", _drop_dims, "$.dims"),
    ("qc2_q", _drop_classification, "$.certify"),
    ("qc2_q", _set(_CERTS + ("separability_element", "element", 0), 0.5),
     "$.classification.certificates.separability_element.element[0]"),
], ids=["classification_list", "certificates_list", "certificates_int",
        "unknown_certificate", "pairs_not_list", "pair_without_endo",
        "reverse_order_string", "extra_key_separable", "extra_key_split",
        "extra_key_hsep", "extra_key_d2_left", "extra_key_d2_right",
        "extra_key_quasibase_pair", "extra_key_hsep_pair",
        "flag_one_with_certificate", "flag_string_with_certificate",
        "flag_null_without_certificate", "flag_zero_without_certificate",
        "endo_ring_detection_string", "base_projective_int",
        "module_facts_list", "consistency_notes_not_strings",
        "iso_status_nonsense", "iso_without_name", "equivalences_list",
        "naturality_samples_string", "iso_dim_bool", "iso_checks_list",
        "entry_string", "entry_int", "normality_list",
        "normality_flag_string", "contractions_object", "hopf_flag_null",
        "prebraided_bool", "seed_string", "field_int", "field_other_prime",
        "tool_int", "command_list", "tool_missing", "generated_at_int",
        "dims_missing", "classification_and_certify_missing",
        "certificate_scalar_float"])
def test_verify_malformed_report_is_exit_one(tmp_path, capsys,
                                             report_validator, name, edit,
                                             where):
    doc = expected_doc(name)
    edit(doc)
    code, out, err = run_cli(capsys, "verify", write_doc(tmp_path, doc))
    assert code == 1
    assert f"{where}:" in err
    assert "report verifies" not in out
    assert report_validator.is_valid(doc) is getattr(edit, "schema_accepts",
                                                     False)


# -- out of memory ----------------------------------------------------------------

@pytest.mark.parametrize("command, target", [("analyze", "analysis_report"),
                                             ("verify", "verify_report")])
def test_memory_error_is_exit_one(capsys, monkeypatch, command, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"ringext.cli.{target}", exhausted)
    path = (input_path("qc2_q") if command == "analyze"
            else os.path.join(CORPUS, "expected", "qc2_q.json"))
    code, out, err = run_cli(capsys, command, path)
    assert code == 1
    assert err == (f"input error: {command} ran out of memory; "
                   "the input is too large for this machine\n")
    assert out == ""
    assert "Traceback" not in err


# -- an exception no handler names ------------------------------------------------

def test_unmapped_exception_is_exit_two(capsys, monkeypatch):
    """A library bug outside the named exceptions ends in exit 2 and one
    line naming the subcommand, the stage (the innermost library function
    on the traceback) and the exception, with no traceback."""
    def broken(*args, **kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr("ringext.report.centralizer_normality_suite", broken)
    code, out, err = run_cli(capsys, "analyze", input_path("qc2_q"), "--json")
    assert code == 2
    assert err == ("internal error in analyze at report.normality_block: "
                   "ZeroDivisionError: planted\n")
    assert out == ""
    assert "Traceback" not in err


def test_internal_inconsistency_names_its_stage(capsys, monkeypatch):
    """A failed invariant ends in exit 2 and one line naming the
    subcommand and the library function that raised it."""
    def broken(*args, **kwargs):
        raise InternalInconsistency("planted")

    monkeypatch.setattr("ringext.certify.find_hsep_system", broken)
    code, out, err = run_cli(capsys, "equivalence", input_path("qc2_q"),
                             "--json")
    assert code == 2
    assert err == ("internal inconsistency in equivalence at certify.classify: "
                   "planted\n")
    assert out == ""
    assert "Traceback" not in err


# -- installed entry point --------------------------------------------------------

def test_console_script_entry_point():
    exe = shutil.which("ringext")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "analyze", input_path("b_eq_a"), "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tool"]["name"] == "ringext"
