"""The certificate kind table, report re-verification and report schema."""

import copy
import json
import os
from fractions import Fraction

import pytest

from ringext.canonical import CanonicalRings, CanonicalSpaces
from ringext.cli import main
from ringext.report import certificate_kinds, render_text, verify_report
from ringext.serialize import certificate_from_json, certificate_json

from tests.conftest import CORPUS, CORPUS_NAMES, SCHEMAS, expected_doc

DIMS = ("algebra", "subalgebra", "tensor_square", "centralizer",
        "tensor_ring", "endo_ring", "casimir")


def _golden_certificates():
    return [(name, key) for name in CORPUS_NAMES
            for key in sorted(expected_doc(name)["classification"]["certificates"])]


def _bump_first_scalar(field, payload):
    """Add one to the first scalar of a certificate payload."""
    parent, key = None, None
    while isinstance(payload, (dict, list)):
        parent = payload
        key = next(k for k in sorted(payload) if k != "side") \
            if isinstance(payload, dict) else 0
        payload = payload[key]
    p = field["Fp"] if isinstance(field, dict) else None
    parent[key] = (payload + 1) % p if p else str(Fraction(payload) + 1)


@pytest.fixture(scope="module")
def spaces(built):
    """Lazy per-extension CanonicalSpaces, the lean base verify builds."""
    cache = {}

    def get(name: str) -> CanonicalSpaces:
        if name not in cache:
            cache[name] = CanonicalSpaces(built(name).parsed.ext)
        return cache[name]

    return get


def _verdict(built, spaces, name, kind, payload) -> bool:
    """kind.verify of a payload against the lean spaces, which must agree
    with its verdict against the full rings of build_canonical_rings."""
    cr = built(name).cr
    cert = certificate_from_json(kind.cls, cr.field, payload, cr.dims(), "$",
                                 kind.side)
    lean = kind.verify(spaces(name), cert)
    assert lean is kind.verify(cr, cert), (name, kind.name)
    return lean


# -- the table ---------------------------------------------------------------

def test_table_names_each_kind_once():
    kinds = certificate_kinds()
    for field in ("name", "flag", "key"):
        values = [getattr(k, field) for k in kinds]
        assert len(set(values)) == len(values) == 5


def test_report_schema_lists_the_table():
    """report.schema.json, which the table cannot drive, lists the kinds'
    names, flags and keys as the table does, in its order."""
    kinds = certificate_kinds()
    with open(os.path.join(SCHEMAS, "report.schema.json"),
              encoding="utf-8") as fh:
        props = json.load(fh)["properties"]
    cl = props["classification"]["properties"]
    assert props["certify"]["properties"]["kind"]["enum"] == [
        k.name for k in kinds]
    assert [f for f, v in cl.items() if v == {"type": "boolean"}] == [
        k.flag for k in kinds]
    assert list(cl["certificates"]["properties"]) == [k.key for k in kinds]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_table_reproduces_golden_certificates(built, name):
    cr = built(name).cr
    cl = expected_doc(name)["classification"]
    for k in certificate_kinds():
        cert = k.search(cr)
        assert cl[k.flag] is (cert is not None), k.name
        if cert is None:
            assert k.key not in cl["certificates"]
        else:
            payload = json.loads(json.dumps(certificate_json(cr.field, cert,
                                                             cr.dims())))
            assert payload == cl["certificates"][k.key], k.name


@pytest.mark.parametrize("name, key", _golden_certificates())
def test_golden_certificates_decode_and_encode_back(spaces, name, key):
    """Each golden certificate payload, decoded into pair vectors and
    encoded again at the lengths its dims give, is the same payload."""
    doc = expected_doc(name)
    kind = next(k for k in certificate_kinds() if k.key == key)
    payload = doc["classification"]["certificates"][key]
    cs = spaces(name)
    cert = certificate_from_json(kind.cls, cs.field, payload, doc["dims"],
                                 "$", kind.side)
    assert json.loads(json.dumps(certificate_json(cs.field, cert,
                                                  doc["dims"]))) == payload


# -- verify_report -----------------------------------------------------------

@pytest.mark.parametrize("name, key", _golden_certificates())
def test_changed_scalar_fails_verification(built, spaces, name, key):
    doc = expected_doc(name)
    kind = next(k for k in certificate_kinds() if k.key == key)
    payload = doc["classification"]["certificates"][key]
    assert _verdict(built, spaces, name, kind, payload) is True
    _bump_first_scalar(doc["field"], payload)
    assert _verdict(built, spaces, name, kind, payload) is False
    ok, msgs = verify_report(doc)
    assert not ok
    assert any(key in m for m in msgs), msgs


def test_golden_reports_verify():
    for name in CORPUS_NAMES:
        assert verify_report(expected_doc(name)) == (True, []), name


def test_verify_builds_no_rings(monkeypatch, certify_docs):
    """Every golden and every certify document verifies against the lean
    spaces alone: no CanonicalRings is built and no ring axiom runs."""
    docs = [expected_doc(name) for name in CORPUS_NAMES]
    docs += [doc for name in CORPUS_NAMES
             for _, doc in certify_docs(name).values()]

    def refuse(*args, **kwargs):
        raise AssertionError("verify built the canonical rings")

    monkeypatch.setattr(CanonicalRings, "__init__", refuse)
    monkeypatch.setattr(CanonicalRings, "verify_ring_axioms", refuse)
    for doc in docs:
        assert verify_report(doc) == (True, []), doc["command"]


@pytest.mark.parametrize("key", DIMS)
def test_changed_dimension_fails_verification(key):
    doc = expected_doc("qc2_q")
    assert set(doc["dims"]) == set(DIMS)
    doc["dims"][key] += 1
    assert verify_report(doc) == (False, [
        "recorded dimensions disagree with the rebuilt extension"])


@pytest.mark.parametrize("key, side", [("left_quasibase", "right"),
                                       ("right_quasibase", "left")])
def test_wrong_side_quasibase_fails(key, side):
    doc = expected_doc("qc2_q")
    doc["classification"]["certificates"][key]["side"] = side
    want = "left" if side == "right" else "right"
    assert verify_report(doc) == (False, [
        f"certificate payload malformed: $.classification.certificates.{key}"
        f".side: a {want} quasibase wants side '{want}'"])


def test_false_flag_with_certificate_fails():
    doc = expected_doc("qc2_q")
    doc["classification"]["separable"] = False
    ok, msgs = verify_report(doc)
    assert not ok
    assert any("separability_element" in m for m in msgs), msgs


# -- schema ------------------------------------------------------------------

def test_golden_reports_match_schema(report_validator):
    for name in CORPUS_NAMES:
        report_validator.validate(expected_doc(name))


def test_schema_rejects_a_malformed_report(report_validator):
    doc = copy.deepcopy(expected_doc("qc2_q"))
    doc["classification"]["certificates"]["left_quasibase"]["side"] = "up"
    assert not report_validator.is_valid(doc)
    doc = copy.deepcopy(expected_doc("qc2_q"))
    doc["input"]["field"] = "R"
    assert not report_validator.is_valid(doc)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_certify_output_matches_schema(report_validator, certify_docs, built,
                                       spaces, name):
    for k in certificate_kinds():
        target, doc = certify_docs(name)[k.name]
        report_validator.validate(doc)
        assert doc["certify"]["verified"] is (True if doc["certify"]["verdict"]
                                              else None)
        assert main(["verify", target]) == 0, k.name
        payload = doc["certify"]["certificate"]
        if payload is not None:
            assert _verdict(built, spaces, name, k, payload) is True
            f, dims = built(name).cr.field, doc["dims"]
            cert = certificate_from_json(k.cls, f, payload, dims, "$", k.side)
            assert certificate_json(f, cert, dims) == payload, k.name


def _bad_scalar(doc):
    _bump_first_scalar(doc["field"], doc["certify"]["certificate"])


def _bad_kind(doc):
    doc["certify"]["kind"] = "separability"


def _bad_verdict(doc):
    doc["certify"]["verdict"] = False


def _claims_failure(doc):
    doc["certify"]["verified"] = False


def _claims_success(doc):
    doc["certify"]["verified"] = True


# qc2_q is separable and not H-separable: a separable document carries a
# certificate and an hsep one does not
@pytest.mark.parametrize("kind, edit, where, schema_rejects", [
    ("separable", _bad_scalar, "$.certify.certificate", False),
    ("separable", _bad_kind, "$.certify.kind", True),
    ("separable", _bad_verdict, "$.certify.verdict", False),
    ("separable", _claims_failure, "$.certify.verified", True),
    ("hsep", _claims_success, "$.certify.verified", True),
], ids=["altered_scalar", "unknown_kind", "verdict_disagrees",
        "false_with_certificate", "true_without_certificate"])
def test_verify_rejects_a_bad_certify_document(tmp_path, capsys,
                                               report_validator, kind, edit,
                                               where, schema_rejects):
    target = str(tmp_path / f"{kind}.json")
    assert main(["certify", kind, os.path.join(CORPUS, "qc2_q.json"),
                 "--json", "-o", target]) == 0
    with open(target, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", target]) == 1
    out = capsys.readouterr()
    assert f"{where}:" in out.err
    assert "report verifies" not in out.out
    if schema_rejects:
        assert not report_validator.is_valid(doc)


def test_text_names_the_naturality_check_it_runs():
    """Each comparison line of a text report says that naturality was
    checked at the generators of End and gives End's dimension, which is
    the number the report records; no line claims a check on every basis
    endomorphism."""
    doc = expected_doc("qq8_qi")
    text = render_text(doc)
    lines = [line for line in text.splitlines() if "naturality" in line]
    blocks = [doc["equivalences"]["base_change_of_total"],
              doc["equivalences"]["evaluation_regular"]]
    assert lines and "basis endomorphisms" not in text
    assert all(line.endswith(")") and "naturality checked at the generators "
               "of End, dim " in line for line in lines)
    for block in blocks:
        assert any(line.endswith(f"generators of End, dim "
                                 f"{block['naturality_samples']})")
                   for line in lines)
