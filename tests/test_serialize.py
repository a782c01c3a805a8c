"""Exact JSON round-trips and rejection of inexact or malformed input."""

import json
import os
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringext.certify import (D2Certificate, HSepCertificate,
                             SeparabilityCertificate, SplitCertificate,
                             verify_d2, verify_hsep, verify_separability,
                             verify_split)
from ringext.linalg import GF, QQ, LinalgError
from ringext.serialize import (RESERVED_LABELS, InputError, algebra_json,
                               certificate_from_json, certificate_json,
                               extension_json, field_json, input_json,
                               module_json, parse_algebra, parse_extension,
                               parse_field, parse_input, parse_scalar,
                               scalar_json)

from tests.conftest import CORPUS_NAMES, SCHEMAS, corpus_doc, expected_doc
from tests.oracles import reference_rational_scalar


# -- scalars ------------------------------------------------------------------

def test_rational_scalar_forms():
    assert parse_scalar(QQ, 3, "$") == QQ.of(3)
    assert parse_scalar(QQ, "3/4", "$") == QQ.of("3/4")
    assert parse_scalar(QQ, "-7", "$") == QQ.of(-7)
    assert scalar_json(QQ, QQ.of("3/4")) == "3/4"
    assert scalar_json(QQ, QQ.of(5)) == "5"


def test_prime_scalar_normalizes():
    f = GF(5)
    assert parse_scalar(f, -1, "$") == 4
    assert parse_scalar(f, 12, "$") == 2
    assert scalar_json(f, 3) == 3


def _unit_scalar(field, value) -> dict:
    """A one-dimensional algebra whose unit is the given scalar."""
    return {"field": field,
            "algebra": {"dim": 1, "mult": [[[1]]], "unit": [value]}}


# the input schema refuses these before any scalar is read
def test_floats_rejected_exactly():
    with pytest.raises(InputError, match="floats are not exact") as exc:
        parse_input(_unit_scalar("Q", 0.5))
    assert exc.value.location == "$.algebra.unit[0]"
    with pytest.raises(InputError, match="floats") as exc:
        parse_input(_unit_scalar({"Fp": 5}, 2.0))
    assert exc.value.location == "$.algebra.unit[0]"


def test_booleans_rejected():
    with pytest.raises(InputError, match="boolean") as exc:
        parse_input(_unit_scalar("Q", True))
    assert exc.value.location == "$.algebra.unit[0]"


def test_bad_rational_string():
    with pytest.raises(InputError):
        parse_scalar(QQ, "3/0", "$.x")
    with pytest.raises(InputError):
        parse_scalar(QQ, "a/b", "$.x")


def test_prime_field_wants_integers():
    with pytest.raises(InputError):
        parse_scalar(GF(5), "3", "$.x")


def _schema_scalar_pattern() -> str:
    with open(os.path.join(SCHEMAS, "input.schema.json"),
              encoding="utf-8") as fh:
        scalar = json.load(fh)["definitions"]["scalar"]["oneOf"]
    return next(s["pattern"] for s in scalar if s["type"] == "string")


SCALAR_PATTERN = re.compile(_schema_scalar_pattern())
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=24)


@given(st.builds(lambda sign, num, den: sign + num + (den and "/" + den),
                 st.sampled_from(["", "-"]), DIGITS,
                 st.one_of(st.just(""), DIGITS, st.sampled_from(["0", "00"]))))
@example("-0")
@example("0/5")
@example("-0/5")
@example("6/4")
@example("-0006/0004")
@example("12/4")
@example("3/0")
@example("-0/000")
@example("1" * 5000)
@example("1/" + "1" * 5000)
def test_schema_scalar_strings_decode_as_fraction_did(text):
    """Every string of the schema's scalar grammar gives parse_scalar the
    value and type Fraction gave, or the same refusal."""
    assert SCALAR_PATTERN.search(text), text
    try:
        want = reference_rational_scalar(text)
    except LinalgError as exc:
        with pytest.raises(InputError) as got:
            parse_scalar(QQ, text, "$.x")
        assert (got.value.location, got.value.reason) == ("$.x", str(exc))
        return
    got = parse_scalar(QQ, text, "$")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("text", [
    " 3 ", "+3", "3.0", "-2.50", "1e3", "1_000", "\u0663", "3\n", " -1/2",
    "+6/4", "3/-4", "1/2/3", "", "-", "/", "3/", "0x10", "nan", "1/0.5",
    "++1"])
def test_strings_outside_the_grammar_decode_as_before(text):
    """QQ.of still hands a string outside the schema's grammar to Fraction:
    the same value and type, or the same error."""
    assert not SCALAR_PATTERN.search(text)
    try:
        want = reference_rational_scalar(text)
    except LinalgError as exc:
        with pytest.raises(LinalgError) as got:
            QQ.of(text)
        assert str(got.value) == str(exc)
        return
    got = QQ.of(text)
    assert got == want and type(got) is type(want)


@given(st.fractions(max_denominator=40))
def test_rational_scalar_roundtrip(x):
    v = QQ.of(x)
    assert parse_scalar(QQ, scalar_json(QQ, v), "$") == v


# -- fields -------------------------------------------------------------------

def test_field_specs():
    assert parse_field("Q") == QQ
    assert parse_field({"Fp": 7}) == GF(7)
    assert field_json(QQ) == "Q"
    assert field_json(GF(7)) == {"Fp": 7}
    with pytest.raises(InputError):
        parse_field({"Fp": 6})
    with pytest.raises(InputError):
        parse_field("R")


# -- error locations ----------------------------------------------------------

def test_error_location_points_into_document():
    doc = corpus_doc("qc2_q")
    doc["algebra"] = dict(doc["algebra"])
    doc["algebra"]["group"] = {"order": 2, "cayley": [[0, 1], [1, "x"]]}
    with pytest.raises(InputError) as exc:
        parse_input(doc)
    assert "$.algebra.group" in str(exc.value)


def test_unknown_top_level_key_rejected():
    doc = dict(corpus_doc("qc2_q"))
    doc["extra"] = 1
    with pytest.raises(InputError, match="extra"):
        parse_input(doc)


def test_missing_required_key_rejected():
    doc = dict(corpus_doc("qc2_q"))
    del doc["algebra"]
    with pytest.raises(InputError, match="algebra"):
        parse_input(doc)


def test_reserved_module_label_rejected():
    doc = dict(corpus_doc("qc2_q"))
    doc["modules"] = [{"label": "regular", "dim": 1,
                       "left_action": [[["1"]], [["1"]]]}]
    with pytest.raises(InputError, match="regular"):
        parse_input(doc)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_equivalence_keys_beside_the_modules_are_the_reserved_labels(name):
    doc = expected_doc(name)
    labels = {m["label"] for m in doc["input"].get("modules", [])}
    assert sorted(doc["equivalences"].keys() - labels) == sorted(
        RESERVED_LABELS)


def test_duplicate_module_labels_rejected():
    doc = dict(corpus_doc("qc2_q"))
    m = {"label": "m", "dim": 1,
         "left_action": [[["1"]], [["1"]]]}
    doc["modules"] = [m, dict(m)]
    with pytest.raises(InputError, match="distinct"):
        parse_input(doc)


def test_seed_must_be_integer():
    doc = dict(corpus_doc("qc2_q"))
    doc["seed"] = "7"
    with pytest.raises(InputError, match="seed"):
        parse_input(doc)


def test_nonassociative_table_error_carries_location():
    doc = {
        "field": "Q",
        "algebra": {"dim": 3, "unit": ["1", "0", "0"],
                    "mult": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                             [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "0"]],
                             [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]]},
    }
    with pytest.raises(InputError) as exc:
        parse_input(doc)
    assert "associative" in str(exc.value)
    assert "$.algebra" in str(exc.value)


# -- full-document round-trips --------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_input_documents_roundtrip(name):
    doc = corpus_doc(name)
    parsed = parse_input(doc)
    echoed = parsed.echo
    reparsed = parse_input(echoed)
    assert input_json(reparsed) == echoed
    assert reparsed.field == parsed.field
    assert reparsed.ext.total.mult == parsed.ext.total.mult
    assert reparsed.ext.iota == parsed.ext.iota
    assert len(reparsed.modules) == len(parsed.modules)
    assert [j.label for j in reparsed.ideals] == [j.label for j in parsed.ideals]


def test_subgroup_extension_echoes_as_subgroup():
    doc = corpus_doc("qs3_qa3")
    parsed = parse_input(doc)
    assert "subgroup" in parsed.echo["subalgebra"]
    assert sorted(parsed.echo["subalgebra"]["subgroup"]) == [0, 3, 4]


def test_basis_extension_echoes_as_basis():
    doc = corpus_doc("m2q_t2")
    parsed = parse_input(doc)
    assert "basis" in parsed.echo["subalgebra"]


def test_missing_subalgebra_defaults_to_self():
    doc = {"field": "Q",
           "algebra": {"group": {"order": 2, "cayley": [[0, 1], [1, 0]]}}}
    parsed = parse_input(doc)
    assert parsed.ext.base.dim == parsed.ext.total.dim == 2


def test_module_actions_roundtrip():
    doc = corpus_doc("qc2_q")
    parsed = parse_input(doc)
    assert len(parsed.modules) == 1
    m = parsed.modules[0]
    assert m.label == "sign"
    again = module_json(m)
    assert again["label"] == "sign"
    assert "left_action" in again and "right_action" in again


# -- certificate codecs ----------------------------------------------------------

def test_certificate_payloads_roundtrip_and_verify(built):
    b = built("qc2_q")
    cr, cls = b.cr, b.cls

    def again(kind, cert, cr, **side):
        dims = cr.dims()
        return certificate_from_json(
            kind, cr.field, certificate_json(cr.field, cert, dims), dims, "$",
            **side)

    assert verify_separability(cr, again(
        SeparabilityCertificate, cls.separability_element, cr))
    assert verify_split(cr, again(
        SplitCertificate, cls.conditional_expectation, cr))
    d2 = again(D2Certificate, cls.left_quasibase, cr, side="left")
    assert d2.side == "left"
    assert verify_d2(cr, d2)

    hb = built("m2q_q")
    assert verify_hsep(hb.cr, again(HSepCertificate, hb.cls.hsep_system,
                                    hb.cr))


def test_certificate_codec_rejects_bad_side():
    f = QQ
    dims = {"tensor_square": 2, "algebra": 2, "subalgebra": 1}
    for side in ("middle", "right"):
        with pytest.raises(InputError, match="side"):
            certificate_from_json(D2Certificate, f,
                                  {"side": side, "pairs": []}, dims, "$",
                                  side="left")


def test_algebra_json_group_form_kept():
    doc = corpus_doc("qs3_qa3")
    parsed = parse_input(doc)
    out = algebra_json(parsed.ext.total)
    assert "group" in out
    back = parse_algebra(parsed.field, out, "$")
    assert back.mult == parsed.ext.total.mult


def test_extension_json_matches_parse(built):
    for name in ("qc2_q", "m2q_t2", "qxq_q"):
        parsed = parse_input(corpus_doc(name))
        spec = extension_json(parsed.ext)
        back = parse_extension(parsed.ext.total, spec, "$")
        assert back.iota == parsed.ext.iota
