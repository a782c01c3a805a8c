"""The schema checker against jsonschema's Draft7Validator.

Every document the tool reads or writes (the corpus inputs, the golden
reports and the `certify --json` outputs) is mutated by hypothesis: a key
deleted or added, a value swapped for one of another JSON type, a float
or a string outside the scalar grammar put in for a scalar.  ringext's
checker must accept exactly what Draft7Validator accepts, once floats are
never integers; the plain Draft7Validator differs only where it reads an
integral float as an integer.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringext.report import certificate_kinds
from ringext.schema import Schema, SchemaError, schema

from tests.conftest import (CORPUS_NAMES, corpus_doc, draft7_validators,
                            expected_doc)

VALUES = [True, False, 0, 1, 1.0, -1, "1", "x", None, [], {}, [1],
          {"name": "x"}, {"status": "verified"}]
SCALARS = [0.5, 2.0, -3.0, "1_0", "0.5e1", " 1", "3/4", -3]
KEYS = ["extra", "name", "status", "kind", "verdict", "dims", "certify",
        "classification", "left_action", "right_action", "Fp", "group",
        "subgroup", "basis", "reverse_order"]


@pytest.fixture(scope="module")
def validators():
    return draft7_validators(strict_integers=True), draft7_validators()


def _paths(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for step, child in items:
        yield from _paths(child, path + (step,))


@st.composite
def mutations(draw, docs):
    """(a mutated copy of one of docs, the value the mutation put in)."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    nodes = list(_paths(doc))
    how = draw(st.sampled_from(["delete", "add", "swap", "scalar"]))
    if how == "delete":
        keyed = [p for p, _ in nodes if p and isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
        return doc, None
    if how == "add":
        path = draw(st.sampled_from([p for p, n in nodes if isinstance(n, dict)]))
        value = draw(st.sampled_from(VALUES))
        _at(doc, path)[draw(st.sampled_from(KEYS))] = value
        return doc, value
    if how == "scalar":
        leaves = [p for p, n in nodes if p and type(n) in (int, str)]
        path, value = draw(st.sampled_from(leaves)), draw(st.sampled_from(SCALARS))
    else:
        path = draw(st.sampled_from([p for p, _ in nodes if p]))
        value = draw(st.sampled_from(VALUES))
    _at(doc, path[:-1])[path[-1]] = value
    return doc, value


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _agree(validators, name, doc, value):
    strict, plain = validators
    ours = schema(name).first_fault(doc) is None
    assert ours is strict[name].is_valid(doc)
    if isinstance(value, float) and plain[name].is_valid(doc) is not ours:
        assert value.is_integer() and not ours


@settings(max_examples=60, deadline=None)
@given(mutations([corpus_doc(n) for n in CORPUS_NAMES]))
def test_input_mutations_agree_with_draft7(validators, mutation):
    _agree(validators, "input.schema.json", *mutation)


@settings(max_examples=60, deadline=None)
@given(mutations([expected_doc(n) for n in CORPUS_NAMES]))
def test_report_mutations_agree_with_draft7(validators, mutation):
    _agree(validators, "report.schema.json", *mutation)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certify_output_mutations_agree_with_draft7(validators, certify_docs,
                                                    data):
    docs = [certify_docs(n)[k.name][1] for n in CORPUS_NAMES
            for k in certificate_kinds()]
    _agree(validators, "report.schema.json", *data.draw(mutations(docs)))


def test_unmutated_documents_pass(certify_docs):
    docs = [expected_doc(n) for n in CORPUS_NAMES]
    docs += [d for n in CORPUS_NAMES for _, d in certify_docs(n).values()]
    assert all(schema("report.schema.json").first_fault(d) is None
               for d in docs)
    assert all(schema("input.schema.json").first_fault(corpus_doc(n)) is None
               for n in CORPUS_NAMES)


@pytest.mark.parametrize("toy", [
    {"anyOf": [{"type": "string"}]},
    {"properties": {"a": {"not": {"type": "null"}}}},
    {"items": {"format": "date"}},
    {"oneOf": [{"$ref": "#/definitions/x"}],
     "definitions": {"x": {"patternProperties": {}}}},
    {"type": "number"},
    {"items": [{"type": "string"}]},
], ids=["anyOf", "nested_not", "format", "through_ref", "number_type",
        "tuple_items"])
def test_unsupported_keyword_is_refused_when_the_schema_loads(toy):
    with pytest.raises(SchemaError):
        Schema("toy", {"toy": toy}.__getitem__)


def test_no_branch_reports_its_deepest_fault():
    toy = {"oneOf": [{"type": "object", "required": ["a"]},
                     {"type": "object",
                      "properties": {"b": {"items": {"type": "integer"}}}}]}
    fault = Schema("toy", {"toy": toy}.__getitem__).first_fault(
        {"b": [1, "2"]})
    assert (fault.location(), fault.location(1)) == ("$.b[1]", "$.b")
    assert fault.reason == "expected an integer, got a string '2'"


def test_type_and_enum_faults_name_their_own_expectation():
    toy = {"type": "string", "enum": ["a"]}
    check = Schema("toy", {"toy": toy}.__getitem__).first_fault
    assert check(1).reason == "expected a string, got an integer 1"
    assert check("b").reason == "expected \"a\", got a string 'b'"
