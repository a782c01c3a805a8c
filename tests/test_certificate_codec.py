"""The one certificate codec (serialize.certificate_from_json) on
malformed payloads: a field short by one entry is refused at its JSON
path, and no certificate leaf swapped for another JSON value makes
verify end in an internal error.

Round-trips of every golden and certify payload, and a quasibase on the
wrong side, are tests/test_report.py's.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringext.cli import main
from ringext.report import verify_report

from tests.conftest import CORPUS_NAMES, expected_doc

CERTS = "$.classification.certificates"

# a certificate field and where in its payload to cut one entry: a vector
# loses its last scalar, a matrix its last row (-1 is the last pair)
SHORT = [("separability_element", ("element",)),
         ("conditional_expectation", ("expectation",)),
         ("hsep_system", ("pairs", -1, "casimir")),
         ("hsep_system", ("pairs", -1, "multiplier")),
         ("left_quasibase", ("pairs", -1, "tensor")),
         ("right_quasibase", ("pairs", -1, "endo"))]

# what a mutation may put in place of a leaf: scalars in and out of the
# grammar, a float, null, booleans, containers and strings
POOL = [0, 1, -1, 7, 2 ** 70, "1/2", "-3/4", "0", 0.5, 2.0, None, True,
        False, [], [0], [["1"]], {}, {"side": "left"}, "x", "", "left",
        "right"]


@pytest.mark.parametrize("key, path", SHORT,
                         ids=[f"{k}.{p[-1]}" for k, p in SHORT])
def test_a_field_short_by_one_entry_is_refused_at_its_path(key, path):
    doc = expected_doc("m2q_q")
    payload = doc["classification"]["certificates"][key]
    holder = payload
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]].pop()
    at = "".join(f"[{len(payload['pairs']) - 1}]" if step == -1
                 else f".{step}" for step in path)
    ok, msgs = verify_report(doc)
    assert not ok and len(msgs) == 1 and msgs[0].startswith(
        f"certificate payload malformed: {CERTS}.{key}{at}: expected "), msgs


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else None
    if items is None:
        yield path
        return
    for step, child in items:
        yield from _leaves(child, path + (step,))


@pytest.fixture(scope="module")
def documents(certify_docs):
    """Every golden and every certify document with a certificate, each
    with the path of its certificates within it."""
    docs = [(expected_doc(n), ("classification", "certificates"))
            for n in CORPUS_NAMES]
    docs += [(doc, ("certify", "certificate")) for n in CORPUS_NAMES
             for _, doc in certify_docs(n).values()
             if doc["certify"]["certificate"] is not None]
    return docs


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "report.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_certificate_leaf_never_breaks_verify(documents, target,
                                                        data):
    doc, where = data.draw(st.sampled_from(documents))
    doc = copy.deepcopy(doc)
    certs = doc[where[0]][where[1]]
    path = data.draw(st.sampled_from(list(_leaves(certs))))
    holder = certs
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = data.draw(st.sampled_from(POOL))
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(target)]) in (0, 1)
