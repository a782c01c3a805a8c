"""Group-algebra theorems on A4, past the corpus sizes (|G| = 12).

For H <= G over a field k: k[G] over k[H] is depth two on either side
exactly when H is normal, separable exactly when char k does not divide
[G:H], and always split.  A4 over V4 (normal, index 3) and over C2 (not
normal, index 6) put the summand searches on inputs larger than any in
the corpus.
"""

import json

import pytest

from ringext.report import analysis_report, report_json, verify_report
from ringext.serialize import parse_input

from tests.groups import alternating4, group_doc, subgroup

DOUBLE_TRANSPOSITIONS = [(1, 0, 3, 2), (2, 3, 0, 1)]


@pytest.mark.parametrize("field, char", [("Q", 0), ({"Fp": 3}, 3)])
@pytest.mark.parametrize("gens, normal", [(DOUBLE_TRANSPOSITIONS, True),
                                          (DOUBLE_TRANSPOSITIONS[:1], False)])
def test_a4_verdicts_follow_the_theorems(field, char, gens, normal):
    cayley, elements = alternating4()
    sub = subgroup(cayley, [elements.index(g) for g in gens])
    assert len(sub) == 2 * len(gens)
    index = len(cayley) // len(sub)
    doc = analysis_report(parse_input(group_doc(cayley, sub, field)))
    c = doc["classification"]
    assert c["left_depth_two"] == c["right_depth_two"] == normal
    assert c["separable"] == (char == 0 or index % char != 0)
    assert c["split"]
    assert doc["normality"]["hopf"]["subgroup_normal"] == normal
    ok, messages = verify_report(json.loads(report_json(doc)))
    assert ok, messages
