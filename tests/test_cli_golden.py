"""Every subcommand's JSON output against the analyze golden of the same
input: the blocks that equivalence, normality, hopf and certify print are
the ones analyze writes, and every output's dims are the golden's."""

import json

import pytest

from ringext.report import certificate_kinds

from tests.conftest import CORPUS_NAMES, corpus_doc, expected_doc
from tests.test_cli import input_path, run_cli

KINDS = certificate_kinds()


def _commands(name: str) -> list:
    """hopf runs where the golden has a hopf block, on a subgroup of a
    group; elsewhere it refuses the input."""
    labels = [m["label"] for m in corpus_doc(name).get("modules", [])]
    hopf = [["hopf"]] if "hopf" in expected_doc(name)["normality"] else []
    return ([["equivalence", "--module", label]
             for label in ["regular", *labels]]
            + [["normality"], *hopf]
            + [["certify", k.name] for k in KINDS])


CASES = [(name, argv) for name in CORPUS_NAMES for argv in _commands(name)]


@pytest.mark.parametrize("name, argv", CASES,
                         ids=[f"{n}-{'-'.join(a)}" for n, a in CASES])
def test_subcommand_output_matches_the_analyze_golden(capsys, name, argv):
    golden = expected_doc(name)
    code, out, err = run_cli(capsys, argv[0], *argv[1:], input_path(name),
                             "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if argv[0] == "hopf":
        assert "dims" not in doc
        assert doc["normality"]["hopf"] == golden["normality"]["hopf"]
        return
    assert doc["dims"] == golden["dims"]
    if argv[0] == "equivalence":
        module = argv[2]
        assert doc["equivalences"] == {
            key: golden["equivalences"][key]
            for key in (module, "base_change_of_total")}
    elif argv[0] == "normality":
        assert doc["normality"] == golden["normality"]
    else:
        kind = next(k for k in KINDS if k.name == argv[1])
        want = golden["classification"]["certificates"].get(kind.key)
        assert doc["certify"]["verdict"] is (want is not None)
        assert doc["certify"]["certificate"] == want
