"""The comparison maps check linearity on generators of the acting ring;
each check must read as the basis-wide check it replaced."""

import pytest

from ringext import equivalences
from ringext.algebra import FDAlgebra
from ringext.canonical import build_canonical_rings
from ringext.certify import classify
from ringext.linalg import Matrix
from ringext.report import equivalence_block
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import GROUP_CASES, case_doc
from tests.oracles import reference_generators

LINEARITY = {"left_linear", "right_linear", "base_linear",
             "tensor_ring_linear", "endo_ring_linear", "ring_linear"}


def checked(block: dict) -> set:
    """The names of the checks of every verdict in an equivalence block."""
    if "checks" in block:
        return set(block["checks"])
    return set().union(*(checked(v) for v in block.values()
                         if isinstance(v, dict)))


@pytest.mark.parametrize("name", CORPUS_NAMES + sorted(GROUP_CASES))
def test_generator_checks_match_the_basis_wide_checks(name, built,
                                                      monkeypatch):
    """gamma, induction, coinduction, pi_A, chi, rho, split_counit and
    evaluation, on the regular module and every input module."""
    if name in GROUP_CASES:
        parsed = parse_input(case_doc(name))
        cr = build_canonical_rings(parsed.ext)
        cls = classify(cr)
    else:
        b = built(name)
        parsed, cr, cls = b.parsed, b.cr, b.cls
    got = equivalence_block(cr, cls, parsed.modules)
    monkeypatch.setattr(FDAlgebra, "generators", reference_generators)
    # fresh rings, so that no comparison comes from the memo
    want = equivalence_block(build_canonical_rings(parsed.ext), cls,
                             parsed.modules)
    assert got == want
    assert LINEARITY <= checked(got)


def test_a_perturbed_forward_map_fails_both_checks(monkeypatch):
    """pi plus one at its corner entry is linear over no ring: both
    versions say so for every ring pi_A checks."""
    pi_matrix = equivalences._pi_matrix

    def perturbed(*args):
        pi = pi_matrix(*args)
        f = pi.field
        return pi + Matrix(f, pi.rows, pi.cols,
                           (((0, f.one),),) + ((),) * (pi.rows - 1))

    monkeypatch.setattr(equivalences, "_pi_matrix", perturbed)
    parsed = parse_input(corpus_doc("qs3_qa3"))
    checks = {"generators": equivalences.pi_A_iso(
        build_canonical_rings(parsed.ext)).checks}
    monkeypatch.setattr(FDAlgebra, "generators", reference_generators)
    checks["basis"] = equivalences.pi_A_iso(
        build_canonical_rings(parsed.ext)).checks
    assert checks["generators"] == checks["basis"]
    linearity = LINEARITY & set(checks["basis"])
    assert linearity and not any(checks["basis"][k] for k in linearity)
