"""The early-stopping summand search and the regular-source hom spaces,
each against the full computation it replaced."""

import pytest

from ringext import bimodule, certify, linalg
from ringext.algebra import (GroupData, group_algebra, subalgebra_extension,
                             trivial_algebra)
from ringext.bimodule import (Bimodule, hom_space, keep_side, regular_module,
                              restrict)
from ringext.canonical import build_canonical_rings
from ringext.certify import classify
from ringext.equivalences import centralizer_projectivity
from ringext.linalg import GF, QQ, Matrix, Subspace
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import (D4_FLIP, GROUP_CASES, Q8_C4, S3_C2, case_doc,
                          dihedral4, group_case, subgroup, symmetric3)
from tests.oracles import reference_hom_basis, reference_summand_witness


def test_group_cases_are_the_named_subgroups():
    for (builder, gen), size, normal in ((S3_C2, 2, False), (D4_FLIP, 2, False),
                                         (Q8_C4, 4, True)):
        cayley, elements = builder()
        sub = subgroup(cayley, [elements.index(gen)])
        inverse = [row.index(0) for row in cayley]
        assert len(sub) == size
        assert normal == all(cayley[cayley[g][h]][inverse[g]] in sub
                             for g in range(len(cayley)) for h in sub)
    cayley, elements = dihedral4()
    center = [g for g in range(8) if all(cayley[g][h] == cayley[h][g]
                                         for h in range(8))]
    assert elements.index(D4_FLIP[1]) not in center


def recorded_searches(doc, monkeypatch):
    """Every (m, n) that classify, module_facts and
    centralizer_projectivity hand to summand_witness, with the answer it
    gave."""
    cr = build_canonical_rings(parse_input(doc).ext)
    calls = []

    def recording(m, n, hom=None):
        found = search(m, n, hom)
        calls.append((m, n, found))
        return found

    search = bimodule.summand_witness
    monkeypatch.setattr(bimodule, "summand_witness", recording)
    monkeypatch.setattr(certify, "summand_witness", recording)
    classify(cr)
    centralizer_projectivity(cr)
    monkeypatch.undo()
    return cr, calls


@pytest.mark.parametrize("name", CORPUS_NAMES + sorted(GROUP_CASES))
def test_summand_verdicts_match_the_full_search(name, monkeypatch):
    doc = case_doc(name) if name in GROUP_CASES else corpus_doc(name)
    cr, calls = recorded_searches(doc, monkeypatch)
    assert len(calls) == 12
    for m, n, found in calls:
        reference = reference_summand_witness(m, n, cr.hom)
        assert (found is None) == (reference is None), (m, n)
        if found is not None:
            assert found.verify() and reference.verify()


def test_search_stops_before_the_last_composite(monkeypatch):
    # A is free over C2 in kS3, so the identity of A_B is reached before
    # the search has formed every composite
    cr = build_canonical_rings(parse_input(group_case(*S3_C2, "Q")).ext)
    inserted = []

    def counting(*args):
        inserted.append(args)
        return linalg.echelon_insert(*args)

    m = keep_side(restrict(cr.a_reg, cr.ext, "right"), "right")
    n = regular_module(cr.ext.base, "right")
    monkeypatch.setattr(bimodule, "echelon_insert", counting)
    wit = bimodule.summand_witness(m, n, hom_space)
    assert wit is not None and wit.verify()
    assert len(inserted) < hom_space(m, n).dim * hom_space(n, m).dim


def trivial_group():
    return GroupData(1, [[0]])


def test_failed_witness_still_raises(monkeypatch):
    monkeypatch.setattr(bimodule.SummandWitness, "verify", lambda self: False)
    a = group_algebra(QQ, trivial_group())
    with pytest.raises(bimodule.BimoduleError, match="own verification"):
        bimodule.summand_witness(regular_module(a, "left"),
                                 regular_module(a, "left"), hom_space)


# -- hom out of a regular module -------------------------------------------------

def regular_sources(cr):
    """(source, target) pairs whose source is regular on one side: A as an
    A-B-bimodule, B_B, T_T and R_R, each into a module it maps to."""
    a, b = cr.ext.total, cr.ext.base
    a_ab = restrict(cr.a_reg, cr.ext, "right")
    q_ab = restrict(cr.q.module, cr.ext, "right")
    b_b = regular_module(b, "right")
    a_b = keep_side(a_ab, "right")
    t_t = regular_module(cr.tensor_ring, "right")
    r_r = regular_module(cr.centralizer, "right")
    return [(a_ab, q_ab), (a_ab, a_ab), (b_b, a_b), (b_b, b_b),
            (t_t, cr.cent_module_tensor), (t_t, t_t),
            (r_r, keep_side(cr.tensor_bimodule_cent, "right")), (r_r, r_r),
            (regular_module(a, "left"), regular_module(a, "left"))]


def assert_matches_reference(m, n, regular=True):
    """hom_space(m, n) against the Kronecker reference; a source that is
    regular or generated by one vector records it as its generating set,
    and the maps solved for their value there, whichever path hom_space
    takes, span the same space."""
    assert (m.generating_set is not None) == regular
    got = hom_space(m, n)
    want = reference_hom_basis(m, n)
    assert list(got.span.basis.pairs) == want
    assert [mat.vec() for mat in got.basis] == list(got.span.basis.pairs)
    if regular:
        side, xs = m.generating_set
        assert len(xs) == 1
        maps = bimodule._maps_over(m, n, side, xs)
        assert list(Subspace.row_space(Matrix(
            m.field, len(maps), m.dim * n.dim, maps)).basis.pairs) == want


@pytest.mark.parametrize("name", ["b_eq_a", "qc2_q", "qs3_qa3", "m2q_t2"])
def test_regular_source_hom_matches_generic_q(name, built):
    for m, n in regular_sources(built(name).cr):
        assert_matches_reference(m, n)


@pytest.mark.parametrize("name", ["qc2_q", "qq8_qi", "qs3_qa3", "m2q_t2",
                                  "f7s3_f7t"])
def test_source_generated_by_one_r_matches_generic(name, built):
    """Maps out of R as a right T-module and as a left S-module, each
    generated by 1_R, solved for their value there."""
    cr = built(name).cr
    r_t, s_r = cr.cent_module_tensor, cr.cent_module_endo
    t_t = regular_module(cr.tensor_ring, "right")
    s_s = regular_module(cr.endo_ring, "left")
    for m, side, n in ((r_t, "right", t_t), (r_t, "right", r_t),
                       (s_r, "left", s_s), (s_r, "left", s_r)):
        assert m.generating_set == (side, (cr.centralizer.unit,))
        assert_matches_reference(m, n)


@pytest.mark.parametrize("case", [S3_C2, Q8_C4])
def test_regular_source_hom_matches_generic_f5(case):
    doc = group_case(*case, {"Fp": 5})
    for m, n in regular_sources(build_canonical_rings(parse_input(doc).ext)):
        assert_matches_reference(m, n)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_regular_source_hom_one_dimensional_algebra(field):
    k = trivial_algebra(field)
    for m in (regular_module(k, "left"), regular_module(k, "right")):
        assert_matches_reference(m, m)
    a = group_algebra(field, trivial_group())
    ext = subalgebra_extension(a, subgroup=[0])
    cr = build_canonical_rings(ext)
    for m, n in regular_sources(cr):
        assert_matches_reference(m, n)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_permuted_regular_action_takes_the_generic_path(field):
    cayley, _ = symmetric3()
    a = group_algebra(field, GroupData(6, cayley))
    reg = regular_module(a, "left")
    # conjugate the regular action by a 3-cycle of basis vectors
    swap = Matrix.from_pairs(field, 6, 6, [[((1, 2, 0)[i] if i < 3 else i,
                                             field.one)] for i in range(6)])
    permuted = Bimodule(a, reg.right_algebra, 6,
                        [swap @ op @ swap.transpose() for op in reg.left_action],
                        reg.right_action, label="A'")
    permuted.validate()
    assert any(op != a.basis_left_mult(i)
               for i, op in enumerate(permuted.left_action))
    assert_matches_reference(permuted, reg, regular=False)
    assert_matches_reference(reg, permuted)
