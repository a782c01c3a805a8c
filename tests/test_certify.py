"""Certificates: search, substitution verification, tamper detection."""

from dataclasses import fields

import pytest

from ringext.certify import (Classification, D2Certificate, HSepCertificate,
                             HSepPair, QuasibasePair, SeparabilityCertificate,
                             SplitCertificate, base_module_projectivity,
                             certificate_kinds, classify, d2_summand_witness,
                             endo_ring_probe, find_conditional_expectation,
                             find_d2_quasibase, find_hsep_system,
                             find_separability_element, hsep_summand_witness,
                             module_facts, verify_d2, verify_hsep,
                             verify_separability, verify_split)
from ringext.algebra import trivial_algebra
from ringext.linalg import Matrix

from tests.conftest import CORPUS_NAMES, EXPECTED_FLAGS
from tests.helpers import scale, unit_vec
from tests.oracles import reference_d2_quasibase


def times(f, c, v):
    """c v for a pair vector v and a nonzero c."""
    return tuple((j, f.mul(f.of(c), x)) for j, x in v)


def plus(f, u, v):
    """u + v for pair vectors."""
    return f.comb([u, v], [(0, f.one), (1, f.one)])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_flag_table(name, built):
    cls = built(name).cls
    got = tuple(getattr(cls, k.key) is not None for k in certificate_kinds())
    assert got == EXPECTED_FLAGS[name]


def test_classification_holds_the_table_keys_in_order():
    """Classification holds the table's certificates, in table order, then
    the probes: a verdict is its certificate being present, not a field."""
    assert [fld.name for fld in fields(Classification)] == [
        k.key for k in certificate_kinds()] + [
        "endo_d2", "base_projective", "facts", "consistency_notes"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_found_certificate_verifies(name, built):
    b = built(name)
    cr, cls = b.cr, b.cls
    if cls.separability_element is not None:
        assert verify_separability(cr, cls.separability_element)
    if cls.conditional_expectation is not None:
        assert verify_split(cr, cls.conditional_expectation)
    if cls.hsep_system is not None:
        assert verify_hsep(cr, cls.hsep_system)
    if cls.left_quasibase is not None:
        assert verify_d2(cr, cls.left_quasibase)
    if cls.right_quasibase is not None:
        assert verify_d2(cr, cls.right_quasibase)


# -- tampering: a corrupted certificate must fail substitution ---------------

def test_tampered_separability_element_rejected(built):
    b = built("qs3_qa3")
    cert = b.cls.separability_element
    f = b.cr.field
    bad = SeparabilityCertificate(times(f, 2, cert.element))
    assert not verify_separability(b.cr, bad)
    shifted = SeparabilityCertificate(plus(f, cert.element, unit_vec(f, 0)))
    assert not verify_separability(b.cr, shifted)


def test_tampered_expectation_rejected(built):
    b = built("qc2_q")
    cert = b.cls.conditional_expectation
    f = b.cr.field
    bad = SplitCertificate(scale(cert.expectation, f.of(3)))
    assert not verify_split(b.cr, bad)
    wrong_shape = SplitCertificate(Matrix.identity(f, b.cr.ext.total.dim))
    assert not verify_split(b.cr, wrong_shape)


def test_tampered_hsep_system_rejected(built):
    b = built("m2q_q")
    cert = b.cls.hsep_system
    f = b.cr.field
    assert verify_hsep(b.cr, cert)
    bad_pairs = [HSepPair(p.casimir, times(f, 2, p.multiplier))
                 for p in cert.pairs]
    assert not verify_hsep(b.cr, HSepCertificate(bad_pairs))
    # a non-Casimir first leg must be rejected even if the sum works out
    non_casimir = HSepPair(b.cr.q.pure(unit_vec(f, 1),
                                     unit_vec(f, 2)),
                           b.cr.ext.total.unit)
    assert not verify_hsep(b.cr, HSepCertificate([non_casimir]))


def test_tampered_quasibase_rejected(built):
    b = built("qc2_q")
    cert = b.cls.left_quasibase
    f = b.cr.field
    assert verify_d2(b.cr, cert)
    bad = D2Certificate("left", [QuasibasePair(p.tensor, scale(p.endo, f.of(2)))
                                 for p in cert.pairs])
    assert not verify_d2(b.cr, bad)
    flipped = D2Certificate("right", cert.pairs)
    assert not verify_d2(b.cr, flipped) or b.cls.right_quasibase is not None


def test_empty_certificates_rejected_on_nontrivial_extension(built):
    b = built("qc2_q")
    assert not verify_hsep(b.cr, HSepCertificate([]))
    assert not verify_d2(b.cr, D2Certificate("left", []))


# -- each verifier condition rejects on its own -------------------------------
# Every certificate below satisfies all conditions of its verifier but one.

def test_separability_element_must_be_a_casimir(built):
    cr = built("qs3_qa3").cr
    one = cr.one_tensor_one()
    assert cr.mu_matrix.apply(one) == cr.ext.total.unit
    assert not cr.casimir_space.contains(one)
    assert not verify_separability(cr, SeparabilityCertificate(one))


def test_expectation_must_be_base_bilinear(built):
    b = built("qs3_qa3")
    cr, f = b.cr, b.cr.field
    a, base = cr.ext.total, cr.ext.base
    # add x -> x_s . 1 for a group element s outside the subgroup: still
    # a unital retraction, but no longer base-linear
    s = min(set(range(a.dim)) - set(cr.ext.subgroup()))
    bump = Matrix.from_pairs(f, base.dim, a.dim,
                             [unit_vec(f, s)] + [()] * (base.dim - 1))
    e = b.cls.conditional_expectation.expectation + bump
    assert e.apply(a.unit) == base.unit
    assert e @ cr.ext.iota == Matrix.identity(f, base.dim)
    assert not verify_split(cr, SplitCertificate(e))


def test_hsep_pairs_need_casimirs_and_centralizer_multipliers(built):
    b = built("m2q_t2")
    cr, f = b.cr, b.cr.field
    pairs = b.cls.hsep_system.pairs
    a = cr.ext.total
    # cancelling pairs leave the sum at 1 (x) 1
    leg = cr.q.pure(unit_vec(f, 1), unit_vec(f, 2))
    assert not cr.casimir_space.contains(leg)
    neg_unit = times(f, -1, a.unit)
    assert not verify_hsep(cr, HSepCertificate(
        pairs + [HSepPair(leg, a.unit), HSepPair(leg, neg_unit)]))
    z = unit_vec(f, 1)
    assert not cr.centralizer_space.contains(z)
    p0 = pairs[0]
    shifted = [HSepPair(p0.casimir, plus(f, p0.multiplier, z)),
               HSepPair(p0.casimir, times(f, -1, z))]
    assert not verify_hsep(cr, HSepCertificate(shifted + pairs[1:]))


def test_quasibase_pairs_need_invariant_tensors_and_bimodule_endos(built):
    b = built("qs3_qa3")
    cr, f = b.cr, b.cr.field
    n = cr.ext.total.dim
    for qb in (b.cls.left_quasibase, b.cls.right_quasibase):
        # cancelling pairs leave the quasibase identity intact
        leg = cr.q.pure(unit_vec(f, 1), unit_vec(f, 0))
        assert not cr.tensor_space.contains(leg)
        eye = Matrix.identity(f, n)
        assert not verify_d2(cr, D2Certificate(qb.side, qb.pairs + [
            QuasibasePair(leg, eye), QuasibasePair(leg, scale(eye, f.of(-1)))]))
        bump = Matrix.from_pairs(f, n, n, [unit_vec(f, 1)] + [()] * (n - 1))
        assert cr.endo_space.coordinates(bump) is None
        t = cr.one_tensor_one()
        assert not verify_d2(cr, D2Certificate(qb.side, qb.pairs + [
            QuasibasePair(t, bump), QuasibasePair(t, scale(bump, f.of(-1)))]))


def test_quasibase_identity_at_free_points_rejects_without_samples(built):
    b = built("qc2_q")
    f = b.cr.field
    for qb in (b.cls.left_quasibase, b.cls.right_quasibase):
        assert verify_d2(b.cr, qb)
        bad = D2Certificate(qb.side, [QuasibasePair(p.tensor, scale(p.endo, f.of(2)))
                                      for p in qb.pairs])
        assert not verify_d2(b.cr, bad)


# -- searches against structure ---------------------------------------------

def test_separability_element_is_symmetric_idempotent_source(built):
    # e = (1/2)(1 (x) 1 + g (x) g) for C2; verify via mu and centrality
    b = built("qc2_q")
    cr = b.cr
    e = b.cls.separability_element.element
    f = cr.field
    assert cr.mu_matrix.apply(e) == cr.ext.total.unit
    for i in range(cr.ext.total.dim):
        x = unit_vec(f, i)
        lhs = cr.q.module.left_operator(x).apply(e)
        rhs = cr.q.module.right_operator(x).apply(e)
        assert lhs == rhs


def test_modular_group_algebra_has_no_separability_element(built):
    # char divides group order: the search must come up empty
    assert find_separability_element(built("f2c2_f2").cr) is None
    assert find_separability_element(built("f3c3_f3").cr) is None


def test_no_expectation_for_matrix_over_triangular(built):
    assert find_conditional_expectation(built("m2q_t2").cr) is None


def test_hsep_only_for_central_simple_like_cases(built):
    assert find_hsep_system(built("m2q_q").cr) is not None
    assert find_hsep_system(built("qs3_qa3").cr) is None


def test_no_quasibase_for_group_algebra_over_nonnormal_part(built):
    cr = built("f7s3_f7t").cr
    assert find_d2_quasibase(cr, "left") is None
    assert find_d2_quasibase(cr, "right") is None
    assert d2_summand_witness(cr, "left") is None
    assert d2_summand_witness(cr, "right") is None


def test_reverse_order_quasibase_also_verifies(built):
    cr = built("qs3_qa3").cr
    qb = reference_d2_quasibase(cr, "right", reverse_order=True)
    assert qb is not None
    assert qb.reverse_order
    assert verify_d2(cr, qb)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_quasibase_matches_per_tensor_reference(name, built):
    """The orbit-matrix system gives the certificate the per-(t, s)
    generators give on both sides, and the reference in reverse pair order
    finds one exactly when it does."""
    cr = built(name).cr
    left_d2, right_d2 = EXPECTED_FLAGS[name][3:]
    for side, d2 in (("left", left_d2), ("right", right_d2)):
        got = find_d2_quasibase(cr, side)
        assert (got is not None) == d2
        assert got == reference_d2_quasibase(cr, side)
        alt = reference_d2_quasibase(cr, side, reverse_order=True)
        assert (alt is not None) == d2
        assert alt is None or verify_d2(cr, alt)


def test_hsep_induces_left_quasibase_explicitly(built):
    # each H-separability pair gives a quasibase pair: the Casimir tensor
    # with right multiplication by the centralizer multiplier
    for name in ("b_eq_a", "m2q_q", "m2q_t2"):
        b = built(name)
        cr, hsep = b.cr, b.cls.hsep_system
        assert hsep is not None
        a = cr.ext.total
        pairs = [QuasibasePair(p.casimir, a.right_mult_matrix(p.multiplier))
                 for p in hsep.pairs]
        assert verify_d2(cr, D2Certificate("left", pairs))


# -- witnesses and probes ----------------------------------------------------

def test_summand_witnesses_track_quasibases(built):
    for name in CORPUS_NAMES:
        b = built(name)
        cls = b.cls
        assert ((d2_summand_witness(b.cr, "left") is None)
                == (cls.left_quasibase is None))
        assert ((d2_summand_witness(b.cr, "right") is None)
                == (cls.right_quasibase is None))
        assert ((hsep_summand_witness(b.cr) is None)
                == (cls.hsep_system is None))


def test_endo_ring_probe_matches_when_defined(built):
    for name in CORPUS_NAMES:
        b = built(name)
        right = base_module_projectivity(b.cr)["right"]
        probe = endo_ring_probe(b.cr, right is not None)
        if probe is not None:
            assert probe == (b.cls.left_quasibase is not None)
        assert b.cls.endo_d2 == probe


def test_classify_asks_the_right_base_projectivity_question_once(
        built, monkeypatch):
    """A restricted to a right B-module against B_B: classify used to solve
    it for base_module_projectivity and again for endo_ring_probe."""
    cr = built("qq8_qi").cr
    a, b = cr.ext.total, cr.ext.base
    asked = []
    ask = cr.summand

    def counted(m, n):
        if (m.left_algebra is trivial_algebra(cr.field) and m.dim == a.dim
                and m.right_algebra is b and n.right_algebra is b
                and n.dim == b.dim):
            asked.append(m)
        return ask(m, n)

    monkeypatch.setattr(cr, "summand", counted)
    classify(cr)
    assert len(asked) == 1


def test_base_projectivity_structure(built):
    facts = base_module_projectivity(built("qs3_qa3").cr)
    assert set(facts) == {"left", "right"}
    assert facts["left"] is not None and facts["right"] is not None
    # group algebra over subgroup algebra is free, hence projective, both sides
    assert facts["left"].verify()


def test_module_facts_shape_and_generator_tracks_hsep(built):
    for name in CORPUS_NAMES:
        b = built(name)
        facts = module_facts(b.cr)
        assert set(facts) == {"cent_over_tensor_ring", "cent_over_endo_ring"}
        for v in facts.values():
            assert set(v) == {"projective", "generator", "cyclic_via_unit"}
        assert facts["cent_over_tensor_ring"]["generator"] == (
            b.cls.hsep_system is not None)


def test_classification_consistency_notes_present(built):
    cls = built("m2q_q").cls
    assert any("summand" in n for n in cls.consistency_notes)
    assert any("H-separability" in n for n in cls.consistency_notes)
