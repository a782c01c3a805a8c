"""Acceptance gate: one test per published criterion, exact arithmetic only.

Each criterion is a dedicated test function; the terminal summary hook in
conftest.py prints one pass/fail line per criterion at the end of a run.
The corpus lives in corpus/*.json with stored reports in corpus/expected/.
"""

import json

from ringext.bimodule import dual_basis_witness, hom_space, keep_side, \
    regular_module, summand_witness
from ringext.canonical import CanonicalSpaces
from ringext.certify import (D2Certificate, QuasibasePair, certificate_kinds,
                             d2_summand_witness, hsep_summand_witness,
                             module_facts, verify_d2, verify_hsep,
                             verify_separability, verify_split)
from ringext.equivalences import (chi_M, functor_iso_checks, gamma_M,
                                  pi_A_iso, rho_M, triangle_check)
from ringext.linalg import QQ, Matrix
from ringext.normality import (double_centralizer, hopf_normality,
                               prebraided_check)
from ringext.report import analysis_report, report_json
from ringext.serialize import parse_input

from tests import oracles
from tests.conftest import (CORPUS_NAMES, EXPECTED_FLAGS, LEFT_D2, RIGHT_D2,
                            SEPARABLE, corpus_doc, expected_doc)
from tests.groups import GROUP_CASES, case_doc
from tests.modules import random_cyclic_module
from tests.test_equivalences import end_dim
from tests.test_normality import (Q8_SUBGROUPS, S3_SUBGROUPS, default_suite,
                                  quaternion)
from tests.test_algebra import sym3


# -- criterion 1: the golden verdict table -------------------------------------

def test_criterion_1_golden_verdict_table(built):
    for name in CORPUS_NAMES:
        cls = built(name).cls
        got = tuple(getattr(cls, k.key) is not None
                    for k in certificate_kinds())
        assert got == EXPECTED_FLAGS[name], name

    # the individually named verdicts, spelled out: a verdict holds when
    # its certificate is present
    full = built("b_eq_a").cls
    assert full.separability_element is not None
    assert full.conditional_expectation is not None
    assert full.hsep_system is not None
    assert full.left_quasibase is not None
    assert full.right_quasibase is not None

    qc2 = built("qc2_q").cls
    assert qc2.separability_element is not None
    assert qc2.conditional_expectation is not None
    assert qc2.left_quasibase is not None
    assert qc2.right_quasibase is not None

    f2 = built("f2c2_f2").cls
    assert f2.separability_element is None
    assert f2.conditional_expectation is not None

    f3 = built("f3c3_f3").cls
    assert f3.left_quasibase is not None and f3.right_quasibase is not None
    assert f3.separability_element is None

    qs3 = built("qs3_qa3").cls
    assert qs3.separability_element is not None
    assert qs3.conditional_expectation is not None
    assert qs3.left_quasibase is not None
    assert qs3.right_quasibase is not None
    assert qs3.hsep_system is None

    f7 = built("f7s3_f7t").cls
    assert f7.separability_element is not None
    assert f7.conditional_expectation is not None
    assert f7.left_quasibase is None and f7.right_quasibase is None

    m2 = built("m2q_q").cls
    assert m2.hsep_system is not None
    assert m2.separability_element is not None
    assert m2.conditional_expectation is not None
    assert m2.left_quasibase is not None
    assert m2.right_quasibase is not None

    qxq = built("qxq_q").cls
    assert qxq.separability_element is not None
    assert qxq.hsep_system is None


def test_criterion_1_stored_reports_reproduced(built):
    for name in CORPUS_NAMES:
        b = built(name)
        live = analysis_report(b.parsed, rings=b.cr, classification=b.cls)
        live.pop("generated_at")
        assert live == expected_doc(name), name


# -- criterion 2: certificates re-verify by substitution ------------------------

def test_criterion_2_certificates_substitute(built):
    for name in CORPUS_NAMES:
        b = built(name)
        cr, cls = b.cr, b.cls
        if cls.separability_element is not None:
            assert verify_separability(cr, cls.separability_element), name
        if cls.conditional_expectation is not None:
            assert verify_split(cr, cls.conditional_expectation), name
        if cls.hsep_system is not None:
            assert verify_hsep(cr, cls.hsep_system), name
        if cls.left_quasibase is not None:
            assert verify_d2(cr, cls.left_quasibase), name
        if cls.right_quasibase is not None:
            assert verify_d2(cr, cls.right_quasibase), name


# -- criterion 3: redundant characterizations agree ------------------------------

def test_criterion_3_characterization_crosschecks(built):
    probes_seen = 0
    for name in CORPUS_NAMES:
        b = built(name)
        cr, cls = b.cr, b.cls
        # quasibase existence against the summand characterization, both sides
        assert ((d2_summand_witness(cr, "left") is None)
                == (cls.left_quasibase is None)), name
        assert ((d2_summand_witness(cr, "right") is None)
                == (cls.right_quasibase is None)), name
        assert ((hsep_summand_witness(cr) is None)
                == (cls.hsep_system is None)), name
        # the endomorphism-ring detection, whenever its hypothesis holds
        if cls.endo_d2 is not None:
            probes_seen += 1
            assert cls.endo_d2 == (cls.left_quasibase is not None), name
        # an H-separability system induces an explicit left quasibase
        if cls.hsep_system is not None:
            a = cr.ext.total
            pairs = [QuasibasePair(p.casimir,
                                   a.right_mult_matrix(p.multiplier))
                     for p in cls.hsep_system.pairs]
            induced = D2Certificate("left", pairs)
            assert verify_d2(cr, induced), name
    assert probes_seen > 0


# -- criterion 4: the equivalence suite ------------------------------------------

def test_criterion_4_equivalence_suite(built):
    # triangle identity needs no hypotheses anywhere
    for name in CORPUS_NAMES:
        cr = built(name).cr
        assert triangle_check(cr, cr.a_reg), name

    # gamma with its certified inverse on every separable extension,
    # on the regular module and on one seeded random module
    for name in SEPARABLE:
        b = built(name)
        sep = b.cls.separability_element
        for m in (b.cr.a_reg,
                  random_cyclic_module(b.cr.ext.total, "left", 2, seed=29)):
            iso = gamma_M(b.cr, m, separability=sep)
            assert iso.status == "verified", (name, m.label)
            assert iso.route == "separability-element"
            f = b.cr.field
            assert iso.forward @ iso.backward == \
                Matrix.identity(f, iso.codomain_dim)
            assert iso.backward @ iso.forward == \
                Matrix.identity(f, iso.domain_dim)
            assert iso.naturality_samples == end_dim(b.cr, keep_side(m, "left"))
            assert iso.checks["naturality"]

    # the comparison maps on every left depth-two extension
    for name in LEFT_D2:
        b = built(name)
        lqb = b.cls.left_quasibase
        a_left = end_dim(b.cr, keep_side(b.cr.a_reg, "left"))
        a_right = end_dim(b.cr, keep_side(b.cr.a_reg, "right"))
        fi = functor_iso_checks(b.cr, b.cr.a_reg, left_quasibase=lqb)
        for key in ("induction", "coinduction"):
            assert fi[key].status == "verified", (name, key)
            assert fi[key].naturality_samples == a_left
            assert fi[key].checks["naturality"]
        pia = pi_A_iso(b.cr, left_quasibase=lqb)
        assert pia.status == "verified", name
        chi = chi_M(b.cr, b.cr.a_reg, left_quasibase=lqb)
        assert chi.status == "verified", name
        assert chi.naturality_samples == a_right
        rho = rho_M(b.cr, b.cr.a_reg, left_quasibase=lqb)
        assert rho.status == "verified", name
        assert rho.naturality_samples == a_right


# -- criterion 5: the progenerator detection --------------------------------------

def test_criterion_5_progenerator_tracks_hseparability(built):
    # matrix algebra over its center: projective and a generator
    m2 = built("m2q_q")
    assert dual_basis_witness(m2.cr.cent_module_tensor, m2.cr.tensor_ring,
                              "right", m2.cr.summand) is not None
    t_reg = regular_module(m2.cr.tensor_ring, "right")
    assert summand_witness(t_reg, m2.cr.cent_module_tensor,
                           hom_space) is not None

    # group pair: projective but not a generator, matching the verdict
    qs3 = built("qs3_qa3")
    facts = module_facts(qs3.cr)["cent_over_tensor_ring"]
    assert facts["projective"]
    assert not facts["generator"]
    assert qs3.cls.hsep_system is None

    # across the whole corpus the generator test mirrors H-separability
    for name in CORPUS_NAMES:
        b = built(name)
        assert b.cls.facts["cent_over_tensor_ring"]["generator"] == (
            b.cls.hsep_system is not None), name


# -- criterion 6: normality ---------------------------------------------------------

def test_criterion_6_normality(built):
    s3 = sym3()
    for label, (subgroup, normal) in sorted(S3_SUBGROUPS.items()):
        out = hopf_normality(s3, subgroup, QQ)
        assert out["subgroup_normal"] == out["conjugation_hopf_normal"] \
            == out["augmentation_test"] == normal, label

    q8 = quaternion()
    for label, (subgroup, normal) in sorted(Q8_SUBGROUPS.items()):
        out = hopf_normality(q8, subgroup, QQ)
        assert out["subgroup_normal"] == out["conjugation_hopf_normal"] \
            == out["augmentation_test"] == normal, label

    suite = default_suite(built("qs3_qa3").cr)
    assert suite["all_equal"]

    assert double_centralizer(built("qq8_qi").cr)["strict"]


# -- criterion 7: pre-braided commutativity -------------------------------------------

def test_criterion_7_prebraided_commutativity(built):
    for name in RIGHT_D2:
        b = built(name)
        out = prebraided_check(b.cr, b.cls.right_quasibase)
        assert out["holds"], name
    # the correction term is genuinely exercised at least once
    m2 = built("m2q_q")
    out = prebraided_check(m2.cr, m2.cls.right_quasibase)
    assert out["holds"] and not out["naive_commutative"]


# -- criterion 8: dimensions against the independent oracle ---------------------------

def test_criterion_8_dimension_oracles(built):
    qs3 = built("qs3_qa3").cr.dims()
    assert qs3["tensor_square"] == 12
    assert qs3["centralizer"] == 4
    assert qs3["tensor_ring"] == 8

    raw = oracles.RawAlgebra(oracles.load_doc("qs3_qa3"))
    assert oracles.tensor_square_dim(raw) == 12
    assert oracles.centralizer_dim(raw) == 4
    assert oracles.invariant_tensor_ring_dim(raw) == 8
    assert oracles.endo_ring_dim(raw) == built("qs3_qa3").cr.dims()["endo_ring"]

    m2 = built("m2q_q").cr.dims()
    assert m2["tensor_ring"] == 16
    raw2 = oracles.RawAlgebra(oracles.load_doc("m2q_q"))
    assert oracles.invariant_tensor_ring_dim(raw2) == 16


def test_criterion_8_endo_ring_dimension_as_stated(built):
    # For B = kH inside A = kG, a B-bimodule endomorphism of A is a
    # k[H x H]-map of the permutation module on G, (h, k).x = h x k^-1, so
    # dim End_B A_B is the number of H x H orbits on G x G, over any field.
    # For the symmetric group on three letters over its alternating
    # subgroup the stabilisers are the diagonal {(g, g)} on pairs from the
    # alternating subgroup, {(g, g^-1)} on pairs from its coset and trivial
    # on the mixed pairs, which gives 9/3 + 9/3 + 9/9 + 9/9 = 8 orbits.
    # Dimension 4 belongs to the centralizer R of the same input, not to S.
    d = built("qs3_qa3").cr.dims()
    doc = oracles.load_doc("qs3_qa3")
    oracle = oracles.endo_ring_dim(oracles.RawAlgebra(doc))
    orbits = oracles.subgroup_endo_orbit_count(doc)
    assert d["endo_ring"] == oracle == orbits == 8, (
        "the bimodule endomorphism ring of the rank-2 free extension "
        "(symmetric-group algebra over its alternating subalgebra, "
        "rationals as coefficients) has dimension "
        f"{d['endo_ring']} by direct elimination, {oracle} by the "
        f"independent oracle and {orbits} by counting orbits; expected 8"
    )
    assert d["endo_ring"] != d["centralizer"]

    # the orbit count against the library on the other subgroup inputs
    for name, want in (("b_eq_a", 2), ("f7s3_f7t", 10), ("qq8_qi", 12)):
        got = oracles.subgroup_endo_orbit_count(oracles.load_doc(name))
        assert got == built(name).cr.dims()["endo_ring"] == want, name


def test_criterion_8_orbit_counts_give_r_t_and_s(built):
    # kG over kH is a permutation bimodule, so R, T and S are invariants of
    # permutation modules and each dimension is a number of orbits
    docs = {name: (oracles.load_doc(name), built(name).cr.dims())
            for name in CORPUS_NAMES
            if "subgroup" in oracles.load_doc(name)["subalgebra"]}
    for name in GROUP_CASES:
        doc = case_doc(name)
        docs[name] = doc, CanonicalSpaces(parse_input(doc).ext).dims()
    assert len(docs) == 4 + len(GROUP_CASES)
    for name, (doc, dims) in docs.items():
        got = dims["centralizer"], dims["tensor_ring"], dims["endo_ring"]
        assert got == (
            oracles.subgroup_centralizer_orbit_count(doc),
            oracles.subgroup_tensor_orbit_count(doc),
            oracles.subgroup_endo_orbit_count(doc)), name


# -- criterion 9: determinism -----------------------------------------------------------

def test_criterion_9_reports_are_deterministic():
    doc = corpus_doc("qc2_q")
    runs = []
    for _ in range(2):
        parsed = parse_input(json.loads(json.dumps(doc)))
        report = analysis_report(parsed)
        report.pop("generated_at")
        runs.append(report_json(report))
    assert runs[0] == runs[1]
    assert runs[0].encode("utf-8") == runs[1].encode("utf-8")
