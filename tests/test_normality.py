"""Normality of subgroups, ideals, centralizers; the commutation pairing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringext import normality
from ringext.algebra import AlgebraError, group_algebra, subalgebra_extension
from ringext.bimodule import BimoduleError, regular_bimodule
from ringext.certify import find_d2_quasibase
from ringext.linalg import GF, QQ, Subspace, sparse
from ringext.normality import (centralizer_normality_suite,
                               default_ideal_sample, double_centralizer,
                               hopf_normality, ideal_closure,
                               prebraided_check)

from tests.conftest import RIGHT_D2, expected_doc
from tests.helpers import matrix_algebra
from tests.oracles import reference_ideal_closure, reference_translate_span
from tests.test_algebra import cyclic, sym3


def default_suite(cr) -> dict:
    """The centralizer suite on the sample report.normality_block starts
    from: default_ideal_sample with the centralizer's basis added."""
    return centralizer_normality_suite(cr, default_ideal_sample(
        cr.ext.total, extra_generators=cr.centralizer_space.basis.pairs))


def quaternion():
    # elements as (sign, letter) with basis order 1, -1, i, -i, j, -j, k, -k
    from ringext.algebra import GroupData
    letters = ["1", "i", "j", "k"]
    elems = [(s, x) for x in letters for s in (1, -1)]
    base = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"),
            ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"),
            ("i", "k"): (-1, "j")}
    for x in letters:
        base[("1", x)] = (1, x)
        base[(x, "1")] = (1, x)

    def mul(u, v):
        s, x = base[(u[1], v[1])]
        return elems.index((s * u[0] * v[0], x))

    table = [[mul(u, v) for v in elems] for u in elems]
    return GroupData(8, table)


S3_SUBGROUPS = {
    "trivial": ([0], True),
    "t12": ([0, 2], False),
    "t13": ([0, 5], False),
    "t23": ([0, 1], False),
    "a3": ([0, 3, 4], True),
    "full": ([0, 1, 2, 3, 4, 5], True),
}

Q8_SUBGROUPS = {
    "trivial": ([0], True),
    "center": ([0, 1], True),
    "i": ([0, 1, 2, 3], True),
    "j": ([0, 1, 4, 5], True),
    "k": ([0, 1, 6, 7], True),
    "full": (list(range(8)), True),
}


# -- group-algebra normality ---------------------------------------------------

@pytest.mark.parametrize("label", sorted(S3_SUBGROUPS))
def test_hopf_normality_s3(label):
    subgroup, normal = S3_SUBGROUPS[label]
    out = hopf_normality(sym3(), subgroup, QQ)
    assert out["subgroup_normal"] == normal
    assert out["conjugation_hopf_normal"] == normal
    assert out["augmentation_test"] == normal


@pytest.mark.parametrize("label", sorted(Q8_SUBGROUPS))
def test_hopf_normality_q8(label):
    subgroup, normal = Q8_SUBGROUPS[label]
    out = hopf_normality(quaternion(), subgroup, QQ)
    assert out["subgroup_normal"] == normal
    assert out["conjugation_hopf_normal"] == normal
    assert out["augmentation_test"] == normal


def test_hopf_normality_modular_characteristic():
    # verdicts are about the group, not the coefficients
    out = hopf_normality(sym3(), [0, 3, 4], GF(7))
    assert out["subgroup_normal"]
    out2 = hopf_normality(sym3(), [0, 2], GF(2))
    assert not out2["subgroup_normal"]
    assert not out2["augmentation_test"]


def test_hopf_pair_rejects_nonsubgroup():
    with pytest.raises(AlgebraError):
        hopf_normality(sym3(), [0, 1, 2], QQ)


# -- ideals ---------------------------------------------------------------------

def test_ideal_closure_augmentation():
    a = group_algebra(QQ, cyclic(3))
    g_minus_1 = ((0, QQ.of(-1)), (1, QQ.one))
    j = ideal_closure(a, [g_minus_1])
    assert j.dim == 2
    # closure is stable under multiplication from both sides
    for i in range(3):
        for row in j.closure.basis.pairs:
            assert j.closure.contains(a.basis_left_mult(i).apply(row))
            assert j.closure.contains(a.basis_right_mult(i).apply(row))


def test_ideal_closure_unit_generates_everything():
    a = group_algebra(QQ, sym3())
    assert ideal_closure(a, [a.unit]).dim == 6


def test_default_ideal_sample_contains_named_ideals():
    a = group_algebra(QQ, sym3())
    sample = default_ideal_sample(a)
    labels = [j.label for j in sample]
    assert "0" in labels
    assert "(1)" in labels
    assert "augmentation" in labels


ALGEBRAS = {(name, field): make(field)
            for field in (QQ, GF(2), GF(3))
            for name, make in (("kS3", lambda f: group_algebra(f, sym3())),
                               ("kQ8", lambda f: group_algebra(f, quaternion())),
                               ("M2", lambda f: matrix_algebra(f, 2)))}


@st.composite
def algebra_and_vectors(draw):
    a = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS, key=repr)))]
    vector = st.lists(st.integers(-2, 2), min_size=a.dim, max_size=a.dim).map(
        lambda v: sparse([a.field.of(x) for x in v]))
    return a, draw(st.lists(vector, min_size=1, max_size=3))


@given(algebra_and_vectors())
def test_ideal_closure_matches_the_basis_loop(case):
    a, gens = case
    assert ideal_closure(a, gens).closure == reference_ideal_closure(a, gens)


@given(algebra_and_vectors())
def test_generator_translates_match_basis_translates(case):
    a, vectors = case
    sub = Subspace.from_vectors(a.field, a.dim, vectors)
    spun = normality._translates(regular_bimodule(a), sub)
    for got, mult in zip(spun, (a.basis_left_mult, a.basis_right_mult)):
        assert got == reference_translate_span(
            a.field, a.dim, [mult(i) for i in range(a.dim)], sub.basis.pairs)


def test_suite_contracts_once_per_distinct_closure(built, monkeypatch):
    # the sample normality_block builds for qq8_qi: many ideals, few closures
    b = built("qq8_qi")
    cr = b.cr
    sample = default_ideal_sample(cr.ext.total,
                                  extra_generators=cr.centralizer_space.basis.pairs)
    sample.extend(b.parsed.ideals)
    calls = []
    intersect = Subspace.intersect

    def counting(self, other):
        calls.append(self)
        return intersect(self, other)

    monkeypatch.setattr(Subspace, "intersect", counting)
    out = centralizer_normality_suite(cr, ideals=sample)
    distinct = {j.closure.basis.pairs for j in sample}
    assert len(calls) == len(distinct) < len(sample)
    golden = expected_doc("qq8_qi")["normality"]["centralizer_suite"]
    assert out["ideal_contractions"] == golden["ideal_contractions"]


# -- the centralizer suite --------------------------------------------------------

def test_suite_balanced_for_normal_subgroup(built):
    out = default_suite(built("qs3_qa3").cr)
    assert out["centralizer"]["equal"]
    assert out["all_equal"]
    for entry in out["ideal_contractions"]:
        assert entry["equal"], entry["ideal"]
    for entry in out["bimodule_invariants"]:
        assert entry["equal"], entry["module"]


def test_suite_unbalanced_for_nonnormal_subgroup(built):
    out = default_suite(built("f7s3_f7t").cr)
    assert not out["all_equal"]


def test_suite_index_two_subgroups_always_balanced(built):
    # index-2 subgroups are normal; the suite must come back fully equal
    for name in ("qq8_qi", "qc2_q"):
        out = default_suite(built(name).cr)
        assert out["all_equal"], name


def test_suite_on_user_ideal(built):
    b = built("qs3_qa3")
    a = b.cr.ext.total
    gen = ((0, QQ.of(-1)), (5, QQ.one))  # transposition minus 1
    j = ideal_closure(a, [gen], label="user")
    out = centralizer_normality_suite(b.cr, ideals=[j])
    labels = [e["ideal"] for e in out["ideal_contractions"]]
    assert labels == ["user"]


# -- double centralizer ------------------------------------------------------------

def test_double_centralizer_strict_for_proper_noncentral_base(built):
    out = double_centralizer(built("qq8_qi").cr)
    assert out["strict"]
    assert out["double_centralizer"].dim == 6
    assert out["centralizer"].dim == 6


def test_double_centralizer_not_strict_for_azumaya_like_cases(built):
    # B = A: centralizer is the center, double centralizer returns A... no:
    # both collapse back, nothing gained
    out = double_centralizer(built("b_eq_a").cr)
    assert not out["strict"]
    out2 = double_centralizer(built("m2q_q").cr)
    assert not out2["strict"]


def test_double_centralizer_strict_cases(built):
    for name in ("qc2_q", "f3c3_f3", "qs3_qa3", "m2q_t2"):
        out = double_centralizer(built(name).cr)
        assert out["strict"], name


# -- the commutation pairing --------------------------------------------------------

def test_prebraided_holds_on_every_right_quasibase(built):
    for name in RIGHT_D2:
        b = built(name)
        out = prebraided_check(b.cr, b.cls.right_quasibase)
        assert out["holds"], name
        assert out["pairs"] == len(b.cls.right_quasibase.pairs)


def test_prebraided_beyond_naive_commutativity(built):
    # the matrix algebra over its center: the sandwich identity holds even
    # though centralizer and base elements do not commute elementwise
    b = built("m2q_q")
    out = prebraided_check(b.cr, b.cls.right_quasibase)
    assert out["holds"]
    assert not out["naive_commutative"]


def test_prebraided_invariant_under_quasibase_choice(built):
    b = built("qs3_qa3")
    alt = find_d2_quasibase(b.cr, "right", reverse_order=True)
    assert alt is not None
    out1 = prebraided_check(b.cr, b.cls.right_quasibase)
    out2 = prebraided_check(b.cr, alt)
    assert out1["holds"] == out2["holds"] is True


def test_prebraided_rejects_wrong_side(built):
    b = built("qc2_q")
    with pytest.raises(BimoduleError):
        prebraided_check(b.cr, b.cls.left_quasibase)


def test_prebraided_rejects_missing_quasibase(built):
    b = built("f7s3_f7t")
    with pytest.raises(BimoduleError):
        prebraided_check(b.cr, None)


# -- scenario: a normal subgroup pair straight from group data ----------------------

@pytest.mark.parametrize("subgroup", [[0, 3, 4]])
def test_scenario_normal_subgroup_gives_balanced_extension(subgroup):
    g = sym3()
    a = group_algebra(QQ, g)
    ext = subalgebra_extension(a, subgroup=subgroup)
    from ringext.canonical import CanonicalRings
    cr = CanonicalRings(ext)
    hopf = hopf_normality(g, subgroup, QQ)
    suite = default_suite(cr)
    assert hopf["subgroup_normal"] == suite["all_equal"] == True  # noqa: E712
