"""Generating sets of algebras, and the checks and systems built on them.

Every "for all a in A" condition in the library runs over
FDAlgebra.generators() instead of the whole basis.  These tests check
that the generators really generate, that a fault off the generators is
still caught, and that the hom, tensor and invariants systems cut out the
same spaces as the systems over every basis element, eliminated, also on
group algebras, whose permutation systems are read off orbits.  Only
systems of permutation matrices are.
"""

import importlib.util
import json
import os
import re
import sys
from functools import cache

import pytest

from ringext import bimodule, canonical, equivalences
from ringext.algebra import AlgebraError, FDAlgebra, trivial_algebra
from ringext.bimodule import (Bimodule, BimoduleError, InternalInconsistency,
                              TensorProduct, _permutation_tables, generated,
                              hom_space, is_bimodule_map, one_sided,
                              presenting_sets, regular_module, tensor_map,
                              tensor_over)
from ringext.canonical import build_canonical_rings
from ringext.report import analysis_report
from ringext.linalg import (GF, QQ, Matrix, Subspace, dense, kernel,
                            lin_comb, rank, sparse)
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import (GROUP_CASES, Q8_C4, S3_C2, alternating4, case_doc,
                          group_case, group_doc, subgroup)
from tests.helpers import dense_matrix, unit_vec, unrecorded
from tests.oracles import (_intertwining_system, reference_class,
                           reference_hom_basis, reference_is_bimodule_map,
                           reference_presentation, reference_tensor_legs,
                           reference_tensor_relations)


def _algebras(cr):
    return [("A", cr.ext.total), ("B", cr.ext.base), ("R", cr.centralizer),
            ("T", cr.tensor_ring), ("S", cr.endo_ring)]


def _word_dim(a, gens):
    """Dimension of the span of the unit and all products of generators,
    closed by multiplying on both sides."""
    f, n = a.field, a.dim
    vecs = [a.unit]
    span = Subspace.from_vectors(f, n, vecs)
    for w in vecs:
        for g in gens:
            for p in (a.multiply(w, unit_vec(f, g)),
                      a.multiply(unit_vec(f, g), w)):
                if not span.contains(p):
                    vecs.append(p)
                    span = Subspace.from_vectors(f, n, vecs)
    return span.dim


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_generators_span_every_corpus_algebra(built, name):
    for label, a in _algebras(built(name).cr):
        gens = a.generators()
        assert gens == sorted(set(gens)) and all(0 <= g < a.dim for g in gens)
        assert _word_dim(a, gens) == a.dim, (name, label)
        # no generator is a word in the others
        for g in gens:
            assert _word_dim(a, [h for h in gens if h != g]) < a.dim, (name, label)


def _right_word_span(a, gens):
    """The span of the unit and its right products by the generators, by
    a.multiply and a fresh Subspace at every step."""
    f, n = a.field, a.dim
    vecs = [a.unit]
    span = Subspace.from_vectors(f, n, vecs)
    for w in vecs:
        for g in gens:
            p = a.multiply(w, unit_vec(f, g))
            if not span.contains(p):
                vecs.append(p)
                span = Subspace.from_vectors(f, n, vecs)
    return span


def _greedy_generators(a):
    """The pick FDAlgebra.generators documents, each word span recomputed
    from nothing: e_i is taken when outside the span of the words so far,
    then each generator that the others produce is dropped."""
    f, n = a.field, a.dim
    gens = []
    for i in range(n):
        if not _right_word_span(a, gens).contains(unit_vec(f, i)):
            gens.append(i)
    for g in list(gens):
        if _right_word_span(a, [h for h in gens if h != g]).dim == n:
            gens.remove(g)
    return gens


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GROUP_CASES])
def test_generators_are_the_greedy_pick(built, name):
    cr = (built(name).cr if name in CORPUS_NAMES
          else build_canonical_rings(parse_input(case_doc(name)).ext))
    for label, a in _algebras(cr):
        assert a.generators() == _greedy_generators(a), (name, label)


def test_generator_counts():
    q8 = parse_input(corpus_doc("qq8_qi")).ext.total
    assert q8.dim == 8 and len(q8.generators()) == 2
    assert trivial_algebra(QQ).generators() == []
    assert trivial_algebra(GF(2)).generators() == []


def _off_generator_pairs(a):
    """Basis pairs (i, j) with e_i not a generator and neither e_i nor e_j
    carrying a unit coordinate, so a change at e_i e_j leaves 1.x = x.1 = x."""
    gens, units = set(a.generators()), {j for j, _ in a.unit}
    return [(i, j) for i in range(a.dim) if i not in gens and i not in units
            for j in range(a.dim) if j not in units]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_algebra_fault_off_the_generators_is_caught(built, name):
    checked = 0
    for label, a in _algebras(built(name).cr):
        f = a.field
        for i, j in _off_generator_pairs(a)[:4]:
            bad = [list(row) for row in a.mult]
            bad[i][j] = f.comb([bad[i][j], ((j, f.one),)],
                               [(0, f.one), (1, f.one)])
            with pytest.raises(AlgebraError, match="not associative"):
                FDAlgebra(f, a.dim, bad, a.unit)
            checked += 1
    if name in ("qq8_qi", "qs3_qa3", "f7s3_f7t", "m2q_q"):
        assert checked >= 4


def _modules(cr):
    return [cr.a_reg, cr.q.module, cr.q_bimodule, cr.tensor_bimodule_cent,
            cr.cent_module_tensor, cr.cent_module_endo,
            cr.endo_bimodule_cent]


def _bump(mat, r, c):
    data = [row[:] for row in mat.data]
    data[r][c] = mat.field.of(data[r][c] + mat.field.one)
    return dense_matrix(mat.field, data, mat.cols)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bimodule_fault_off_the_generators_is_caught(built, name):
    checked = 0
    for m in _modules(built(name).cr):
        for side, alg in (("left", m.left_algebra), ("right", m.right_algebra)):
            gens = set(alg.generators()) | {j for j, _ in alg.unit}
            off = [i for i in range(alg.dim) if i not in gens]
            for i in off[:2]:
                acts = {"left": list(m.left_action),
                        "right": list(m.right_action)}
                acts[side][i] = _bump(acts[side][i], 0, m.dim - 1)
                bad = Bimodule(m.left_algebra, m.right_algebra, m.dim,
                               acts["left"], acts["right"])
                with pytest.raises(BimoduleError, match="representation"):
                    bad.validate()
                checked += 1
    if name in ("qq8_qi", "qs3_qa3", "f7s3_f7t", "m2q_q"):
        assert checked >= 4


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bimodule_maps_checked_on_generators_match_the_full_basis(built, name):
    """is_bimodule_map reads the generators' actions only, and agrees with
    the check over every basis element on every hom space of an analysis:
    on each basis map, and on it with one entry moved."""
    cr = built(name).cr
    checked = set()
    homs = [entry for key, entry in cr._memo.items() if key[0] == "hom"]
    for (m, n), hs in homs:
        for mat in hs.basis:
            for cand in (mat, _bump(mat, 0, 0)):
                verdict = is_bimodule_map(m, n, cand)
                assert verdict is reference_is_bimodule_map(m, n, cand)
                checked.add(verdict)
    assert checked == {True, False}


def test_a_map_failing_at_one_generator_is_refused(built):
    """Right multiplication by i on Q[Q8], as a bimodule over itself,
    commutes with every generator but j: it is refused."""
    cr = built("qq8_qi").cr
    a, m = cr.ext.total, cr.a_reg
    *others, last = a.generators()
    lefts, rights = m.generator_actions()
    system = _intertwining_system(
        m.field, [(op, op) for op in lefts + rights[:-1]], m.dim, m.dim)
    failing = [mat for mat in (Matrix.from_vec(m.field, m.dim, m.dim, v)
                               for v in kernel(system))
               if mat @ m.right_action[last] != m.right_action[last] @ mat]
    assert others and failing
    for mat in failing:
        assert not is_bimodule_map(m, m, mat)
        assert not reference_is_bimodule_map(m, m, mat)


def presentation_relations(tp):
    """The relations of tp's presentation as ambient elements, a reference
    for tensor_map's leg check: each RREF row, or with a presented factor
    generated by X, sum_x x (x) row_x (row_x (x) x on the right), row_x
    the row's block at x."""
    f, dm, dn = tp.left_factor.field, tp.left_factor.dim, tp.right_factor.dim
    rows = tp.relations.basis.pairs
    if tp.presented is not None:
        side, xs = tp.presented[:2]
        dim = dn if side == "left" else dm
        pure = []
        for row in rows:
            acc: dict = {}
            for c, a in row:
                i, w = divmod(c, dim)
                f.sparse_addmul(acc, [
                    (u * dn + w if side == "left" else w * dn + u, b)
                    for u, b in xs[i]], a)
            pure.append(tuple(sorted(acc.items())))
        rows = pure
    return [Matrix.from_vec(f, dm, dn, row) for row in rows]


def _balanced_off_the_last_generator(tp, leg):
    """Maps x on one leg of tp, the other leg the identity, that commute
    with every generator of the middle algebra but the last, not with
    the last, and still send every relation of tp's presentation to the
    class 0."""
    m, n = tp.left_factor, tp.right_factor
    acts = m.right_action if leg == "left" else n.left_action
    f, dim = m.field, acts[0].rows
    *others, last = m.right_algebra.generators()
    assert others
    ker = [Matrix.from_vec(f, dim, dim, v) for v in kernel(_intertwining_system(
        f, [(acts[c], acts[c]) for c in others], dim, dim))]
    rels, width = presentation_relations(tp), len(tp.free_cols)

    def images(x):
        """The classes of x applied to each relation, stacked."""
        return tuple((k * width + i, c) for k, rel in enumerate(rels)
                     for i, c in tp.project(x @ rel if leg == "left"
                                            else rel @ x.transpose()))

    sol = kernel(Matrix.from_cols(f, len(rels) * width,
                                  [images(x) for x in ker]))
    maps = [lin_comb(f, dim, dim, c, ker) for c in sol]
    return [x for x in maps if x @ acts[last] != acts[last] @ x]


def test_a_tensor_map_leg_failing_at_one_generator_is_refused(built):
    """R_T (x)_T T is presented over T and S_S (x)_S _SR over S_S (the
    regular factors recording no generating set), so their relations are
    g (x) Jn and mJ' (x) g only.  A leg that commutes with every generator
    of the middle algebra but one can send all of those to 0 and still
    not make f_left (x) f_right well defined on the product; tensor_map
    refuses it, on the unpresented leg of both and on the presented leg
    _SR, and keeps the identity."""
    cr = built("qc2_q").cr
    f = cr.field
    cases = [(tensor_over(cr.cent_module_tensor, unrecorded(
        regular_module(cr.tensor_ring, "left"))), ("right",)),
             (tensor_over(unrecorded(regular_module(cr.endo_ring, "right")),
                          cr.cent_module_endo), ("left", "right"))]
    for tp, legs in cases:
        assert tp.presented
        eye_l = Matrix.identity(f, tp.left_factor.dim)
        eye_r = Matrix.identity(f, tp.right_factor.dim)
        assert tensor_map(tp, tp, eye_l, eye_r) == \
            Matrix.identity(f, tp.module.dim)
        for leg in legs:
            failing = _balanced_off_the_last_generator(tp, leg)
            assert failing
            for x in failing:
                with pytest.raises(BimoduleError, match="not linear over"):
                    tensor_map(tp, tp, *((x, eye_r) if leg == "left"
                                         else (eye_l, x)))


def test_every_tensor_map_of_an_analysis_sends_each_relation_to_zero(
        monkeypatch):
    """tensor_map checks only that both legs are linear over the middle
    algebra.  Every call an analysis of the corpus and of GROUP_CASES
    makes also passes the relation-by-relation reference: each relation
    of the source's presentation maps to the class 0 of the target."""
    calls = []
    original = equivalences.tensor_map

    def recording(src, dst, f_left, f_right):
        calls.append((src, dst, f_left, f_right))
        return original(src, dst, f_left, f_right)

    monkeypatch.setattr(equivalences, "tensor_map", recording)
    for doc in [*map(corpus_doc, CORPUS_NAMES), *map(case_doc, GROUP_CASES)]:
        analysis_report(parse_input(doc))
    assert calls and any(src.presented for src, *_ in calls)
    for src, dst, f_left, f_right in calls:
        frt = f_right.transpose()
        assert all(not dst.project(f_left @ rel @ frt)
                   for rel in presentation_relations(src))


# -- the systems over every basis element, as a reference -------------------

def full_basis_hom_span(m, n):
    """The span of the bimodule maps m -> n, one intertwining block per
    basis element of each acting algebra."""
    system = _intertwining_system(
        m.field, zip([*m.left_action, *m.right_action],
                     [*n.left_action, *n.right_action]), m.dim, n.dim)
    ker = kernel(system)
    return Subspace.row_space(Matrix(m.field, len(ker), m.dim * n.dim,
                                     tuple(ker)))


def full_basis_tensor_relations(m, n):
    """The balancing relations of m (x)_C n, one block per basis element
    of C."""
    return Subspace.row_space(_intertwining_system(
        m.field, [(lc, rc.transpose())
                  for lc, rc in zip(n.left_action, m.right_action)],
        n.dim, m.dim))


def full_basis_invariants(m, elements):
    """The vectors v with x.v = v.x for every listed element, by
    elimination."""
    rows = tuple(row for x in elements for row in
                 (m.left_operator(x) - m.right_operator(x)).pairs if row)
    ker = kernel(Matrix(m.field, len(rows), m.dim, rows))
    return Subspace.row_space(Matrix(m.field, len(ker), m.dim, tuple(ker)))


def assert_tensor_matches_reference(tp, m, n):
    """tp against m (x) n presented by the full-basis relations, through
    the isomorphism Phi: [e_u (x) e_v] -> [(t_u,x.e_v)_x] (mirrored on
    the right) when a factor records a generating set X, else the
    identity.  Phi is bijective, the class of each ambient unit vector is
    Phi of the one read off its dense residual, the outer actions are
    Phi-conjugates of the dense leg loop's, and map_out inverts Phi.
    Without a generating set tp has the reference's relations and free
    columns."""
    f, size = m.field, m.dim * n.dim
    relations = full_basis_tensor_relations(m, n)
    pivots = set(relations.pivots)
    free = tuple(c for c in range(size) if c not in pivots)
    presented = reference_presentation(tp)
    if presented is None:
        assert tp.relations == relations and tp.free_cols == free, (m, n)
        phi = Matrix.identity(f, len(free))
    else:
        _, moved, space = presented
        assert tp.relations == space, (m, n)
        phi = Matrix.from_cols(f, tp.module.dim, [
            reference_class(space, moved(*divmod(c, n.dim))) for c in free])
        assert rank(phi) == len(free) == tp.module.dim, (m, n)
    ref_classes = [reference_class(relations, [f.one if k == c else f.zero
                                               for k in range(size)])
                   for c in range(size)]
    assert tp._classes == [phi.apply(cls) for cls in ref_classes]
    ref = TensorProduct(None, relations, free, m, n)
    eye_m, eye_n = Matrix.identity(f, m.dim), Matrix.identity(f, n.dim)
    assert [op @ phi for op in tp.module.left_action] == [
        phi @ reference_tensor_legs(ref, [(f.one, op, eye_n)])
        for op in m.left_action]
    assert [op @ phi for op in tp.module.right_action] == [
        phi @ reference_tensor_legs(ref, [(f.one, eye_m, op)])
        for op in n.right_action]
    assert tp.map_out(len(free), lambda u, v: ref_classes[u * n.dim + v]) \
        @ phi == Matrix.identity(f, len(free))


# the six GROUP_CASES, and S3 over a transposition and Q8 over <i> in
# characteristic 2, which divides the index, and 5, which does not
GROUP_INPUTS = {**{name: case_doc(name) for name in GROUP_CASES},
                **{f"{label}_f{p}": group_case(*case, {"Fp": p})
                   for label, case in (("s3_c2", S3_C2), ("q8_c4", Q8_C4))
                   for p in (2, 5)}}


@cache
def analysed(name):
    """The rings of a corpus or group input after a full analysis, and
    the names of the functions that read a system off orbits while they
    were built."""
    ran, orbits = set(), bimodule._orbits

    def spy(n, perms):
        ran.add(sys._getframe(1).f_code.co_name)
        return orbits(n, perms)

    doc = GROUP_INPUTS[name] if name in GROUP_INPUTS else corpus_doc(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimodule, "_orbits", spy)
        parsed = parse_input(doc)
        cr = build_canonical_rings(parsed.ext)
        analysis_report(parsed, rings=cr)
    return cr, ran


@pytest.mark.parametrize("name", CORPUS_NAMES + sorted(GROUP_INPUTS))
def test_memo_spaces_match_the_full_basis_reference(name):
    cr, ran = analysed(name)
    if name in GROUP_INPUTS:
        assert ran == {"hom_space", "tensor_over", "invariants_subspace"}
    entries = {kind: [e for key, e in cr._memo.items() if key[0] == kind]
               for kind in ("hom", "tensor")}
    assert entries["hom"] and entries["tensor"]
    # products presented over each side
    assert {tp.presented[0] for _, tp in entries["tensor"] if tp.presented} \
        == {"left", "right"}
    for (m, n), hs in entries["hom"]:
        assert hs.span == full_basis_hom_span(m, n), (m, n)
    for (m, n), tp in entries["tensor"]:
        assert_tensor_matches_reference(tp, m, n)
    ext = cr.ext
    base = [ext.iota.col(i) for i in range(ext.base.dim)]
    assert cr.centralizer_space == full_basis_invariants(cr.a_reg, base)
    assert cr.tensor_space == full_basis_invariants(cr.q.module, base)
    assert cr.casimir_space == full_basis_invariants(cr.q.module, cr.a_basis)


def _m2_over_t2(field):
    """The corpus's M2 over its upper triangular subalgebra, over field;
    its structure constants are all 0 or 1."""
    doc = {**corpus_doc("m2q_t2"), "field": field}
    return doc if field == "Q" else json.loads(
        re.sub(r'"(-?\d+)"', r"\1", json.dumps(doc)))


@pytest.mark.parametrize("field", ["Q", {"Fp": 3}], ids=["q", "f3"])
def test_products_over_no_generating_set_keep_the_ambient_presentation(
        monkeypatch, field):
    """Every product an analysis of M2 over T2 builds whose factors record
    no generating set over C, and on which C's generators are not all
    permutation matrices, is presented over the left factor's unit basis:
    its coefficient space is the ambient m (x) n in row-major order, and
    its relations, free columns and class table are those of the ambient
    balancing system, one intertwining block per generator of C, with each
    class read off a dense residual."""
    built = []
    original = canonical.tensor_over

    def recording(m, n):
        built.append((m, n, original(m, n)))
        return built[-1][2]

    monkeypatch.setattr(canonical, "tensor_over", recording)
    analysis_report(parse_input(_m2_over_t2(field)))

    def over_no_set(m, n):
        gens = m.right_algebra.generators()
        return presenting_sets(m, n) == (None, None) and _permutation_tables(
            [m.right_action[c] for c in gens]
            + [n.left_action[c] for c in gens]) is None

    ambient = [(m, n, tp) for m, n, tp in built if over_no_set(m, n)]
    assert ambient
    for m, n, tp in ambient:
        f, size, gens = m.field, m.dim * n.dim, m.right_algebra.generators()
        assert tp.presented[:2] == (
            "left", tuple(((u, f.one),) for u in range(m.dim))), (m, n)
        relations = Subspace.row_space(_intertwining_system(
            f, [(n.left_action[c], m.right_action[c].transpose())
                for c in gens], n.dim, m.dim))
        pivots = set(relations.pivots)
        assert tp.relations == relations, (m, n)
        assert tp.free_cols == tuple(c for c in range(size)
                                     if c not in pivots), (m, n)
        assert tp._classes == [reference_class(relations, dense(f, size, (
            (c, f.one),))) for c in range(size)], (m, n)


# -- products and hom spaces over generating sets of several vectors ---------

def _a4_over_c2():
    """A4 over a double transposition over F_3, as in test_a4_theorems."""
    cayley, elements = alternating4()
    return group_doc(cayley, subgroup(cayley, [elements.index((1, 0, 3, 2))]),
                     {"Fp": 3})


@cache
def rings_of(name):
    doc = _a4_over_c2() if name == "a4_c2_f3" else corpus_doc(name)
    return build_canonical_rings(parse_input(doc).ext)


def over_the_centralizer(cr):
    """T as a right R-module, A and S as left R-modules, each recording a
    generating set over R as the comparison maps build them: the factors
    of T (x)_R A and the modules of Hom_R(S, A)."""
    s_r = generated(one_sided(cr.centralizer, "left", cr.endo_ring.dim,
                              cr.endo_bimodule_cent.left_action), "left")
    return (equivalences._t_as_right_r(cr),
            equivalences._m_over_r(cr, cr.a_reg, "left"), s_r)


@pytest.mark.parametrize("name", ["qq8_qi", "qs3_qa3", "a4_c2_f3"])
def test_presentations_over_several_generators_match_the_kronecker_reference(
        name):
    """T (x)_R A is presented over a generating set of two or more vectors,
    and Hom_R(S, A) solved at one: both agree with the Kronecker systems
    over every basis element of R, the product through Phi.  On the
    corpus inputs those systems are also checked against the dense ones
    of tests.oracles, which take seconds at A4's size."""
    cr = rings_of(name)
    t_r, a_r, s_r = over_the_centralizer(cr)
    tp = tensor_over(t_r, a_r)
    assert tp.presented is not None and len(tp.presented[1]) >= 2
    assert_tensor_matches_reference(tp, t_r, a_r)
    side, xs = s_r.generating_set
    assert side == "left" and len(xs) >= 2
    got = hom_space(s_r, a_r)
    assert got.dim > 0 and got.span == full_basis_hom_span(s_r, a_r)
    if name != "a4_c2_f3":
        assert full_basis_tensor_relations(t_r, a_r) == \
            reference_tensor_relations(t_r, a_r)
        assert list(got.span.basis.pairs) == reference_hom_basis(s_r, a_r)


def test_a_generating_set_short_of_a_vector_raises():
    """The generating sets of T over R and of S over R with their last
    vector dropped generate proper submodules: the tensor and the hom
    engine refuse them."""
    cr = rings_of("qq8_qi")
    t_r, a_r, s_r = over_the_centralizer(cr)
    for m, side in ((t_r, "right"), (s_r, "left")):
        short = generated(m, side, m.generating_set[1][:-1])
        with pytest.raises(InternalInconsistency, match="does not generate"):
            hom_space(short, short)
    with pytest.raises(InternalInconsistency, match="does not generate"):
        tensor_over(generated(t_r, "right", t_r.generating_set[1][:-1]),
                    unrecorded(a_r))


def test_a_recorded_vector_that_does_not_generate_raises(built):
    """R as a right T-module or as a left S-module recording the zero
    vector, which generates nothing when R is not zero, is refused by the
    tensor and the hom engine alike."""
    cr = built("qq8_qi").cr
    assert cr.centralizer.dim > 0
    for side, m in (("right", cr.cent_module_tensor),
                    ("left", cr.cent_module_endo)):
        bad = Bimodule(m.left_algebra, m.right_algebra, m.dim, m.left_action,
                       m.right_action, generating_set=(side, ()))
        with pytest.raises(InternalInconsistency, match="does not generate"):
            hom_space(bad, bad)
        other = (regular_module(cr.tensor_ring, "left") if side == "right"
                 else regular_module(cr.endo_ring, "right"))
        with pytest.raises(InternalInconsistency, match="does not generate"):
            tensor_over(bad, other) if side == "right" else tensor_over(other, bad)


# -- which systems are read off orbits ------------------------------------

CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

# (field, e.e in the basis 1, e, the action of e): an idempotent e acting
# by a 0/1 matrix with a repeated column or with a zero row, and g with
# g.g = 1 acting by a monomial matrix over F_5 with an entry 2
NON_PERMUTATIONS = {
    "repeated_column": (QQ, [0, 1], [[1, 0], [1, 0]]),
    "monomial_entry_2": (GF(5), [1, 0], [[0, 2], [3, 0]]),
    "zero_row": (QQ, [0, 1], [[1, 0], [0, 0]]),
}


def test_the_detector_takes_permutation_matrices_only(built):
    eye = Matrix.identity(QQ, 3)
    assert _permutation_tables([eye, dense_matrix(QQ, CYCLE)]) == [
        [0, 1, 2], [1, 2, 0]]
    sign = next(m for m in built("qc2_q").parsed.modules if m.label == "sign")
    rejected = [sign.generator_actions()[0]] + [
        [dense_matrix(f, rows)] for f, _, rows in NON_PERMUTATIONS.values()]
    for mats in rejected:
        assert _permutation_tables(mats) is None, mats
        eye = Matrix.identity(mats[0].field, mats[0].rows)
        assert _permutation_tables([eye, *mats]) is None, mats


@pytest.mark.parametrize("case", sorted(NON_PERMUTATIONS))
def test_non_permutation_systems_are_eliminated(case, monkeypatch):
    f, square, rows = NON_PERMUTATIONS[case]
    one, e1 = ((0, f.one),), ((1, f.one),)
    a = FDAlgebra(f, 2, [[one, e1], [e1, sparse(square)]], one)
    act = [Matrix.identity(f, 2), dense_matrix(f, rows)]
    left, right = one_sided(a, "left", 2, act), one_sided(a, "right", 2, act)
    left.validate()
    right.validate()

    def no_orbits(n, perms):
        raise AssertionError("a non-permutation system was read off orbits")

    monkeypatch.setattr(bimodule, "_orbits", no_orbits)
    for m in (left, right):
        assert hom_space(m, m).span == full_basis_hom_span(m, m)
    assert_tensor_matches_reference(tensor_over(right, left), right, left)


# -- the goldens, byte for byte ------------------------------------------------

def _make_golden():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "make_golden.py")
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_golden_text_is_byte_identical(name):
    golden = _make_golden()
    text = golden.golden_text(name)
    with open(os.path.join(golden.EXPECTED, f"{name}.json"), "rb") as fh:
        assert text.encode("utf-8") == fh.read()
    assert golden.check(name, text)
