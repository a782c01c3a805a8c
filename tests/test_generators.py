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
import os
import sys
from functools import cache

import pytest

from ringext import bimodule
from ringext.algebra import AlgebraError, FDAlgebra, trivial_algebra
from ringext.bimodule import (Bimodule, BimoduleError, TensorProduct,
                              _intertwining_system, _permutation_tables,
                              hom_space, left_module, right_module,
                              tensor_over)
from ringext.canonical import build_canonical_rings
from ringext.certify import classify
from ringext.linalg import GF, QQ, Matrix, Subspace, kernel, unit_vec
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import GROUP_CASES, Q8_C4, S3_C2, case_doc, group_case
from tests.helpers import dense_matrix, residual
from tests.oracles import reference_tensor_legs


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
            for p in (a.multiply(w, unit_vec(f, n, g)),
                      a.multiply(unit_vec(f, n, g), w)):
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


def test_generator_counts():
    q8 = parse_input(corpus_doc("qq8_qi")).ext.total
    assert q8.dim == 8 and len(q8.generators()) == 2
    assert trivial_algebra(QQ).generators() == []
    assert trivial_algebra(GF(2)).generators() == []


def _off_generator_pairs(a):
    """Basis pairs (i, j) with e_i not a generator and neither e_i nor e_j
    carrying a unit coordinate, so a change at e_i e_j leaves 1.x = x.1 = x."""
    gens = set(a.generators())
    return [(i, j) for i in range(a.dim) if i not in gens and not a.unit[i]
            for j in range(a.dim) if not a.unit[j]]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_algebra_fault_off_the_generators_is_caught(built, name):
    checked = 0
    for label, a in _algebras(built(name).cr):
        f = a.field
        for i, j in _off_generator_pairs(a)[:4]:
            bad = [[list(v) for v in row] for row in a.mult]
            bad[i][j][j] = f.add(bad[i][j][j], f.one)
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
    data[r][c] = mat.field.add(data[r][c], mat.field.one)
    return dense_matrix(mat.field, data, mat.cols)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bimodule_fault_off_the_generators_is_caught(built, name):
    checked = 0
    for m in _modules(built(name).cr):
        for side, alg in (("left", m.left_algebra), ("right", m.right_algebra)):
            gens = set(alg.generators())
            off = [i for i in range(alg.dim) if i not in gens and not alg.unit[i]]
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


# -- the systems over every basis element, as a reference -------------------

def full_basis_hom_span(m, n):
    """The span of the bimodule maps m -> n, one intertwining block per
    basis element of each acting algebra."""
    system = _intertwining_system(
        m.field, zip(m.left_action + m.right_action,
                     n.left_action + n.right_action), m.dim, n.dim)
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
    """tp against m (x) n presented by the full-basis relations: the same
    relations and free columns, the class of each ambient unit vector read
    off its dense residual, and the outer actions by the dense leg loop."""
    f, size = m.field, m.dim * n.dim
    relations = full_basis_tensor_relations(m, n)
    pivots = set(relations.pivots)
    free = tuple(c for c in range(size) if c not in pivots)
    assert tp.relations == relations and tp.free_cols == free, (m, n)
    for c in range(size):
        reduced = residual(relations, [f.one if k == c else f.zero
                                       for k in range(size)])
        assert tp._classes[c] == tuple(
            (k, reduced[fc]) for k, fc in enumerate(free) if reduced[fc])
    ref = TensorProduct(None, relations, free, m, n)
    eye_m, eye_n = Matrix.identity(f, m.dim), Matrix.identity(f, n.dim)
    assert tp.module.left_action == [reference_tensor_legs(
        ref, [(f.one, op, eye_n)]) for op in m.left_action]
    assert tp.module.right_action == [reference_tensor_legs(
        ref, [(f.one, eye_m, op)]) for op in n.right_action]


# the six GROUP_CASES, and S3 over a transposition and Q8 over <i> in
# characteristic 2, which divides the index, and 5, which does not
GROUP_INPUTS = {**{name: case_doc(name) for name in GROUP_CASES},
                **{f"{label}_f{p}": group_case(*case, {"Fp": p})
                   for label, case in (("s3_c2", S3_C2), ("q8_c4", Q8_C4))
                   for p in (2, 5)}}


@cache
def analysed_group(name):
    """The rings of a group input after classify, and the names of the
    functions that read a system off orbits while they were built."""
    ran, orbits = set(), bimodule._orbits

    def spy(n, links):
        ran.add(sys._getframe(1).f_code.co_name)
        return orbits(n, links)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimodule, "_orbits", spy)
        cr = build_canonical_rings(parse_input(GROUP_INPUTS[name]).ext)
        classify(cr)
    return cr, ran


@pytest.mark.parametrize("name", CORPUS_NAMES + sorted(GROUP_INPUTS))
def test_memo_spaces_match_the_full_basis_reference(built, name):
    if name in GROUP_INPUTS:
        cr, ran = analysed_group(name)
        assert ran == {"hom_space", "tensor_over", "invariants_subspace"}
    else:
        cr = built(name).cr
    entries = {kind: [e for key, e in cr._memo.items() if key[0] == kind]
               for kind in ("hom", "tensor")}
    assert entries["hom"] and entries["tensor"]
    for (m, n), hs in entries["hom"]:
        assert hs.span == full_basis_hom_span(m, n), (m, n)
    for (m, n), tp in entries["tensor"]:
        assert_tensor_matches_reference(tp, m, n)
    ext = cr.ext
    base = [ext.iota.col(i) for i in range(ext.base.dim)]
    assert cr.centralizer_space == full_basis_invariants(cr.a_reg, base)
    assert cr.tensor_space == full_basis_invariants(cr.q.module, base)
    assert cr.casimir_space == full_basis_invariants(cr.q.module, cr.a_basis)


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
    a = FDAlgebra(f, 2, [[[1, 0], [0, 1]], [[0, 1], square]], [1, 0])
    act = [Matrix.identity(f, 2), dense_matrix(f, rows)]
    left, right = left_module(a, 2, act), right_module(a, 2, act)
    left.validate()
    right.validate()

    def no_orbits(n, links):
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
