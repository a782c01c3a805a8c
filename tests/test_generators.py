"""Generating sets of algebras, and the checks and systems built on them.

Every "for all a in A" condition in the library runs over
FDAlgebra.generators() instead of the whole basis.  These tests check
that the generators really generate, that a fault off the generators is
still caught, and that the hom and tensor systems cut out the same spaces
as the systems over every basis element.
"""

import importlib.util
import os

import pytest

from ringext.algebra import AlgebraError, FDAlgebra, trivial_algebra
from ringext.bimodule import Bimodule, BimoduleError, _intertwining_system
from ringext.linalg import GF, QQ, Matrix, Subspace, kernel, unit_vec
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.helpers import dense_matrix


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


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_memo_spaces_match_the_full_basis_reference(built, name):
    cr = built(name).cr
    entries = {kind: [e for key, e in cr._memo.items() if key[0] == kind]
               for kind in ("hom", "tensor")}
    assert entries["hom"] and entries["tensor"]
    for (m, n), hs in entries["hom"]:
        assert hs.span == full_basis_hom_span(m, n), (m, n)
    for (m, n), tp in entries["tensor"]:
        assert tp.relations == full_basis_tensor_relations(m, n), (m, n)


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
