"""Canonical rings attached to an extension, against an independent oracle.

The oracle in tests/oracles.py reads the corpus inputs directly, uses its
own elimination code, and never touches the package internals, so an
agreement here is two implementations confirming one another.
"""

import pytest

from ringext.canonical import (CanonicalRings, InternalInconsistency,
                               build_canonical_rings, coordinate_matrix,
                               coordinates_in, restrict_to)
from ringext.linalg import QQ, Matrix, sparse
from ringext.serialize import parse_input

from tests import oracles
from tests.groups import D4_FLIP, group_case
from tests.helpers import scale, unit_vec

# name -> (tensor_square, centralizer, endo_ring, tensor_ring, casimir)
FROZEN_DIMS = {
    "b_eq_a":   (2, 2, 2, 2, 2),
    "qc2_q":    (4, 2, 4, 4, 2),
    "f3c3_f3":  (9, 3, 9, 9, 3),
    "qs3_qa3":  (12, 4, 8, 8, 4),
    "f7s3_f7t": (18, 4, 10, 10, 4),
    "m2q_q":    (16, 4, 16, 16, 4),
    "m2q_t2":   (4, 1, 1, 1, 1),
    "qq8_qi":   (16, 6, 12, 12, 6),
    "qxq_q":    (4, 2, 4, 4, 2),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIMS))
def test_dims_match_frozen_table(name, built):
    q, r, s, t, cas = FROZEN_DIMS[name]
    d = built(name).cr.dims()
    assert d["tensor_square"] == q
    assert d["centralizer"] == r
    assert d["endo_ring"] == s
    assert d["tensor_ring"] == t
    assert d["casimir"] == cas


@pytest.mark.parametrize("name", ["qc2_q", "qs3_qa3", "m2q_t2", "qxq_q"])
def test_dims_match_independent_oracle(name, built):
    alg = oracles.RawAlgebra(oracles.load_doc(name))
    d = built(name).cr.dims()
    assert d["centralizer"] == oracles.centralizer_dim(alg)
    assert d["tensor_square"] == oracles.tensor_square_dim(alg)
    assert d["endo_ring"] == oracles.endo_ring_dim(alg)
    assert d["tensor_ring"] == oracles.invariant_tensor_ring_dim(alg)
    assert d["casimir"] == oracles.casimir_dim(alg)


def test_oracle_agrees_on_modular_extension(built):
    alg = oracles.RawAlgebra(oracles.load_doc("f3c3_f3"))
    d = built("f3c3_f3").cr.dims()
    assert d["tensor_square"] == oracles.tensor_square_dim(alg) == 9
    assert d["endo_ring"] == oracles.endo_ring_dim(alg) == 9


def test_ring_axioms_with_roundtrip(built):
    # qc2_q is small enough that the quadratic endomorphism description
    # of the tensor square is checked
    cr = built("qc2_q").cr
    assert cr.ext.total.dim * cr.dim_q <= 160
    cr.verify_ring_axioms()


def test_centralizer_ring_multiplication(built):
    cr = built("qs3_qa3").cr
    a = cr.ext.total
    r = cr.centralizer
    # products of lifted basis elements land back in the centralizer
    for i in range(r.dim):
        for j in range(r.dim):
            prod = a.multiply(cr.r_lift(unit_vec(cr.field, i)),
                              cr.r_lift(unit_vec(cr.field, j)))
            assert prod == cr.r_lift(r.mult[i][j])
    assert cr.r_lift(r.unit) == a.unit


def test_tensor_ring_acts_on_tensor_square(built):
    cr = built("qc2_q").cr
    t = cr.tensor_ring
    f = cr.field
    # the action is a representation of T on Q
    for i in range(t.dim):
        for j in range(t.dim):
            composed = cr.t_action_on_q[i] @ cr.t_action_on_q[j]
            prod_coords = t.mult[i][j]
            acc = Matrix.zeros(f, cr.dim_q, cr.dim_q)
            for k, c in prod_coords:
                acc = acc + scale(cr.t_action_on_q[k], c)
            assert composed == acc


def test_tensor_ring_unit_is_one_tensor_one(built):
    cr = built("qs3_qa3").cr
    assert cr.tensor_space.element(cr.tensor_ring.unit) == cr.one_tensor_one()


def test_endo_ring_composition(built):
    cr = built("qc2_q").cr
    s = cr.endo_ring
    f = cr.field
    for i in range(s.dim):
        for j in range(s.dim):
            lhs = cr.endo_space.element(unit_vec(f, i)) @ \
                cr.endo_space.element(unit_vec(f, j))
            assert lhs == cr.endo_space.element(s.mult[i][j])
    assert cr.endo_space.element(s.unit) == Matrix.identity(
        f, cr.ext.total.dim)


def test_casimir_space_inside_tensor_ring(built):
    cr = built("m2q_q").cr
    assert cr.casimir_space.is_contained_in(cr.tensor_space)
    # every Casimir tensor commutes with the full outer action
    a = cr.ext.total
    for row in cr.casimir_space.basis.pairs:
        for i in range(a.dim):
            x = unit_vec(cr.field, i)
            lhs = cr.q.module.left_operator(x).apply(row)
            rhs = cr.q.module.right_operator(x).apply(row)
            assert lhs == rhs


def test_coordinate_helpers_roundtrip(built):
    cr = built("qq8_qi").cr
    f = cr.field
    v = cr.r_lift(sparse([f.of(k + 1) for k in range(cr.centralizer.dim)]))
    assert cr.r_lift(cr.r_coords(v)) == v
    w = cr.tensor_space.element(
        sparse([f.of(k - 2) for k in range(cr.tensor_ring.dim)]))
    assert cr.tensor_space.element(cr.t_coords(w)) == w


def test_coordinate_helpers_reject_outsiders(built):
    cr = built("qc2_q").cr
    # the second group element is not central, so it is outside R
    outsider = unit_vec(QQ, 1)
    assert cr.centralizer_space.contains(outsider)  # C2 is commutative: inside
    cr2 = built("qs3_qa3").cr
    bad = unit_vec(QQ, 1)  # a transposition does not centralize A3
    with pytest.raises(InternalInconsistency):
        cr2.r_coords(bad)


def test_pair_coordinate_readers_reject_outsiders(built):
    """coordinate_matrix, restrict_to and coordinates_in on a MapSpace
    reduce every item, so one outside the space is an
    InternalInconsistency."""
    cr = built("qs3_qa3").cr
    a, R, S = cr.ext.total, cr.centralizer_space, cr.endo_space
    # a transposition does not centralize A3, nor does it map R into R
    swap = ((1, QQ.one),)
    assert coordinate_matrix(R, R.basis.pairs, "a basis").data == \
        Matrix.identity(QQ, R.dim).data
    with pytest.raises(InternalInconsistency):
        coordinate_matrix(R, [*R.basis.pairs, swap], "a transposition")
    with pytest.raises(InternalInconsistency):
        restrict_to(R, a.basis_left_mult(1), "a transposition's multiple")
    # the matrix unit e_0 -> e_1 is no A3-A3-map
    bump = Matrix.from_pairs(QQ, 6, 6, [(), [(0, QQ.one)], (), (), (), ()])
    assert coordinates_in(S, S.basis[0], "a map") == ((0, QQ.one),)
    with pytest.raises(InternalInconsistency):
        coordinates_in(S, S.basis[0] + bump, "a bump")


def test_mu_multiplies(built):
    cr = built("qs3_qa3").cr
    a = cr.ext.total
    f = cr.field
    x, y = unit_vec(f, 2), unit_vec(f, 4)
    assert cr.mu_matrix.apply(cr.q.pure(x, y)) == a.multiply(x, y)


def test_endo_description_of_q_checked_on_large_inputs(monkeypatch):
    """build_canonical_rings checks the maps Q -> A against R also on D4
    over a non-central C2, where dim A * dim Q = 8 * 32 = 256."""
    checked = []
    check = CanonicalRings._verify_endo_description_of_q
    monkeypatch.setattr(CanonicalRings, "_verify_endo_description_of_q",
                        lambda cr: checked.append(cr) or check(cr))
    cr = build_canonical_rings(parse_input(group_case(*D4_FLIP, "Q")).ext)
    assert (cr.ext.total.dim, cr.dim_q) == (8, 32)
    assert checked == [cr]
