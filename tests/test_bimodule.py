"""Bimodules, balanced tensor products, hom spaces, witnesses."""

import random
from functools import cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringext import bimodule
from ringext.algebra import (group_algebra, self_extension,
                             subalgebra_extension, trivial_algebra)
from ringext.bimodule import (Bimodule, BimoduleError, centralizer_subspace,
                              dual_basis_witness, generated, hom_space,
                              intertwines, invariants_subspace, keep_side,
                              one_sided, regular_bimodule, regular_module,
                              restrict, summand_witness, tensor_legs,
                              tensor_map, tensor_over)
from ringext.linalg import GF, QQ, Matrix, dense, sparse
from ringext.serialize import parse_input
from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.helpers import (center, dense_matrix, diagonal_algebra,
                           matrix_algebra, residual, scale, unit_vec,
                           unrecorded)
from tests.modules import random_cyclic_module, random_scalar
from tests.oracles import (reference_hom_basis, reference_orbits,
                           reference_tensor_legs, reference_tensor_relations)
from tests.test_algebra import cyclic, sym3


def act_left(m, x, v):
    return m.left_operator(x).apply(v)


def act_right(m, v, x):
    return m.right_operator(x).apply(v)


def direct_sum(m, n):
    """m + n with block-diagonal actions."""
    d = m.dim + n.dim

    def block(a, b):
        z = m.field.zero
        return dense_matrix(m.field, [row + [z] * n.dim for row in a.data]
                            + [[z] * m.dim + row for row in b.data])

    return Bimodule(m.left_algebra, m.right_algebra, d,
                    [block(x, y) for x, y in zip(m.left_action, n.left_action)],
                    [block(x, y) for x, y in zip(m.right_action, n.right_action)],
                    label=f"{m.label}+{n.label}")


def s3_over_a3():
    a = group_algebra(QQ, sym3())
    return subalgebra_extension(a, subgroup=[0, 3, 4])


# -- construction and actions -----------------------------------------------

def test_regular_bimodule_actions_commute():
    a = group_algebra(QQ, sym3())
    m = regular_bimodule(a)
    x = unit_vec(QQ, 1)
    y = unit_vec(QQ, 3)
    v = unit_vec(QQ, 2)
    lhs = act_right(m, act_left(m, x, v), y)
    rhs = act_left(m, x, act_right(m, v, y))
    assert lhs == rhs
    assert act_left(m, a.unit, v) == v


def test_bimodule_validation_rejects_nonmodule():
    a = group_algebra(QQ, cyclic(2))
    good = regular_bimodule(a)
    bad_action = [Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)]
    bad = Bimodule(a, a, 2, bad_action, good.right_action)
    with pytest.raises(BimoduleError):
        bad.validate()


def test_restriction_along_embedding():
    ext = s3_over_a3()
    m = regular_bimodule(ext.total)
    res = restrict(restrict(m, ext, "right"), ext, "left")
    assert res.left_algebra == ext.base
    assert res.dim == 6
    x = unit_vec(QQ, 1)
    assert act_left(res, x, ext.total.unit) == ext.iota.apply(x)


def test_forget_and_direct_sum():
    a = group_algebra(QQ, cyclic(3))
    m = regular_bimodule(a)
    lm = keep_side(m, "left")
    assert lm.right_algebra is trivial_algebra(QQ)
    s = direct_sum(m, m)
    assert s.dim == 6
    v = unit_vec(QQ, 4)
    top = act_left(s, unit_vec(QQ, 1), v)
    assert all(j >= 3 for j, _ in top)
    assert tuple((j - 3, x) for j, x in top) == act_left(
        m, unit_vec(QQ, 1), unit_vec(QQ, 1))


def _sided_extension(case):
    """M2 over Q with its upper triangular T2 (non-commutative, so the two
    sides differ) or S3 over F_5 with A3."""
    if case == "m2q_t2":
        return subalgebra_extension(matrix_algebra(QQ, 2), basis=[
            unit_vec(QQ, i) for i in (0, 1, 3)])
    return subalgebra_extension(group_algebra(GF(5), sym3()),
                                subgroup=[0, 3, 4])


def _assert_same_module(m, want):
    assert m.left_algebra is want.left_algebra
    assert m.right_algebra is want.right_algebra
    assert m.dim == want.dim and m.label == want.label
    assert list(m.left_action) == list(want.left_action)
    assert list(m.right_action) == list(want.right_action)
    assert m.generating_set == want.generating_set


@pytest.mark.parametrize("case", ["m2q_t2", "s3_f5"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_sided_constructors_equal_the_bimodules_they_stand_for(side, case):
    """one_sided, regular_module, restrict and keep_side each equal the
    explicit Bimodule they stand for; restrict keeps a generating set over
    the untouched side and drops one over the changed side, keep_side
    the reverse, and a wrong embedding target is refused by side."""
    ext = _sided_extension(case)
    a, b, iota = ext.total, ext.base, ext.iota
    f, k, left = a.field, trivial_algebra(a.field), side == "left"
    other = "right" if left else "left"
    eye = [Matrix.identity(f, a.dim)]
    mults = [(a.basis_left_mult if left else a.basis_right_mult)(i)
             for i in range(a.dim)]
    unit = (side, (a.unit,))

    def sided(acting, action, label, gs):
        return (Bimodule(acting, k, a.dim, action, eye, label, gs) if left
                else Bimodule(k, acting, a.dim, eye, action, label, gs))

    _assert_same_module(one_sided(a, side, a.dim, mults, "N", unit),
                        sided(a, mults, "N", unit))
    _assert_same_module(regular_module(a, side), sided(a, mults, a.name, unit))
    _assert_same_module(regular_module(a, side, label="R"),
                        sided(a, mults, "R", unit))

    reg = regular_bimodule(a)
    pulled = [(reg.left_operator if left else reg.right_operator)(iota.col(i))
              for i in range(iota.cols)]
    for gs_side in (side, other):
        m = generated(reg, gs_side)
        over_other = m.generating_set if gs_side == other else None
        over_side = m.generating_set if gs_side == side else None
        want = (Bimodule(b, a, a.dim, pulled, m.right_action, "A|B", over_other)
                if left else
                Bimodule(a, b, a.dim, m.left_action, pulled, "A|B", over_other))
        _assert_same_module(restrict(m, ext, side, label="A|B"), want)
        _assert_same_module(keep_side(m, side), sided(
            a, m.left_action if left else m.right_action, m.label, over_side))

    with pytest.raises(BimoduleError, match=f"not the {side} acting algebra"):
        restrict(regular_bimodule(b), ext, side)


# -- tensor products ---------------------------------------------------------

def test_tensor_over_total_algebra_collapses():
    # A (x)_A A has the dimension of A
    a = group_algebra(QQ, sym3())
    m = regular_bimodule(a)
    t = tensor_over(m, m)
    assert t.module.dim == 6
    # pure tensor x (x) y maps to the class of xy
    x, y = unit_vec(QQ, 1), unit_vec(QQ, 3)
    via_product = t.pure(a.multiply(x, y), a.unit)
    assert t.pure(x, y) == via_product


def test_tensor_over_base_dimension():
    ext = s3_over_a3()
    m = regular_bimodule(ext.total)
    mid = restrict(m, ext, "right")
    nid = restrict(m, ext, "left")
    t = tensor_over(mid, nid)
    # |S3| * |S3| / |A3| = 12
    assert t.module.dim == 12


def test_tensor_over_scalars_is_full_outer_product():
    a = matrix_algebra(QQ, 2)
    m = keep_side(regular_bimodule(a), "left")
    n = keep_side(regular_bimodule(a), "right")
    t = tensor_over(m, n)
    assert t.module.dim == 16


def test_tensor_balancing_relation():
    ext = s3_over_a3()
    a = ext.total
    m = restrict(regular_bimodule(a), ext, "right")
    n = restrict(regular_bimodule(a), ext, "left")
    t = tensor_over(m, n)
    b = ext.iota.apply(unit_vec(QQ, 1))
    x, y = unit_vec(QQ, 2), unit_vec(QQ, 5)
    assert t.pure(a.multiply(x, b), y) == t.pure(x, a.multiply(b, y))


def test_tensor_map_respects_relations():
    a = group_algebra(QQ, cyclic(2))
    m = regular_bimodule(a)
    t = tensor_over(m, m)
    ident = Matrix.identity(QQ, 2)
    tm = tensor_map(t, t, ident, ident)
    assert tm == Matrix.identity(QQ, t.module.dim)


def test_tensor_map_checks_every_relation():
    """k^4 (x)_{k^4} k^4 has the 12 off-diagonal pure tensors as relations,
    in pivot order; id (x) g with g(e_3) = e_3 + e_2 keeps all of them
    among the relations but the ninth, e_2 (x) e_3.  g is not k^4-linear,
    and the leg check refuses it on this ambient source too."""
    d = diagonal_algebra(QQ, 4)
    t = tensor_over(unrecorded(regular_module(d, "right")),
                    unrecorded(regular_module(d, "left")))
    ident = Matrix.identity(QQ, 4)
    g = ident + Matrix.from_pairs(QQ, 4, 4, [(), (), [(3, 1)], ()])
    broken = [i for i, row in enumerate(t.relations.basis.pairs) if not
              t.relations.contains((Matrix.from_vec(
                  QQ, 4, 4, row) @ g.transpose()).vec())]
    assert t.relations.dim == 12 and broken == [8]
    assert not intertwines(g, zip(t.right_factor.left_action,
                                  t.right_factor.left_action))
    with pytest.raises(BimoduleError, match="not linear over the middle"):
        tensor_map(t, t, ident, g)
    assert tensor_map(t, t, ident, ident) == Matrix.identity(QQ, 4)


def tensor_cases(field):
    """(label, m, n) pairs over a shared middle algebra: tensor squares
    over a subalgebra, regular and one-sided factors, and random cyclic
    modules, over a group algebra and a matrix algebra, each factor
    without a recorded generating set, so that the dense references here,
    which read the ambient presentation, apply."""
    a = group_algebra(field, sym3())
    ext = subalgebra_extension(a, subgroup=[0, 3, 4])
    reg = regular_bimodule(a)
    cyc_r = random_cyclic_module(a, "right", 2, seed=5)
    cyc_l = random_cyclic_module(a, "left", 2, seed=3)
    m2 = matrix_algebra(field, 2)
    t2 = subalgebra_extension(m2, basis=[unit_vec(field, i)
                                         for i in (0, 1, 3)])
    m2_reg = regular_bimodule(m2)
    return [(label, unrecorded(m), unrecorded(n)) for label, m, n in [
        ("square_over_subgroup", restrict(reg, ext, "right"),
         restrict(reg, ext, "left")),
        ("over_total", reg, reg),
        ("over_scalars", keep_side(reg, "left"), keep_side(reg, "right")),
        ("matrix_square_over_t2", restrict(m2_reg, t2, "right"),
         restrict(m2_reg, t2, "left")),
        ("cyclic", cyc_r, cyc_l),
        ("cyclic_over_subgroup", restrict(cyc_r, ext, "right"),
         restrict(cyc_l, ext, "left")),
        ("cyclic_against_regular", cyc_r, keep_side(reg, "left")),
        ("matrix_cyclic", random_cyclic_module(m2, "right", 2, seed=11),
         keep_side(m2_reg, "left")),
    ]]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_tensor_relations_match_dense_reference(field):
    for label, m, n in tensor_cases(field):
        assert tensor_over(m, n).relations == \
            reference_tensor_relations(m, n), label


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_tensor_square_relations_match_dense_reference(name):
    ext = parse_input(corpus_doc(name)).ext
    reg = regular_bimodule(ext.total)
    m, n = restrict(reg, ext, "right"), restrict(reg, ext, "left")
    assert tensor_over(m, n).relations == reference_tensor_relations(m, n)


@cache
def _built_tensor_cases(field):
    return [(label, tensor_over(m, n)) for label, m, n in tensor_cases(field)]


def _vectors(field, n, size):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                    .map(lambda v: sparse([field.of(x) for x in v])),
                    min_size=size, max_size=size)


@given(st.sampled_from([QQ, GF(5)]), st.data())
def test_tensor_product_methods(field, data):
    """sum_pure is the sum of the pure classes, the leg operators are
    tensor_legs with an identity leg, and lift is a section of project."""
    label, tp = data.draw(st.sampled_from(_built_tensor_cases(field)))
    m, n = tp.left_factor, tp.right_factor
    k = data.draw(st.integers(0, 3))
    xs = data.draw(_vectors(field, m.dim, k))
    ys = data.draw(_vectors(field, n.dim, k))
    pairs = list(zip(xs, ys))
    total = [field.zero] * tp.module.dim
    for x, y in pairs:
        pure = dense(field, tp.module.dim, tp.pure(x, y))
        total = [field.of(u + v) for u, v in zip(total, pure)]
    assert tp.sum_pure(pairs) == sparse(total), label
    [x] = data.draw(_vectors(field, m.left_algebra.dim, 1))
    [y] = data.draw(_vectors(field, n.right_algebra.dim, 1))
    op_m, op_n = m.left_operator(x), n.right_operator(y)
    one = field.one
    assert tp.first_leg(op_m) == tensor_legs(
        tp, [(one, op_m, Matrix.identity(field, n.dim))]), label
    assert tp.second_leg(op_n) == tensor_legs(
        tp, [(one, Matrix.identity(field, m.dim), op_n)]), label
    [coords] = data.draw(_vectors(field, tp.module.dim, 1))
    assert tp.project(tp.lift(coords)) == coords, label


def _zero_quotient(field):
    """k (x)_{k x k} k with the factors on different idempotents: every
    pure tensor is a relation, so the quotient is zero."""
    d = diagonal_algebra(field, 2)
    one, zero = Matrix.identity(field, 1), Matrix.zeros(field, 1, 1)
    m = one_sided(d, "right", 1, [one, zero])
    n = one_sided(d, "left", 1, [zero, one])
    m.validate()
    n.validate()
    return tensor_over(m, n)


@cache
def _leg_spaces(field):
    spaces = [tp for _, tp in _built_tensor_cases(field)]
    spaces.append(_zero_quotient(field))
    assert spaces[-1].module.dim == 0
    return spaces


def _matrices(field, rows, cols):
    return st.lists(st.integers(-2, 2), min_size=rows * cols,
                    max_size=rows * cols).map(lambda v: dense_matrix(
                        field, [[field.of(x) for x in v[i * cols:(i + 1) * cols]]
                                for i in range(rows)], cols))


def _leg_terms(field, src, dst):
    """Strategy for tensor_legs terms from src to dst: up to four, zero
    coefficients and zero entries included."""
    return st.lists(st.tuples(
        st.integers(-2, 2).map(field.of),
        _matrices(field, dst.left_factor.dim, src.left_factor.dim),
        _matrices(field, dst.right_factor.dim, src.right_factor.dim)),
        max_size=4)


@given(st.sampled_from([QQ, GF(5)]), st.data())
def test_tensor_legs_matches_dense_reference(field, data):
    spaces = _leg_spaces(field)
    src = data.draw(st.sampled_from(spaces))
    dst = data.draw(st.sampled_from([None] + spaces))
    terms = data.draw(_leg_terms(field, src, dst or src))
    assert tensor_legs(src, terms, dst) == \
        reference_tensor_legs(src, terms, dst)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_tensor_legs_matches_dense_reference_on_every_pair(field):
    """Every (src, dst) pair of the spaces above, the zero quotient on
    either side included, with three terms, one of them at coefficient 0."""
    rng = random.Random(17)

    def mat(rows, cols):
        return dense_matrix(field, [[random_scalar(field, rng)
                                     for _ in range(cols)]
                                    for _ in range(rows)], cols)

    spaces = _leg_spaces(field)
    for src in spaces:
        for dst in spaces:
            terms = [(field.of(c),
                      mat(dst.left_factor.dim, src.left_factor.dim),
                      mat(dst.right_factor.dim, src.right_factor.dim))
                     for c in (2, 0, -1)]
            assert tensor_legs(src, terms, dst) == \
                reference_tensor_legs(src, terms, dst)


# -- hom spaces ---------------------------------------------------------------

def test_hom_space_endomorphisms_of_matrix_algebra():
    # bimodule endomorphisms of M2 over itself: scalars only
    a = matrix_algebra(QQ, 2)
    m = regular_bimodule(a)
    h = hom_space(m, m)
    assert h.dim == 1
    assert h.basis[0] == scale(Matrix.identity(QQ, 4), h.basis[0].data[0][0])


def test_hom_space_base_valued_maps():
    # F2[C2] over F2: maps from the regular bimodule to the base
    f = GF(2)
    a = group_algebra(f, cyclic(2))
    ext = self_extension(a)
    m = regular_bimodule(a)
    h = hom_space(m, m)
    # commutative algebra: left multiplications by anything central
    assert h.dim == 2


def test_hom_space_coordinates_roundtrip():
    a = group_algebra(QQ, cyclic(3))
    m = regular_bimodule(a)
    h = hom_space(m, m)
    assert h.dim == 3
    coeffs = sparse([QQ.of(v) for v in (2, -1, 5)])
    el = h.element(coeffs)
    assert h.coordinates(el) == coeffs
    outsider = el + Matrix.from_pairs(QQ, 3, 3, [[(0, 1)], (), ()])
    assert h.coordinates(outsider) is None


@cache
def coordinate_spaces(field):
    """Hom spaces read off orbits (C3 over itself) and solved (M2 as a left
    module over itself)."""
    c3 = regular_bimodule(group_algebra(field, cyclic(3)))
    m2 = regular_module(matrix_algebra(field, 2), "left")
    return hom_space(c3, c3), hom_space(m2, m2)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@given(st.data())
def test_map_coordinates_are_the_dense_reference_as_pairs(field, data):
    """MapSpace coordinates are sparse() of the dense pivot readoff of the
    vectorized map, for members and for drawn matrices, which are mostly
    outside and then give None."""
    entry = st.integers(-2, 2).map(field.of)
    for h in coordinate_spaces(field):
        n, d = h.target.dim, h.source.dim
        inside = h.element(sparse(data.draw(st.lists(entry, min_size=h.dim,
                                                     max_size=h.dim))))
        drawn = dense_matrix(field, data.draw(st.lists(
            st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n)), d)
        for mat in (inside, drawn, inside + drawn):
            v = [x for row in mat.data for x in row]
            want = (None if any(residual(h.span, v))
                    else sparse([v[c] for c in h.span.pivots]))
            assert h.coordinates(mat) == want
        assert h.coordinates(inside) is not None


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4),
    st.booleans(), st.booleans())))
@example((0, [], False, False))
@example((1, [[0]], False, False))
@example((5, [[1, 0, 2, 3, 4]], True, True))
def test_orbits_match_the_union_find_reference(case):
    """Orbits closed under permutation lists are the union-find classes of
    the links i ~ perm[i], with identities and a repeated generator."""
    n, perms, identity, repeat = case
    perms = [list(p) for p in perms] + [list(range(n))] * identity
    perms += perms[:1] * repeat
    links = [(i, p[i]) for p in perms for i in range(n)]
    assert bimodule._orbits(n, perms) == reference_orbits(n, links)


def hom_cases(field):
    """(label, m, n) pairs with matching acting algebras: regular,
    restricted, one-sided and random cyclic modules, group and matrix."""
    a = group_algebra(field, sym3())
    ext = subalgebra_extension(a, subgroup=[0, 3, 4])
    reg = regular_bimodule(a)
    res = restrict(restrict(reg, ext, "left"), ext, "right")
    cyc_l = random_cyclic_module(a, "left", 2, seed=3)
    cyc_r = random_cyclic_module(a, "right", 2, seed=5)
    m2 = matrix_algebra(field, 2)
    t2 = subalgebra_extension(m2, basis=[unit_vec(field, i)
                                         for i in (0, 1, 3)])
    m2_reg = regular_bimodule(m2)
    return [
        ("regular", reg, reg),
        ("restricted", res, res),
        ("restricted_to_base", res, regular_bimodule(ext.base)),
        ("left_regular_to_cyclic", regular_module(a, "left"), cyc_l),
        ("cyclic_to_left_regular", cyc_l, regular_module(a, "left")),
        ("cyclic_left", cyc_l, random_cyclic_module(a, "left", 1, seed=7)),
        ("cyclic_right", cyc_r, regular_module(a, "right")),
        ("one_sided_base", keep_side(restrict(reg, ext, "right"), "right"),
         regular_module(ext.base, "right")),
        ("matrix_regular", m2_reg, m2_reg),
        ("matrix_restricted", restrict(m2_reg, t2, "left"),
         restrict(m2_reg, t2, "left")),
        ("matrix_cyclic", random_cyclic_module(m2, "right", 2, seed=11),
         regular_module(m2, "right")),
    ]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
def test_hom_space_matches_kronecker_reference(field):
    for label, m, n in hom_cases(field):
        got = [b.vec() for b in hom_space(m, n).basis]
        assert got == reference_hom_basis(m, n), label


# -- invariants ---------------------------------------------------------------

def test_invariants_of_self_extension_is_center():
    a = group_algebra(QQ, sym3())
    m = regular_bimodule(a)
    inv = invariants_subspace(m, [unit_vec(QQ, i) for i in range(6)])
    assert inv.dim == center(a).dim == 3


def test_centralizer_subspace_matches_invariants():
    ext = s3_over_a3()
    m = regular_bimodule(ext.total)
    c = centralizer_subspace(m, ext)
    inv = invariants_subspace(m, ext.iota.transpose().pairs)
    assert c == inv
    assert c.dim == 4


# -- witnesses ----------------------------------------------------------------

def test_summand_witness_of_row_module_in_regular():
    a = matrix_algebra(QQ, 2)
    reg = regular_module(a, "right")
    # right module of length-2 row vectors under matrix multiplication
    acts = [dense_matrix(QQ, [[QQ.of(x) for x in r] for r in rows])
            for rows in ([[1, 0], [0, 0]], [[0, 0], [1, 0]],
                         [[0, 1], [0, 0]], [[0, 0], [0, 1]])]
    row = Bimodule(trivial_algebra(QQ), a, 2,
                   [Matrix.identity(QQ, 2)], acts, label="row")
    row.validate()
    w = summand_witness(row, reg, hom_space)
    assert w is not None and w.verify()


def test_summand_witness_negative():
    # QQ as a module over QQ[C2] via sign is not a summand of the trivial one
    a = group_algebra(QQ, cyclic(2))
    triv = trivial_algebra(QQ)
    sign = Bimodule(triv, a, 1, [Matrix.identity(QQ, 1)],
                    [Matrix.identity(QQ, 1),
                     scale(Matrix.identity(QQ, 1), QQ.of(-1))], label="sign")
    unit = Bimodule(triv, a, 1, [Matrix.identity(QQ, 1)],
                    [Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)],
                    label="unit")
    assert summand_witness(sign, unit, hom_space) is None


def fresh_search(m, n):
    return summand_witness(m, n, hom_space)


def test_dual_basis_witness_regular_module():
    a = group_algebra(QQ, sym3())
    m = regular_module(a, "right")
    w = dual_basis_witness(m, a, "right", fresh_search)
    assert w is not None and w.verify()


def test_dual_basis_witness_sign_not_projective_mod_2():
    # F2 with trivial C2 action is not projective over F2[C2]
    f = GF(2)
    a = group_algebra(f, cyclic(2))
    triv = trivial_algebra(f)
    one = Matrix.identity(f, 1)
    m = Bimodule(triv, a, 1, [one], [one, one], label="triv")
    assert dual_basis_witness(m, a, "right", fresh_search) is None


def test_random_cyclic_module_is_valid():
    a = group_algebra(QQ, sym3())
    m = random_cyclic_module(a, "left", 2, seed=11)
    m.validate()
    assert m.left_algebra == a
    n = random_cyclic_module(a, "left", 2, seed=11)
    assert [op.data for op in n.left_action] == [op.data for op in m.left_action]


# -- properties ---------------------------------------------------------------

@given(st.integers(2, 5))
def test_tensor_with_self_over_self_has_algebra_dim(n):
    a = group_algebra(GF(3), cyclic(n))
    m = regular_bimodule(a)
    assert tensor_over(m, m).module.dim == n


@given(st.data())
def test_pure_tensor_bilinear(data):
    a = group_algebra(QQ, cyclic(3))
    ext = self_extension(a)
    m = regular_bimodule(a)
    t = tensor_over(m, m)
    rat = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    pick = lambda: [QQ.of(data.draw(rat)) for _ in range(3)]
    x1, x2, y = pick(), pick(), sparse(pick())
    s = QQ.of(data.draw(rat))
    xs = sparse([QQ.of(u + QQ.mul(s, v)) for u, v in zip(x1, x2)])
    x1, x2 = sparse(x1), sparse(x2)
    lhs = dense(QQ, t.module.dim, t.pure(xs, y))
    r1, r2 = (dense(QQ, t.module.dim, t.pure(x, y)) for x in (x1, x2))
    rhs = [QQ.of(u + QQ.mul(s, v)) for u, v in zip(r1, r2)]
    assert lhs == rhs
