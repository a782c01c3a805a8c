"""Structure-constant algebras, groups, and embeddings."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringext.algebra import (AlgebraError, Extension, FDAlgebra, GroupData,
                             group_algebra, self_extension,
                             subalgebra_extension, trivial_algebra)
from ringext.linalg import GF, QQ, Matrix, invert, span_decide, sparse

from tests.helpers import (center, dense_vector, diagonal_algebra,
                           is_commutative, matrix_algebra, scale, unit_vec)
from tests.oracles import reference_multiply, reference_validation_fault


def cyclic(n):
    return GroupData(n, [[(i + j) % n for j in range(n)] for i in range(n)])


def sym3():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    comp = lambda s, t: tuple(s[t[x]] for x in range(3))
    table = [[perms.index(comp(s, t)) for t in perms] for s in perms]
    return GroupData(6, table)


# -- groups -----------------------------------------------------------------

def test_group_validation_rejects_bad_tables():
    with pytest.raises(AlgebraError, match="identity"):
        GroupData(2, [[1, 0], [0, 1]])
    with pytest.raises(AlgebraError, match="permutation"):
        GroupData(2, [[0, 0], [1, 1]])
    with pytest.raises(AlgebraError, match="out of range"):
        GroupData(2, [[0, 1], [1, 2]])


def test_group_nonassociative_rejected():
    # 5-loop: commutative latin square with identity, not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(AlgebraError, match="associative"):
        GroupData(5, table)


def test_group_inverses_and_conjugation():
    g = sym3()
    for i in range(6):
        assert g.cayley[i][g.inverse[i]] == 0
    # conjugating one transposition by another gives the third
    assert g.conjugate(1, 2) == 5
    # A3 = {0, 3, 4} is closed under conjugation by everything
    for h in (0, 3, 4):
        assert all(g.conjugate(x, h) in (0, 3, 4) for x in range(6))


# -- algebras ---------------------------------------------------------------

def test_group_algebra_multiplication():
    a = group_algebra(QQ, cyclic(3))
    e1 = unit_vec(QQ, 1)
    assert a.multiply(e1, e1) == unit_vec(QQ, 2)
    assert a.multiply(e1, unit_vec(QQ, 2)) == a.unit
    assert is_commutative(a)
    assert a.group is not None


def test_matrix_algebra_relations():
    a = matrix_algebra(QQ, 2)
    assert a.dim == 4
    e11, e12, e21, e22 = (unit_vec(QQ, i) for i in range(4))
    assert a.multiply(e11, e12) == e12
    assert a.multiply(e12, e21) == e11
    assert a.multiply(e12, e12) == ()
    assert a.unit == ((0, QQ.one), (3, QQ.one))
    assert not is_commutative(a)
    assert center(a).dim == 1


def test_diagonal_algebra():
    a = diagonal_algebra(QQ, 3)
    e0 = unit_vec(QQ, 0)
    assert a.multiply(e0, e0) == e0
    assert a.multiply(e0, unit_vec(QQ, 1)) == ()
    assert center(a).dim == 3


def test_trivial_algebra_is_cached_singleton():
    assert trivial_algebra(QQ) is trivial_algebra(QQ)
    assert trivial_algebra(QQ) is not trivial_algebra(GF(2))
    assert trivial_algebra(QQ).dim == 1


def test_algebra_validation_catches_nonassociative():
    # corrupt C3 table: e1*e2 set to e1 instead of e0
    a = group_algebra(QQ, cyclic(3))
    bad = [list(row) for row in a.mult]
    bad[1][2] = unit_vec(QQ, 1)
    with pytest.raises(AlgebraError, match="not associative"):
        FDAlgebra(QQ, 3, bad, a.unit)


def test_algebra_validation_catches_bad_unit():
    a = matrix_algebra(QQ, 2)
    with pytest.raises(AlgebraError, match="unit"):
        FDAlgebra(QQ, 4, a.mult, unit_vec(QQ, 0))


def test_algebra_validation_catches_an_index_outside_the_basis():
    a = group_algebra(QQ, cyclic(3))
    bad = [list(row) for row in a.mult]
    bad[0][1] = unit_vec(QQ, 3)
    with pytest.raises(AlgebraError, match=r"index outside 0\.\.2"):
        FDAlgebra(QQ, 3, bad, a.unit)


@pytest.mark.parametrize("entry, vector, fault", [
    ((1, 1), ((1, QQ.one), (0, QQ.one)), "vector of e1 e1: not ascending"),
    ((1, 2), ((0, QQ.one), (0, QQ.one)), "vector of e1 e2: not ascending"),
    ((2, 0), ((2, QQ.zero),), "vector of e2 e0: not ascending, or a zero"),
    (None, ((0, QQ.one), (1, QQ.zero)), "vector of the unit: not ascending"),
])
def test_algebra_validation_refuses_a_malformed_structure_vector(entry, vector,
                                                                 fault):
    """A hand-built table whose structure or unit vector is out of order,
    repeats an index or stores a zero is refused, naming the entry."""
    a = group_algebra(QQ, cyclic(3))
    mult, unit = [list(row) for row in a.mult], a.unit
    if entry is None:
        unit = vector
    else:
        mult[entry[0]][entry[1]] = vector
    with pytest.raises(AlgebraError, match=fault):
        FDAlgebra(QQ, 3, mult, unit)


def test_mult_matrices_agree_with_multiply():
    a = group_algebra(GF(5), sym3())
    x = sparse([GF(5).of(v) for v in (1, 2, 0, 3, 0, 4)])
    y = sparse([GF(5).of(v) for v in (2, 0, 1, 0, 0, 1)])
    assert a.left_mult_matrix(x).apply(y) == a.multiply(x, y)
    assert a.right_mult_matrix(y).apply(x) == a.multiply(x, y)
    for i in range(6):
        assert a.basis_left_mult(i).col(0) == a.mult[i][0]


def test_center_of_group_algebra_counts_conjugacy_classes():
    # S3 has 3 conjugacy classes
    a = group_algebra(QQ, sym3())
    assert center(a).dim == 3


# -- extensions -------------------------------------------------------------

def test_subgroup_extension_reorders_identity():
    a = group_algebra(QQ, sym3())
    ext = subalgebra_extension(a, subgroup=[3, 0, 4])
    assert ext.base.dim == 3
    assert ext.base.group is not None
    # identity must come first regardless of listed order
    assert ext.iota.apply(unit_vec(QQ, 0)) == a.unit
    assert ext.image().dim == 3


def test_subgroup_extension_rejects_nonclosed_subset():
    a = group_algebra(QQ, sym3())
    with pytest.raises(AlgebraError):
        subalgebra_extension(a, subgroup=[0, 1, 2])


def test_basis_extension_builds_structure_constants():
    a = matrix_algebra(QQ, 2)
    rows = [sparse([QQ.of(x) for x in r]) for r in
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]]
    ext = subalgebra_extension(a, basis=rows)
    assert ext.base.dim == 3
    for i in range(3):
        for j in range(3):
            lhs = ext.iota.apply(ext.base.mult[i][j])
            rhs = a.multiply(rows[i], rows[j])
            assert lhs == rhs


def test_basis_extension_rejects_nonclosed_span():
    a = matrix_algebra(QQ, 2)
    rows = [sparse([QQ.of(x) for x in r]) for r in [[1, 0, 0, 1], [0, 1, 0, 0]]]
    subalgebra_extension(a, basis=rows)
    # span{1, e12, e21} is not closed: e12 e21 = e11 falls outside
    bad = [sparse([QQ.of(x) for x in r]) for r in
           [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]]
    with pytest.raises(AlgebraError):
        subalgebra_extension(a, basis=bad)


def test_basis_extension_names_each_fault():
    a = matrix_algebra(QQ, 2)
    rows = lambda *rs: [sparse([QQ.of(x) for x in r]) for r in rs]
    with pytest.raises(AlgebraError, match="^subalgebra basis is linearly dependent$"):
        subalgebra_extension(a, basis=rows([1, 0, 0, 1], [0, 1, 0, 0], [2, 3, 0, 2]))
    # span{e11, e12} is closed under products but misses e11 + e22
    with pytest.raises(AlgebraError, match="^subalgebra does not contain the unit$"):
        subalgebra_extension(a, basis=rows([1, 0, 0, 0], [0, 1, 0, 0]))
    # e12 e21 = e11 and e21 e12 = e22 fall outside: (1,2) comes first
    with pytest.raises(AlgebraError, match=r"^not closed under multiplication "
                       r"at basis pair \(1,2\)$"):
        subalgebra_extension(a, basis=rows([1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]))


def reference_structure(total, vecs):
    """The unit's and the products' coordinates, one span_decide each."""
    coords = lambda v: span_decide(total.field, total.dim, vecs, v)
    return coords(total.unit), [[coords(total.multiply(x, y)) for y in vecs]
                                for x in vecs]


@given(st.sampled_from([QQ, GF(5)]), st.data())
def test_basis_extension_matches_one_span_decide_per_product(field, data):
    """The upper triangular matrices in M2 over a random basis of them."""
    a = matrix_algebra(field, 2)
    scalar = (st.fractions(-3, 3, max_denominator=3) if field == QQ
              else st.integers(0, 4)).map(field.of)
    # a triangular change of basis with a nonzero diagonal, rows permuted
    p = [[data.draw(scalar) if j > i else field.zero for j in range(3)]
         for i in range(3)]
    for i in range(3):
        p[i][i] = data.draw(scalar.filter(bool))
    t2 = [dense_vector(field, 4, unit_vec(field, i)) for i in (0, 1, 3)]
    vecs = [[sum((field.mul(c, v[j]) for c, v in zip(row, t2)), field.zero)
             for j in range(4)] for row in data.draw(st.permutations(p))]
    vecs = [sparse([field.of(x) for x in v]) for v in vecs]
    base = subalgebra_extension(a, basis=vecs).base
    assert (base.unit, base.mult) == reference_structure(a, vecs)


def test_extension_requires_exactly_one_description():
    a = group_algebra(QQ, cyclic(2))
    with pytest.raises(AlgebraError):
        subalgebra_extension(a)
    with pytest.raises(AlgebraError):
        subalgebra_extension(a, basis=[a.unit], subgroup=[0])


def test_extension_validation_rejects_nonunital_map():
    a = group_algebra(QQ, cyclic(2))
    b = trivial_algebra(QQ)
    iota = Matrix.from_cols(QQ, 2, [unit_vec(QQ, 1)])
    with pytest.raises(AlgebraError, match="unit"):
        Extension(b, a, iota)


def test_self_extension():
    a = group_algebra(QQ, cyclic(4))
    ext = self_extension(a)
    assert ext.base.dim == a.dim
    assert ext.iota.apply(unit_vec(QQ, 2)) == unit_vec(QQ, 2)


# -- properties -------------------------------------------------------------

@given(st.integers(2, 6), st.data())
def test_group_algebra_associativity_random(n, data):
    a = group_algebra(GF(7), cyclic(n))
    f = a.field
    pick = lambda: sparse([f.of(data.draw(st.integers(0, 6))) for _ in range(n)])
    x, y, z = pick(), pick(), pick()
    assert a.multiply(a.multiply(x, y), z) == a.multiply(x, a.multiply(y, z))


@given(st.data())
def test_mult_matrix_linearity(data):
    a = matrix_algebra(QQ, 2)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pick = lambda: [QQ.of(data.draw(rat)) for _ in range(4)]
    x, y = pick(), pick()
    s = data.draw(rat)
    scaled = [QQ.of(a_ + QQ.mul(QQ.of(s), b_)) for a_, b_ in zip(x, y)]
    lhs = a.left_mult_matrix(sparse(scaled))
    rhs = a.left_mult_matrix(sparse(x)) + scale(a.left_mult_matrix(sparse(y)),
                                                QQ.of(s))
    assert lhs == rhs


# -- the pair multiply and the sparse validation against the dense loops ------

@cache
def multiply_cases() -> list:
    """The corpus algebras over their own fields and, for the group
    algebras, over F_5, with M2 over Q and over F_5."""
    from ringext.serialize import parse_algebra, parse_field
    from tests.conftest import CORPUS_NAMES, corpus_doc

    docs = [corpus_doc(name) for name in CORPUS_NAMES]
    specs = [(parse_field(doc["field"]), doc["algebra"]) for doc in docs]
    specs += [(GF(5), spec) for _, spec in specs if "group" in spec]
    return ([parse_algebra(f, spec) for f, spec in specs]
            + [matrix_algebra(QQ, 2), matrix_algebra(GF(5), 2)])


@settings(max_examples=80)
@given(st.data())
def test_multiply_matches_the_dense_loop(data):
    """The pair multiply, one comb over the structure constants, against
    the dense loop it replaced, with zero and unit operands among the
    draws."""
    a = data.draw(st.sampled_from(multiply_cases()))
    field = a.field
    scalar = (st.fractions(-3, 3, max_denominator=3) if field == QQ
              else st.integers(0, field.p - 1)).map(field.of)
    element = st.one_of(
        st.just([field.zero] * a.dim),
        st.just(dense_vector(field, a.dim, a.unit)),
        st.lists(scalar, min_size=a.dim, max_size=a.dim))
    x, y = data.draw(element), data.draw(element)
    assert a.multiply(sparse(x), sparse(y)) == sparse(
        reference_multiply(a, x, y))


def rebased(a: FDAlgebra, p: Matrix) -> tuple:
    """The structure constants and unit of a in the basis of p's columns."""
    pinv, b = invert(p), p.transpose().pairs
    return ([[pinv.apply(a.multiply(x, y)) for y in b] for x in b],
            pinv.apply(a.unit))


def validation_fault(field, n, mult, unit):
    try:
        FDAlgebra(field, n, mult, unit)
    except AlgebraError as exc:
        return str(exc)
    return None


@settings(max_examples=80)
@given(st.data())
def test_validation_matches_the_dense_loops(data):
    """Valid tables in a random unitriangular basis, the same with one
    structure constant or unit entry moved, and random tables: the sparse
    check accepts or rejects each as the dense loops do, with the same
    indices."""
    field = data.draw(st.sampled_from([QQ, GF(2), GF(3)]))
    small = st.integers(-2, 2).map(field.of)
    kind = data.draw(st.sampled_from(["valid", "table", "unit", "random"]))
    if kind == "random":
        n = data.draw(st.integers(1, 3))
        mult = [[sparse([data.draw(small) for _ in range(n)]) for _ in range(n)]
                for _ in range(n)]
        unit = sparse([data.draw(small) for _ in range(n)])
    else:
        a = data.draw(st.sampled_from([
            group_algebra(field, cyclic(3)), group_algebra(field, sym3()),
            matrix_algebra(field, 2), diagonal_algebra(field, 3)]))
        n = a.dim
        p = Matrix.from_pairs(field, n, n, [
            [(j, field.one if i == j else data.draw(small)) for j in range(i, n)]
            for i in range(n)])
        mult, unit = rebased(a, p)
        index = st.integers(0, n - 1)

        def bumped(v: tuple) -> tuple:
            """v plus one at a drawn index."""
            w = dense_vector(field, n, v)
            k = data.draw(index)
            w[k] = field.of(w[k] + field.one)
            return sparse(w)
        if kind == "table":
            i, j = data.draw(index), data.draw(index)
            mult[i][j] = bumped(mult[i][j])
        elif kind == "unit":
            unit = bumped(unit)
    want = reference_validation_fault(field, n, mult, unit)
    assert validation_fault(field, n, mult, unit) == want
    if kind == "valid":
        assert want is None
