"""The kernels that read cached columns, against references that do not.

A Matrix builds its transpose once and keeps it, and a from_cols result
keeps the columns it was given as its transpose; apply and spin sum the
cached columns at a vector's nonzero entries; Matrix.identity is shared;
a TensorProduct keeps the class of every ambient basis tensor, in one
table its outer actions share, with no reference cycle.  Each is
checked against the dense reference rows of tests/test_sparse_matrix.py,
the relations' own reduction, or the closure by plain translates.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringext.bimodule import regular_bimodule, restrict, tensor_over
from ringext.canonical import CanonicalSpaces
from ringext.linalg import GF, QQ, Matrix, Subspace, spin
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import case_doc
from tests.oracle_linalg import as_pairs
from tests.oracles import reference_translate_span
from tests.test_sparse_matrix import (FIELDS, assert_canonical, dense_rows,
                                      entries, lib, ref_apply, ref_transpose)

NAMES = ["Q", "F2", "F5"]


@given(st.sampled_from(NAMES), st.data())
def test_transpose_is_built_once_and_matches_the_reference(name, data):
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(dense_rows(name, m, n))
    A = lib(name, a, n)
    t = A.transpose()
    assert A.transpose() is t
    assert t.data == ref_transpose(a, n)
    assert [A.col(j) for j in range(n)] == [as_pairs(col)
                                             for col in ref_transpose(a, n)]
    # the transpose keeps no reference back: its own transpose is new
    assert t.transpose() == A and t.transpose() is not A


@given(st.sampled_from(NAMES), st.data())
def test_from_cols_keeps_its_columns_as_its_transpose(name, data):
    """The transpose of a from_cols result is the column form it was
    given, equal to a transpose computed afresh, and refers to nothing."""
    field = FIELDS[name][0]
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(dense_rows(name, n, m))   # the n columns, each of length m
    cols = [tuple((i, field.of(x)) for i, x in enumerate(col) if x)
            for col in a]
    gc.collect()
    gc.disable()
    try:
        b = Matrix.from_cols(field, m, cols)
        t = b.transpose()
        assert t.pairs == tuple(cols)
        assert all(x is y for x, y in zip(t.pairs, cols))
        assert t == Matrix(field, m, n, b.pairs).transpose()
        assert b.data == ref_transpose(a, m)
        assert t.transpose() == b and t.transpose() is not b
        del b, t
        assert gc.collect() == 0
    finally:
        gc.enable()


def nonzero(name):
    if name == "Q":
        return st.builds(Fraction, st.integers(1, 7), st.integers(2, 5)) \
            .filter(lambda x: x.denominator != 1)
    return st.integers(1, FIELDS[name][1].p - 1)


@given(st.sampled_from(NAMES), st.sampled_from(["zero", "sparse", "dense"]),
       st.data())
def test_apply_matches_the_dense_rows(name, shape, data):
    field, ops = FIELDS[name]
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    a = data.draw(dense_rows(name, m, n, dependent=1))
    support = {"zero": [], "dense": range(n),
               "sparse": [data.draw(st.integers(0, n - 1))]}[shape]
    v = [ops.zero] * n
    for j in support:
        v[j] = ops.of(data.draw(nonzero(name)))
    A, lv = lib(name, a, n), as_pairs([field.of(x) for x in v])
    got = A.apply(lv)
    assert got == as_pairs(ref_apply(name, a, v))
    assert_canonical(name, [[x for _, x in got]])
    assert A.apply(lv) == got


def test_identity_is_shared_per_field_and_size():
    assert Matrix.identity(QQ, 3) is Matrix.identity(QQ, 3)
    assert Matrix.identity(GF(5), 3) is Matrix.identity(GF(5), 3)
    assert Matrix.identity(QQ, 3) is not Matrix.identity(GF(5), 3)
    assert Matrix.identity(QQ, 3).transpose() == Matrix.identity(QQ, 3)


def test_cached_kernels_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for field in (QQ, GF(2), GF(5)):
            a = Matrix.from_pairs(field, 2, 3, [[(0, field.one), (2, field.of(3))],
                                                [(1, field.of(4))]])
            b = Matrix.from_cols(field, 3, a.pairs)
            a.transpose().transpose()
            b.transpose()
            a.apply(((0, field.one), (2, field.of(2))))
            b.apply(((0, field.one), (1, field.of(3))))
            spin(field, 3, [((0, field.one),)], [b @ a])
            Matrix.identity(field, 7).transpose()
            del a, b
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["m2q_t2", "qq8_qi", "s3_c2_f3"])
def test_a_class_table_is_shared_and_forms_no_cycle(name):
    """A product and its outer actions read one class table, cached on
    each instance, and dropping the product frees it all at once."""
    doc = case_doc(name) if name == "s3_c2_f3" else corpus_doc(name)
    ext = parse_input(doc).ext
    a = regular_bimodule(ext.total)
    left, right = restrict(a, ext, "right"), restrict(a, ext, "left")
    gc.collect()
    gc.disable()
    try:
        q = tensor_over(left, right)
        table = q._classes
        assert q._classes is table is q.tables["classes"]
        q.module.left_action[0], q.module.right_action[0]
        assert q.tables["classes"] is table
        del q, table
        assert gc.collect() == 0
    finally:
        gc.enable()


def reduced_class(tp, c: int) -> tuple:
    """The class of ambient unit vector c by reduction by the relations."""
    index = {col: k for k, col in enumerate(tp.free_cols)}
    w = tp.relations._reduce({c: tp.relations.field.one})
    return tuple(sorted((index[j], x) for j, x in w.items()))


@pytest.mark.parametrize("name", CORPUS_NAMES + ["s3_c2_f3"])
def test_class_table_matches_the_reduced_unit_vectors(name, built):
    if name in CORPUS_NAMES:
        q = built(name).cr.q
    else:
        q = CanonicalSpaces(parse_input(case_doc(name)).ext).q
    ambient = q.left_factor.dim * q.right_factor.dim
    assert q._classes == [reduced_class(q, c) for c in range(ambient)]
    if name in ("qq8_qi", "s3_c2_f3"):
        assert q.relations.dim > 0


def closure(field, dim, ops, vectors) -> Subspace:
    """The least span of the vectors closed under ops, by plain translates."""
    span = Subspace.from_vectors(field, dim, vectors)
    while True:
        rows = span.basis.pairs
        grown = Subspace.from_vectors(field, dim, rows + reference_translate_span(
            field, dim, ops, rows).basis.pairs)
        if grown.dim == span.dim:
            return span
        span = grown


@given(st.sampled_from(NAMES), st.data())
def test_spin_matches_the_closure_by_translates(name, data):
    field = FIELDS[name][0]
    n = data.draw(st.integers(1, 5))
    ops = [lib(name, data.draw(dense_rows(name, n, n)), n)
           for _ in range(data.draw(st.integers(0, 2)))]
    vectors = [[field.of(data.draw(entries(name))) for _ in range(n)]
               for _ in range(data.draw(st.integers(0, 2)))]
    pairs = [tuple((j, x) for j, x in enumerate(v) if x) for v in vectors]
    assert spin(field, n, pairs, ops) == closure(field, n, ops, pairs)
