"""The classes and maps out of a TensorProduct against a dense oracle, on
every tensor product that a full analysis builds, over Q and over F_p.

A class is a pair vector of quotient coordinates, in ascending order and
without zeros; the oracle reduces a dense ambient vector by the relation
basis (tests.helpers.residual) and reads it at the free columns.  A
product with a factor recording a generator is presented over the other
factor, so there the oracle first moves each e_u (x) e_v to that factor
through a lift it solves on its own (oracles.reference_presentation).
"""

from functools import cache
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringext.canonical import build_canonical_rings
from ringext.linalg import PrimeField, sparse
from ringext.report import analysis_report
from ringext.serialize import parse_input

from tests.conftest import corpus_doc
from tests.helpers import dense_matrix
from tests.oracles import reference_class, reference_presentation

NAMES = ["qc2_q", "qq8_qi", "m2q_t2", "f7s3_f7t"]


@cache
def analysed_tensors(name: str) -> list:
    """Every tensor product in the memo of the rings of one analysis."""
    parsed = parse_input(corpus_doc(name))
    cr = build_canonical_rings(parsed.ext)
    analysis_report(parsed, rings=cr)
    return [tp for key, (_, tp) in cr._memo.items() if key[0] == "tensor"]


def scalars(field):
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1)
    return st.fractions(-2, 2, max_denominator=3).map(field.of)


def dense_vectors(field, n):
    return st.lists(scalars(field), min_size=n, max_size=n)


_PRESENTATIONS: dict = {}


def oracle_class(tp, ambient: list) -> tuple:
    """The class of a dense ambient vector, read off its dense residual;
    in a product presented over one factor, after moving each
    e_u (x) e_v to that factor through a lift of its own."""
    if id(tp) not in _PRESENTATIONS:
        _PRESENTATIONS[id(tp)] = reference_presentation(tp)
    presented = _PRESENTATIONS[id(tp)]
    if presented is None:
        return reference_class(tp.relations, ambient)
    _, moved, space = presented
    f, dn = tp.relations.field, tp.right_factor.dim
    w = [f.zero] * space.ambient_dim
    for c, a in enumerate(ambient):
        if a:
            w = [f.of(x + f.mul(a, y)) for x, y in zip(w, moved(*divmod(c, dn)))]
    return reference_class(space, w)


def assert_pair_vector(v: tuple, dim: int) -> None:
    indices = [k for k, _ in v]
    assert indices == sorted(set(indices)) and all(0 <= k < dim for k in indices)
    assert all(x for _, x in v)


def test_analyses_build_tensor_products_over_q_and_fp():
    fields = {tp.relations.field for name in NAMES
              for tp in analysed_tensors(name)}
    assert any(isinstance(f, PrimeField) for f in fields)
    assert any(not isinstance(f, PrimeField) for f in fields)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_sum_pure_and_project_give_the_dense_class(name, data):
    tp = data.draw(st.sampled_from(analysed_tensors(name)))
    f = tp.relations.field
    dm, dn, dq = tp.left_factor.dim, tp.right_factor.dim, tp.module.dim
    pairs = data.draw(st.lists(st.tuples(dense_vectors(f, dm),
                                         dense_vectors(f, dn)), max_size=3))
    ambient = [f.zero] * (dm * dn)
    for x, y in pairs:
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                ambient[i * dn + j] = f.of(ambient[i * dn + j] + f.mul(a, b))
    got = tp.sum_pure([(sparse(x), sparse(y)) for x, y in pairs])
    assert_pair_vector(got, dq)
    assert got == oracle_class(tp, ambient)

    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, dm - 1), st.integers(0, dn - 1)),
        scalars(f), max_size=6))
    rows = [[entries.get((i, j), f.zero) for j in range(dn)] for i in range(dm)]
    got = tp.project(dense_matrix(f, rows, dn))
    assert_pair_vector(got, dq)
    assert got == oracle_class(tp, [x for row in rows for x in row])


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_map_out_sets_each_column_at_its_class(name, data):
    tp = data.draw(st.sampled_from(analysed_tensors(name)))
    f = tp.relations.field
    rows = data.draw(st.integers(0, 4))
    nonzero = scalars(f).filter(bool)
    # each basis class is a pure tensor x (x) y, e_u (x) e_v at a free
    # column unless a factor records a generator
    basis = tp.basis_tensors
    assert len(basis) == tp.module.dim
    if reference_presentation(tp) is None:
        assert basis == tuple((((u, f.one),), ((v, f.one),)) for u, v in (
            divmod(c, tp.right_factor.dim) for c in tp.free_cols))
    columns = {(u, v): tuple(sorted(data.draw(st.dictionaries(
        st.integers(0, max(rows - 1, 0)), nonzero, max_size=rows)).items()))
        for x, y in basis for u, _ in x for v, _ in y}
    want = [[f.zero] * len(basis) for _ in range(rows)]
    for k, (x, y) in enumerate(basis):
        for (u, a), (v, b) in product(x, y):
            for j, c in columns[(u, v)]:
                want[j][k] = f.of(want[j][k] + f.mul(f.mul(a, b), c))
    got = tp.map_out(rows, lambda u, v: columns[(u, v)])
    assert got == dense_matrix(f, want, len(basis))
