"""Exact linear algebra: elimination, kernels, solving, subspaces."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringext.linalg import (GF, MODULUS_BOUND, QQ, LinalgError, Matrix,
                            PrimeField, Subspace, echelon_insert,
                            invert,
                            kernel, lin_comb,
                            rank, rref, solve, span_decide,
                            span_decide_pairs, sparse)
from tests import oracle_linalg
from tests.helpers import dense_matrix, dense_vector, residual, unit_vec
from tests.oracle_linalg import as_pairs
from tests.oracles import kron

F5 = GF(5)


def mat(field, rows):
    return dense_matrix(field, [[field.of(x) for x in r] for r in rows])


def vec(field, entries):
    return [field.of(x) for x in entries]


def assert_pair_format(vectors, dim):
    """The library's vector format: int indices in 0..dim-1, strictly
    ascending, and no zero value; Matrix.__eq__ compares pairs, so a
    stray zero or an unsorted row would make equal matrices unequal."""
    for v in vectors:
        idx = [j for j, _ in v]
        assert all(type(j) is int and 0 <= j < dim for j in idx), v
        assert all(i < j for i, j in zip(idx, idx[1:])), v
        assert all(x for _, x in v), v


# -- field descriptors ------------------------------------------------------

def test_rational_field_ops():
    f = QQ
    a, b = f.of("2/3"), f.of(4)
    assert f.mul(a, b) == Fraction(8, 3)
    assert f.inv(a) == Fraction(3, 2)
    assert f.is_one(f.mul(b, f.inv(b)))
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)
    # whole results are ints; inversion is rational, never float
    assert type(QQ.inv(2)) is not float and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.of("4/2")) is int and QQ.of("4/2") == 2
    half = Fraction(1, 2)
    for whole in (QQ.zero, QQ.one, QQ.of(Fraction(6, 3)), QQ.mul(half, 4),
                  QQ.inv(half)):
        assert type(whole) is int


def test_prime_field_ops():
    f = GF(7)
    assert f.of(-1) == 6
    assert f.of(10) == 3
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_gf_rejects_composite():
    with pytest.raises(LinalgError):
        GF(6)
    with pytest.raises(LinalgError):
        GF(1)


def test_primality_is_exact_and_fast():
    t0 = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 0.5
    assert PrimeField(10**12 + 39).p == 10**12 + 39
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        with pytest.raises(LinalgError, match="not a prime"):
            PrimeField(n)
    trial = [n for n in range(2, 3000)
             if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    accepted = []
    for n in range(3000):
        try:
            PrimeField(n)
        except LinalgError:
            continue
        accepted.append(n)
    assert accepted == trial


def test_modulus_bound_is_enforced():
    with pytest.raises(LinalgError, match="not below"):
        PrimeField(MODULUS_BOUND)
    with pytest.raises(LinalgError, match="not below"):
        PrimeField(2**127 - 1)


def test_gf_is_cached():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)


# -- matrices ---------------------------------------------------------------

def test_matmul_and_apply():
    a = mat(QQ, [[1, 2], [3, 4]])
    b = mat(QQ, [[0, 1], [1, 0]])
    assert (a @ b).data == mat(QQ, [[2, 1], [4, 3]]).data
    assert a.apply(as_pairs(vec(QQ, [1, 1]))) == as_pairs(vec(QQ, [3, 7]))
    assert (a @ Matrix.identity(QQ, 2)) == a


def test_matrix_shape_mismatch():
    a = mat(QQ, [[1, 2]])
    b = mat(QQ, [[1, 2]])
    with pytest.raises(LinalgError):
        a @ b
    with pytest.raises(LinalgError):
        a + mat(QQ, [[1], [2]])


def test_vec_roundtrip():
    a = mat(QQ, [[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_vec(QQ, 2, 3, a.vec()) == a
    b = mat(QQ, [[0, 2, 0], [4, 0, 0]])
    assert b.vec() == ((1, 2), (3, 4))
    assert Matrix.from_vec(QQ, 2, 3, b.vec()) == b
    with pytest.raises(LinalgError):
        Matrix.from_vec(QQ, 2, 3, ((6, 1),))


def test_kron_shape_and_values():
    a = mat(QQ, [[1, 2]])
    b = mat(QQ, [[3], [4]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.data == mat(QQ, [[3, 6], [4, 8]]).data


# -- elimination ------------------------------------------------------------

def test_rref_known():
    a = mat(QQ, [[2, 4], [1, 2]])
    r, pivots = rref(a)
    assert pivots == [0]
    assert r.data[0] == vec(QQ, [1, 2])
    assert rank(a) == 1


def test_invert_singular_returns_none():
    assert invert(mat(QQ, [[1, 2], [2, 4]])) is None


def test_invert_known():
    a = mat(QQ, [[1, 1], [0, 1]])
    inv = invert(a)
    assert inv @ a == Matrix.identity(QQ, 2)


def test_solve_particular_and_homogeneous():
    a = mat(QQ, [[1, 1, 0], [0, 0, 1]])
    x = solve(a, as_pairs(vec(QQ, [3, 5])))
    assert x == ((0, 3), (2, 5))
    assert a.apply(x) == as_pairs(vec(QQ, [3, 5]))
    hom = kernel(a)
    assert hom == [((0, -1), (1, 1))]
    assert a.apply(hom[0]) == ()
    with pytest.raises(LinalgError):
        solve(a, ((2, 1),))


def test_solve_inconsistent():
    a = mat(QQ, [[1, 1], [2, 2]])
    assert solve(a, as_pairs(vec(QQ, [1, 3]))) is None


SPAN_CASES = [
    ([[1, 0], [1, 1]], [3, 2], [1, 2]),
    ([[1, 0]], [0, 1], None),
    # a dependent generator gets coefficient zero, a free variable
    ([[1, 0], [2, 0], [0, 1]], [3, 2], [3, 0, 2]),
    ([[0, 0], [1, 1]], [0, 0], [0, 0]),
    ([], [0, 0], []),
    ([], [1, 0], None),
    ([[Fraction(1, 2), 0], [0, 3]], [1, 1], [2, Fraction(1, 3)]),
]


def test_span_decide():
    ops = oracle_linalg.FracOps()
    for gens, target, want in SPAN_CASES:
        n = len(target)
        pairs = [as_pairs(vec(QQ, g)) for g in gens]
        coeffs = span_decide(QQ, n, pairs, as_pairs(vec(QQ, target)))
        assert coeffs == (None if want is None else as_pairs(want))
        # the canonical solution is the oracle's free-variables-zero one
        columns = [[g[i] for g in gens] for i in range(n)]
        oracle = oracle_linalg.particular(ops, columns, target, len(gens)) \
            if gens else (None if any(target) else [])
        assert coeffs == (None if oracle is None else as_pairs(oracle))
        if coeffs is not None:
            acc = [QQ.zero] * n
            for c, g in zip(dense_vector(QQ, len(gens), coeffs), gens):
                acc = [QQ.of(a + QQ.mul(c, QQ.of(x))) for a, x in zip(acc, g)]
            assert acc == vec(QQ, target)


def test_span_decide_rejects_vectors_outside_the_dimension():
    with pytest.raises(LinalgError):
        span_decide(QQ, 2, [((2, 1),)], ())
    with pytest.raises(LinalgError):
        span_decide(QQ, 2, [((0, 1),)], ((2, 1),))


def _hadamard(field):
    return lambda u, v: as_pairs([field.mul(a, b) for a, b in zip(u, v)])


@given(st.sampled_from([QQ, F5]), st.data())
def test_span_decide_pairs_groups_span_decide(field, data):
    n = 3
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda v: vec(field, v))
    lefts = data.draw(st.lists(vectors, max_size=3))
    rights = data.draw(st.lists(vectors, max_size=3))
    target = data.draw(st.one_of(st.just([field.zero] * n), vectors))
    product = _hadamard(field)
    generators = [product(u, v) for u in lefts for v in rights]
    assert_pair_format(generators, n)
    got = span_decide_pairs(field, n, lefts, rights, product, as_pairs(target))
    flat = span_decide(field, n, generators, as_pairs(target))
    # solvable exactly when the oracle puts target in the generators' span
    ops = oracle_linalg.FracOps() if field == QQ else oracle_linalg.ModOps(5)
    gens = [dense_vector(field, n, g) for g in generators]
    assert (flat is not None) == (
        oracle_linalg.in_span(ops, [[ops.of(x) for x in g] for g in gens],
                              [ops.of(x) for x in target])
        if gens else not any(target))
    if flat is None:
        assert got is None
        return
    if gens:
        columns = [[g[i] for g in gens] for i in range(n)]
        assert flat == as_pairs(
            oracle_linalg.particular(ops, columns, target, len(gens)))
    k = len(rights)
    dense_flat = dense_vector(field, len(generators), flat)
    chunks = [dense_flat[i * k:(i + 1) * k] for i in range(len(lefts))]
    assert got == [(i, as_pairs(c)) for i, c in enumerate(chunks) if any(c)]
    acc = [field.zero] * n
    for i, coeffs in got:
        for j, c in coeffs:
            acc = [field.of(a + field.mul(c, x)) for a, x in zip(acc, dense_vector(
                field, n, product(lefts[i], rights[j])))]
    assert acc == target


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_span_decide_pairs_empty_sides_and_zero_target(field):
    product, one, zero = _hadamard(field), vec(field, [1, 1]), [field.zero] * 2
    ones = as_pairs(one)
    assert span_decide_pairs(field, 2, [], [one], product, ()) == []
    assert span_decide_pairs(field, 2, [one], [], product, ()) == []
    assert span_decide_pairs(field, 2, [], [], product, ones) is None
    assert span_decide_pairs(field, 2, [one, one], [one], product, ()) == []
    assert span_decide_pairs(field, 2, [zero, one], [one], product, ones) == \
        [(1, ((0, field.one),))]


# -- subspaces --------------------------------------------------------------

def test_subspace_membership_and_coordinates():
    s = Subspace.from_vectors(QQ, 3, [as_pairs(vec(QQ, [1, 0, 1])),
                                      as_pairs(vec(QQ, [0, 1, 1]))])
    assert s.dim == 2
    v = vec(QQ, [2, 3, 5])
    assert s.contains(as_pairs(v))
    coords = dense_vector(QQ, 2, s.coordinates(sparse(v)))
    rebuilt = [QQ.zero] * 3
    for c, row in zip(coords, s.basis.data):
        rebuilt = [QQ.of(a + QQ.mul(c, x)) for a, x in zip(rebuilt, row)]
    assert rebuilt == v
    assert not s.contains(as_pairs(vec(QQ, [1, 0, 0])))
    assert s.coordinates(sparse(vec(QQ, [1, 0, 0]))) is None


@given(st.sampled_from([QQ, F5]), st.data())
def test_coordinates_match_the_dense_reference(field, data):
    """Coordinates read off a vector's nonzeros at the pivots agree with
    the dense reference: the vector at each pivot when its residual
    vanishes, else None; vectors inside the span, with fewer nonzeros
    than pivots and more, and outside it."""
    n = data.draw(st.integers(1, 7))
    entry = st.integers(-2, 2).map(field.of)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              max_size=n))
    s = Subspace.from_vectors(field, n, map(as_pairs, rows))
    coords = data.draw(st.lists(entry, min_size=s.dim, max_size=s.dim))
    sparse_entries = data.draw(st.dictionaries(st.integers(0, n - 1), entry,
                                               max_size=2))
    vectors = [dense_vector(field, n, s.element(as_pairs(coords))),
               dense_vector(field, n, sparse_entries.items()),
               data.draw(st.lists(entry, min_size=n, max_size=n))]
    vectors += [dense_vector(field, n, unit_vec(field, c)) for c in s.pivots[:1]]
    for v in vectors:
        want = None if any(residual(s, v)) else sparse([v[c] for c in s.pivots])
        assert s.coordinates(sparse(v)) == want, (v, s.basis)
    assert s.coordinates(sparse(vectors[0])) == sparse(coords)


def test_subspace_lattice_ops():
    e0, e1, e2 = (unit_vec(QQ, i) for i in range(3))
    u = Subspace.from_vectors(QQ, 3, [e0, e1])
    w = Subspace.from_vectors(QQ, 3, [e1, e2])
    assert Subspace.from_vectors(QQ, 3, u.basis.pairs + w.basis.pairs).basis == \
        Matrix.identity(QQ, 3)
    inter = u.intersect(w)
    assert inter.dim == 1 and inter.contains(e1)
    assert inter.is_contained_in(u) and inter.is_contained_in(w)
    assert Subspace.zero(QQ, 3).dim == 0


# -- hypothesis properties --------------------------------------------------

rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def qq_matrix(rows, cols):
    return st.lists(
        st.lists(rat.map(QQ.of), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: dense_matrix(QQ, data, cols))


def f5_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: dense_matrix(F5, data, cols))


@given(qq_matrix(3, 4))
def test_rref_idempotent(a):
    r1, p1 = rref(a)
    r2, p2 = rref(r1)
    assert p1 == p2
    assert r1 == r2


@given(f5_matrix(3, 3))
def test_kernel_vectors_annihilate(a):
    ker = kernel(a)
    assert len(ker) == a.cols - rank(a)
    assert_pair_format(ker, a.cols)
    for v in ker:
        assert a.apply(v) == ()


@given(qq_matrix(3, 3))
def test_invert_roundtrip(a):
    inv = invert(a)
    if inv is None:
        assert rank(a) < 3
    else:
        assert a @ inv == Matrix.identity(QQ, 3)
        assert inv @ a == Matrix.identity(QQ, 3)


@given(qq_matrix(2, 3), st.lists(rat.map(QQ.of), min_size=2, max_size=2))
def test_solve_when_consistent(a, rhs):
    got = solve(a, as_pairs(rhs))
    want = oracle_linalg.particular(oracle_linalg.FracOps(), a.data, rhs, a.cols)
    assert got == (None if want is None else as_pairs(want))
    if got is not None:
        assert_pair_format([got], a.cols)
        assert a.apply(got) == as_pairs(rhs)
    for h in kernel(a):
        assert a.apply(h) == ()


@given(f5_matrix(4, 3))
def test_subspace_from_vectors_contains_generators(a):
    s = Subspace.from_vectors(F5, 3, a.pairs)
    for row in a.pairs:
        assert s.contains(row)
    assert s.dim == rank(a)


@given(st.one_of(qq_matrix(5, 4), f5_matrix(5, 4)))
def test_echelon_insert_grows_the_row_space(a):
    """Rows inserted one at a time give the RREF of their span, and each
    insertion reports whether its row was new."""
    echelon, seen = {}, Subspace.zero(a.field, a.cols)
    for row in a.data:
        new = echelon_insert(a.field, echelon,
                             {j: x for j, x in enumerate(row) if x})
        assert new == (not seen.contains(as_pairs(row)))
        seen = Subspace.from_echelon(a.field, a.cols, echelon)
    assert seen == Subspace.row_space(a)
    assert seen.pivots == Subspace.row_space(a).pivots


# -- sparse elimination against the independent oracle ------------------------

@st.composite
def sparse_rows(draw, nonzero):
    """A tall matrix (up to 30 x 10) with at least 80% zero entries."""
    cols = draw(st.integers(1, 10))
    rows = draw(st.integers(cols, 30))
    cells = rows * cols
    count = draw(st.integers(0, cells // 5))
    where = draw(st.lists(st.integers(0, cells - 1), min_size=count,
                          max_size=count, unique=True))
    data = [[0] * cols for _ in range(rows)]
    for pos in where:
        data[pos // cols][pos % cols] = draw(nonzero)
    return data


big = st.integers(-10**30, 10**30).filter(bool)
large_fractions = st.builds(Fraction, big, st.integers(1, 10**30))


def assert_matches_oracle(field, ops, data):
    m = dense_matrix(field, [[field.of(x) for x in row] for row in data])
    red, pivots = rref(m)
    want_rows, want_pivots = oracle_linalg.rref(ops, [[ops.of(x) for x in row]
                                                      for row in data])
    assert pivots == want_pivots
    assert red.data[:len(pivots)] == want_rows
    assert not any(map(any, red.data[len(pivots):]))
    ker = kernel(m)
    assert ker == [as_pairs(v) for v in oracle_linalg.nullspace(
        ops, [[ops.of(x) for x in row] for row in data], m.cols)]
    assert_pair_format(m.pairs + red.pairs, m.cols)
    assert_pair_format(ker, m.cols)
    # right-hand sides: a column of m (always consistent) and the sum of
    # the unit vectors at the first rows (often not)
    for rhs in ([row[0] for row in data],
                [int(i < m.cols) for i in range(m.rows)]):
        got = solve(m, as_pairs([field.of(x) for x in rhs]))
        want = oracle_linalg.particular(ops, data, rhs, m.cols)
        assert got == (None if want is None else as_pairs(want))
        if got is not None:
            assert_pair_format([got], m.cols)


@given(sparse_rows(large_fractions))
def test_sparse_rref_and_kernel_match_oracle_over_q(data):
    assert_matches_oracle(QQ, oracle_linalg.FracOps(), data)


@given(sparse_rows(st.integers(1, 4)))
def test_sparse_rref_and_kernel_match_oracle_over_f5(data):
    assert_matches_oracle(F5, oracle_linalg.ModOps(5), data)


# -- whole rationals stay ints through every kernel ---------------------------

q_entry = st.one_of(
    st.just(0), st.integers(-3, 3), rat, large_fractions,
    # whole values held as Fraction, as an input may hand them over
    st.builds(lambda n, d: Fraction(n * d, d), st.integers(-9, 9),
              st.integers(1, 10**20)),
)


def assert_canonical(entries):
    """Every whole entry is an int, never a Fraction with denominator 1."""
    assert [e for e in entries if type(e) is not int and e.denominator == 1] == []


def values(pairs):
    return [x for _, x in pairs]


def q_rows(draw, rows, cols):
    """Rows of Q entries as QQ.of reads them, and the same as Fractions."""
    raw = [[draw(q_entry) for _ in range(cols)] for _ in range(rows)]
    return ([[QQ.of(x) for x in row] for row in raw],
            [[Fraction(x) for x in row] for row in raw])


@given(st.data())
def test_mixed_int_and_fraction_entries_match_oracle(data):
    draw = data.draw
    m, n, p = (draw(st.integers(1, 4)) for _ in range(3))
    ops = oracle_linalg.FracOps()
    rows, frac = q_rows(draw, m, n)
    other, other_frac = q_rows(draw, n, p)
    (rhs, v, coeffs), _ = q_rows(draw, 3, max(m, n, 2))
    rhs, v, coeffs = rhs[:m], v[:n], coeffs[:2]
    a, b = dense_matrix(QQ, rows), dense_matrix(QQ, other)
    a2 = dense_matrix(QQ, rows[::-1])
    outputs = [values(a.vec()), values(b.vec())]

    red, pivots = rref(a)
    want_rows, want_pivots = oracle_linalg.rref(ops, frac)
    assert pivots == want_pivots and red.data[:len(pivots)] == want_rows
    ker = kernel(a)
    assert ker == [as_pairs(v) for v in oracle_linalg.nullspace(ops, frac, n)]
    outputs += [values(red.vec())] + [values(v) for v in ker]

    got = solve(a, as_pairs(rhs))
    particular = oracle_linalg.particular(ops, frac, rhs, n)
    if particular is None:
        assert got is None
    else:
        assert got == as_pairs(particular)
        outputs += [values(got)]

    k = min(m, n)
    square = dense_matrix(QQ, [row[:k] for row in a.data[:k]], k)
    inv = invert(square)
    eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    ired, ipivots = oracle_linalg.rref(
        ops, [row[:k] + e for row, e in zip(frac, eye)])
    if ipivots[:k] != list(range(k)) or len(ipivots) != k:
        assert inv is None
    else:
        assert inv.data == [row[k:] for row in ired]
        outputs += [values(inv.vec())]

    prod = a @ b
    assert prod.data == oracle_linalg.matmul(ops, frac, other_frac)
    applied = a.apply(as_pairs(v))
    assert dense_vector(QQ, m, applied) == [
        r for r, in oracle_linalg.matmul(ops, frac, [[x] for x in v])]
    comb = lin_comb(QQ, m, n, as_pairs(coeffs), [a, a2])
    assert comb.data == [[coeffs[0] * x + coeffs[1] * y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(frac, frac[::-1])]
    space = Subspace.from_vectors(QQ, n, a.pairs)
    rest = residual(space, v)
    assert (not any(rest)) == oracle_linalg.in_span(
        ops, frac, [Fraction(x) for x in v])
    outputs += [values(prod.vec()), values(applied), values(comb.vec()), rest,
                values(space.element(as_pairs(coeffs[:space.dim])))]
    assert_canonical([e for out in outputs for e in out])
