"""The sparse-row Matrix against plain list-of-lists arithmetic.

Every operation of Matrix is recomputed here on dense rows of Fractions
(over Q) or of ints mod 5 (over F_5), with no library arithmetic, and the
two must agree entry for entry; whole rationals must come back as ints.
The drawn shapes include empty ones, and some matrices get rows that are
combinations of earlier rows, so those rows vanish during elimination.
Other drawn matrices have empty and one-entry rows, the rows a product
passes through or reads as one row of the other factor, and Field.comb
gets terms that cancel and one-term combinations, which it passes
through.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringext.linalg import (GF, QQ, LinalgError, Matrix, invert, kernel,
                            lin_comb, solve)
from tests import oracle_linalg
from tests.helpers import dense_matrix, dense_vector, scale
from tests.oracle_linalg import as_pairs

F5 = GF(5)
FIELDS = {"Q": (QQ, oracle_linalg.FracOps()), "F5": (F5, oracle_linalg.ModOps(5)),
          "F2": (GF(2), oracle_linalg.ModOps(2))}

big = st.integers(-10**30, 10**30)
q_entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.builds(Fraction, big, st.integers(1, 10**30)))


def entries(name):
    if name == "Q":
        return q_entry
    return st.one_of(st.just(0), st.integers(0, FIELDS[name][1].p - 1))


@st.composite
def dense_rows(draw, name, rows, cols, dependent=0):
    """rows x cols entries, then `dependent` extra rows that are
    combinations of the drawn ones."""
    field, ops = FIELDS[name]
    data = [[ops.of(draw(entries(name))) for _ in range(cols)]
            for _ in range(rows)]
    for _ in range(dependent if rows else 0):
        cs = [ops.of(draw(entries(name))) for _ in range(rows)]
        data.append([ops.of(sum((c * row[j] for c, row in zip(cs, data)),
                                ops.zero)) for j in range(cols)])
    return data


def lib(name, data, cols):
    """The library matrix of dense reference rows."""
    field = FIELDS[name][0]
    return dense_matrix(field, [[field.of(x) for x in row] for row in data],
                        cols)


def reduce_(name, x):
    return x if name == "Q" else x % FIELDS[name][1].p


def ref_apply(name, a, v):
    """The dense product of the rows a with the column v."""
    return [reduce_(name, sum(x * v[j] for j, x in enumerate(row))) for row in a]


def ref_matmul(name, a, b, k):
    return [[reduce_(name, sum(x * b[j][c] for j, x in enumerate(row)))
             for c in range(k)] for row in a]


def ref_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def ref_comb(name, coeffs, mats):
    return [[reduce_(name, sum(c * mat[i][j] for c, mat in zip(coeffs, mats)))
             for j in range(len(mats[0][i]))] for i in range(len(mats[0]))]


def ref_solve(ops, a, rhs, n):
    """(particular with free variables zero, kernel basis) or None, as
    pair vectors."""
    x = oracle_linalg.particular(ops, a, rhs, n)
    if x is None:
        return None
    return as_pairs(x), [as_pairs(v) for v in oracle_linalg.nullspace(ops, a, n)]


def ref_invert(ops, a, n):
    eye = [[ops.one if i == j else ops.zero for j in range(n)] for i in range(n)]
    red, pivots = oracle_linalg.rref(ops, [row + e for row, e in zip(a, eye)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def assert_canonical(name, rows):
    for x in (x for row in rows for x in row):
        if name == "Q":
            assert type(x) is int or x.denominator != 1
        else:
            assert type(x) is int and 0 <= x < FIELDS[name][1].p


@given(st.sampled_from(["Q", "F5"]), st.data())
def test_arithmetic_matches_dense_lists(name, data):
    draw = data.draw
    field, ops = FIELDS[name]
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(dense_rows(name, m, n))
    a2 = draw(dense_rows(name, m, n))
    b = draw(dense_rows(name, n, k))
    v = [ops.of(draw(entries(name))) for _ in range(n)]
    c1, c2 = (ops.of(draw(entries(name))) for _ in range(2))
    A, A2, B = lib(name, a, n), lib(name, a2, n), lib(name, b, k)
    lv = [field.of(x) for x in v]
    minus = ops.of(-1)

    outputs = {
        "matmul": ((A @ B).data, ref_matmul(name, a, b, k)),
        "apply": ([dense_vector(field, m, A.apply(as_pairs(lv)))],
                  [ref_apply(name, a, v)]),
        "lin_comb": (lin_comb(field, m, n, as_pairs([field.of(c1), field.of(c2)]),
                              [A, A2]).data,
                     ref_comb(name, [c1, c2], [a, a2])),
        "transpose": (A.transpose().data, ref_transpose(a, n)),
        "add": ((A + A2).data, ref_comb(name, [1, 1], [a, a2])),
        "sub": ((A - A2).data, ref_comb(name, [1, minus], [a, a2])),
        "scale": (scale(A, field.of(c1)).data, ref_comb(name, [c1], [a])),
    }
    for what, (got, want) in outputs.items():
        assert got == want, what
        assert_canonical(name, got)
    assert A.vec() == as_pairs([x for row in a for x in row])
    assert_canonical(name, [[x for _, x in A.vec()]])
    assert (A.transpose().rows, A.transpose().cols) == (n, m)
    assert (A @ B).rows == m and (A @ B).cols == k
    assert Matrix.from_vec(field, m, n, A.vec()) == A
    assert [A.row(i) for i in range(m)] == a
    assert [A.col(j) for j in range(n)] == list(A.transpose().pairs) == [
        as_pairs(col) for col in ref_transpose(a, n)]


@given(st.sampled_from(["Q", "F5"]), st.data())
def test_solve_and_invert_match_dense_lists(name, data):
    draw = data.draw
    field, ops = FIELDS[name]
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(dense_rows(name, m, n, dependent=draw(st.integers(0, 2))))
    rhs = [ops.of(draw(entries(name))) for _ in a]
    mat = lib(name, a, n)
    got = solve(mat, as_pairs([field.of(x) for x in rhs]))
    want = ref_solve(ops, a, rhs, n)
    if want is None:
        assert got is None
    else:
        ker = kernel(mat)
        assert (got, ker) == want
        assert_canonical(name, [[x for _, x in v] for v in [got] + ker])

    s = draw(dense_rows(name, n, n))
    if n and draw(st.booleans()):
        # a repeated row makes the square matrix singular
        s[-1] = list(s[0])
    inv = invert(lib(name, s, n))
    want_inv = ref_invert(ops, s, n)
    assert (inv is None) == (want_inv is None)
    if inv is not None:
        assert inv.data == want_inv
        assert_canonical(name, inv.data)


@pytest.mark.parametrize("name", ["Q", "F5"])
@pytest.mark.parametrize("perm", [(), (0,), (1, 0), (2, 0, 1), (3, 1, 0, 2)])
def test_identity_and_permutation_matrices(name, perm):
    field, ops = FIELDS[name]
    n = len(perm)
    p = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    P = lib(name, p, n)
    eye = Matrix.identity(field, n)
    x = lib(name, [[ops.of(3 * i + j + 1) for j in range(2)] for i in range(n)], 2)
    assert eye.data == [[int(i == j) for j in range(n)] for i in range(n)]
    assert eye @ P == P @ eye == P
    assert (P @ x).data == [x.data[perm[i]] for i in range(n)]
    assert invert(P) == P.transpose()
    assert P @ P.transpose() == eye
    assert P.apply(as_pairs(range(n))) == as_pairs(perm)
    assert solve(P, as_pairs(range(n))) == as_pairs(perm_inverse(perm))
    assert kernel(P) == []


def perm_inverse(perm):
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return out


@pytest.mark.parametrize("name", ["Q", "F5"])
def test_empty_shapes(name):
    field = FIELDS[name][0]
    wide, tall = dense_matrix(field, [], 3), dense_matrix(field, [[], [], []])
    assert (tall @ wide).data == [[0] * 3] * 3
    assert (wide @ tall).data == [] and (wide @ tall).cols == 0
    assert tall.apply(()) == () and wide.apply(((0, 1), (2, 3))) == ()
    assert wide.transpose() == tall and tall.transpose() == wide
    assert solve(wide, ()) == ()
    assert kernel(wide) == [((0, 1),), ((1, 1),), ((2, 1),)]
    assert solve(tall, ()) == () and kernel(tall) == []
    assert solve(tall, ((1, 1),)) is None
    assert invert(dense_matrix(field, [])) == Matrix.identity(field, 0)
    assert wide.vec() == () and Matrix.from_vec(field, 3, 0, ()) == tall


def test_writing_dense_views_leaves_the_matrix_unchanged():
    m = dense_matrix(QQ, [[1, 0, Fraction(1, 2)], [0, 0, 4]])
    same = dense_matrix(QQ, [[1, 0, Fraction(1, 2)], [0, 0, 4]])
    m.data[0][0] = 7
    rows = m.data
    rows[1][1] = 9
    rows.append([1, 1, 1])
    m.row(0)[2] = 5
    assert m == same
    assert m.data == [[1, 0, Fraction(1, 2)], [0, 0, 4]]
    with pytest.raises(TypeError):
        m.pairs[0] = ()
    with pytest.raises(TypeError):
        m.vec()[0] = (0, 5)
    with pytest.raises(TypeError):
        m.col(2)[1] = (1, 5)


def test_sparse_constructor_checks_shape_and_columns():
    m = Matrix.from_pairs(QQ, 2, 3, [[(2, 5), (0, 0), (1, Fraction(1, 2))], []])
    assert m.data == [[0, Fraction(1, 2), 5], [0, 0, 0]]
    assert m == dense_matrix(QQ, [[0, Fraction(1, 2), 5], [0, 0, 0]])
    assert Matrix.from_pairs(F5, 1, 2, [{1: 3}.items()]).data == [[0, 3]]
    for rows, pairs in [
            (2, [[(3, 1)], []]),            # column past the last one
            (2, [[(-1, 1)], []]),           # negative column
            (2, [[(0, 1), (0, 2)], []]),    # repeated column
            (2, [[("0", 1)], []]),          # column that is not an int
            (2, [[(0, 1)]]),                # too few rows
            (1, [[(0, 1)], [(1, 1)]]),      # too many rows
    ]:
        with pytest.raises(LinalgError):
            Matrix.from_pairs(QQ, rows, 3, pairs)
    with pytest.raises(LinalgError):
        dense_matrix(QQ, [[1, 2], [3]])


# one-entry rows and single-term coefficients other than 0 and 1: 3/2 and
# -2 over Q, 2 to 4 over F_5, with 1 among them so the unscaled read runs
unit_or_not = {"Q": st.sampled_from([Fraction(3, 2), Fraction(-2), Fraction(1)]),
               "F5": st.sampled_from([2, 3, 4, 1])}


@st.composite
def shaped_rows(draw, name, rows, cols):
    """rows x cols entries whose rows are each empty, one entry drawn from
    unit_or_not, or drawn entry by entry as in dense_rows."""
    ops = FIELDS[name][1]
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["empty", "one", "dense"]) if cols
                    else st.just("empty"))
        row = [ops.zero] * cols
        if kind == "one":
            row[draw(st.integers(0, cols - 1))] = ops.of(draw(unit_or_not[name]))
        elif kind == "dense":
            row = [ops.of(draw(entries(name))) for _ in range(cols)]
        data.append(row)
    return data


@given(st.sampled_from(["Q", "F5"]), st.data())
def test_empty_and_one_entry_rows_match_dense_lists(name, data):
    """The product's empty-row and one-entry-row reads, scaled or not, and
    lin_comb's single-term scaling, against the dense references."""
    draw = data.draw
    field, ops = FIELDS[name]
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(shaped_rows(name, m, n))
    b = draw(dense_rows(name, n, k))
    A, B = lib(name, a, n), lib(name, b, k)
    got = A @ B
    assert got.data == ref_matmul(name, a, b, k)
    assert_canonical(name, got.data)
    for i, row in enumerate(A.pairs):
        if not row:
            assert got.pairs[i] == ()
        elif len(row) == 1 and row[0][1] == 1:
            assert got.pairs[i] is B.pairs[row[0][0]]
    c = ops.of(draw(unit_or_not[name]))
    other = lib(name, draw(dense_rows(name, m, n)), n)
    comb = lin_comb(field, m, n, ((1, field.of(c)),), [other, A, other])
    assert comb.data == ref_comb(name, [c], [a])
    assert_canonical(name, comb.data)
    assert (comb is A) == (c == 1)


@pytest.mark.parametrize("name", ["Q", "F5"])
def test_lin_comb_skips_a_zero_coefficient(name):
    """((0, 0),) gives the zero matrix with empty rows, and a later comb
    over its rows removes no entry it never stored."""
    field = FIELDS[name][0]
    swap = Matrix.from_pairs(field, 2, 2, [[(1, field.one)], [(0, field.one)]])
    zero = lin_comb(field, 2, 2, ((0, field.zero),), [swap])
    assert zero == Matrix.zeros(field, 2, 2) and zero.pairs == ((), ())
    eye = Matrix.identity(field, 2)
    assert lin_comb(field, 2, 2, ((0, field.one), (1, field.one)),
                    [eye, zero]) == eye
    assert field.comb([eye.pairs[0], zero.pairs[0]],
                      [(0, field.one), (1, field.one)]) == eye.pairs[0]


@given(st.sampled_from(["Q", "F5"]), st.data())
def test_comb_cancels_terms_to_the_dense_sum(name, data):
    """Field.comb over pair vectors where a vector returns with minus its
    coefficient, so its entries cancel, and with repeated indices."""
    draw = data.draw
    field, ops = FIELDS[name]
    n = draw(st.integers(1, 5))
    vecs = draw(dense_rows(name, draw(st.integers(1, 3)), n))
    cs = [ops.of(draw(entries(name))) for _ in vecs]
    pick = draw(st.integers(0, len(vecs) - 1))
    c = ops.of(draw(unit_or_not[name]))
    # the picked vector once more with c, then with -c: those two cancel
    terms = list(enumerate(cs)) + [(pick, c), (pick, ops.of(-c))]
    want = [reduce_(name, sum((x * vecs[j][i] for j, x in terms), ops.zero))
            for i in range(n)]
    pairs = [as_pairs([field.of(x) for x in v]) for v in vecs]
    got = field.comb(pairs, [(j, field.of(x)) for j, x in terms])
    assert got == as_pairs([field.of(x) for x in want])
    assert_canonical(name, [[x for _, x in got]])
    assert field.comb(pairs, [(pick, field.of(c)),
                              (pick, field.of(ops.of(-c)))]) == ()


ONE_TERM = [("Q", Fraction(1)), ("Q", Fraction(3, 2)), ("Q", Fraction(2)),
            ("F5", 1), ("F5", 4)]


@pytest.mark.parametrize("name, c", ONE_TERM)
@given(st.data())
def test_one_term_comb_passes_the_vector_through(name, c, data):
    """Field.comb with one nonzero coefficient, zeros before and after it,
    is the very vector at 1 and the dense scaled reference otherwise; only
    zeros, or two terms that cancel, give ()."""
    draw = data.draw
    field, ops = FIELDS[name]
    n = draw(st.integers(1, 5))
    vecs = draw(dense_rows(name, draw(st.integers(1, 3)), n))
    pairs = [as_pairs([field.of(x) for x in v]) for v in vecs]
    pick = draw(st.integers(0, len(vecs) - 1))
    zeros = [(j, field.zero) for j in range(len(vecs))]
    got = field.comb(pairs, zeros[:pick] + [(pick, field.of(c))] + zeros[pick:])
    assert got == as_pairs([field.of(reduce_(name, ops.of(c) * x))
                            for x in vecs[pick]])
    assert_canonical(name, [[x for _, x in got]])
    assert (got is pairs[pick]) == (c == 1) or not pairs[pick]
    assert field.comb(pairs, zeros) == field.comb(pairs, []) == ()
    assert field.comb(pairs, [(pick, field.of(c)),
                              (pick, field.of(ops.of(-c)))]) == ()
