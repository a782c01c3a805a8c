"""Operations the library does not use, kept out of it: the tests call
them, and scripts/build_corpus.py builds two corpus algebras with
matrix_algebra and diagonal_algebra."""

from typing import Optional

from ringext.algebra import FDAlgebra
from ringext.bimodule import Bimodule
from ringext.linalg import (Field, LinalgError, Matrix, Subspace, kernel,
                            lin_comb)


def dense_matrix(field, rows, cols=None) -> Matrix:
    """The matrix with the given dense rows, every one of length cols
    (default: the length of the first row, or 0 when there is none)."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise LinalgError(f"matrix data does not match shape {len(rows)}x{cols}")
    return Matrix.from_pairs(field, len(rows), cols,
                             [list(enumerate(r)) for r in rows])


def scale(m: Matrix, c) -> Matrix:
    """c times m."""
    return lin_comb(m.field, m.rows, m.cols, ((0, c),), (m,))


def residual(space: Subspace, v) -> list:
    """v minus its projection onto the basis rows of space, dense: the
    basis rows vanish at each other's pivots, so the projection has v's
    entries at the pivots as its coordinates."""
    f = space.field
    proj = dense_vector(f, len(v), space.element(
        tuple((k, v[pc]) for k, pc in enumerate(space.pivots) if v[pc])))
    return [f.of(x - y) for x, y in zip(v, proj)]


def center(a: FDAlgebra) -> Subspace:
    """Elements commuting with the generators, so with everything."""
    rows = tuple(row for i in a.generators() for row in
                 (a.basis_left_mult(i) - a.basis_right_mult(i)).pairs)
    ker = kernel(Matrix(a.field, len(rows), a.dim, rows))
    return Subspace.row_space(Matrix(a.field, len(ker), a.dim, tuple(ker)))


def is_commutative(a: FDAlgebra) -> bool:
    return center(a).dim == a.dim


def dense_vector(field, n: int, pairs) -> list:
    """The length-n dense vector of a pair vector."""
    out = [field.zero] * n
    for j, x in pairs:
        out[j] = x
    return out


def unit_vec(field: Field, i: int) -> tuple:
    """The pair vector of the basis vector e_i."""
    return ((i, field.one),)


def matrix_algebra(field: Field, n: int, name: Optional[str] = None) -> FDAlgebra:
    """Full matrix algebra M_n(k), basis E_rs at index r*n + s."""
    dim = n * n
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for s in range(n):
            for u in range(n):
                mult[r * n + s][s * n + u] = unit_vec(field, r * n + u)
    unit = tuple((r * n + r, field.one) for r in range(n))
    return FDAlgebra(field, dim, mult, unit, name=name or f"M{n}")


def diagonal_algebra(field: Field, n: int, name: Optional[str] = None) -> FDAlgebra:
    """The split product k x ... x k (n factors) with componentwise product."""
    mult = [[unit_vec(field, i) if i == j else () for j in range(n)]
            for i in range(n)]
    return FDAlgebra(field, n, mult, tuple((i, field.one) for i in range(n)),
                     name=name or f"k^{n}")


def unrecorded(m: Bimodule) -> Bimodule:
    """m without its recorded generating set, so that a tensor product
    with it as a factor is presented over the other factor's set, or,
    with neither recording one, in ambient coordinates."""
    return Bimodule(m.left_algebra, m.right_algebra, m.dim, m.left_action,
                    m.right_action, label=m.label)
