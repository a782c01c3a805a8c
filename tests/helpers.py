"""Operations only the tests use, kept out of the library."""

from ringext.algebra import FDAlgebra
from ringext.linalg import LinalgError, Matrix, Subspace, kernel, lin_comb


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
    return lin_comb(m.field, m.rows, m.cols, (c,), (m,))


def residual(space: Subspace, v) -> list:
    """v minus its projection onto the basis rows of space, dense: the
    basis rows vanish at each other's pivots, so the projection has v's
    entries at the pivots as its coordinates."""
    f = space.field
    proj = space.element([v[pc] for pc in space.pivots])
    return [f.sub(x, y) for x, y in zip(v, proj)]


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
