"""Operations only the tests use, kept out of the library."""

from ringext.algebra import FDAlgebra
from ringext.linalg import Matrix, Subspace, _dense, kernel, lin_comb


def scale(m: Matrix, c) -> Matrix:
    """c times m."""
    return lin_comb(m.field, m.rows, m.cols, (c,), (m,))


def residual(space: Subspace, v) -> list:
    """v minus its projection onto the basis rows of space, dense."""
    return _dense(space.field, len(v), space._residual(v).items())


def center(a: FDAlgebra) -> Subspace:
    """Elements commuting with the generators, so with everything."""
    rows = [row for i in a.generators() for row in
            (a.basis_left_mult(i) - a.basis_right_mult(i)).pairs]
    return Subspace.from_vectors(a.field, a.dim, kernel(
        Matrix._of(a.field, len(rows), a.dim, tuple(rows))))


def is_commutative(a: FDAlgebra) -> bool:
    return center(a).dim == a.dim
