"""Finite-dimensional associative unital algebras given by structure constants.

An algebra is a field, a dimension n, a multiplication table sending each
basis pair (i, j) to the coordinates of e_i * e_j, and the coordinates of
the unit, all pair vectors (linalg), as is every element: a product is
one comb over the table's entries at the products of the factors'
nonzero coordinates.  Everything downstream (bimodules, centralizers, tensor
rings) consumes this one representation, so computed rings are repackaged
through the same class and inherit the whole toolkit.

Each algebra picks, once, basis elements whose words span it
(generators()).  Every "for all a" condition in the library (associativity,
module laws, hom and balancing constraints, centralizers, ideal closures)
is checked on those, since each such condition is closed under products.

Group algebras carry their group table along, which lets group-specific
checks (augmentation ideals, conjugation stability) recover the group
without re-deriving it from the multiplication.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain, pairwise, product
from typing import Optional, Sequence

from .linalg import Field, Matrix, Subspace, lin_comb, word_generators


class AlgebraError(ValueError):
    """Structure constants that fail unitality, associativity, or closure."""


class GroupData:
    """A finite group as a multiplication table.

    cayley[i][j] is the index of g_i * g_j.  The identity must sit at
    index 0.  Validation checks the table is a latin square and fully
    associative, and precomputes inverses.
    """

    __slots__ = ("order", "cayley", "inverse")

    def __init__(self, order: int, cayley: Sequence[Sequence[int]]) -> None:
        self.order = order
        self.cayley = [list(row) for row in cayley]
        self._validate()
        self.inverse = [row.index(0) for row in self.cayley]

    def _validate(self) -> None:
        n = self.order
        if len(self.cayley) != n or any(len(r) != n for r in self.cayley):
            raise AlgebraError(f"cayley table is not {n}x{n}")
        for row in self.cayley:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise AlgebraError(f"cayley entry {v!r} out of range")
        full = set(range(n))
        for i in range(n):
            if self.cayley[0][i] != i or self.cayley[i][0] != i:
                raise AlgebraError("index 0 is not the identity")
            if set(self.cayley[i]) != full:
                raise AlgebraError(f"row {i} is not a permutation")
            if {self.cayley[j][i] for j in range(n)} != full:
                raise AlgebraError(f"column {i} is not a permutation")
        c = self.cayley
        for i in range(n):
            for j in range(n):
                ij = c[i][j]
                row_j = c[j]
                for k in range(n):
                    if c[ij][k] != c[i][row_j[k]]:
                        raise AlgebraError(
                            f"group table not associative at ({i},{j},{k})")

    def check_subgroup(self, elems: Sequence[int]) -> None:
        """Raise AlgebraError unless elems lists the elements of a
        subgroup, each once.

        Every index is range-checked before the closure loop reads the
        table.  A finite subset closed under the product is a subgroup,
        so inverses need no separate check.
        """
        if len(set(elems)) != len(elems):
            raise AlgebraError("subgroup list has repeats")
        for x in elems:
            if not isinstance(x, int) or not 0 <= x < self.order:
                raise AlgebraError(f"subgroup element {x!r} out of range")
        if 0 not in elems:
            raise AlgebraError("subgroup does not contain the identity")
        hset = set(elems)
        for x in elems:
            for y in elems:
                if self.cayley[x][y] not in hset:
                    raise AlgebraError(f"not closed: elements {x} * {y} = "
                                       f"{self.cayley[x][y]} escapes")

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.cayley[self.cayley[g][h]][self.inverse[g]]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupData) and self.cayley == other.cayley

    def __repr__(self) -> str:
        return f"GroupData(order={self.order})"


class FDAlgebra:
    """Associative unital algebra over an exact field, by structure
    constants: mult[i][j] and unit are pair vectors."""

    def __init__(self, field: Field, dim: int, mult: Sequence[Sequence[tuple]],
                 unit: tuple, group: Optional[GroupData] = None,
                 name: str = "A", _validated: bool = False,
                 generators: Optional[list[int]] = None) -> None:
        self.field = field
        self.dim = dim
        self.mult = [[tuple(v) for v in row] for row in mult]
        self.unit = tuple(unit)
        self.group = group
        self.name = name
        # generators, when the caller knows them, spare the search
        self._generators = generators
        if not _validated:
            self.validate()

    def validate(self) -> None:
        n, f = self.dim, self.field
        if len(self.mult) != n or any(len(row) != n for row in self.mult):
            raise AlgebraError(f"multiplication table is not {n}x{n}")
        name = lambda k: f"e{k // n} e{k % n}" if k < n * n else "the unit"
        for k, v in enumerate(chain(*self.mult, [self.unit])):
            if not all(c for _, c in v) or len(v) > 1 and any(
                    i >= j for (i, _), (j, _) in pairwise(v)):
                raise AlgebraError(f"vector of {name(k)}: not ascending, or a zero")
            if v and not 0 <= v[0][0] <= v[-1][0] < n:
                raise AlgebraError(f"vector of {name(k)}: index outside 0..{n - 1}")
        # column j of the matrix of v -> x v (v -> v x) is x e_j (e_j x)
        unit_l = self.left_mult_matrix(self.unit).transpose().pairs
        unit_r = self.right_mult_matrix(self.unit).transpose().pairs
        for j in range(n):
            if unit_l[j] != ((j, f.one),):
                raise AlgebraError(f"unit fails on the left at basis {j}")
            if unit_r[j] != ((j, f.one),):
                raise AlgebraError(f"unit fails on the right at basis {j}")
        # associative on generators x basis x basis is associative: the
        # elements x with (x y) z = x (y z) for all y, z form a subalgebra;
        # column k of L_{e_i e_j} is (e_i e_j) e_k, of L_i L_j e_i (e_j e_k)
        for i in self.generators():
            for j in range(n):
                left = self.left_mult_matrix(self.mult[i][j])
                right = self.basis_left_mult(i) @ self.basis_left_mult(j)
                if left != right:
                    k = next(k for k, (x, y) in enumerate(zip(
                        left.transpose().pairs, right.transpose().pairs))
                        if x != y)
                    raise AlgebraError(
                        f"not associative: (e{i} e{j}) e{k} != e{i} (e{j} e{k})")

    def multiply(self, x: tuple, y: tuple) -> tuple:
        """x y: one comb over the structure constants e_i e_j, flattened
        row-major, at the products x_i y_j (unreduced, comb reduces)."""
        n = self.dim
        return self.field.comb(self._flat, [
            (i * n + j, a * b) for i, a in x for j, b in y])

    def generators(self) -> list[int]:
        """Basis indices whose words span the algebra (linalg.word_generators),
        cached."""
        if self._generators is None:
            self._generators = word_generators(
                self.field, self.dim, self.unit, self.basis_right_mult)
        return self._generators

    @cached_property
    def _left_regular(self) -> list[Matrix]:
        """Left multiplication by each e_i: column j is e_i e_j."""
        return [Matrix.from_cols(self.field, self.dim, row) for row in self.mult]

    @cached_property
    def _right_regular(self) -> list[Matrix]:
        """Right multiplication by each e_i: column j is e_j e_i."""
        return [Matrix.from_cols(self.field, self.dim, col)
                for col in zip(*self.mult)]

    @cached_property
    def _flat(self) -> list:
        """The structure constants in row-major order, e_i e_j at i n + j."""
        return list(chain(*self.mult))

    def left_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of v -> x v in the algebra basis."""
        return lin_comb(self.field, self.dim, self.dim, x, self._left_regular)

    def right_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of v -> v x in the algebra basis."""
        return lin_comb(self.field, self.dim, self.dim, x, self._right_regular)

    def basis_left_mult(self, i: int) -> Matrix:
        return self._left_regular[i]

    def basis_right_mult(self, i: int) -> Matrix:
        return self._right_regular[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FDAlgebra):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.mult == other.mult and self.unit == other.unit)

    def __repr__(self) -> str:
        return f"FDAlgebra({self.name}, dim={self.dim}, {self.field!r})"


def group_algebra(field: Field, group: GroupData, name: str = "kG") -> FDAlgebra:
    """The group algebra k[G] with basis indexed by group elements."""
    one = field.one
    mult = [[((k, one),) for k in row] for row in group.cayley]
    return FDAlgebra(field, group.order, mult, ((0, one),),
                     group=group, name=name, _validated=True)


@cache
def trivial_algebra(field: Field) -> FDAlgebra:
    """The base field as a one-dimensional algebra (used for one-sided
    modules), one instance per field."""
    return FDAlgebra(field, 1, [[((0, field.one),)]], ((0, field.one),),
                     name="k", _validated=True)


class Extension:
    """An embedding of algebras iota: B -> A over one field.

    iota is a dim(A) x dim(B) matrix whose columns are the images of the
    B basis.  Validation checks iota is injective, unital, and
    multiplicative; every downstream construction assumes those.
    """

    def __init__(self, base: FDAlgebra, total: FDAlgebra, iota: Matrix,
                 name: str = "A/B") -> None:
        if base.field != total.field:
            raise AlgebraError("base and total algebra over different fields")
        if iota.rows != total.dim or iota.cols != base.dim:
            raise AlgebraError("embedding matrix has wrong shape")
        self.base = base
        self.total = total
        self.iota = iota
        self.name = name
        self._image: Optional[Subspace] = None
        self._validate()

    def _validate(self) -> None:
        if self.iota.apply(self.base.unit) != self.total.unit:
            raise AlgebraError("embedding does not preserve the unit")
        cols = self.iota.transpose().pairs
        if Subspace.row_space(self.iota.transpose()).dim != self.base.dim:
            raise AlgebraError("embedding is not injective")
        for i in self.base.generators():
            for j in range(self.base.dim):
                lhs = self.iota.apply(self.base.mult[i][j])
                rhs = self.total.multiply(cols[i], cols[j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"embedding not multiplicative at basis pair ({i},{j})")

    @property
    def field(self) -> Field:
        return self.base.field

    def base_generators(self) -> list[tuple]:
        """The images in A of B's generators, which generate B's image."""
        return [self.iota.col(i) for i in self.base.generators()]

    def subgroup(self) -> Optional[list[int]]:
        """The group elements the base basis maps to, in base order, or
        None unless the total algebra is a group algebra and every base
        basis vector lands on a group element."""
        if self.total.group is None:
            return None
        idx = []
        for col in self.iota.transpose().pairs:
            if len(col) != 1 or not self.field.is_one(col[0][1]):
                return None
            idx.append(col[0][0])
        return idx

    def image(self) -> Subspace:
        """The image of B inside A as a subspace."""
        if self._image is None:
            self._image = Subspace.row_space(self.iota.transpose())
        return self._image

    def __repr__(self) -> str:
        return f"Extension({self.name}: dim {self.base.dim} -> {self.total.dim})"


def subalgebra_extension(total: FDAlgebra, basis: Optional[Sequence[tuple]] = None,
                         subgroup: Optional[Sequence[int]] = None,
                         name: str = "A/B") -> Extension:
    """Build the extension B -> A from a unital subalgebra of A.

    Either a linear basis of the subalgebra, as pair vectors (closure under
    multiplication is verified, the offending product reported otherwise)
    or, for group
    algebras, a list of group element indices forming a subgroup.
    """
    f = total.field
    if (basis is None) == (subgroup is None):
        raise AlgebraError("give exactly one of basis or subgroup")

    if subgroup is not None:
        if total.group is None:
            raise AlgebraError("subgroup given but the algebra has no group data")
        g = total.group
        elems = list(subgroup)
        g.check_subgroup(elems)
        # force the identity to index 0 in the subgroup table
        if elems[0] != 0:
            k = elems.index(0)
            elems[k], elems[0] = elems[0], elems[k]
        index_of = {e: i for i, e in enumerate(elems)}
        sub_cayley = [[index_of[g.cayley[x][y]] for y in elems] for x in elems]
        base = group_algebra(f, GroupData(len(elems), sub_cayley), name="kH")
        iota = Matrix.from_cols(f, total.dim, [((e, f.one),) for e in elems])
        return Extension(base, total, iota, name=name)

    gens, n = tuple(map(tuple, basis)), total.dim
    if any(v and v[-1][0] >= n for v in gens):
        raise AlgebraError(f"subalgebra basis vector has an index outside 0..{n - 1}")
    k = len(gens)
    # [V | I_k] in RREF: each row writes its V part over the basis in its
    # I_k part, and the basis is independent iff no pivot lies in I_k
    aug = Subspace.row_space(Matrix(f, k, n + k, tuple(
        g + ((n + i, f.one),) for i, g in enumerate(gens))))
    if any(c >= n for c in aug.pivots):
        raise AlgebraError("subalgebra basis is linearly dependent")

    def coords(v: tuple) -> Optional[tuple]:
        """v over the basis, or None if it is outside the span: reducing
        (v | 0) leaves (residual | -coordinates)."""
        w = aug._reduce(dict(v))
        return None if any(j < n for j in w) else tuple(sorted(
            (j - n, f.neg(x)) for j, x in w.items()))

    unit_coords = coords(total.unit)
    if unit_coords is None:
        raise AlgebraError("subalgebra does not contain the unit")
    mult = [[coords(total.multiply(x, y)) for y in gens] for x in gens]
    for i, j in product(range(k), repeat=2):
        if mult[i][j] is None:
            raise AlgebraError(
                f"not closed under multiplication at basis pair ({i},{j})")
    base = FDAlgebra(f, k, mult, unit_coords, name="B")
    return Extension(base, total, Matrix.from_cols(f, n, gens), name=name)


def self_extension(total: FDAlgebra, name: str = "A/A") -> Extension:
    """The identity extension A -> A."""
    return Extension(total, total, Matrix.identity(total.field, total.dim), name=name)
