"""Bimodules over pairs of finite-dimensional algebras.

A bimodule stores one action matrix per basis element of each acting
algebra.  Left actions are representations, right actions are
anti-representations (the matrix of acting by x*y is R_y R_x), and the
two sides commute.  One-sided modules use the one-dimensional trivial
algebra on the silent side, so a single hom/tensor engine covers left
modules, right modules, and genuine bimodules, including modules over
rings that were themselves computed (those are plain FDAlgebra values in
abstract coordinates).

A balanced tensor product m (x)_C n is a TensorProduct: the ambient
m.dim * n.dim space modulo the balancing relations (x.c (x) y -
x (x) c.y).  It alone knows how the quotient is presented and in which
order its basis classes come: project, pure and sum_pure give classes as
pair vectors of quotient coordinates, the columns of a map into it, and
map_out assembles a map out of it from its column at each basis class,
the class of one pure tensor e_u (x) e_v of basis elements.

Every linear system and operator here is written from the nonzero
entries of its ingredients (hom constraints and balancing relations row
by row, operator sums in place, tensor-leg images one pure tensor at a
time, summed from the class table), with one block per generator
of an acting algebra (FDAlgebra.generators), not per basis element;
tensor_map checks every relation row.  Spans grow from generators
(linalg.spin): a hom out of a module regular on one side is solved for
its value at the unit, and summand_witness writes maps only at a
generating set and stops once it reaches the identity.

Over a group algebra the regular, restricted and tensor-square actions
are permutation matrices, and then a hom, balancing or invariance system
says only "constant on an orbit" of the indices the permutations link.
hom_space, tensor_over and invariants_subspace read such a system's RREF
off those orbits (union-find) when every generator action in it is a
permutation matrix, and eliminate every other system; an RREF is unique,
so both paths give the same result.

hom_space and tensor_over build anew on every call; their results,
MapSpace and TensorProduct, are frozen so that a memo (the one on
CanonicalSpaces) can hand one result to several callers, whose modules
may carry other labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .algebra import FDAlgebra, trivial_algebra
from .linalg import (
    Field,
    Matrix,
    Subspace,
    comb_pairs,
    echelon_insert,
    echelon_reduce,
    kernel,
    lin_comb,
    span_decide,
    spin,
)


class BimoduleError(ValueError):
    """Actions that fail the representation laws or closure assumptions."""


class Bimodule:
    """A (left_algebra, right_algebra)-bimodule given by action matrices."""

    def __init__(self, left_algebra: FDAlgebra, right_algebra: FDAlgebra,
                 dim: int, left_action: Sequence[Matrix],
                 right_action: Sequence[Matrix], label: str = "M") -> None:
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = list(left_action)
        self.right_action = list(right_action)
        self.label = label
        self.field = left_algebra.field

    def validate(self) -> None:
        """Check both action laws and that the two sides commute."""
        la, ra, n = self.left_algebra, self.right_algebra, self.dim
        if la.field != ra.field:
            raise BimoduleError("acting algebras over different fields")
        if len(self.left_action) != la.dim or len(self.right_action) != ra.dim:
            raise BimoduleError("one action matrix per acting basis element")
        for mat in self.left_action + self.right_action:
            if mat.rows != n or mat.cols != n:
                raise BimoduleError("action matrix has wrong shape")
        eye = Matrix.identity(self.field, n)
        if self.left_operator(la.unit) != eye:
            raise BimoduleError("left unit does not act as identity")
        if self.right_operator(ra.unit) != eye:
            raise BimoduleError("right unit does not act as identity")
        # the laws on generators x basis give them on all products, by
        # induction on word length (the algebras are associative)
        for i in la.generators():
            for j in range(la.dim):
                if self.left_operator(la.mult[i][j]) != \
                        self.left_action[i] @ self.left_action[j]:
                    raise BimoduleError(
                        f"left action is not a representation at ({i},{j})")
        for i in ra.generators():
            for j in range(ra.dim):
                if self.right_operator(ra.mult[i][j]) != \
                        self.right_action[j] @ self.right_action[i]:
                    raise BimoduleError(
                        f"right action is not an anti-representation at ({i},{j})")
        for li in (self.left_action[i] for i in la.generators()):
            for rj in (self.right_action[j] for j in ra.generators()):
                if li @ rj != rj @ li:
                    raise BimoduleError("left and right actions do not commute")

    def generator_actions(self) -> tuple[list, list]:
        """The action matrices of the left and of the right generators."""
        return ([self.left_action[i] for i in self.left_algebra.generators()],
                [self.right_action[i] for i in self.right_algebra.generators()])

    def left_operator(self, x: Sequence) -> Matrix:
        """Matrix of v -> x.v for x in the left algebra."""
        return lin_comb(self.field, self.dim, self.dim, x, self.left_action)

    def right_operator(self, x: Sequence) -> Matrix:
        """Matrix of v -> v.x for x in the right algebra."""
        return lin_comb(self.field, self.dim, self.dim, x, self.right_action)

    def __repr__(self) -> str:
        return (f"Bimodule({self.label}: {self.left_algebra.name}-"
                f"{self.right_algebra.name}, dim={self.dim})")


# ---------------------------------------------------------------------------
# basic constructors

def regular_bimodule(a: FDAlgebra, label: Optional[str] = None) -> Bimodule:
    """The algebra as a bimodule over itself."""
    a._ensure_regular()
    return Bimodule(a, a, a.dim,
                    [a.basis_left_mult(i) for i in range(a.dim)],
                    [a.basis_right_mult(i) for i in range(a.dim)],
                    label=label or a.name)


def left_module(a: FDAlgebra, dim: int, action: Sequence[Matrix],
                label: str = "M") -> Bimodule:
    triv = trivial_algebra(a.field)
    return Bimodule(a, triv, dim, action,
                    [Matrix.identity(a.field, dim)], label=label)


def right_module(a: FDAlgebra, dim: int, action: Sequence[Matrix],
                 label: str = "M") -> Bimodule:
    triv = trivial_algebra(a.field)
    return Bimodule(triv, a, dim, [Matrix.identity(a.field, dim)],
                    action, label=label)


def left_regular_module(a: FDAlgebra, label: Optional[str] = None) -> Bimodule:
    a._ensure_regular()
    return left_module(a, a.dim, [a.basis_left_mult(i) for i in range(a.dim)],
                       label=label or a.name)


def right_regular_module(a: FDAlgebra, label: Optional[str] = None) -> Bimodule:
    a._ensure_regular()
    return right_module(a, a.dim, [a.basis_right_mult(i) for i in range(a.dim)],
                        label=label or a.name)


def restrict_left(m: Bimodule, embedding, label: Optional[str] = None) -> Bimodule:
    """Pull the left action back along an algebra embedding into m.left_algebra."""
    if embedding.total != m.left_algebra:
        raise BimoduleError("embedding target is not the left acting algebra")
    acts = [m.left_operator(embedding.iota.col(i))
            for i in range(embedding.base.dim)]
    return Bimodule(embedding.base, m.right_algebra, m.dim, acts,
                    m.right_action, label=label or m.label)


def restrict_right(m: Bimodule, embedding, label: Optional[str] = None) -> Bimodule:
    if embedding.total != m.right_algebra:
        raise BimoduleError("embedding target is not the right acting algebra")
    acts = [m.right_operator(embedding.iota.col(i))
            for i in range(embedding.base.dim)]
    return Bimodule(m.left_algebra, embedding.base, m.dim, m.left_action,
                    acts, label=label or m.label)


def forget_left(m: Bimodule) -> Bimodule:
    """Keep only the right action (left becomes the trivial algebra)."""
    triv = trivial_algebra(m.field)
    return Bimodule(triv, m.right_algebra, m.dim,
                    [Matrix.identity(m.field, m.dim)], m.right_action,
                    label=m.label)


def forget_right(m: Bimodule) -> Bimodule:
    triv = trivial_algebra(m.field)
    return Bimodule(m.left_algebra, triv, m.dim, m.left_action,
                    [Matrix.identity(m.field, m.dim)], label=m.label)


# ---------------------------------------------------------------------------
# balanced tensor products

@dataclass(frozen=True)
class TensorProduct:
    """m (x)_C n presented as the ambient m.dim * n.dim space modulo the
    balancing relations, together with its outer actions.

    An ambient element is the left_factor.dim x right_factor.dim matrix of
    its coefficients on the pure tensors e_i (x) e_j.  relations holds the
    balancing relations in RREF over the row-major entries of that matrix;
    the quotient basis consists of the classes of the unit vectors at its
    non-pivot columns, free_cols, so lifting places coordinates at those
    columns and every basis class is one pure tensor of basis elements.
    The class table, built on first use, holds the class of every ambient
    unit vector, and projection sums it at an element's nonzero entries.
    A class is a pair vector of quotient coordinates, and map_out builds a
    map out of the quotient from its column at each of those pure
    tensors, so no caller knows their order.  Frozen, so that one instance
    can be shared.
    """
    module: Bimodule
    relations: Subspace
    free_cols: tuple
    left_factor: Bimodule
    right_factor: Bimodule

    def project(self, ambient: Matrix) -> tuple:
        """The class of an ambient element, as a pair vector."""
        return self._class_of(ambient.vec())

    def _class_of(self, entries: Iterable) -> tuple:
        """project on the (row-major index, value) entries of an element."""
        return tuple(sorted(comb_pairs(self.left_factor.field, self._classes,
                                       entries).items()))

    @cached_property
    def _classes(self) -> list:
        """The class table, by row-major index: a free column is its own
        basis class, and a pivot column is minus the rest of its RREF row."""
        f, index = self.left_factor.field, {c: k for k, c in enumerate(self.free_cols)}
        rows = self.relations._row_at
        return [((index[c], f.one),) if c in index else tuple(
            (index[j], f.neg(x)) for j, x in rows[c].items() if j != c)
            for c in range(self.left_factor.dim * self.right_factor.dim)]

    def lift(self, coords: Sequence) -> Matrix:
        """The canonical ambient representative of a class."""
        return Matrix.from_vec(
            self.left_factor.field, self.left_factor.dim, self.right_factor.dim,
            tuple((c, x) for c, x in zip(self.free_cols, coords) if x))

    def sum_pure(self, pairs: Iterable[tuple[Sequence, Sequence]]) -> tuple:
        """The class of sum x (x) y over the pairs (x, y), summed in the
        ambient and projected once."""
        f, n, w = self.left_factor.field, self.right_factor.dim, {}
        for x, y in pairs:
            ys = [(j, b) for j, b in enumerate(y) if b]
            for i, a in enumerate(x):
                if a:
                    f.sparse_addmul(w, [(i * n + j, b) for j, b in ys], a)
        return self._class_of(w.items())

    def pure(self, x: Sequence, y: Sequence) -> tuple:
        """The class of the pure tensor x (x) y."""
        return self.sum_pure([(x, y)])

    def free_pairs(self) -> list[tuple[int, int]]:
        """(left index, right index) of the pure tensor representing each
        quotient basis class, in order."""
        return [divmod(c, self.right_factor.dim) for c in self.free_cols]

    def map_out(self, rows: int, column: Callable[[int, int], tuple]) -> Matrix:
        """The map out of this quotient into a space of dimension rows whose
        column at the basis class e_u (x) e_v is the pair vector
        column(u, v)."""
        return Matrix.from_cols(self.left_factor.field, rows,
                                [column(u, v) for u, v in self.free_pairs()])

    def first_leg(self, op: Matrix) -> Matrix:
        """op (x) id on this tensor product."""
        return tensor_legs(self, [(op.field.one, op, Matrix.identity(
            op.field, self.right_factor.dim))])

    def second_leg(self, op: Matrix) -> Matrix:
        """id (x) op on this tensor product."""
        return tensor_legs(self, [(op.field.one, Matrix.identity(
            op.field, self.left_factor.dim), op)])


def tensor_legs(src: TensorProduct, terms: Sequence[tuple],
                dst: Optional[TensorProduct] = None) -> Matrix:
    """The map sum c * (op_l (x) op_r) over terms (c, op_l, op_r), from src
    to dst (default src); the caller vouches that it respects relations.

    Each quotient basis class of src is a pure tensor e_u (x) e_v, whose
    image sum c * op_l.col(u) (x) op_r.col(v) is summed from the classes
    of dst's ambient basis tensors at its nonzeros.
    """
    dst = dst or src
    f, dn, classes = src.left_factor.field, dst.right_factor.dim, dst._classes
    addmul, mul = f.sparse_addmul, f.mul
    legs = [(c, op_l.transpose().pairs, op_r.transpose().pairs)
            for c, op_l, op_r in terms if c]
    cols = []
    for u, v in src.free_pairs():
        acc: dict = {}
        for c, lcols, rcols in legs:
            for r, a in lcols[u]:
                ca, base = mul(c, a), r * dn
                for k, b in rcols[v]:
                    addmul(acc, classes[base + k], mul(ca, b))
        cols.append(tuple(sorted(acc.items())))
    return Matrix.from_cols(f, len(dst.free_cols), cols)


def tensor_over(m: Bimodule, n: Bimodule) -> TensorProduct:
    """The balanced tensor product over C = m.right_algebra = n.left_algebra.

    The result is an (m.left_algebra, n.right_algebra)-bimodule.  The
    relation x.c (x) y - x (x) c.y is the hom constraint
    n.left(c) X - X m.right(c)^T at the coefficient matrix X, so the
    relations span the intertwining system over the generators of C
    (x.(cd) (x) y - x (x) (cd).y is the relation at c on (x, d.y) plus
    the one at d on (x.c, y)).  When those generators act on both factors
    by permutation matrices, each relation is a difference of two pure
    tensors of basis elements, so the relations span the vectors summing
    to zero on each class of linked pure tensors: the RREF keeps the
    largest column of a class free and has the row e_c - e_max for every
    other member c, read off without elimination.  The module's label
    joins both factors' for display; a memo hands the result to callers
    of any label.
    """
    c = m.right_algebra
    if c != n.left_algebra:
        raise BimoduleError(
            f"tensor factors disagree on the middle algebra: "
            f"{c.name} vs {n.left_algebra.name}")
    f, dn, gens = m.field, n.dim, c.generators()
    tables = _permutation_tables([m.right_action[b] for b in gens]
                                 + [n.left_action[b] for b in gens])
    if tables is None:
        relations = Subspace.row_space(_intertwining_system(
            f, [(n.left_action[b], m.right_action[b].transpose())
                for b in gens], dn, m.dim))
    else:
        # e_a (x) e_t(b) = e_s(a).c (x) e_t(b) ~ e_s(a) (x) c.e_t(b)
        # = e_s(a) (x) e_b
        rows = sorted(((k, f.one), (cls[-1], f.neg(f.one)))
                      for cls in _orbits(m.dim * dn, (
                          (a * dn + t[b], s[a] * dn + b)
                          for s, t in zip(tables, tables[len(gens):])
                          for a in range(m.dim) for b in range(dn)))
                      for k in cls[:-1])
        relations = Subspace(Matrix(f, len(rows), m.dim * dn, tuple(rows)),
                             [row[0][0] for row in rows])
    pivots = set(relations.pivots)
    free = tuple(col for col in range(m.dim * n.dim) if col not in pivots)
    # the outer actions move one leg each; they only read the presentation
    tp = TensorProduct(None, relations, free, m, n)
    return replace(tp, module=Bimodule(
        m.left_algebra, n.right_algebra, len(free),
        [tp.first_leg(op) for op in m.left_action],
        [tp.second_leg(op) for op in n.right_action],
        label=f"{m.label}(x){n.label}"))


def tensor_map(src: TensorProduct, dst: TensorProduct, f_left: Matrix,
               f_right: Matrix) -> Matrix:
    """The map f_left (x) f_right between two presented tensor products,
    checked well defined: it sends every source relation into dst's."""
    f = src.left_factor.field
    dm, dn = src.left_factor.dim, src.right_factor.dim
    frt = f_right.transpose()
    for row in src.relations.basis.pairs:
        ambient = (f_left @ Matrix.from_vec(f, dm, dn, row) @ frt).vec()
        if dst.relations._reduce(dict(ambient)):
            raise BimoduleError("tensor map does not respect the relations")
    return tensor_legs(src, [(f.one, f_left, f_right)], dst)


# ---------------------------------------------------------------------------
# hom spaces

@dataclass(frozen=True, eq=False)
class MapSpace:
    """A basis of the space of bimodule maps source -> target, with
    coordinates.

    Maps are target.dim x source.dim matrices.  The vectorized basis is
    the echelon basis of span, so coordinates of a member are a pivot
    readoff.  Frozen with a tuple basis, so that one instance can be
    shared.
    """
    source: Bimodule
    target: Bimodule
    basis: tuple
    span: Subspace

    @property
    def field(self) -> Field:
        return self.source.field

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, mat: Matrix) -> Optional[list]:
        return self.span._coordinates(dict(mat.vec()))

    def contains(self, mat: Matrix) -> bool:
        return not self.span._reduce(dict(mat.vec()))

    def element(self, coords: Sequence) -> Matrix:
        return lin_comb(self.field, self.target.dim, self.source.dim,
                        coords, self.basis)

    def __repr__(self) -> str:
        return f"MapSpace({self.source.label} -> {self.target.label}, dim={self.dim})"


def _intertwining_system(field: Field, actions: Iterable[tuple[Matrix, Matrix]],
                         dm: int, dn: int) -> Matrix:
    """The nonzero rows of an.X - X.am = 0 over the pairs (am, an) in
    actions, in the row-major entries of the dn x dm matrix X.

    Row (i, j) holds an[i][k] at column k*dm + j and -am[l][j] at column
    i*dm + l; rows that vanish, as they do for trivial actions, are dropped.
    """
    minus_one = field.neg(field.one)
    rows = []
    for am, an in actions:
        am_cols = am.transpose().pairs
        for i, an_row in enumerate(an.pairs):
            base = i * dm
            for j, am_col in enumerate(am_cols):
                row = {k * dm + j: x for k, x in an_row}
                field.sparse_addmul(row, ((base + l, x) for l, x in am_col),
                                    minus_one)
                if row:
                    rows.append(tuple(sorted(row.items())))
    return Matrix(field, len(rows), dn * dm, tuple(rows))


def _permutation_tables(mats: Sequence[Matrix]) -> Optional[list]:
    """The table t of each matrix, (mat v)[i] = v[t[i]], when every one is
    a permutation matrix (one entry, equal to 1, in each row and column);
    None otherwise."""
    tables = []
    for mat in mats:
        t = [row[0][0] for row in mat.pairs
             if len(row) == 1 and row[0][1] == 1]
        if not len(set(t)) == mat.rows == mat.cols:
            return None
        tables.append(t)
    return tables


def _orbits(n: int, links: Iterable[tuple[int, int]]) -> list[list]:
    """The classes of 0..n-1 under the equivalence generated by the linked
    pairs, each ascending, in the order of their least members; union-find
    with every root the least member of its class."""
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in links:
        a, b = sorted((find(a), find(b)))
        root[b] = a
    classes: dict = {}
    for a in range(n):
        classes.setdefault(find(a), []).append(a)
    return list(classes.values())


def _indicators(f: Field, n: int, classes: list[list]) -> Subspace:
    """The span of the indicator vectors of classes listed as _orbits lists
    them, which are already its RREF: each leads at its least member."""
    return Subspace(Matrix(f, len(classes), n, tuple(
        tuple((k, f.one) for k in cls) for cls in classes)),
        [cls[0] for cls in classes])


def hom_space(m: Bimodule, n: Bimodule) -> MapSpace:
    """All linear maps m -> n commuting with both algebras' generators.

    If m's left action is the regular one, phi(x) = x.v for v = phi(1),
    and phi commutes with a right generator g iff w.v = v.g for w = 1.g,
    as phi(x.g) = phi(x.w) = x.w.v; so only v is unknown (mirrored on the
    right).  Before that, if every generator acts on m and on n by a
    permutation matrix, a map's matrix X must be constant on the orbits
    of its index pairs (i, j) under (i, j) -> (t(i), s(j)), for the
    permutations s on m and t on n of each generator, and the indicators
    of those orbits, ordered by least index, are the RREF.  Every path
    ends in the RREF of the maps, which is unique.
    """
    if m.left_algebra != n.left_algebra or m.right_algebra != n.right_algebra:
        raise BimoduleError("hom needs matching acting algebras on both sides")
    f, dm, dn = m.field, m.dim, n.dim
    (ml, mr), (nl, nr) = m.generator_actions(), n.generator_actions()
    tables = _permutation_tables(ml + mr + nl + nr)
    if tables is not None:
        # X[t(i), s(j)] = X[i, j] for the tables s of m's and t of n's actions
        span = _indicators(f, dn * dm, _orbits(dn * dm, (
            (i * dm + j, t[i] * dm + s[j])
            for s, t in zip(tables, tables[len(ml) + len(mr):])
            for i in range(dn) for j in range(dm))))
    else:
        maps = _maps_from_unit(m, n)
        if maps is None:
            maps = tuple(kernel(_intertwining_system(
                f, [*zip(ml, nl), *zip(mr, nr)], dm, dn)))
        span = Subspace.row_space(Matrix(f, len(maps), dn * dm, maps))
    # keep the basis aligned with the echelon rows so coordinates match
    return MapSpace(m, n, tuple(Matrix.from_vec(f, dn, dm, r)
                                for r in span.basis.pairs), span)


def _maps_from_unit(m: Bimodule, n: Bimodule) -> Optional[tuple]:
    """The vecs of a basis of the maps m -> n, solved for their value v at
    the unit, when m's left or right action is its algebra's regular one."""
    f, la, ra = m.field, m.left_algebra, m.right_algebra
    (ml, mr), (nl, nr) = m.generator_actions(), n.generator_actions()
    for alg, reg, acts, n_acts, m_other, n_other in (
            (la, la.basis_left_mult, m.left_action, n.left_action, mr, nr),
            (ra, ra.basis_right_mult, m.right_action, n.right_action, ml, nl)):
        if m.dim == alg.dim and all(op == reg(i) for i, op in enumerate(acts)):
            rows = tuple(row for mg, ng in zip(m_other, n_other) for row in lin_comb(
                f, n.dim, n.dim, mg.apply(alg.unit) + [f.neg(f.one)],
                n_acts + [ng]).pairs if row)
            ker = tuple(kernel(Matrix(f, len(rows), n.dim, rows)))
            # the map of v has n_acts[j] v as its column j
            images = [(Matrix(f, len(ker), n.dim, ker) @ op.transpose()).pairs
                      for op in n_acts]
            return tuple(Matrix.from_cols(f, n.dim, [img[r] for img in images])
                         .vec() for r in range(len(ker)))
    return None


def invariants_subspace(m: Bimodule, elements: Sequence[Sequence]) -> Subspace:
    """Vectors v with x.v = v.x for every listed element of both algebras.

    Elements are coordinate vectors in the acting algebra, which must be
    the same on both sides for the condition to typecheck.  When every
    x acts on both sides by a permutation matrix, x.v = v.x links the
    entries of v that the two permutations move to one position, and the
    indicators of the linked classes, ordered by least index, are the
    RREF; otherwise the system is eliminated.
    """
    if len(m.left_action) != len(m.right_action):
        raise BimoduleError("invariants need one algebra acting on both sides")
    f = m.field
    ops = [(m.left_operator(x), m.right_operator(x)) for x in elements]
    tables = _permutation_tables([op for pair in ops for op in pair])
    if tables is not None:
        # (x.v)[p] = v[l(p)] and (v.x)[p] = v[r(p)] for the tables l and r of x
        return _indicators(f, m.dim, _orbits(m.dim, (
            (l[p], r[p]) for l, r in zip(tables[::2], tables[1::2])
            for p in range(m.dim))))
    rows = tuple(row for left, right in ops for row in (left - right).pairs
                 if row)
    ker = kernel(Matrix(f, len(rows), m.dim, rows))
    return Subspace.row_space(Matrix(f, len(ker), m.dim, tuple(ker)))


def centralizer_subspace(m: Bimodule, embedding) -> Subspace:
    """Vectors commuting with the embedded base algebra on both sides."""
    if m.left_algebra != embedding.total or m.right_algebra != embedding.total:
        raise BimoduleError("centralizer needs the embedded algebra acting on both sides")
    return invariants_subspace(
        m, [embedding.iota.col(i) for i in embedding.base.generators()])


# ---------------------------------------------------------------------------
# summand witnesses

@dataclass
class SummandWitness:
    """Maps exhibiting the source inside a finite power of the target.

    pairs is a list of (into, back) bimodule maps with sum(back @ into)
    equal to the identity of the source; stacking the into components and
    lining up the back components splits the source off target^k.
    """
    source: Bimodule
    target: Bimodule
    pairs: list[tuple[Matrix, Matrix]]

    def verify(self) -> bool:
        f = self.source.field
        acc = Matrix.zeros(f, self.source.dim, self.source.dim)
        for into, back in self.pairs:
            if not is_bimodule_map(self.source, self.target, into):
                return False
            if not is_bimodule_map(self.target, self.source, back):
                return False
            acc = acc + (back @ into)
        return acc == Matrix.identity(f, self.source.dim)


def intertwines(fwd: Matrix, pairs: Iterable[tuple[Matrix, Matrix]]) -> bool:
    """fwd @ s == t @ fwd for every pair (s, t): fwd carries the operator s
    on its domain to the operator t on its codomain."""
    return all(fwd @ s == t @ fwd for s, t in pairs)


def is_bimodule_map(src: Bimodule, dst: Bimodule, mat: Matrix) -> bool:
    """mat has the shape of a map src -> dst and commutes with both actions."""
    return (mat.rows == dst.dim and mat.cols == src.dim
            and intertwines(mat, zip(src.left_action, dst.left_action))
            and intertwines(mat, zip(src.right_action, dst.right_action)))


def summand_witness(m: Bimodule, n: Bimodule,
                    hom: Optional[Callable[[Bimodule, Bimodule], MapSpace]]
                    = None) -> Optional[SummandWitness]:
    """Decide whether m is a direct summand of a finite power of n: is
    id_m a combination of composites back_b @ into_a over the hom spaces
    hom builds (default hom_space)?  A bimodule map is fixed by its values
    on a set generating m, so composites are written only there.  They
    enter an echelon one at a time until the residual of id_m vanishes;
    the kept ones are then solved for.  Returns a verified witness or None.
    """
    hom = hom or hom_space
    into_space, back_space = hom(m, n), hom(n, m)
    f, dm = m.field, m.dim
    acts, gens, echelon = sum(m.generator_actions(), []), [], {}
    for i in range(dm):
        if echelon_reduce(f, echelon, {i: f.one}):
            gens.append(i)
            spin(f, dm, [((i, f.one),)], acts, echelon)
    k, nb = len(gens), back_space.dim
    target = tuple((i * k + x, f.one) for x, i in enumerate(gens))
    # gb @ at_gens[a] holds the columns of gb @ fa at gens
    at_gens = [Matrix.from_cols(f, n.dim, [cols[i] for i in gens])
               for cols in (fa.transpose().pairs for fa in into_space.basis)]
    residual, echelon, kept = dict(target), {}, []
    # by diagonals b - a = r mod nb: A4 over 1 needs 133 composites, not 19,141
    for r, a in product(range(nb), range(len(at_gens))):
        b = (a + r) % nb
        composite = (back_space.basis[b] @ at_gens[a]).vec()
        if echelon_insert(f, echelon, dict(composite)):
            kept.append((a, b, composite))
            if not echelon_reduce(f, echelon, residual):
                break
    if residual:
        return None
    coeffs = span_decide(f, k * dm, [v for _, _, v in kept], target)
    back_coeffs: dict = {}
    for (a, b, _), c in zip(kept, coeffs):
        back_coeffs.setdefault(a, [f.zero] * nb)[b] = c
    witness = SummandWitness(m, n, [
        (into_space.basis[a], back_space.element(c))
        for a, c in back_coeffs.items() if any(c)])
    if not witness.verify():
        raise BimoduleError("summand witness failed its own verification")
    return witness


def dual_basis_witness(m: Bimodule, algebra: FDAlgebra, side: str,
                       hom: Optional[Callable] = None
                       ) -> Optional[SummandWitness]:
    """Finitely generated projectivity of m as a one-sided module over
    algebra: m, its other action forgotten, as a summand of a finite power
    of the regular module, decided by summand_witness with hom.

    The pairs (into_i, back_i) give a dual basis x_i = back_i(1), f_i =
    into_i: sum x_i . f_i(t) = t for a right module, f_i(t) . x_i = t for
    a left one, because each back_i is linear over the algebra.
    """
    if side == "right":
        return summand_witness(forget_left(m), right_regular_module(algebra),
                               hom)
    if side == "left":
        return summand_witness(forget_right(m), left_regular_module(algebra),
                               hom)
    raise BimoduleError("side must be 'left' or 'right'")
