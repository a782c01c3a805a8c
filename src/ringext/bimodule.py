"""Bimodules over pairs of finite-dimensional algebras.

A bimodule stores one action matrix per basis element of each acting
algebra: left actions are representations, right actions
anti-representations (acting by x*y is R_y R_x), and the two sides
commute.  One-sided modules (one_sided, regular_module, keep_side) use
the trivial algebra on the silent side, so one hom/tensor engine covers
left, right and genuine bimodules.  An action list may be an OnRead,
built operator by operator on first read (tensor_over's outer actions
are); lin_comb reads only the matrices at its coefficients' entries.

tensor_over and hom_space share one presentation of a module m generated
by vectors X over the algebra C acting on one side (its recorded
Bimodule.generating_set; regular_bimodule and regular_module record 1):
C^X maps onto m with kernel K, and _lifts finds in one elimination a
lift over X of every basis vector and a basis of K, of which only
generators of K as a one-sided submodule write rows.
- m (x)_C n is a TensorProduct: n^X modulo the rows sum_x x (x) k_x.e_v
  for k in K (mirrored for X generating n), over the recorded set giving
  the smaller ambient, else over m's unit basis.  Its methods alone know
  the presentation, and every report reads a product through them.
- A map out of m is fixed by its values v_x at X: hom_space solves for
  |X| * dim n unknowns under sum_x k_x.v_x = 0 for k in K and linearity
  over the other side's generators at each x, for m's recorded X or unit
  vectors picked by spin.

Every system is written from the nonzero entries of its ingredients,
with one block per generator of an acting algebra, not per basis
element.  When every generator in a hom, balancing or invariance system
acts by a permutation matrix, as over a group algebra, the system says
only "constant on an orbit", and its RREF is read off the orbits, which
_orbits closes under one permutation list per generator.  An RREF is
unique, so no path changes a result.
MapSpace and TensorProduct are frozen, so that a memo (CanonicalSpaces's)
can hand one result to callers whose modules carry other labels.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .algebra import FDAlgebra, trivial_algebra
from .linalg import (
    Field,
    Matrix,
    Subspace,
    echelon_insert,
    echelon_reduce,
    kernel,
    lin_comb,
    rref,
    span_decide,
    spin,
    word_generators,
)


class BimoduleError(ValueError):
    """Actions that fail the representation laws or closure assumptions."""


class InternalInconsistency(RuntimeError):
    """A mathematical invariant of the construction failed.

    This always indicates a bug in the library (or memory corruption),
    never a property of the analyzed extension, and maps to a dedicated
    process exit code in the command line interface.
    """


class OnRead(SequenceABC):
    """The operators build(0), ..., build(n - 1), each built on its first
    read and kept; iterating builds them all."""

    def __init__(self, n: int, build: Callable[[int], Matrix]) -> None:
        self._build, self._ops = build, [None] * n

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, i: int) -> Matrix:
        op = self._ops[i]
        if op is None:
            op = self._ops[i] = self._build(i)
        return op


class Bimodule:
    """A (left_algebra, right_algebra)-bimodule given by action matrices.
    generating_set, when recorded, is (side, xs): the pair vectors xs
    generate it over the algebra acting on side, and tensor_over and
    hom_space present and solve over them (an InternalInconsistency
    where read if they do not generate)."""

    def __init__(self, left_algebra: FDAlgebra, right_algebra: FDAlgebra,
                 dim: int, left_action: Sequence[Matrix],
                 right_action: Sequence[Matrix], label: str = "M",
                 generating_set: Optional[tuple] = None) -> None:
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = (left_action if type(left_action) is OnRead
                            else list(left_action))
        self.right_action = (right_action if type(right_action) is OnRead
                             else list(right_action))
        self.label = label
        self.generating_set = generating_set
        self.field = left_algebra.field

    def validate(self) -> None:
        """Check both action laws and that the two sides commute."""
        la, ra, n = self.left_algebra, self.right_algebra, self.dim
        if la.field != ra.field:
            raise BimoduleError("acting algebras over different fields")
        if len(self.left_action) != la.dim or len(self.right_action) != ra.dim:
            raise BimoduleError("one action matrix per acting basis element")
        for mat in [*self.left_action, *self.right_action]:
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

    @cached_property
    def memo_key(self) -> tuple:
        """The module by its algebras' identities, its dimension and its
        generators' actions, the key of a memo such as CanonicalSpaces.once:
        every module here is a representation on each side, so the
        generators' actions determine every action, and no operator built
        on first read is built for it.  Kept from its first read, as no
        module's algebras or actions are reassigned."""
        la, ra = self.left_algebra, self.right_algebra
        return (id(la), id(ra), self.dim,
                tuple(self.left_action[i].pairs for i in la.generators()),
                tuple(self.right_action[i].pairs for i in ra.generators()))

    def left_operator(self, x: tuple) -> Matrix:
        """Matrix of v -> x.v for x in the left algebra."""
        return lin_comb(self.field, self.dim, self.dim, x, self.left_action)

    def right_operator(self, x: tuple) -> Matrix:
        """Matrix of v -> v.x for x in the right algebra."""
        return lin_comb(self.field, self.dim, self.dim, x, self.right_action)

    def __repr__(self) -> str:
        return (f"Bimodule({self.label}: {self.left_algebra.name}-"
                f"{self.right_algebra.name}, dim={self.dim})")


def _spanning(f: Field, dim: int, acts: Sequence[Matrix]) -> tuple:
    """Unit vectors generating F^dim under the operators acts: e_i is taken,
    in index order, when outside what the earlier ones span under acts
    (spin)."""
    xs, echelon = [], {}
    for i in range(dim):
        if len(echelon) == dim:
            break
        if echelon_reduce(f, echelon, {i: f.one}):
            xs.append(((i, f.one),))
            spin(f, dim, [xs[-1]], acts, echelon)
    return tuple(xs)


def unit_generators(m: Bimodule) -> list[int]:
    """Unit vector indices generating m under both sides' generators (_spanning)."""
    return [x[0][0] for x in _spanning(m.field, m.dim, sum(m.generator_actions(), []))]


def generated(m: Bimodule, side: str, xs: Optional[tuple] = None) -> Bimodule:
    """m recording xs, by default unit vectors picked greedily by
    _spanning, as its generating set over the algebra acting on side."""
    if xs is None:
        xs = _spanning(m.field, m.dim, m.generator_actions()[side == "right"])
    return Bimodule(m.left_algebra, m.right_algebra, m.dim, m.left_action,
                    m.right_action, m.label, (side, xs))


def _kept(m: Bimodule, side: str) -> Optional[tuple]:
    """m's generating set if it is over the algebra acting on side."""
    return m.generating_set if (m.generating_set or ("",))[0] == side else None


# ---------------------------------------------------------------------------
# basic constructors

def regular_bimodule(a: FDAlgebra, label: Optional[str] = None) -> Bimodule:
    """The algebra as a bimodule over itself, generated by 1 on the left."""
    return Bimodule(a, a, a.dim,
                    [a.basis_left_mult(i) for i in range(a.dim)],
                    [a.basis_right_mult(i) for i in range(a.dim)],
                    label or a.name, ("left", (a.unit,)))


def one_sided(a: FDAlgebra, side: str, dim: int, action: Sequence[Matrix],
              label: str = "M", generating_set: Optional[tuple] = None
              ) -> Bimodule:
    """The module of dimension dim on which a acts on side by action, the
    trivial algebra acting on the other side."""
    identity = [Matrix.identity(a.field, dim)]
    if side == "left":
        return Bimodule(a, trivial_algebra(a.field), dim, action, identity,
                        label, generating_set)
    return Bimodule(trivial_algebra(a.field), a, dim, identity, action, label,
                    generating_set)


def regular_module(a: FDAlgebra, side: str, label: Optional[str] = None
                   ) -> Bimodule:
    """The algebra as a module over itself on side, generated by 1."""
    mult = a.basis_left_mult if side == "left" else a.basis_right_mult
    return one_sided(a, side, a.dim, [mult(i) for i in range(a.dim)],
                     label or a.name, (side, (a.unit,)))


def restrict(m: Bimodule, embedding, side: str,
             label: Optional[str] = None) -> Bimodule:
    """Pull the action on side back along an algebra embedding into the
    algebra acting there, keeping a generating set over the other side."""
    if embedding.total != (m.left_algebra if side == "left" else m.right_algebra):
        raise BimoduleError(f"embedding target is not the {side} acting algebra")
    iota, label = embedding.iota, label or m.label
    if side == "left":
        return Bimodule(embedding.base, m.right_algebra, m.dim, OnRead(
            iota.cols, lambda i: m.left_operator(iota.col(i))),
            m.right_action, label, _kept(m, "right"))
    return Bimodule(m.left_algebra, embedding.base, m.dim, m.left_action,
                    OnRead(iota.cols, lambda i: m.right_operator(iota.col(i))),
                    label, _kept(m, "left"))


def keep_side(m: Bimodule, side: str) -> Bimodule:
    """Keep only the action on side (the other becomes the trivial
    algebra) and a generating set over that side."""
    if side == "left":
        return one_sided(m.left_algebra, side, m.dim, m.left_action, m.label,
                         _kept(m, side))
    return one_sided(m.right_algebra, side, m.dim, m.right_action, m.label,
                     _kept(m, side))


# ---------------------------------------------------------------------------
# balanced tensor products

@dataclass(frozen=True)
class TensorProduct:
    """m (x)_C n as a quotient of a coefficient space, with its outer
    actions; an ambient element is the left_factor.dim x right_factor.dim
    matrix of its coefficients on the e_u (x) e_v.

    The coefficient space is the ambient one when read off orbits, or
    with presented = (side, xs, lifts), xs generating the factor on side
    over C, the other factor's |xs|-th power at column (x-index) * dim +
    v, the ambient one again over the left factor's unit basis; lifts[u]
    is t_u in C^X with sum_x x.t_u,x = e_u (mirrored on the right).
    relations holds the relations in RREF, read only for the class
    table.  The quotient basis is the classes at the non-pivot columns,
    free_cols, each that of the pure tensor basis_tensors lists; map_out,
    tensor_legs and tensor_map read only those and the class table.
    """
    module: Bimodule
    relations: Subspace
    free_cols: tuple
    left_factor: Bimodule
    right_factor: Bimodule
    presented: Optional[tuple] = None
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def project(self, ambient: Matrix) -> tuple:
        """The class of an ambient element, as a pair vector."""
        return self._class_of(ambient.vec())

    def _class_of(self, entries: Iterable) -> tuple:
        """project on the (row-major index, value) entries of an element."""
        return self.left_factor.field.comb(self._classes, entries)

    @cached_property
    def _classes(self) -> list:
        """The class table, by row-major index of e_u (x) e_v, kept by each
        instance and in tables, which the copies replace makes share, so
        no instance refers to another.  A free column is its own basis
        class and a pivot column minus the rest of its RREF row; with a
        presented factor, e_u (x) e_v = sum_x x (x) t_u,x.e_v is first
        moved onto the other factor through its lift."""
        if "classes" in self.tables:
            return self.tables["classes"]
        f, m, n = self.left_factor.field, self.left_factor, self.right_factor
        index = {c: k for k, c in enumerate(self.free_cols)}
        rows = self.relations._row_at
        table = [((index[c], f.one),) if c in index else tuple(
            (index[j], f.neg(x)) for j, x in rows[c].items() if j != c)
            for c in range(self.relations.ambient_dim)]
        if self.presented is not None:
            left, lifts = self.presented[0] == "left", self.presented[2]
            moved = [_stacked(f, n.left_action if left else m.right_action, t,
                              m.right_algebra.dim, n.dim if left else m.dim,
                              True) for t in lifts]
            table = [f.comb(table, moved[u][v] if left else moved[v][u])
                     for u in range(m.dim) for v in range(n.dim)]
        self.tables["classes"] = table
        return table

    @cached_property
    def basis_tensors(self) -> tuple:
        """The pure tensor (x, y) of pair vectors that each quotient basis
        class is the class of, in order."""
        one, dn = self.left_factor.field.one, self.right_factor.dim
        if self.presented is None:
            return tuple((((c // dn, one),), ((c % dn, one),))
                         for c in self.free_cols)
        side, xs, _ = self.presented
        dim = dn if side == "left" else self.left_factor.dim
        units = (divmod(c, dim) for c in self.free_cols)
        return tuple((xs[i], ((v, one),)) if side == "left"
                     else (((v, one),), xs[i]) for i, v in units)

    def lift(self, coords: tuple) -> Matrix:
        """The canonical ambient representative of the class with the pair
        vector coords, for a product in ambient coordinates, such as the
        tensor square's."""
        free = self.free_cols
        return Matrix.from_vec(
            self.left_factor.field, self.left_factor.dim, self.right_factor.dim,
            tuple((free[c], x) for c, x in coords))

    def sum_pure(self, pairs: Iterable[tuple[tuple, tuple]]) -> tuple:
        """The class of sum x (x) y over the pairs (x, y) of pair vectors,
        summed in the ambient and projected once."""
        f, n, w = self.left_factor.field, self.right_factor.dim, {}
        for x, y in pairs:
            for i, a in x:
                f.sparse_addmul(w, [(i * n + j, b) for j, b in y], a)
        return self._class_of(w.items())

    def pure(self, x: tuple, y: tuple) -> tuple:
        """The class of the pure tensor x (x) y."""
        return self.sum_pure([(x, y)])

    def map_out(self, rows: int, column: Callable[[int, int], tuple]) -> Matrix:
        """The map out of this quotient into a space of dimension rows whose
        value at e_u (x) e_v is the pair vector column(u, v): at a basis
        class x (x) y it is the sum of x_u y_v column(u, v)."""
        f = self.left_factor.field
        cols = []
        for x, y in self.basis_tensors:
            acc: dict = {}
            for u, a in x:
                for v, b in y:
                    f.sparse_addmul(acc, column(u, v), f.mul(a, b))
            cols.append(tuple(sorted(acc.items())))
        return Matrix.from_cols(f, rows, cols)

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

    Each quotient basis class of src is a pure tensor x (x) y, whose
    image sum c * op_l x (x) op_r y is summed from the classes of dst's
    ambient pure tensors at its nonzeros.
    """
    dst = dst or src
    f, dn, classes = src.left_factor.field, dst.right_factor.dim, dst._classes
    mul = f.mul
    legs = [(c, op_l.transpose().pairs, op_r.transpose().pairs)
            for c, op_l, op_r in terms if c]
    cols = []
    for x, y in src.basis_tensors:
        at = []   # (ambient index, coefficient) of the image's pure tensors
        for c, lcols, rcols in legs:
            ry = f.comb(rcols, y)
            for r, a in f.comb(lcols, x):
                ca, base = mul(c, a), r * dn
                for k, b in ry:
                    at.append((base + k, mul(ca, b)))
        cols.append(f.comb(classes, at))
    return Matrix.from_cols(f, len(dst.free_cols), cols)


def _lifts(alg: FDAlgebra, side: str, acts: Sequence[Matrix], xs: tuple,
           dim: int) -> tuple[list, list]:
    """(lifts, relations) for xs generating a module of dimension dim over
    alg acting on side by acts: t in alg^X, a pair vector at (x-index) *
    alg.dim + (basis index), maps to sum_x t_x.x; lifts[u] maps to e_u,
    and relations generate the kernel K as a one-sided submodule, picked
    greedily by spin under alg's generators acting blockwise from a basis
    of K.  One elimination of the rows (e_i.x | e_(x,i)) gives both.  An
    xs failing to generate is an InternalInconsistency (a theorem)."""
    f, dc, nx = alg.field, alg.dim, len(xs)
    red, pivots = rref(Matrix(f, nx * dc, dim + nx * dc, tuple(
        f.comb(acts[i].transpose().pairs, x) + ((dim + k * dc + i, f.one),)
        for k, x in enumerate(xs) for i in range(dc))))
    if pivots[:dim] != list(range(dim)):
        raise InternalInconsistency(
            "a recorded generating set does not generate its module")
    # an RREF row is 0 at every other pivot, so a lift's row holds one m
    # entry, its pivot, and a relation's none
    found = [tuple((j - dim, x) for j, x in row[row[0][0] < dim:])
             for row in red.pairs[:len(pivots)]]
    mult = alg.basis_left_mult if side == "left" else alg.basis_right_mult
    blockwise = [Matrix(f, nx * dc, nx * dc, tuple(
        tuple((k * dc + j, x) for j, x in row)
        for k in range(nx) for row in mult(g).pairs))
        for g in (alg.generators() if len(found) > dim else ())]
    relations, echelon = [], {}
    for k in found[dim:]:
        if len(echelon) < len(found) - dim and echelon_reduce(f, echelon, dict(k)):
            relations.append(k)
            spin(f, nx * dc, [k], blockwise, echelon)
    return found[:dim], relations


def _stacked(f: Field, acts: Sequence[Matrix], t: tuple, dc: int, dim: int,
             by_cols: bool) -> list:
    """For t in C^X (as in _lifts) and acts the actions of C's basis on a
    module of dimension dim: for each v < dim, the vector of F^(|X| dim)
    whose block x is column v (by_cols) or row v of t_x's operator."""
    parts: dict = {}
    for j, a in t:
        parts.setdefault(j // dc, []).append((j % dc, a))
    lines = []
    for k, tk in parts.items():
        op = lin_comb(f, dim, dim, tk, acts)
        lines.append((k * dim, (op.transpose() if by_cols else op).pairs))
    return [tuple((base + w, a) for base, vecs in lines for w, a in vecs[v])
            for v in range(dim)]


def presenting_sets(m: Bimodule, n: Bimodule) -> tuple:
    """m's and n's recorded generating sets over C, None where absent."""
    return _kept(m, "right"), _kept(n, "left")


def _presentation(m: Bimodule, n: Bimodule, sets: tuple) -> tuple:
    """(relations, presented) for m (x)_C n over a generating set over C
    in sets, m's or n's (None where a factor gives none), whichever gives
    the smaller ambient (see TensorProduct)."""
    c = m.right_algebra
    found = [(len(gs[1]) * other.dim, side, gs[1], own, other)
             for side, gs, own, other in zip(("left", "right"), sets,
                                             (m, n), (n, m))
             if gs is not None]
    size, side, xs, own, other = min(found, key=lambda t: t[0])
    # C acts on the left factor from the right, on the right one from the left
    lifts, kernel_gens = _lifts(c, "right" if side == "left" else "left",
                                own.right_action if side == "left"
                                else own.left_action, xs, own.dim)
    rows = tuple(v for k in kernel_gens for v in _stacked(
        m.field, other.left_action if side == "left" else other.right_action,
        k, c.dim, other.dim, True) if v)
    return (Subspace.row_space(Matrix(m.field, len(rows), size, rows)),
            (side, xs, lifts))


def tensor_over(m: Bimodule, n: Bimodule) -> TensorProduct:
    """The balanced tensor product over C = m.right_algebra = n.left_algebra,
    with outer actions built on first read.  When no factor records a
    generating set over C and C's generators act on both by permutation
    matrices, the relations x.c (x) y - x (x) c.y at the generators c of
    C span them all (at cd it is the one at c on (x, d.y) plus the one at
    d on (x.c, y)), and their RREF keeps the largest column of each class
    of linked pure tensors (an orbit under one permutation list of the
    row-major indices per generator) free and has e_c - e_max for every
    other member c.  Otherwise the product is presented over a recorded
    generating set, else over m's unit basis (_presentation)."""
    c = m.right_algebra
    if c != n.left_algebra:
        raise BimoduleError(
            f"tensor factors disagree on the middle algebra: "
            f"{c.name} vs {n.left_algebra.name}")
    f, dn, gens = m.field, n.dim, c.generators()
    sets = presenting_sets(m, n)
    tables = None if any(sets) else _permutation_tables(
        [m.right_action[b] for b in gens] + [n.left_action[b] for b in gens])
    if tables is None:
        relations, presented = _presentation(m, n, sets if any(sets) else (
            ("right", tuple(((u, f.one),) for u in range(m.dim))), None))
    else:
        # e_a (x) e_t(b) = e_s(a).c (x) e_t(b) ~ e_s(a) (x) c.e_t(b)
        # = e_s(a) (x) e_b links x * dn + b to s^-1(x) * dn + t(b), in
        # row-major indices: one permutation per generator c (s^-1 sorts s)
        rows = sorted(((k, f.one), (cls[-1], f.neg(f.one)))
                      for cls in _orbits(m.dim * dn, [
                          [sx * dn + tb for sx in sorted(range(m.dim), key=s.__getitem__)
                           for tb in t]
                          for s, t in zip(tables, tables[len(gens):])])
                      for k in cls[:-1])
        relations, presented = Subspace(
            Matrix(f, len(rows), m.dim * dn, tuple(rows)),
            [row[0][0] for row in rows]), None
    pivots = set(relations.pivots)
    free = tuple(col for col in range(relations.ambient_dim) if col not in pivots)
    # the outer actions read the class table core shares with the result
    core = TensorProduct(None, relations, free, m, n, presented)
    return replace(core, module=Bimodule(
        m.left_algebra, n.right_algebra, len(free),
        OnRead(len(m.left_action), lambda i: core.first_leg(m.left_action[i])),
        OnRead(len(n.right_action), lambda i: core.second_leg(n.right_action[i])),
        label=f"{m.label}(x){n.label}"))


def tensor_map(src: TensorProduct, dst: TensorProduct, f_left: Matrix,
               f_right: Matrix) -> Matrix:
    """The map f_left (x) f_right between two tensor products over one
    middle algebra C, well defined when both legs commute with C's
    generators, so with all of C: then a relation x.c (x) y - x (x) c.y
    maps to one, and a relation sum_x x (x) k_x.e_v over a generating set
    to f(sum_x x.k_x) (x) f(e_v) = 0 (mirrored), class 0 in dst.
    """
    gens = src.left_factor.right_algebra.generators()
    sm, sn, dm, dn = (src.left_factor, src.right_factor,
                      dst.left_factor, dst.right_factor)
    if not (intertwines(f_left, ((sm.right_action[c], dm.right_action[c])
                                 for c in gens))
            and intertwines(f_right, ((sn.left_action[c], dn.left_action[c])
                                      for c in gens))):
        raise BimoduleError(
            "tensor map legs are not linear over the middle algebra")
    return tensor_legs(src, [(src.left_factor.field.one, f_left, f_right)], dst)


# ---------------------------------------------------------------------------
# hom spaces

@dataclass(frozen=True, eq=False)
class MapSpace:
    """A basis of the space of bimodule maps source -> target, with
    coordinates.

    Maps are target.dim x source.dim matrices.  The vectorized basis is
    the echelon basis of span, so coordinates of a member are a pivot
    readoff, a pair vector.  Frozen with a tuple basis, so that one
    instance can be shared.
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

    def coordinates(self, mat: Matrix) -> Optional[tuple]:
        """mat's coordinates as a pair vector, or None outside the space,
        from the dict of its entries by row-major index that span reduces."""
        n = mat.cols
        return self.span._coordinates({i * n + j: x for i, row in enumerate(
            mat.pairs) for j, x in row})

    def element(self, coords: tuple) -> Matrix:
        return lin_comb(self.field, self.target.dim, self.source.dim,
                        coords, self.basis)

    @cached_property
    def generators(self) -> list[int]:
        """For an endomorphism space: basis indices whose composites span
        it, the product of basis maps h and g being h @ g
        (linalg.word_generators), found once per instance."""
        f, n = self.field, self.dim

        @cache
        def right_mult(g: int) -> Matrix:
            return Matrix.from_cols(f, n, [self.coordinates(h @ self.basis[g])
                                           for h in self.basis])
        return word_generators(f, n, self.coordinates(
            Matrix.identity(f, self.source.dim)), right_mult)

    def __repr__(self) -> str:
        return f"MapSpace({self.source.label} -> {self.target.label}, dim={self.dim})"


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


def _orbits(n: int, perms: Sequence[Sequence[int]]) -> list[list]:
    """The classes of 0..n-1 under the equivalence linking i to perm[i]
    for each permutation list perm in perms, ascending, in the order of
    their least members: orbits, closed under the perms alone, as a finite
    permutation's inverse is one of its powers; a bytearray marks seen."""
    seen, classes = bytearray(n), []
    for a in range(n):
        if not seen[a]:
            seen[a] = 1
            cls = [a]
            for i in cls:   # grows while it is read
                for perm in perms:
                    b = perm[i]
                    if not seen[b]:
                        seen[b] = 1
                        cls.append(b)
            cls.sort()
            classes.append(cls)
    return classes


def _indicators(f: Field, n: int, classes: list[list]) -> Subspace:
    """The span of the indicator vectors of classes listed as _orbits lists
    them, which are already its RREF: each leads at its least member."""
    return Subspace(Matrix(f, len(classes), n, tuple(
        tuple((k, f.one) for k in cls) for cls in classes)),
        [cls[0] for cls in classes])


def hom_space(m: Bimodule, n: Bimodule) -> MapSpace:
    """All linear maps m -> n commuting with both algebras' generators.
    When every generator acts on m and on n by a permutation matrix, a
    map's matrix X is constant on the orbits of its index pairs under
    (i, j) -> (t(i), s(j)) for the permutations s on m and t on n, one
    list over the row-major indices per generator, and the orbits'
    indicators are the RREF.  Otherwise the maps are solved for their
    values at m's recorded generating set, else at unit vectors picked
    by spin on the side needing fewer (_maps_over)."""
    if m.left_algebra != n.left_algebra or m.right_algebra != n.right_algebra:
        raise BimoduleError("hom needs matching acting algebras on both sides")
    f, dm, dn = m.field, m.dim, n.dim
    (ml, mr), (nl, nr) = m.generator_actions(), n.generator_actions()
    tables = _permutation_tables(ml + mr + nl + nr)
    if tables is not None:
        # X[t(i), s(j)] = X[i, j] for the tables s of m's and t of n's actions
        span = _indicators(f, dn * dm, _orbits(dn * dm, [
            [ti * dm + sj for ti in t for sj in s]
            for s, t in zip(tables, tables[len(ml) + len(mr):])]))
    else:
        found = m.generating_set
        for side, acts in (("left", ml), ("right", mr)):
            # a trivial side needs every vector; one vector is the fewest
            if acts and not m.generating_set and (not found or len(found[1]) > 1):
                xs = _spanning(f, dm, acts)
                found = found if found and len(found[1]) <= len(xs) else (side, xs)
        maps = _maps_over(m, n, *(found or ("left", _spanning(f, dm, ml))))
        span = Subspace.row_space(Matrix(f, len(maps), dn * dm, maps))
    # keep the basis aligned with the echelon rows so coordinates match
    return MapSpace(m, n, tuple(Matrix.from_vec(f, dn, dm, r)
                                for r in span.basis.pairs), span)


def _maps_over(m: Bimodule, n: Bimodule, side: str, xs: tuple) -> tuple:
    """The vecs of a basis of the maps m -> n, solved for their values v_x
    at xs generating m over C acting on side: phi(sum_x t_x.x) =
    sum_x t_x.v_x is well defined when sum_x k_x.v_x = 0 for the
    generators k of K (_lifts), and commutes with a generator h of the
    other side when phi(x.h) = v_x.h at each x (mirrored on the right)."""
    f, dn, nx = m.field, n.dim, len(xs)
    left = side == "left"
    alg = m.left_algebra if left else m.right_algebra
    (ml, mr), (nl, nr) = m.generator_actions(), n.generator_actions()
    acts, n_acts, m_other, n_other = (
        (m.left_action, n.left_action, mr, nr) if left
        else (m.right_action, n.right_action, ml, nl))
    lifts, relations = _lifts(alg, side, acts, xs, m.dim)
    rows = [r for k in relations
            for r in _stacked(f, n_acts, k, alg.dim, dn, False)]
    minus_one = f.neg(f.one)
    for i, x in enumerate(xs):
        for mg, ng in zip(m_other, n_other):
            t = f.comb(lifts, f.comb(mg.transpose().pairs, x))
            for row, own in zip(_stacked(f, n_acts, t, alg.dim, dn, False),
                                ng.pairs):
                acc = dict(row)
                f.sparse_addmul(acc, ((i * dn + w, a) for w, a in own),
                                minus_one)
                rows.append(tuple(sorted(acc.items())))
    rows = tuple(row for row in rows if row)
    ker = tuple(kernel(Matrix(f, len(rows), nx * dn, rows)))
    # column r of values[u] is phi(e_u) = sum_x t_u,x.v_x for solution r
    sols = Matrix(f, len(ker), nx * dn, ker).transpose()
    values = [(Matrix(f, dn, nx * dn, tuple(_stacked(
        f, n_acts, t, alg.dim, dn, False))) @ sols).transpose().pairs
        for t in lifts]
    return tuple(Matrix.from_cols(f, dn, [at[r] for at in values]).vec()
                 for r in range(len(ker)))


def invariants_subspace(m: Bimodule, elements: Sequence[tuple]) -> Subspace:
    """Vectors v with x.v = v.x for every listed element of both algebras.

    Elements are pair vectors in the acting algebra, which must be
    the same on both sides for the condition to typecheck.  When every
    x acts on both sides by a permutation matrix, x.v = v.x links the
    entries of v that the two permutations move to one position, l(p) to
    r(p), one permutation list per x, and the indicators of the linked
    classes (_orbits), ordered by least index, are the RREF; otherwise
    the system is eliminated.
    """
    if len(m.left_action) != len(m.right_action):
        raise BimoduleError("invariants need one algebra acting on both sides")
    f = m.field
    ops = [(m.left_operator(x), m.right_operator(x)) for x in elements]
    tables = _permutation_tables([op for pair in ops for op in pair])
    if tables is not None:
        # (x.v)[p] = v[l(p)] and (v.x)[p] = v[r(p)] for the tables l and r of x
        # as a permutation, l(p) -> r(p), with l^-1 sorting l
        return _indicators(f, m.dim, _orbits(m.dim, [
            [r[p] for p in sorted(range(m.dim), key=l.__getitem__)]
            for l, r in zip(tables[::2], tables[1::2])]))
    rows = tuple(row for left, right in ops for row in (left - right).pairs
                 if row)
    ker = kernel(Matrix(f, len(rows), m.dim, rows))
    return Subspace.row_space(Matrix(f, len(ker), m.dim, tuple(ker)))


def centralizer_subspace(m: Bimodule, embedding) -> Subspace:
    """Vectors commuting with the embedded base algebra on both sides."""
    if m.left_algebra != embedding.total or m.right_algebra != embedding.total:
        raise BimoduleError("centralizer needs the embedded algebra acting on both sides")
    return invariants_subspace(m, embedding.base_generators())


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
    """mat has the shape of a map src -> dst and commutes with the actions
    of both algebras' generators: both modules are representations, so
    the elements it commutes with form a subalgebra, all of it."""
    (sl, sr), (dl, dr) = src.generator_actions(), dst.generator_actions()
    return (mat.rows == dst.dim and mat.cols == src.dim
            and intertwines(mat, zip(sl, dl)) and intertwines(mat, zip(sr, dr)))


def summand_witness(m: Bimodule, n: Bimodule,
                    hom: Callable[[Bimodule, Bimodule], MapSpace]
                    ) -> Optional[SummandWitness]:
    """Decide whether m is a direct summand of a finite power of n: is
    id_m a combination of composites back_b @ into_a over the hom spaces
    hom builds (hom_space or CanonicalSpaces.hom)?  A bimodule map is
    fixed by its values on a set generating m, so composites are written
    only there, entering an echelon one at a time until the residual of
    id_m vanishes; the kept ones are then solved for.  Returns a verified
    witness or None; CanonicalSpaces.summand runs it once per content.
    """
    into_space, back_space = hom(m, n), hom(n, m)
    f, dm = m.field, m.dim
    gens = unit_generators(m)
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
    back_coeffs: dict = {}
    for at, c in span_decide(f, k * dm, [v for _, _, v in kept], target):
        a, b, _ = kept[at]
        back_coeffs.setdefault(a, {})[b] = c
    witness = SummandWitness(m, n, [
        (into_space.basis[a], back_space.element(tuple(sorted(c.items()))))
        for a, c in back_coeffs.items()])
    if not witness.verify():
        raise BimoduleError("summand witness failed its own verification")
    return witness


def dual_basis_witness(m: Bimodule, algebra: FDAlgebra, side: str,
                       summand: Callable[[Bimodule, Bimodule], Optional[SummandWitness]]
                       ) -> Optional[SummandWitness]:
    """Finitely generated projectivity of m as a one-sided module over
    algebra: m, its other action forgotten, as a summand of a finite power
    of the regular module, decided by summand (summand_witness over a hom,
    or its memo CanonicalSpaces.summand).

    The pairs (into_i, back_i) give a dual basis x_i = back_i(1), f_i =
    into_i: sum x_i . f_i(t) = t for a right module, f_i(t) . x_i = t for
    a left one, because each back_i is linear over the algebra.
    """
    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    return summand(keep_side(m, side), regular_module(algebra, side))
