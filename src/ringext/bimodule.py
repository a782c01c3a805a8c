"""Bimodules over pairs of finite-dimensional algebras.

A bimodule stores one action matrix per basis element of each acting
algebra.  Left actions are representations, right actions are
anti-representations (the matrix of acting by x*y is R_y R_x), and the
two sides commute.  One-sided modules use the one-dimensional trivial
algebra on the silent side, so a single hom/tensor engine covers left
modules, right modules, and genuine bimodules, including modules over
rings that were themselves computed (those are plain FDAlgebra values in
abstract coordinates).

Balanced tensor products m (x)_C n are presented as quotients of the
ambient m.dim * n.dim space by the balancing relations (x.c (x) y -
x (x) c.y); the QuotientPresentation holds the relation subspace plus a
section and projection pair, so maps in and out of the quotient are
ordinary matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import FDAlgebra, trivial_algebra
from .linalg import (
    Field,
    Matrix,
    Subspace,
    kernel,
    kron,
    span_decide,
    unit_vec,
    vec_is_zero,
    zero_vec,
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
        for i in range(la.dim):
            for j in range(la.dim):
                if self.left_operator(la.mult[i][j]) != \
                        self.left_action[i] @ self.left_action[j]:
                    raise BimoduleError(
                        f"left action is not a representation at ({i},{j})")
        for i in range(ra.dim):
            for j in range(ra.dim):
                if self.right_operator(ra.mult[i][j]) != \
                        self.right_action[j] @ self.right_action[i]:
                    raise BimoduleError(
                        f"right action is not an anti-representation at ({i},{j})")
        for li in self.left_action:
            for rj in self.right_action:
                if li @ rj != rj @ li:
                    raise BimoduleError("left and right actions do not commute")

    def left_operator(self, x: Sequence) -> Matrix:
        """Matrix of v -> x.v for x in the left algebra."""
        f = self.field
        out = Matrix.zeros(f, self.dim, self.dim)
        for i, xi in enumerate(x):
            if not f.is_zero(xi):
                out = out + self.left_action[i].scale(xi)
        return out

    def right_operator(self, x: Sequence) -> Matrix:
        """Matrix of v -> v.x for x in the right algebra."""
        f = self.field
        out = Matrix.zeros(f, self.dim, self.dim)
        for i, xi in enumerate(x):
            if not f.is_zero(xi):
                out = out + self.right_action[i].scale(xi)
        return out

    def act_left(self, x: Sequence, v: Sequence) -> list:
        return self.left_operator(x).apply(v)

    def act_right(self, v: Sequence, x: Sequence) -> list:
        return self.right_operator(x).apply(v)

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


def direct_sum(m: Bimodule, n: Bimodule, label: Optional[str] = None) -> Bimodule:
    if m.left_algebra != n.left_algebra or m.right_algebra != n.right_algebra:
        raise BimoduleError("direct sum needs matching acting algebras")
    f = m.field
    d = m.dim + n.dim

    def block(a: Matrix, b: Matrix) -> Matrix:
        out = Matrix.zeros(f, d, d)
        for i in range(a.rows):
            for j in range(a.cols):
                out.data[i][j] = a.data[i][j]
        for i in range(b.rows):
            for j in range(b.cols):
                out.data[m.dim + i][m.dim + j] = b.data[i][j]
        return out

    return Bimodule(
        m.left_algebra, m.right_algebra, d,
        [block(x, y) for x, y in zip(m.left_action, n.left_action)],
        [block(x, y) for x, y in zip(m.right_action, n.right_action)],
        label=label or f"{m.label}+{n.label}")


def submodule_as_module(parent: Bimodule, sub: Subspace,
                        label: str = "M'") -> Bimodule:
    """An action-stable subspace of a bimodule, in its own coordinates."""
    if sub.ambient_dim != parent.dim:
        raise BimoduleError("subspace does not live in the parent module")

    def induce(op: Matrix) -> Matrix:
        cols = []
        for row in sub.rows:
            image = op.apply(row)
            coords = sub.coordinates(image)
            if coords is None:
                raise BimoduleError(
                    f"subspace of {parent.label} is not action-stable")
            cols.append(coords)
        return Matrix.from_cols(parent.field, cols, sub.dim)

    return Bimodule(parent.left_algebra, parent.right_algebra, sub.dim,
                    [induce(op) for op in parent.left_action],
                    [induce(op) for op in parent.right_action], label=label)


def random_cyclic_module(a: FDAlgebra, side: str, ambient_rank: int,
                         seed: int, label: Optional[str] = None) -> Bimodule:
    """A seeded pseudo-random one-sided module: the submodule of a free
    module of the given rank generated by one random element.

    The span of the basis translates of a single element is already
    action-stable, so no closure iteration is needed.
    """
    import random

    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    f = a.field
    rng = random.Random(seed)

    def scalar():
        if isinstance(f.zero, int):
            return f.of(rng.randrange(f.p))
        return f.of(rng.randint(-3, 3))

    ambient = a.dim * ambient_rank
    free = _free_one_sided(a, side, ambient_rank)
    for _ in range(32):
        x = [scalar() for _ in range(ambient)]
        if not vec_is_zero(f, x):
            break
    else:
        x = unit_vec(f, ambient, 0)
    if side == "left":
        gens = [free.left_action[i].apply(x) for i in range(a.dim)]
    else:
        gens = [free.right_action[i].apply(x) for i in range(a.dim)]
    sub = Subspace.from_vectors(f, ambient, gens)
    return submodule_as_module(free, sub,
                               label=label or f"{a.name}-cyclic{seed}")


def _free_one_sided(a: FDAlgebra, side: str, rank: int) -> Bimodule:
    f = a.field
    a._ensure_regular()
    dim = a.dim * rank

    def blocks(op: Matrix) -> Matrix:
        out = Matrix.zeros(f, dim, dim)
        for b in range(rank):
            o = b * a.dim
            for i in range(a.dim):
                for j in range(a.dim):
                    out.data[o + i][o + j] = op.data[i][j]
        return out

    if side == "left":
        return left_module(a, dim, [blocks(a.basis_left_mult(i))
                                    for i in range(a.dim)], label=f"{a.name}^{rank}")
    return right_module(a, dim, [blocks(a.basis_right_mult(i))
                                 for i in range(a.dim)], label=f"{a.name}^{rank}")


# ---------------------------------------------------------------------------
# quotient presentations and balanced tensor products

class QuotientPresentation:
    """An ambient space modulo a relation subspace, with a section.

    The quotient basis consists of the classes of the unit vectors at the
    non-pivot columns of the relation space, so projection is pivot
    elimination followed by reading off those coordinates.  projection @
    section is the identity on the quotient and the kernel of projection
    is exactly the relation subspace.
    """

    def __init__(self, field: Field, ambient_dim: int, relations: Subspace) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.relations = relations
        pivset = set(relations.pivots)
        self.free_cols = [c for c in range(ambient_dim) if c not in pivset]
        self.dim = len(self.free_cols)
        sec = Matrix.zeros(field, ambient_dim, self.dim)
        for k, c in enumerate(self.free_cols):
            sec.data[c][k] = field.one
        self.section = sec
        proj = Matrix.zeros(field, self.dim, ambient_dim)
        for k, c in enumerate(self.free_cols):
            proj.data[k][c] = field.one
        for i, (row, pc) in enumerate(zip(relations.rows, relations.pivots)):
            for k, c in enumerate(self.free_cols):
                if not field.is_zero(row[c]):
                    proj.data[k][pc] = field.neg(row[c])
        self.projection = proj

    @classmethod
    def from_relation_vectors(cls, field: Field, ambient_dim: int,
                              vectors: Sequence[Sequence]) -> "QuotientPresentation":
        return cls(field, ambient_dim,
                   Subspace.from_vectors(field, ambient_dim, vectors))

    def project(self, v: Sequence) -> list:
        return self.projection.apply(v)

    def lift(self, coords: Sequence) -> list:
        return self.section.apply(coords)

    def induced_operator(self, ambient_op: Matrix) -> Matrix:
        """The operator on the quotient, assuming ambient_op preserves relations."""
        return self.projection @ ambient_op @ self.section


@dataclass
class TensorProduct:
    """m (x)_C n together with its presentation and outer actions."""
    module: Bimodule
    presentation: QuotientPresentation
    left_factor: Bimodule
    right_factor: Bimodule

    def pure(self, x: Sequence, y: Sequence) -> list:
        """Coordinates of the class of the pure tensor x (x) y."""
        return self.presentation.project(_outer_flat(
            self.module.field, x, y, self.right_factor.dim))


def _outer_flat(field: Field, x: Sequence, y: Sequence, dn: int) -> list:
    out = [field.zero] * (len(x) * dn)
    for i, xi in enumerate(x):
        if field.is_zero(xi):
            continue
        base = i * dn
        for j, yj in enumerate(y):
            if not field.is_zero(yj):
                out[base + j] = field.mul(xi, yj)
    return out


def _unflatten(field: Field, v: Sequence, dm: int, dn: int) -> Matrix:
    return Matrix.from_vec(field, dm, dn, list(v))


def tensor_over(m: Bimodule, n: Bimodule, label: Optional[str] = None
                ) -> TensorProduct:
    """The balanced tensor product over C = m.right_algebra = n.left_algebra.

    The result is an (m.left_algebra, n.right_algebra)-bimodule.  Relations
    are generated by (x.c (x) y) - (x (x) c.y) over all basis triples.
    """
    c = m.right_algebra
    if c != n.left_algebra:
        raise BimoduleError(
            f"tensor factors disagree on the middle algebra: "
            f"{c.name} vs {n.left_algebra.name}")
    f = m.field
    dm, dn = m.dim, n.dim
    amb = dm * dn
    rels = []
    for b in range(c.dim):
        rmat = m.right_action[b]
        lmat = n.left_action[b]
        for i in range(dm):
            xcol = rmat.col(i)
            for j in range(dn):
                v = zero_vec(f, amb)
                for u, a in enumerate(xcol):
                    if not f.is_zero(a):
                        v[u * dn + j] = f.add(v[u * dn + j], a)
                ycol = lmat.col(j)
                for w, a in enumerate(ycol):
                    if not f.is_zero(a):
                        v[i * dn + w] = f.sub(v[i * dn + w], a)
                if not vec_is_zero(f, v):
                    rels.append(v)
    pres = QuotientPresentation.from_relation_vectors(f, amb, rels)
    sec_mats = [_unflatten(f, pres.section.col(k), dm, dn)
                for k in range(pres.dim)]

    def left_act(op: Matrix) -> Matrix:
        cols = [pres.project((op @ s).vec()) for s in sec_mats]
        return Matrix.from_cols(f, cols, pres.dim)

    def right_act(op: Matrix) -> Matrix:
        opt = op.transpose()
        cols = [pres.project((s @ opt).vec()) for s in sec_mats]
        return Matrix.from_cols(f, cols, pres.dim)

    lab = label or f"{m.label}(x){n.label}"
    mod = Bimodule(m.left_algebra, n.right_algebra, pres.dim,
                   [left_act(op) for op in m.left_action],
                   [right_act(op) for op in n.right_action], label=lab)
    return TensorProduct(mod, pres, m, n)


def tensor_map(src: TensorProduct, dst: TensorProduct, f_left: Matrix,
               f_right: Matrix, check_rows: int = 8) -> Matrix:
    """The map f_left (x) f_right between two presented tensor products.

    Spot-checks well-definedness on a sample of the source relations (the
    full guarantee is the middle-linearity of the ingredient maps).
    """
    f = src.module.field
    dm, dn = src.left_factor.dim, src.right_factor.dim
    frt = f_right.transpose()

    def ambient(v: Sequence) -> list:
        return (f_left @ _unflatten(f, v, dm, dn) @ frt).vec()

    for row in src.presentation.relations.rows[:check_rows]:
        if not dst.presentation.relations.contains(ambient(row)):
            raise BimoduleError("tensor map does not respect the relations")
    cols = [dst.presentation.project(ambient(src.presentation.section.col(k)))
            for k in range(src.presentation.dim)]
    return Matrix.from_cols(f, cols, dst.presentation.dim)


# ---------------------------------------------------------------------------
# hom spaces

class MapSpace:
    """A basis of the space of bimodule maps m -> n, with coordinates.

    Maps are n.dim x m.dim matrices.  The vectorized basis is re-reduced
    to echelon form so coordinates of a member are a pivot readoff.
    """

    def __init__(self, source: Bimodule, target: Bimodule,
                 basis: list[Matrix]) -> None:
        self.source = source
        self.target = target
        self.basis = basis
        self.field = source.field
        self._span = Subspace.from_vectors(
            self.field, target.dim * source.dim, [b.vec() for b in basis])
        # keep the basis aligned with the echelon rows so coordinates match
        self.basis = [Matrix.from_vec(self.field, target.dim, source.dim, r)
                      for r in self._span.rows]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, mat: Matrix) -> Optional[list]:
        return self._span.coordinates(mat.vec())

    def contains(self, mat: Matrix) -> bool:
        return self._span.contains(mat.vec())

    def element(self, coords: Sequence) -> Matrix:
        f = self.field
        out = Matrix.zeros(f, self.target.dim, self.source.dim)
        for c, b in zip(coords, self.basis):
            if not f.is_zero(c):
                out = out + b.scale(c)
        return out

    def __repr__(self) -> str:
        return f"MapSpace({self.source.label} -> {self.target.label}, dim={self.dim})"


def hom_space(m: Bimodule, n: Bimodule) -> MapSpace:
    """All linear maps m -> n commuting with both actions."""
    if m.left_algebra != n.left_algebra or m.right_algebra != n.right_algebra:
        raise BimoduleError("hom needs matching acting algebras on both sides")
    f = m.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return MapSpace(m, n, [])
    rows: list[list] = []
    eye_m = Matrix.identity(f, dm)
    eye_n = Matrix.identity(f, dn)
    for am, an in zip(m.left_action, n.left_action):
        diff = kron(an, eye_m) - kron(eye_n, am.transpose())
        rows.extend(diff.data)
    for am, an in zip(m.right_action, n.right_action):
        diff = kron(an, eye_m) - kron(eye_n, am.transpose())
        rows.extend(diff.data)
    ker = kernel(Matrix.from_rows(f, rows)) if rows else \
        [unit_vec(f, dn * dm, i) for i in range(dn * dm)]
    return MapSpace(m, n, [Matrix.from_vec(f, dn, dm, v) for v in ker])


def invariants_subspace(m: Bimodule, elements: Sequence[Sequence]) -> Subspace:
    """Vectors v with x.v = v.x for every listed element of both algebras.

    Elements are coordinate vectors in the acting algebra, which must be
    the same on both sides for the condition to typecheck.
    """
    f = m.field
    rows: list[list] = []
    for x in elements:
        diff = m.left_operator(x) - m.right_operator(x)
        rows.extend(diff.data)
    if not rows:
        return Subspace.full(f, m.dim)
    return Subspace.from_vectors(f, m.dim,
                                 kernel(Matrix.from_rows(f, rows)))


def centralizer_subspace(m: Bimodule, embedding) -> Subspace:
    """Vectors commuting with the embedded base algebra on both sides."""
    if m.left_algebra != embedding.total or m.right_algebra != embedding.total:
        raise BimoduleError("centralizer needs the embedded algebra acting on both sides")
    return invariants_subspace(
        m, [embedding.iota.col(i) for i in range(embedding.base.dim)])


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
            if not _is_bimodule_map(self.source, self.target, into):
                return False
            if not _is_bimodule_map(self.target, self.source, back):
                return False
            acc = acc + (back @ into)
        return acc == Matrix.identity(f, self.source.dim)


def _is_bimodule_map(src: Bimodule, dst: Bimodule, mat: Matrix) -> bool:
    if mat.rows != dst.dim or mat.cols != src.dim:
        return False
    for am, an in zip(src.left_action, dst.left_action):
        if mat @ am != an @ mat:
            return False
    for am, an in zip(src.right_action, dst.right_action):
        if mat @ am != an @ mat:
            return False
    return True


def summand_witness(m: Bimodule, n: Bimodule) -> Optional[SummandWitness]:
    """Decide whether m is a direct summand of a finite power of n.

    Works entirely inside the two hom spaces: the identity of m must be a
    combination of composites back_b @ into_a, which is a linear problem
    in the coefficients.  Returns a verified witness or None.
    """
    if m.dim == 0:
        return SummandWitness(m, n, [])
    into_space = hom_space(m, n)
    back_space = hom_space(n, m)
    if into_space.dim == 0 or back_space.dim == 0:
        return None
    f = m.field
    composites = []
    index = []
    for a, fa in enumerate(into_space.basis):
        for b, gb in enumerate(back_space.basis):
            composites.append((gb @ fa).vec())
            index.append((a, b))
    target = Matrix.identity(f, m.dim).vec()
    coeffs = span_decide(f, composites, target)
    if coeffs is None:
        return None
    folded: dict[int, Matrix] = {}
    for c, (a, b) in zip(coeffs, index):
        if f.is_zero(c):
            continue
        add = back_space.basis[b].scale(c)
        folded[a] = folded.get(a, Matrix.zeros(f, m.dim, n.dim)) + add
    pairs = [(into_space.basis[a], g) for a, g in sorted(folded.items())]
    if not pairs:
        # the identity of m is the zero map only when m = 0
        pairs = []
    witness = SummandWitness(m, n, pairs)
    if not witness.verify():
        raise BimoduleError("summand witness failed its own verification")
    return witness


@dataclass
class DualBasisWitness:
    """A finite dual basis for a one-sided module over an algebra.

    For a right module: elements x_i and right-linear functionals f_i to
    the regular module with sum x_i . f_i(t) = t for all t.  For a left
    module the sum is f_i(t) . x_i.  Existence is exactly finitely
    generated projectivity.
    """
    module: Bimodule
    side: str
    elements: list[list]
    functionals: list[Matrix]

    def verify(self, algebra: FDAlgebra) -> bool:
        f = self.module.field
        for t in range(self.module.dim):
            tv = unit_vec(f, self.module.dim, t)
            acc = zero_vec(f, self.module.dim)
            for x, func in zip(self.elements, self.functionals):
                val = func.apply(tv)
                if self.side == "right":
                    op = self.module.right_operator(val)
                else:
                    op = self.module.left_operator(val)
                img = op.apply(x)
                acc = [f.add(a, b) for a, b in zip(acc, img)]
            if acc != tv:
                return False
        return True


def dual_basis_witness(m: Bimodule, algebra: FDAlgebra, side: str
                       ) -> Optional[DualBasisWitness]:
    """Finitely generated projectivity of a one-sided module, with witness."""
    triv = trivial_algebra(m.field)
    if side == "right":
        reg = right_regular_module(algebra)
        probe = forget_left(m) if m.left_algebra != triv else m
    elif side == "left":
        reg = left_regular_module(algebra)
        probe = forget_right(m) if m.right_algebra != triv else m
    else:
        raise BimoduleError("side must be 'left' or 'right'")
    witness = summand_witness(probe, reg)
    if witness is None:
        return None
    elements = [back.apply(list(algebra.unit)) for _, back in witness.pairs]
    functionals = [into for into, _ in witness.pairs]
    out = DualBasisWitness(probe, side, elements, functionals)
    if not out.verify(algebra):
        raise BimoduleError("dual basis witness failed its own verification")
    return out
