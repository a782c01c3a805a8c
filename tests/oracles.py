"""Brute-force reference computations on raw input documents.

These read corpus JSON directly (no library parsing) and compute the
structural dimensions by writing down the defining linear systems in
full, on top of the independent elimination in oracle_linalg.  The
numbers frozen into the tests came from here.

At the end, the dense Kronecker formulation of hom constraints that the
library once solved is kept on library matrices, as the reference that
hom_space's direct constraint rows are compared against, and so are the
sparse balancing system that tensor_over eliminated for products over no
generating set, the dense tensor-leg loop and the per-tensor quasibase
system that tensor_legs and find_d2_quasibase replaced, the full summand
search that summand_witness replaced, the closure loops that spin
replaced, the dense multiply loop of FDAlgebra.multiply and the dense
multiply loops of FDAlgebra.validate and the
basis-wide linearity checks of the comparison maps.  So are the
certificate verifiers and the H-separability search that formed an
operator for each algebra element before applying it to one vector, and
the Fraction decoding of scalar strings, and the union-find over
linked index pairs that orbit classes were once read off.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import product
from typing import Iterable

from tests.oracle_linalg import FracOps, ModOps, as_pairs, nullspace, rref

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def load_doc(name: str) -> dict:
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class RawAlgebra:
    """Structure constants straight from an input document."""

    def __init__(self, doc: dict):
        fld = doc["field"]
        self.ops = FracOps() if fld == "Q" else ModOps(fld["Fp"])
        alg = doc["algebra"]
        if "group" in alg:
            g = alg["group"]
            n = g["order"]
            cay = g["cayley"]
            self.dim = n
            self.mult = [[[self.ops.one if cay[i][j] == k else self.ops.zero
                           for k in range(n)]
                          for j in range(n)] for i in range(n)]
            self.unit = [self.ops.one if k == 0 else self.ops.zero
                         for k in range(n)]
        else:
            n = alg["dim"]
            self.dim = n
            self.mult = [[[self._scalar(c) for c in vec] for vec in row]
                         for row in alg["mult"]]
            self.unit = [self._scalar(c) for c in alg["unit"]]
        sub = doc.get("subalgebra")
        if sub is None:
            self.base = [self._unit_vec(i) for i in range(self.dim)]
        elif "subgroup" in sub:
            self.base = [self._unit_vec(i) for i in sub["subgroup"]]
        else:
            self.base = [[self._scalar(c) for c in v] for v in sub["basis"]]

    def _scalar(self, c):
        if isinstance(self.ops, ModOps):
            return self.ops.of(c)
        return Fraction(c) if isinstance(c, str) else Fraction(c)

    def _unit_vec(self, i):
        v = [self.ops.zero] * self.dim
        v[i] = self.ops.one
        return v

    def product(self, x, y):
        n = self.dim
        out = [self.ops.zero] * n
        for i in range(n):
            if x[i] == self.ops.zero:
                continue
            for j in range(n):
                if y[j] == self.ops.zero:
                    continue
                c = x[i] * y[j]
                if isinstance(self.ops, ModOps):
                    c %= self.ops.p
                for k in range(n):
                    v = out[k] + c * self.mult[i][j][k]
                    out[k] = v % self.ops.p if isinstance(self.ops, ModOps) else v
        return out

    def left_mult(self, x):
        """Matrix of y -> x y, columns indexed by basis."""
        cols = [self.product(x, self._unit_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def right_mult(self, x):
        cols = [self.product(self._unit_vec(j), x) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]


def _mat_vec(ops, mat, v):
    out = []
    for row in mat:
        s = ops.zero
        for a, b in zip(row, v):
            s = s + a * b
            if isinstance(ops, ModOps):
                s %= ops.p
        out.append(s)
    return out


def centralizer_dim(a: RawAlgebra) -> int:
    """Solutions of b x = x b for every base element b."""
    rows = []
    for b in a.base:
        lm, rm = a.left_mult(b), a.right_mult(b)
        for i in range(a.dim):
            rows.append([lm[i][j] - rm[i][j] for j in range(a.dim)])
    if isinstance(a.ops, ModOps):
        rows = [[x % a.ops.p for x in r] for r in rows]
    return len(nullspace(a.ops, rows, a.dim))


def tensor_square_data(a: RawAlgebra):
    """Relation span of x b (x) y - x (x) b y inside the n^2 ambient,
    plus the projection data needed to act on the quotient."""
    n = a.dim
    rows = []
    for b in a.base:
        xb = [a.product(a._unit_vec(i), b) for i in range(n)]
        by = [a.product(b, a._unit_vec(j)) for j in range(n)]
        for i in range(n):
            for j in range(n):
                vec = [a.ops.zero] * (n * n)
                for k in range(n):
                    vec[k * n + j] = vec[k * n + j] + xb[i][k]
                for k in range(n):
                    val = vec[i * n + k] - by[j][k]
                    vec[i * n + k] = val
                if isinstance(a.ops, ModOps):
                    vec = [x % a.ops.p for x in vec]
                rows.append(vec)
    red, pivots = rref(a.ops, rows)
    return red, pivots


def tensor_square_dim(a: RawAlgebra) -> int:
    red, pivots = tensor_square_data(a)
    return a.dim * a.dim - len(pivots)


def endo_ring_dim(a: RawAlgebra) -> int:
    """Linear endomorphisms of the algebra commuting with both base
    actions: phi(b x) = b phi(x) and phi(x b) = phi(x) b.  Unknown is
    the n x n matrix of phi, flattened row-major."""
    n = a.dim
    rows = []
    for b in a.base:
        lm, rm = a.left_mult(b), a.right_mult(b)
        for act in (lm, rm):
            # phi act - act phi = 0, entry (i, j)
            for i in range(n):
                for j in range(n):
                    vec = [a.ops.zero] * (n * n)
                    for k in range(n):
                        vec[i * n + k] = vec[i * n + k] + act[k][j]
                        vec[k * n + j] = vec[k * n + j] - act[i][k]
                    if isinstance(a.ops, ModOps):
                        vec = [x % a.ops.p for x in vec]
                    rows.append(vec)
    return len(nullspace(a.ops, rows, n * n))


def _subgroup_data(doc: dict) -> tuple:
    """The Cayley table (index 0 is the identity), the subgroup's indices
    and the table of inverses of a subgroup input."""
    cay = doc["algebra"]["group"]["cayley"]
    return cay, doc["subalgebra"]["subgroup"], [row.index(0) for row in cay]


def _orbit_count(points, orbit) -> int:
    """The number of orbits of a group action on points, where orbit(p)
    is the whole orbit of p."""
    seen: set = set()
    count = 0
    for p in points:
        if p not in seen:
            count += 1
            seen.update(orbit(p))
    return count


def subgroup_endo_orbit_count(doc: dict) -> int:
    """dim End_B(kG)_B for B = kH, H <= G, with no linear algebra.

    As a k[H x H]-module kG is the permutation module on G with
    (h, k).x = h x k^-1, so the bimodule endomorphisms are the maps
    constant on H x H orbits of G x G under (h, k).(x, y) =
    (h x k^-1, h y k^-1), over any field.  Counts those orbits straight
    from the Cayley table (index 0 is the identity) and `subgroup`."""
    cay, sub, inv = _subgroup_data(doc)
    n = len(cay)
    return _orbit_count(
        ((x, y) for x in range(n) for y in range(n)),
        lambda p: {(cay[cay[h][p[0]]][inv[k]], cay[cay[h][p[1]]][inv[k]])
                   for h in sub for k in sub})


def subgroup_centralizer_orbit_count(doc: dict) -> int:
    """dim R, the centralizer of kH in kG, with no linear algebra: x in kG
    commutes with h iff h x h^-1 = x, so R holds the functions on G
    constant on the orbits of H acting by conjugation, over any field."""
    cay, sub, inv = _subgroup_data(doc)
    return _orbit_count(range(len(cay)),
                        lambda x: {cay[cay[h][x]][inv[h]] for h in sub})


def subgroup_tensor_orbit_count(doc: dict) -> int:
    """dim T, the H-central tensors of kG (x)_kH kG, with no linear algebra.

    The tensor square is the permutation module on G x_H G, the pairs
    (x, y) up to (x k, y) ~ (x, k y) for k in H, and h.t = t.h reads
    t = h t h^-1, with h.(x, y).h^-1 = (h x, y h^-1); so T holds the
    functions constant on the H-orbits of G x_H G, over any field.  The
    two actions commute, so those orbits are the orbits of H x H on G x G
    under (h, k).(x, y) = (h x k, k^-1 y h^-1), counted here."""
    cay, sub, inv = _subgroup_data(doc)
    n = len(cay)
    return _orbit_count(
        ((x, y) for x in range(n) for y in range(n)),
        lambda p: {(cay[cay[h][p[0]]][k], cay[cay[inv[k]][p[1]]][inv[h]])
                   for h in sub for k in sub})


def _quotient_maps(a: RawAlgebra):
    """Section and projection for the tensor-square quotient, derived
    from the relation RREF exactly as a textbook would: free columns
    index the quotient basis."""
    n = a.dim
    red, pivots = tensor_square_data(a)
    free = [c for c in range(n * n) if c not in pivots]

    def project(vec):
        v = list(vec)
        for row, pc in zip(red, pivots):
            c = v[pc]
            if c != a.ops.zero:
                v = [x - c * y for x, y in zip(v, row)]
                if isinstance(a.ops, ModOps):
                    v = [x % a.ops.p for x in v]
        return [v[c] for c in free]

    return free, project


def invariant_tensor_ring_dim(a: RawAlgebra) -> int:
    """Base-central elements of the tensor square."""
    return _tensor_invariants_dim(a, a.base)


def casimir_dim(a: RawAlgebra) -> int:
    """Fully central elements of the tensor square."""
    return _tensor_invariants_dim(a, [a._unit_vec(i) for i in range(a.dim)])


def _tensor_invariants_dim(a: RawAlgebra, elements) -> int:
    n = a.dim
    free, project = _quotient_maps(a)
    dim_q = len(free)
    rows = []
    for b in elements:
        lm = a.left_mult(b)
        rm = a.right_mult(b)
        cols = []
        for c in free:
            i, j = divmod(c, n)
            amb = [a.ops.zero] * (n * n)
            # b . (e_i (x) e_j) - (e_i (x) e_j) . b in the ambient space
            bi = _mat_vec(a.ops, lm, a._unit_vec(i))
            jb = _mat_vec(a.ops, rm, a._unit_vec(j))
            for k in range(n):
                amb[k * n + j] = amb[k * n + j] + bi[k]
                amb[i * n + k] = amb[i * n + k] - jb[k]
            if isinstance(a.ops, ModOps):
                amb = [x % a.ops.p for x in amb]
            cols.append(project(amb))
        for r_idx in range(dim_q):
            rows.append([cols[c_idx][r_idx] for c_idx in range(dim_q)])
    return len(nullspace(a.ops, rows, dim_q))


# ---------------------------------------------------------------------------
# the dense Kronecker formulation of hom constraints, kept as a reference

def kron(a, b):
    """Kronecker product of two library matrices; index (i, j) of the
    result pairs row i of a with row j of b."""
    from tests.helpers import dense_matrix

    f = a.field
    out = [[f.zero] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            c = a.data[i][k]
            for j in range(b.rows):
                for l, s in enumerate(b.data[j]):
                    out[i * b.rows + j][k * b.cols + l] = f.of(
                        out[i * b.rows + j][k * b.cols + l] + f.mul(c, s))
    return dense_matrix(f, out, a.cols * b.cols)


def reference_hom_basis(m, n):
    """Basis of the bimodule maps m -> n from the stacked dense systems
    kron(an, I) - kron(I, am^T), one block per acting basis element,
    solved with the library's kernel and echelonized the way MapSpace does,
    as pair vectors; the zero rows of trivial actions stay in."""
    from ringext.linalg import Matrix, Subspace, kernel
    from tests.helpers import dense_matrix

    f = m.field
    dm, dn = m.dim, n.dim
    eye_m, eye_n = Matrix.identity(f, dm), Matrix.identity(f, dn)
    rows = []
    for am, an in zip([*m.left_action, *m.right_action],
                      [*n.left_action, *n.right_action]):
        diff = kron(an, eye_m) - kron(eye_n, am.transpose())
        rows.extend(diff.data)
    if not rows:
        return list(Matrix.identity(f, dn * dm).pairs)
    ker = kernel(dense_matrix(f, rows))
    return list(Subspace.row_space(Matrix(f, len(ker), dn * dm,
                                          tuple(ker))).basis.pairs)


def reference_tensor_relations(m, n):
    """The balancing relations of m (x)_C n from the stacked dense systems
    kron(rc^T, I) - kron(I, lc^T), one block per basis element c of C with
    rc its right action on m and lc its left action on n: row (i, j) is
    e_i.c (x) e_j - e_i (x) c.e_j on the row-major pure tensors, and the
    relation space is their RREF span."""
    from ringext.linalg import Matrix, Subspace

    f = m.field
    eye_m, eye_n = Matrix.identity(f, m.dim), Matrix.identity(f, n.dim)
    rows = []
    for rc, lc in zip(m.right_action, n.left_action):
        diff = kron(rc.transpose(), eye_n) - kron(eye_m, lc.transpose())
        rows.extend(diff.data)
    return Subspace.from_vectors(f, m.dim * n.dim, map(as_pairs, rows))


# ---------------------------------------------------------------------------
# the sparse balancing system that tensor_over once eliminated for products
# presented over no generating set, kept as the ambient reference

def _intertwining_system(field: Field, actions: Iterable[tuple[Matrix, Matrix]],
                         dm: int, dn: int) -> Matrix:
    """The nonzero rows of an.X - X.am = 0 over the pairs (am, an) in
    actions, in the row-major entries of the dn x dm matrix X.

    Row (i, j) holds an[i][k] at column k*dm + j and -am[l][j] at column
    i*dm + l; rows that vanish, as they do for trivial actions, are dropped.
    """
    from ringext.linalg import Field, Matrix

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


# ---------------------------------------------------------------------------
# the dense tensor-leg loop and the per-tensor quasibase system, kept as
# references for the sparse kernels that replaced them

def reference_tensor_legs(src, terms, dst=None):
    """sum c * (op_l (x) op_r) from src to dst, one dense ambient vector
    per source quotient basis class x (x) y, projected by reduction by
    dst's relations, which must present the ambient, and set side by
    side."""
    from ringext.linalg import Matrix
    from tests.helpers import residual

    dst = dst or src
    f = src.left_factor.field
    dm, dn = dst.left_factor.dim, dst.right_factor.dim
    sparse = [(c, op_l.transpose().pairs, op_r.transpose().pairs)
              for c, op_l, op_r in terms if c]
    cols = []
    for x, y in src.basis_tensors:
        w = [f.zero] * (dm * dn)
        for c, lcols, rcols in sparse:
            for (u, xu), (v, yv) in product(x, y):
                for r, a in lcols[u]:
                    ca, base = f.mul(f.mul(c, f.mul(xu, yv)), a), r * dn
                    for k, b in rcols[v]:
                        w[base + k] = f.of(w[base + k] + f.mul(ca, b))
        reduced = residual(dst.relations, w)
        cols.append(tuple((k, reduced[c]) for k, c in enumerate(dst.free_cols)
                          if reduced[c]))
    return Matrix.from_cols(f, len(dst.free_cols), cols)


def reference_presentation(tp):
    """For a tensor product with a factor recording a generating set X over
    the middle algebra C (m = sum x.C or n = sum C.y), the one with the
    smaller ambient |X| * (dim of the other factor), the left one on a
    tie: (side, moved, relations), with side the presented factor's,
    moved(u, v) the dense vector of the other factor's X-th power that
    e_u (x) e_v is moved to (block x holding t_u,x.e_v, or e_u.t_v,x on
    the right), for a lift t solved on its own by span_decide, and
    relations the span of the images of every basis element of the
    other factor under every element of the kernel K of C^X -> the
    presented factor (all of K, not generators of it).  None when
    neither factor records one."""
    from ringext.linalg import (Matrix, Subspace, dense, kernel, lin_comb,
                                span_decide)
    from tests.helpers import dense_vector

    m, n = tp.left_factor, tp.right_factor
    found = []
    if m.generating_set is not None and m.generating_set[0] == "right":
        xs = m.generating_set[1]
        found.append((len(xs) * n.dim, "left", m, xs, m.right_action, n,
                      n.left_action))
    if n.generating_set is not None and n.generating_set[0] == "left":
        xs = n.generating_set[1]
        found.append((len(xs) * m.dim, "right", n, xs, n.left_action, m,
                      m.right_action))
    if not found:
        return None
    _, side, cyc, xs, acts, other, other_acts = min(found, key=lambda c: c[0])
    f, k, nx, od = m.field, len(acts), len(xs), other.dim
    images = [op.apply(g) for g in xs for op in acts]
    lifts = [span_decide(f, cyc.dim, images, ((u, f.one),))
             for u in range(cyc.dim)]
    assert all(t is not None for t in lifts), "the recorded set generates"
    lifts = [dense(f, nx * k, t) for t in lifts]
    ann = [dense(f, nx * k, j) for j in kernel(
        Matrix(f, nx * k, cyc.dim, tuple(images)).transpose())]

    def spread(t: list, v: int) -> list:
        """Block x holds t_x acting on e_v of the other factor."""
        return [y for i in range(nx) for y in dense_vector(f, od, lin_comb(
            f, od, od, as_pairs(t[i * k:(i + 1) * k]), other_acts).col(v))]

    relations = Subspace.from_vectors(f, nx * od, [
        as_pairs(spread(j, v)) for j in ann for v in range(od)])

    def moved(u: int, v: int) -> list:
        t, w = (lifts[u], v) if side == "left" else (lifts[v], u)
        return spread(t, w)
    return side, moved, relations


def reference_class(space, ambient):
    """The class of a dense vector modulo space, as a pair vector of its
    dense residual at the non-pivot columns."""
    from tests.helpers import residual

    reduced = residual(space, ambient)
    pivots = set(space.pivots)
    free = [c for c in range(space.ambient_dim) if c not in pivots]
    return tuple((k, reduced[c]) for k, c in enumerate(free) if reduced[c])


def reference_is_bimodule_map(src, dst, mat):
    """mat has the shape of a map src -> dst and commutes with the action
    of every basis element of both algebras."""
    from ringext.bimodule import intertwines

    return (mat.rows == dst.dim and mat.cols == src.dim
            and intertwines(mat, zip(src.left_action, dst.left_action))
            and intertwines(mat, zip(src.right_action, dst.right_action)))


def reference_d2_quasibase(cr, side, reverse_order=False):
    """find_d2_quasibase with every generator built as
    act(value(s, x, y)) applied to t at each free point, per (t, s)."""
    from ringext.certify import D2Certificate, QuasibasePair, _d2_side
    from ringext.linalg import lin_comb, span_decide_pairs
    from tests.helpers import dense_vector

    actions, value, free = _d2_side(cr, side)
    n = cr.ext.total.dim

    def act(x):
        return lin_comb(cr.field, cr.dim_q, cr.dim_q, x, actions)

    step, dq = -1 if reverse_order else 1, cr.dim_q
    tensors = cr.tensor_space.basis.pairs[::step]
    endos = cr.endo_space.basis[::step]

    def stacked(vector_at) -> tuple:
        return as_pairs([c for x, y in free
                         for c in dense_vector(cr.field, dq, vector_at(x, y))])
    found = span_decide_pairs(
        cr.field, n * dq, tensors, endos,
        lambda t, s: stacked(lambda x, y: act(value(s, x, y)).apply(t)),
        stacked(cr.q.pure))
    if found is None:
        return None
    return D2Certificate(side, [
        QuasibasePair(tensors[i], lin_comb(cr.field, n, n, c, endos))
        for i, c in found[::step]], reverse_order=reverse_order)


# ---------------------------------------------------------------------------
# the full summand search and the multiply-every-basis-element closures,
# kept as references for the searches and spins that replaced them

def reference_summand_witness(m, n, hom):
    """summand_witness over every composite back_b @ into_a written as a
    full (dim m)^2 vector, solved in one span_decide_pairs system."""
    from ringext.bimodule import SummandWitness
    from ringext.linalg import Matrix, span_decide_pairs

    into_space, back_space = hom(m, n), hom(n, m)
    found = span_decide_pairs(
        m.field, m.dim * m.dim, into_space.basis, back_space.basis,
        lambda fa, gb: (gb @ fa).vec(), Matrix.identity(m.field, m.dim).vec())
    if found is None:
        return None
    return SummandWitness(m, n, [(into_space.basis[a], back_space.element(c))
                                 for a, c in found])


def reference_ideal_closure(a, generators):
    """The span of the generators, multiplied by every basis element on
    both sides and re-spanned until its dimension stops growing."""
    from ringext.linalg import Subspace

    span = Subspace.from_vectors(a.field, a.dim, generators)
    while True:
        vecs = list(span.basis.pairs)
        for v in span.basis.pairs:
            for i in range(a.dim):
                vecs.append(a.basis_left_mult(i).apply(v))
                vecs.append(a.basis_right_mult(i).apply(v))
        grown = Subspace.from_vectors(a.field, a.dim, vecs)
        if grown.dim == span.dim:
            return grown
        span = grown


def reference_translate_span(field, dim, ops, vectors):
    """The span of op(v) over all listed operators and vectors."""
    from ringext.linalg import Subspace

    return Subspace.from_vectors(field, dim,
                                 [op.apply(v) for v in vectors for op in ops])


# ---------------------------------------------------------------------------
# the dense multiply loop, the dense algebra validation and the basis-wide
# linearity checks, kept as references for the pair multiply, the sparse
# validation and the generator checks

def reference_multiply(a, x, y):
    """x y for dense x and y, as a dense list: for each pair of nonzero
    entries x_i and y_j, the dense structure vector e_i e_j scaled by
    x_i y_j and added in place."""
    from tests.helpers import dense_vector

    f, n = a.field, a.dim
    out = [f.zero] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = f.mul(xi, yj)
            for k, s in enumerate(dense_vector(f, n, a.mult[i][j])):
                if s:
                    out[k] = f.of(out[k] + f.mul(c, s))
    return out


def reference_validation_fault(field, dim, mult, unit):
    """The message FDAlgebra.validate gives well-shaped structure constants,
    or None, by the dense multiply loops it replaced: the unit against
    every basis element, then (e_i e_j) e_k against e_i (e_j e_k) for each
    generator i."""
    from ringext.algebra import FDAlgebra
    from tests.helpers import dense_vector

    a = FDAlgebra(field, dim, mult, unit, _validated=True)
    e = [dense_vector(field, dim, ((j, field.one),)) for j in range(dim)]
    table = [[dense_vector(field, dim, v) for v in row] for row in a.mult]
    one = dense_vector(field, dim, a.unit)
    for j in range(dim):
        if reference_multiply(a, one, e[j]) != e[j]:
            return f"unit fails on the left at basis {j}"
        if reference_multiply(a, e[j], one) != e[j]:
            return f"unit fails on the right at basis {j}"
    for i in a.generators():
        for j in range(dim):
            for k in range(dim):
                if (reference_multiply(a, table[i][j], e[k])
                        != reference_multiply(a, e[i], table[j][k])):
                    return (f"not associative: (e{i} e{j}) e{k} != "
                            f"e{i} (e{j} e{k})")
    return None


def reference_generators(a):
    """Every basis index of a: patched over FDAlgebra.generators, it makes
    each "on generators" check of the library basis-wide, as the
    linearity checks of the comparison maps were."""
    return list(range(a.dim))


# ---------------------------------------------------------------------------
# the operator-building certificate checks and the Fraction scalar decoding,
# kept as references for substitution on vectors and int decoding

def _operator_invariant(m, elements, v):
    """x.v = v.x for every listed x, through the operators of x."""
    return all(m.left_operator(x).apply(v) == m.right_operator(x).apply(v)
               for x in elements)


def reference_verify_separability(cr, cert):
    if not _operator_invariant(cr.q.module, cr.a_basis, cert.element):
        return False
    return cr.mu_matrix.apply(cert.element) == cr.ext.total.unit


def _dense_sum(f, n, vectors):
    """The sum of pair vectors, accumulated in a dense list of length n and
    returned as a pair vector."""
    out = [f.zero] * n
    for v in vectors:
        for j, x in v:
            out[j] = f.of(out[j] + x)
    return as_pairs(out)


def reference_verify_hsep(cr, cert):
    for pair in cert.pairs:
        if not _operator_invariant(cr.q.module, cr.a_basis, pair.casimir):
            return False
        if not _operator_invariant(cr.a_reg, cr.ext.iota.transpose().pairs,
                                   pair.multiplier):
            return False
    return _dense_sum(cr.field, cr.dim_q, (
        cr.q.module.right_operator(pair.multiplier).apply(pair.casimir)
        for pair in cert.pairs)) == cr.one_tensor_one()


def reference_verify_d2(cr, cert):
    """verify_d2 with act(value) formed as an operator at each free point."""
    from ringext.certify import _d2_side
    from ringext.linalg import lin_comb

    iotas = cr.ext.iota.transpose().pairs
    for pair in cert.pairs:
        if not _operator_invariant(cr.q.module, iotas, pair.tensor):
            return False
        if not reference_is_bimodule_map(cr.restricted, cr.restricted,
                                         pair.endo):
            return False
    actions, value, free = _d2_side(cr, cert.side)
    n = cr.dim_q
    return all(_dense_sum(cr.field, n, (
        lin_comb(cr.field, n, n, value(pair.endo, x, y), actions)
        .apply(pair.tensor) for pair in cert.pairs)) == cr.q.pure(x, y)
        for x, y in free)


def reference_find_hsep_system(cr):
    """find_hsep_system with each generator an operator applied to a
    Casimir basis vector, unverified."""
    from ringext.certify import HSepCertificate, HSepPair
    from ringext.linalg import span_decide_pairs

    cent, casimirs = cr.centralizer_space, cr.casimir_space.basis.pairs
    found = span_decide_pairs(
        cr.field, cr.dim_q, casimirs, cent.basis.pairs,
        lambda c, r: cr.q.module.right_operator(r).apply(c),
        cr.one_tensor_one())
    if found is None:
        return None
    return HSepCertificate([HSepPair(casimirs[i], cent.element(c))
                            for i, c in found])


def reference_rational_scalar(text):
    """QQ.of on a string by Fraction alone: its value, an int when whole
    and otherwise the library's rational type; a string Fraction refuses
    raises LinalgError with Fraction's reason."""
    from ringext.linalg import LinalgError, _rational

    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LinalgError(f"bad rational scalar {text!r}: {exc}") from None
    if q.denominator == 1:
        return q.numerator
    return _rational(q.numerator, q.denominator)


def reference_orbits(n, links):
    """The classes of 0..n-1 under the equivalence generated by the linked
    pairs, each ascending, in the order of their least members; union-find
    with every root the least member of its class."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in links:
        a, b = sorted((find(a), find(b)))
        root[b] = a
    classes = {}
    for a in range(n):
        classes.setdefault(find(a), []).append(a)
    return list(classes.values())
