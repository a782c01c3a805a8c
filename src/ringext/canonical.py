"""The three canonical rings attached to a finite-dimensional extension.

For an extension iota: B -> A this module constructs, in exact arithmetic:

* the centralizer ring R, the elements of A commuting with the image of B;
* the invariant tensor-square ring T, the base-central elements of the
  balanced tensor square Q = A (x)_B A, multiplied by letting one invariant
  act on the other through the tensor-square action;
* the bimodule endomorphism ring S of A viewed as a B-B-bimodule, under
  composition;

together with the evaluation counits from T and S back to R, the ring maps
from R into S by left and right multiplication, the Casimir subspace of
fully A-central tensors, and the bimodule structures tying everything
together (T and S as R-R-bimodules, R as a right T-module and a left
S-module, Q as a left T-module).  R is cyclic on both sides, generated by
1_R: for r in R, r (x) 1 lies in T and sandwiches 1_R to r, and
lambda_r lies in S with lambda_r(1) = r.  Both module structures record
{1_R} as their generating set, so tensor products with them are
presented as quotients of the other factor and maps out of them are
solved for their value at 1_R (bimodule.tensor_over and hom_space).
Q records none, so it is read off orbits or presented over A's unit
basis, both in ambient coordinates, in which certificates and the
canonical subspaces live.  CanonicalSpaces builds only Q, the spaces
underlying R, T and S and the Casimir subspace, which is all a
certificate verifier reads; CanonicalRings adds the rest.  Both memoize
(once); summand witnesses are keyed by module content alone, so
coinciding questions (B = A, B = k, both sides of a commutative case)
are searched once.

Elements of A, of R, T and S in their coordinates, and of Q are pair
vectors (linalg), as are the coordinates every readoff returns.

Every closure property used here (products of invariants stay invariant,
counits land in R, and so on) is a theorem given a valid extension, so a
failed coordinate readoff is reported as an InternalInconsistency, never
as a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Extension, FDAlgebra, trivial_algebra
from .bimodule import (
    Bimodule,
    InternalInconsistency,
    MapSpace,
    SummandWitness,
    TensorProduct,
    centralizer_subspace,
    hom_space,
    invariants_subspace,
    keep_side,
    one_sided,
    presenting_sets,
    regular_bimodule,
    restrict,
    summand_witness,
    tensor_legs,
    tensor_over,
    unit_generators,
)
from .linalg import Matrix, Subspace, lin_comb, rank


def coordinates_in(space, x, what: str) -> tuple:
    """Coordinates of x in a Subspace (x a pair vector) or a MapSpace (x a
    matrix), as a pair vector; x lying outside space is an
    InternalInconsistency."""
    coords = space.coordinates(x)
    if coords is None:
        raise InternalInconsistency(f"{what} lies outside {space!r}")
    return coords


def coordinate_matrix(space, items: Sequence, what: str) -> Matrix:
    """The coordinates of each item in space, as columns."""
    return Matrix.from_cols(space.field, space.dim, [
        coordinates_in(space, x, what) for x in items])


def restrict_to(space: Subspace, op: Matrix, what: str) -> Matrix:
    """An operator preserving space, in the coordinates of space."""
    cols, comb = op.transpose().pairs, space.field.comb
    return coordinate_matrix(space, [comb(cols, row) for row in space.basis.pairs],
                             what)


def ring_on(space, product, one, name: str,
            generators: Optional[list] = None) -> FDAlgebra:
    """The algebra on a product-closed space: product(i, j) is the product
    of basis elements i and j and one the unit, as space.coordinates reads
    them; generators, when known, are its generators (FDAlgebra.generators)."""
    mult = [[coordinates_in(space, product(i, j), f"product in {name}")
             for j in range(space.dim)] for i in range(space.dim)]
    unit = coordinates_in(space, one, f"unit of {name}")
    return FDAlgebra(space.field, space.dim, mult, unit, name=name,
                     generators=generators)


def content_key(x):
    """A hashable copy of what a certificate holds: its class name and
    fields, lists as tuples and matrices as shape and pairs.  A certificate
    changed in place gets a new key."""
    if isinstance(x, Matrix):
        return x.rows, x.cols, x.pairs
    if isinstance(x, (list, tuple)):
        return tuple(map(content_key, x))
    if hasattr(x, "__dict__"):
        return (type(x).__name__, *map(content_key, vars(x).values()))
    return x


class CanonicalSpaces:
    """Q = A (x)_B A, its multiplication map to A, and the spaces of R, T,
    S and the Casimir tensors, with no ring structure: all that the
    certificate verifiers and dims() read.  once builds each result asked
    for once per kind and module content, kept as long as the spaces;
    hom, tensor and summand go through it.
    """

    def __init__(self, ext: Extension) -> None:
        self.ext = ext
        self._memo: dict = {}
        self.field = ext.field
        a = ext.total

        self.a_reg = regular_bimodule(a)
        self.b_reg = regular_bimodule(ext.base)
        # A as a B-B-bimodule, the hom source and target for S
        self.restricted = restrict(restrict(self.a_reg, ext, "left"), ext,
                                   "right", label=f"{a.name}|B")

        # Q = A (x)_B A with its outer A-A-structure
        self.q = self.tensor(restrict(self.a_reg, ext, "right"),
                             restrict(self.a_reg, ext, "left"))
        self.dim_q = self.q.module.dim

        # R centralizes the embedded base, T holds the base-central tensors,
        # S the B-B-endomorphisms of A, the Casimir tensors are A-central
        self.centralizer_space = centralizer_subspace(self.a_reg, ext)
        self.tensor_space = centralizer_subspace(self.q.module, ext)
        self.endo_space = self.hom(self.restricted, self.restricted)
        self.a_basis = [((i, self.field.one),) for i in range(a.dim)]
        # basis indices generating A as a B-B-bimodule: for k[G] over k[H]
        # one per double coset HgH, the free legs of the depth-two identity
        self.bb_generators = unit_generators(self.restricted)
        self.casimir_space = invariants_subspace(
            self.q.module, [self.a_basis[i] for i in a.generators()])
        self.mu_matrix = self.q.map_out(a.dim, lambda i, j: a.mult[i][j])

    # -- results built once per module content ------------------------------

    def once(self, key: tuple, build: Callable, *modules: Bimodule):
        """build() on the first call with key and modules of these contents,
        the stored result on every later one.

        What a result depends on in a module is the identity of both acting
        algebras (hom, tensor and induced results hold modules that later
        code compares by algebra), the dimension and the action matrices,
        which the generators' actions determine (Bimodule.memo_key, kept on
        the module); labels are not read.  Each entry holds its modules,
        keeping those identities theirs.  certified keys by a certificate's
        content and summand by module content alone (plain matrices).
        """
        key += tuple(m.memo_key for m in modules)
        if key not in self._memo:
            self._memo[key] = (modules, build())
        return self._memo[key][1]

    def hom(self, m: Bimodule, n: Bimodule) -> MapSpace:
        """hom_space(m, n), built once per content of m and n."""
        return self.once(("hom",), lambda: hom_space(m, n), m, n)

    def tensor(self, m: Bimodule, n: Bimodule) -> TensorProduct:
        """tensor_over(m, n), built once per content of m and n and the
        generating sets it may present over (presenting_sets): those
        change the presentation, and so the quotient basis, though not the
        hom spaces."""
        return self.once(("tensor", *presenting_sets(m, n)),
                         lambda: tensor_over(m, n), m, n)

    def summand(self, m: Bimodule, n: Bimodule) -> Optional[SummandWitness]:
        """summand_witness(m, n, self.hom), searched once per content of m
        and n (memo_key less the algebras): the search and verify read only
        the generators' actions and the hom bases, their intertwiners' RREF."""
        found = self.once(("summand", m.memo_key[2:], n.memo_key[2:]),
                          lambda: summand_witness(m, n, self.hom))
        return found and SummandWitness(m, n, found.pairs)

    # -- coordinate helpers -------------------------------------------------

    def r_lift(self, coords: tuple) -> tuple:
        """Centralizer coordinates -> element of A."""
        return self.centralizer_space.element(coords)

    def r_coords(self, v: tuple, what: str = "element") -> tuple:
        return coordinates_in(self.centralizer_space, v, what)

    def t_coords(self, v: tuple, what: str = "element") -> tuple:
        return coordinates_in(self.tensor_space, v, what)

    def s_coords(self, mat: Matrix, what: str = "map") -> tuple:
        return coordinates_in(self.endo_space, mat, what)

    def one_tensor_one(self) -> tuple:
        a = self.ext.total
        return self.q.pure(a.unit, a.unit)

    def dims(self) -> dict:
        return {
            "algebra": self.ext.total.dim,
            "subalgebra": self.ext.base.dim,
            "tensor_square": self.dim_q,
            "centralizer": self.centralizer_space.dim,
            "tensor_ring": self.tensor_space.dim,
            "endo_ring": self.endo_space.dim,
            "casimir": self.casimir_space.dim,
        }


@dataclass(frozen=True)
class InducedModule:
    """A (x)_B m for a left module m over A, with its outer left A-action;
    as_left_t is that space as a left T-module (the right leg of a tensor
    multiplies the A factor, the left leg acts on m), and collapse is the
    action map a (x) x -> a.x onto m."""
    tensor: TensorProduct
    as_left_t: Bimodule
    collapse: Matrix


class CanonicalRings(CanonicalSpaces):
    """The canonical spaces as the rings R, T and S, with the counits,
    lambda and rho and the module structures that only analysis reads."""

    def __init__(self, ext: Extension) -> None:
        super().__init__(ext)
        a, f = ext.total, self.field
        R, T, S = self.centralizer_space, self.tensor_space, self.endo_space
        rs = R.basis.pairs

        self.centralizer = ring_on(
            R, lambda i, j: a.multiply(rs[i], rs[j]), a.unit, "R")
        # T multiplied through the tensor-square action
        self.t_action_on_q = self.t_acting_on(
            self.q, [a.basis_left_mult(j) for j in range(a.dim)])
        self.tensor_ring = ring_on(
            T, lambda i, j: f.comb(self.t_action_on_q[i].transpose().pairs,
                                   T.basis.pairs[j]),
            self.one_tensor_one(), "T")
        # S under composition
        self.endo_ring = ring_on(S, lambda i, j: S.basis[i] @ S.basis[j],
                                 Matrix.identity(f, a.dim), "S")
        self.casimir_in_tensor = Subspace.row_space(coordinate_matrix(
            T, self.casimir_space.basis.pairs, "Casimir element").transpose())

        # evaluation maps, images of the basis pairs
        mu_cols = self.mu_matrix.transpose().pairs
        self.tensor_counit = coordinate_matrix(
            R, [f.comb(mu_cols, row) for row in T.basis.pairs],
            "image of an invariant tensor under multiplication")
        self.endo_counit = coordinate_matrix(
            R, [mat.apply(a.unit) for mat in S.basis],
            "value of an endomorphism at 1")
        self.lambda_map = coordinate_matrix(
            S, [a.left_mult_matrix(row) for row in rs],
            "left multiplication by a centralizer element")
        self.rho_map = coordinate_matrix(
            S, [a.right_mult_matrix(row) for row in rs],
            "right multiplication by a centralizer element")

        # module structures
        self.q_bimodule = Bimodule(
            self.tensor_ring, a, self.dim_q, self.t_action_on_q,
            self.q.module.right_action, label="Q|T-A")
        self.tensor_bimodule_cent = self._build_t_over_r()
        self.cent_module_tensor = self._build_r_right_t()
        # R as a left S-module by evaluating endomorphisms, generated by 1_R:
        # lambda_r lies in S and lambda_r(1) = r
        self.cent_module_endo = Bimodule(
            self.endo_ring, trivial_algebra(f), R.dim,
            [restrict_to(R, mat, "endomorphism value on a centralizer element")
             for mat in S.basis], [Matrix.identity(f, R.dim)], label="R|S",
            generating_set=("left", (self.centralizer.unit,)))
        self.endo_bimodule_cent = self._build_s_over_r()

    # -- builders -----------------------------------------------------------

    def induced(self, m: Bimodule) -> InducedModule:
        """A (x)_B m, built once per content of m."""
        return self.once(("induced",), lambda: self._build_induced(m), m)

    def certified(self, verify: Callable, cert) -> bool:
        """verify(self, cert), run once per content of cert."""
        return self.once(("certified", content_key(cert)),
                         lambda: verify(self, cert))

    def _build_induced(self, m: Bimodule) -> InducedModule:
        x = self.tensor(restrict(self.a_reg, self.ext, "right"),
                        restrict(keep_side(m, "left"), self.ext, "left"))
        as_left_t = one_sided(self.tensor_ring, "left", x.module.dim,
                              self.t_acting_on(x, m.left_action))
        acts = [op.transpose().pairs for op in m.left_action]
        return InducedModule(x, as_left_t,
                             x.map_out(m.dim, lambda i, mu: acts[i][mu]))

    def t_acting_on(self, x: TensorProduct, second: Sequence[Matrix]
                    ) -> list[Matrix]:
        """Each invariant tensor t acting on x = A (x)_B m by
        a (x) v -> a t1 (x) t2.v, where second[l] acts on m as the basis
        element e_l of A."""
        a = self.ext.total
        return [tensor_legs(x, [
            (c, a.basis_right_mult(k), second[l])
            for k, row in enumerate(tm.pairs) for l, c in row])
            for tm in map(self.q.lift, self.tensor_space.basis.pairs)]

    def _build_t_over_r(self) -> Bimodule:
        """T as an R-R-bimodule: multiply the first leg on the left and the
        second leg on the right by centralizer elements."""
        a = self.ext.total
        what = "centralizer multiple of an invariant tensor"
        rows = self.centralizer_space.basis.pairs
        lefts = [restrict_to(self.tensor_space, self.q.first_leg(
            a.left_mult_matrix(r)), what) for r in rows]
        rights = [restrict_to(self.tensor_space, self.q.second_leg(
            a.right_mult_matrix(r)), what) for r in rows]
        return Bimodule(self.centralizer, self.centralizer,
                        self.tensor_space.dim, lefts, rights, label="T|R-R")

    def _build_r_right_t(self) -> Bimodule:
        """R as a right T-module: an invariant tensor sandwiches a
        centralizer element between its two legs.  1_R generates it, as
        r (x) 1 lies in T (r commutes with B) and sandwiches 1 to r, so
        the module records {1_R} as its generating set over T."""
        a = self.ext.total
        f = self.field
        rights = []
        for tm in map(self.q.lift, self.tensor_space.basis.pairs):
            nz = [(i, j, c) for i, row in enumerate(tm.pairs) for j, c in row]
            op = lin_comb(f, a.dim, a.dim, tuple(enumerate(c for *_, c in nz)),
                          [a.basis_left_mult(i) @ a.basis_right_mult(j)
                           for i, j, _ in nz])
            rights.append(restrict_to(self.centralizer_space, op,
                                      "sandwiched centralizer element"))
        return Bimodule(trivial_algebra(f), self.tensor_ring,
                        self.centralizer.dim,
                        [Matrix.identity(f, self.centralizer.dim)],
                        rights, label="R|T",
                        generating_set=("right", (self.centralizer.unit,)))

    def _build_s_over_r(self) -> Bimodule:
        """S as an R-R-bimodule by post-multiplying values on either side."""
        a = self.ext.total
        S = self.endo_space
        lefts = [coordinate_matrix(S, [a.left_mult_matrix(row) @ b for b in S.basis],
                                   "left translate of an endomorphism")
                 for row in self.centralizer_space.basis.pairs]
        rights = [coordinate_matrix(S, [a.right_mult_matrix(row) @ b for b in S.basis],
                                    "right translate of an endomorphism")
                  for row in self.centralizer_space.basis.pairs]
        return Bimodule(self.centralizer, self.centralizer,
                        self.endo_ring.dim, lefts, rights, label="S|R-R")

    # -- verification ---------------------------------------------------------

    def verify_ring_axioms(self) -> None:
        """Re-derive the structural identities the construction promises.

        Raises InternalInconsistency on any failure.  The last check, the
        endomorphism description of Q, reads the maps Q -> A off orbits or
        solves at unit vectors generating Q (hom_space), on every input.
        """
        a = self.ext.total
        R, T, S = self.centralizer, self.tensor_ring, self.endo_ring

        def check(cond: bool, msg: str) -> None:
            if not cond:
                raise InternalInconsistency(msg)

        # R's defining membership; each law here is checked on generators
        for row in self.centralizer_space.basis.pairs:
            for bi in self.ext.base_generators():
                check(a.multiply(bi, row) == a.multiply(row, bi),
                      "centralizer element does not commute with the base")

        # action laws and compatibilities packaged as bimodule validations
        self.q.module.validate()
        self.q_bimodule.validate()
        self.tensor_bimodule_cent.validate()
        self.cent_module_tensor.validate()
        self.cent_module_endo.validate()
        self.endo_bimodule_cent.validate()

        # counits are unital
        check(self.tensor_counit.apply(T.unit) == R.unit,
              "tensor counit is not unital")
        check(self.endo_counit.apply(S.unit) == R.unit,
              "endomorphism counit is not unital")

        # the tensor counit intertwines the right T-actions, and evaluating
        # a composite at 1 is acting on the inner value at 1
        eps_t, eps_s = self.tensor_counit, self.endo_counit
        for i in range(T.dim):
            for j in T.generators():
                check(eps_t.apply(T.mult[i][j]) == self.cent_module_tensor
                      .right_action[j].apply(eps_t.col(i)),
                      "tensor counit is not right T-linear")
        for i in S.generators():
            for j in range(S.dim):
                check(eps_s.apply(S.mult[i][j]) == self.cent_module_endo
                      .left_action[i].apply(eps_s.col(j)),
                      "endomorphism counit does not intertwine evaluation")

        # left and right multiplication embed R into S, one straight and
        # one order-reversing, with commuting images
        check(self.lambda_map.apply(R.unit) == S.unit,
              "left multiplication by 1 is not the identity map")
        check(self.rho_map.apply(R.unit) == S.unit,
              "right multiplication by 1 is not the identity map")
        for i in R.generators():
            li, ri = self.lambda_map.col(i), self.rho_map.col(i)
            for j in range(R.dim):
                check(self.lambda_map.apply(R.mult[i][j])
                      == S.multiply(li, self.lambda_map.col(j)),
                      "left multiplication does not respect products")
                check(self.rho_map.apply(R.mult[i][j])
                      == S.multiply(self.rho_map.col(j), ri),
                      "right multiplication does not reverse products")
            for j in R.generators():
                rj = self.rho_map.col(j)
                check(S.multiply(li, rj) == S.multiply(rj, li),
                      "left and right multiplications fail to commute")

        # Casimir elements sit inside T and absorb T from the left
        for crow in self.casimir_in_tensor.basis.pairs:
            for i in T.generators():
                check(self.casimir_in_tensor.contains(
                    T.basis_left_mult(i).apply(crow)),
                      "Casimir subspace is not a left ideal")

        # multiplication maps the tensor square onto A
        check(rank(self.mu_matrix) == a.dim,
              "multiplication map is not onto")
        self._verify_endo_description_of_q()

    def _verify_endo_description_of_q(self) -> None:
        """The A-A-maps from the tensor square to A are exactly the maps
        sandwiching a centralizer element, matching R dimension for
        dimension, with mutually inverse translations."""
        maps = self.hom(self.q.module, self.a_reg)
        if maps.dim != self.centralizer.dim:
            raise InternalInconsistency(
                "tensor-square-to-algebra map space does not match the centralizer")
        one = self.one_tensor_one()
        for mat in maps.basis:
            val = mat.apply(one)
            r = self.r_coords(val, "value of a two-sided map at 1 (x) 1")
            back = self._sandwich_map(self.r_lift(r))
            if back != mat:
                raise InternalInconsistency(
                    "sandwich map does not reproduce the original map")
        for row in self.centralizer_space.basis.pairs:
            mat = self._sandwich_map(row)
            coordinates_in(maps, mat, "sandwich map")
            val = mat.apply(one)
            if val != row:
                raise InternalInconsistency(
                    "sandwich map does not evaluate back to its element")

    def _sandwich_map(self, r: tuple) -> Matrix:
        """The map from the tensor square to A placing r between the legs."""
        a, e = self.ext.total, self.a_basis
        return self.q.map_out(a.dim, lambda i, j: a.multiply(
            a.multiply(e[i], r), e[j]))


def build_canonical_rings(ext: Extension) -> CanonicalRings:
    """Construct all canonical rings for an extension and verify the
    structural identities they must satisfy."""
    rings = CanonicalRings(ext)
    rings.verify_ring_axioms()
    return rings
