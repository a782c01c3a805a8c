"""Verified isomorphisms between module categories over an extension.

For an extension with total algebra A, base B, centralizer ring, tensor
ring and endomorphism ring, several functors between the module
categories of these rings are connected by explicit structural maps:
the action map on the centralizer-tensor of an induced module, the
collapse of the tensor ring against the total algebra, hom-tensor
adjunction maps, and the generic evaluation map of a pair of modules
over one ring.

Everything here works on concrete finite-dimensional modules.  Each
constructor builds the forward matrix of the structural map, decides
bijectivity by exact rank, and, when a certificate (separability
element, conditional expectation, quasibase) is supplied, constructs
the predicted inverse formula and verifies both composites.  A
naturality square is linear in the module map, sends the identity to the
identity and respects composition, so the endomorphisms whose squares
commute form a unital subalgebra: it is checked exactly on composition
generators of the endomorphism space of the module the functors are
applied to (MapSpace.generators, found once per End space), which proves
it for every endomorphism.
Missing certificates and failed checks produce reports, never
exceptions; an exception means either bad input or an internal bug.

All constructors share one engine: bimodule.intertwines for every
linearity and naturality square; the leg operators, the pair-valued
classes of pure tensors and map_out of TensorProduct, which assembles
every map out of a tensor product; _on_hom for operators induced on map
spaces, _certify_inverse for certified inverses, and _comparison for the
naturality squares, status, route and result.  Linearity over a ring is
checked on its generators: both sides are representations, so the ring
elements a map intertwines form a subalgebra.  Each map is built once per
CanonicalRings (CanonicalSpaces.once, keyed by module and certificate
content, never by label): pi for gamma and the induction comparison,
which pi_A_iso is on the regular module, chi with its inverse for chi_M
and rho_M, and End(m) with its precomposition module for
evaluation_map; End(m) takes the composition generators its MapSpace
found.  The modules that the products and hom spaces over R, S or End(m)
are built from record a generating set where they are built
(bimodule.generated), so those are presented over it, and operators that
only some callers read are built on first read.  Each public builder
formats the domain and codomain it reports from its own module's label.
A supplied certificate is substituted once per content
(CanonicalRings.certified), usually already by the search in classify.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import cache
from typing import Callable, Optional, Sequence

from .algebra import FDAlgebra
from .bimodule import (
    Bimodule,
    BimoduleError,
    MapSpace,
    OnRead,
    TensorProduct,
    dual_basis_witness,
    generated,
    intertwines,
    keep_side,
    one_sided,
    restrict,
    tensor_map,
)
from .canonical import (CanonicalRings, InternalInconsistency, content_key,
                        coordinate_matrix, coordinates_in, ring_on)
from .certify import (
    D2Certificate,
    SeparabilityCertificate,
    SplitCertificate,
    verify_d2,
    verify_separability,
    verify_split,
)
from .linalg import Matrix, invert


# ---------------------------------------------------------------------------
# result type

@dataclass
class VerifiedIso:
    """Outcome of building one structural map between two modules.

    status values:
      verified       bijective, and a certificate-predicted inverse formula
                     was constructed and both composites checked
      bijective      bijective by exact rank; the stored inverse comes from
                     elimination, no formula route was certified
      not-bijective  the map exists but is not invertible
      inapplicable   a hypothesis needed to even build the map is missing

    checks holds named boolean side conditions (linearity over the various
    rings, triangle identities, composite agreements).  naturality_samples
    is the dimension of the endomorphism space proved natural; its
    squares are checked at the space's composition generators, and
    checks["naturality"] holds when all of them commute, and then every
    endomorphism's square commutes.
    """

    name: str
    domain: str
    codomain: str
    domain_dim: int
    codomain_dim: int
    status: str
    route: str = ""
    forward: Optional[Matrix] = None
    backward: Optional[Matrix] = None
    naturality_samples: int = 0
    checks: dict = dataclass_field(default_factory=dict)
    detail: str = ""


# ---------------------------------------------------------------------------
# the comparison-map engine

_NO_QUASIBASE = "no left quasibase supplied; formula inverse not certified"

# e -> (the operator e induces on the domain, the one on the codomain)
Square = Callable[[Matrix], tuple[Matrix, Matrix]]


def _on_hom(hs: MapSpace, fn: Callable[[Matrix], Matrix]) -> Matrix:
    """The operator h -> fn(h) induced on hs, in its coordinates."""
    return coordinate_matrix(hs, [fn(h) for h in hs.basis], "a structural map")


def _certify_inverse(fwd: Matrix, back: Matrix, failure: str) -> bool:
    """Check both composites of an inverse built from a certificate.

    The certificate was verified first, so a failure is an internal bug.
    """
    f = fwd.field
    if (fwd @ back != Matrix.identity(f, fwd.rows)
            or back @ fwd != Matrix.identity(f, fwd.cols)):
        raise InternalInconsistency(failure)
    return True


def _check_left_quasibase(cr: CanonicalRings, qb: Optional[D2Certificate],
                          what: str) -> None:
    """A supplied quasibase must be left-sided and pass substitution."""
    if qb is None:
        return
    if qb.side != "left":
        raise BimoduleError(f"{what} needs a left quasibase")
    if not cr.certified(verify_d2, qb):
        raise BimoduleError("quasibase certificate failed verification")


def _postcompose_square(hs: MapSpace, tp: TensorProduct) -> Square:
    """The naturality square of an evaluation tp -> hs.target whose first
    leg is hs: e postcomposes on the hom leg and acts on the target."""
    return lambda e: (tp.first_leg(_on_hom(hs, lambda h: e @ h)), e)


def _comparison(name: str, fwd: Matrix, domain: str, codomain: str,
                checks: dict, endos: MapSpace, square: Square,
                back: Optional[Matrix] = None, route: str = "",
                detail: str = "") -> VerifiedIso:
    """Check naturality on the generators of endos and choose status and
    route.

    square(e) gives the operators an endomorphism e induces on the domain
    and on the codomain.  Both are linear in e, send the identity to the
    identity and respect composition, so the e whose square commutes form
    a unital subalgebra, and commuting at the composition generators of
    endos (MapSpace.generators, found once per End space) proves
    naturality for all of it.  back is an inverse already passed through
    _certify_inverse, and route names its certificate.  Without one,
    bijectivity is decided by exact rank and the stored inverse comes
    from elimination.
    """
    checks["naturality"] = intertwines(
        fwd, (square(endos.basis[g]) for g in endos.generators))
    if back is not None:
        status = "verified"
    else:
        back = invert(fwd)
        status = "bijective" if back is not None else "not-bijective"
        route = "exact-rank"
    return VerifiedIso(
        name=name, domain=domain, codomain=codomain, domain_dim=fwd.cols,
        codomain_dim=fwd.rows, status=status, route=route, forward=fwd,
        backward=back, naturality_samples=endos.dim, checks=checks,
        detail=detail)


# ---------------------------------------------------------------------------
# small helpers

def _gather(transposed: Sequence[Matrix], mu: int) -> Matrix:
    """The matrix whose k-th column is row mu of transposed[k]."""
    t = transposed[0]
    return Matrix.from_cols(t.field, t.cols, [op.pairs[mu] for op in transposed])


def _leg_ops(cr: CanonicalRings, act: Callable[[tuple], Matrix],
             tensor: tuple) -> list[Matrix]:
    """act(t_k) for t = sum_k e_k (x) t_k in the tensor square."""
    return [act(row) for row in cr.q.lift(tensor).pairs]


def _sum(f, vectors: list) -> tuple:
    """The sum of the pair vectors, one comb."""
    return f.comb(vectors, [(k, f.one) for k in range(len(vectors))])


def _require_module(m: Bimodule, side: str, ring: FDAlgebra) -> None:
    if (m.left_algebra if side == "left" else m.right_algebra) != ring:
        raise BimoduleError(
            f"{m.label}: expected a {side} module over {ring.name}")


# ---------------------------------------------------------------------------
# induced module machinery

def _collapse(m: Bimodule, outer: TensorProduct, inner: TensorProduct,
              element: Callable[[int, int], tuple],
              side: str = "left") -> Matrix:
    """r (x) (s (x) v) -> element(r, s).v, column per quotient class, or
    on the right (v (x) s) (x) r -> v.element(r, s).

    outer is R (x) inner (inner (x) R on the right), r and s are basis
    indices, and for each r the map out of inner is assembled by
    inner.map_out.
    """
    left = side == "left"
    act = m.left_operator if left else m.right_operator
    # a column function, its arguments swapped on the right
    ordered = (lambda col: col) if left else (lambda col: lambda i, j: col(j, i))

    @cache
    def op_cols(u: int, s: int) -> tuple:
        return act(element(u, s)).transpose().pairs

    @cache
    def at(u: int) -> tuple:
        return inner.map_out(m.dim, ordered(lambda s, mu: op_cols(u, s)[mu])
                             ).transpose().pairs
    return outer.map_out(m.dim, ordered(lambda u, v: at(u)[v]))


def _gamma(cr: CanonicalRings, m: Bimodule
           ) -> tuple[InducedModule, TensorProduct, Matrix, bool]:
    """gamma(r (x) (a (x) v)) = (a r).v on R (x)_T (A (x)_B m), and whether
    it satisfies the triangle identity against the induced collapse."""
    f, a = cr.field, cr.ext.total
    ind = cr.induced(m)
    x = ind.tensor
    g = cr.tensor(cr.cent_module_tensor, keep_side(ind.as_left_t, "left"))
    rows = cr.centralizer_space.basis.pairs
    # e_i r is the combination of the e_i e_j at r's nonzero entries r_j
    gamma = _collapse(m, g, x, lambda u, i: f.comb(a.mult[i], rows[u]))
    # the section xi -> 1 (x) xi from the induced module into g
    runit = cr.centralizer.unit
    psi = Matrix.from_cols(f, g.module.dim, [g.pure(runit, ((v, f.one),))
                                             for v in range(x.module.dim)])
    return x, g, gamma, gamma @ psi == ind.collapse


def _through_legs(cr: CanonicalRings, m: Bimodule, x: TensorProduct,
                  tensor: tuple) -> Matrix:
    """v -> t1 (x) t2.v from m into x = A (x)_B m for a tensor t.

    With t = sum_k e_k (x) t_k, the image of v is the class of the ambient
    element whose row k is t_k.v.
    """
    ops = [op.transpose().pairs for op in _leg_ops(cr, m.left_operator, tensor)]
    return Matrix.from_cols(cr.field, x.module.dim, [
        x.project(Matrix(cr.field, len(ops), m.dim, tuple(op[mu] for op in ops)))
        for mu in range(m.dim)])


def _t_as_right_r(cr: CanonicalRings) -> Bimodule:
    """The tensor ring as a left module over itself and a right module
    over the centralizer (through its embedding as two-sided tensors),
    recording a generating set over the centralizer; built once."""
    t = cr.tensor_ring
    return cr.once(("T as T-R",), lambda: generated(Bimodule(
        t, cr.centralizer, t.dim, [t.basis_left_mult(i) for i in range(t.dim)],
        cr.tensor_bimodule_cent.right_action, label="T"), "right"))


def _m_over_r(cr: CanonicalRings, m: Bimodule, side: str) -> Bimodule:
    """m as a centralizer module on side, through m's action there,
    recording a generating set; built once per content of m and side."""
    rows = cr.centralizer_space.basis.pairs
    operator = m.left_operator if side == "left" else m.right_operator
    return cr.once(("m as R", side), lambda: generated(one_sided(
        cr.centralizer, side, m.dim, OnRead(
            len(rows), lambda i: operator(rows[i]))), side), m)


def _pi_matrix(cr: CanonicalRings, m: Bimodule, x: TensorProduct,
               y: TensorProduct) -> Matrix:
    """pi(t (x) v) = t1 (x) t2.v from the tensor-ring side to the induced
    module, column per quotient class of y."""
    legs = cache(lambda ti: _through_legs(
        cr, m, x, cr.tensor_space.basis.pairs[ti]).transpose().pairs)
    return y.map_out(x.module.dim, lambda ti, mu: legs(ti)[mu])


def _pi(cr: CanonicalRings, m: Bimodule
        ) -> tuple[TensorProduct, TensorProduct, Matrix]:
    """x = A (x)_B m, y = T (x)_R m and pi: y -> x, built once per content
    of m for gamma and the induction comparison."""
    x = cr.induced(m).tensor
    y = cr.tensor(_t_as_right_r(cr), _m_over_r(cr, m, "left"))
    return x, y, cr.once(("pi",), lambda: _pi_matrix(cr, m, x, y), m)


def _quasibase_to_y(cr: CanonicalRings, m: Bimodule, x: TensorProduct,
                    y: TensorProduct, pairs) -> Matrix:
    """a (x) v -> sum_p t_p (x) beta_p(a).v, the certified inverse of pi."""
    pre = [(cr.t_coords(p.tensor), p.endo) for p in pairs]
    return x.map_out(y.module.dim, lambda i, mu: y.sum_pure(
        (tco, m.left_operator(endo.col(i)).col(mu)) for tco, endo in pre))


# ---------------------------------------------------------------------------
# gamma and the triangle

def gamma_M(cr: CanonicalRings, m: Bimodule,
            separability: Optional[SeparabilityCertificate] = None,
            left_quasibase: Optional[D2Certificate] = None) -> VerifiedIso:
    """The action map from the centralizer-tensor of an induced module.

    For a left module m over the total algebra, builds
    R (x)_T (A (x)_B m) and the map gamma(r (x) a (x) v) = (a r).v.
    A separability element certifies the inverse v -> 1 (x) e1 (x) e2.v.
    A left quasibase certifies bijectivity by factoring gamma through the
    unconditional collapse of R (x)_T (T (x)_R m).  Without certificates
    the map is still built and bijectivity decided by exact rank.
    """
    _require_module(m, "left", cr.ext.total)
    if separability is not None and not cr.certified(verify_separability,
                                                     separability):
        raise BimoduleError("separability certificate failed verification")
    _check_left_quasibase(cr, left_quasibase, "gamma certification")
    f, a = cr.field, cr.ext.total
    x, g, gamma, triangle = _gamma(cr, m)
    checks: dict = {"triangle": triangle}

    # gamma always intertwines whatever outer structure m carries
    if m.right_algebra == a:
        lefts, rights = m.generator_actions()
        checks["left_linear"] = intertwines(gamma, (
            (g.second_leg(op), mop)
            for op, mop in zip(x.module.generator_actions()[0], lefts)))
        checks["right_linear"] = intertwines(gamma, (
            (g.second_leg(x.second_leg(op)), op) for op in rights))

    back, route = None, ""
    if separability is not None:
        legs = _through_legs(cr, m, x, separability.element)
        back = Matrix.from_cols(f, g.module.dim, [
            g.pure(cr.centralizer.unit, col) for col in legs.transpose().pairs])
        checks["separability_inverse"] = _certify_inverse(
            gamma, back,
            "a verified separability element must invert the action map")
        route = "separability-element"

    if left_quasibase is not None:
        _, y, pi = _pi(cr, m)
        w = cr.tensor(cr.cent_module_tensor, keep_side(y.module, "left"))
        # the unconditional collapse r (x) (t (x) v) -> (r.t).v, where r.t
        # is the right tensor-ring action on the centralizer (a sandwich)
        delta = _collapse(m, w, y, lambda u, ti: cr.r_lift(
            cr.cent_module_tensor.right_action[ti].col(u)))
        delta_inv = invert(delta)
        if delta_inv is None:
            raise InternalInconsistency(
                "the collapse through the tensor ring is always bijective")
        top = tensor_map(w, g, Matrix.identity(f, cr.centralizer.dim), pi)
        through = top @ delta_inv
        # gamma @ top equals the collapse exactly when top @ collapse^-1 is
        # a right inverse of gamma; the left composite proves bijectivity
        checks["factors_through_collapse"] = _certify_inverse(
            gamma, through, "a verified left quasibase must make the "
            "induced-module comparison map bijective")
        checks["quasibase_route"] = True
        if back is None:
            back, route = through, "left-quasibase-collapse"

    m1 = keep_side(m, "left")
    return _comparison("gamma", gamma, f"R(x)T[A(x)B[{m.label}]]", m.label,
                       checks, cr.hom(m1, m1),
                       lambda e: (g.second_leg(x.second_leg(e)), e),
                       back, route)


def triangle_check(cr: CanonicalRings, m: Bimodule) -> bool:
    """The action map of an induced module factors through gamma.

    Collapsing A (x)_B m by acting equals gamma after inserting the unit
    of the centralizer.  This uses no hypotheses on the extension.
    """
    _require_module(m, "left", cr.ext.total)
    return _gamma(cr, m)[3]


# ---------------------------------------------------------------------------
# the tensor-ring comparison and the induced functor isomorphisms

def pi_A_iso(cr: CanonicalRings,
             left_quasibase: Optional[D2Certificate] = None) -> VerifiedIso:
    """T (x)_R A against the tensor square, t (x) a -> t1 (x) t2.a.

    A left quasibase certifies the inverse x (x) y -> sum t_p (x)
    beta_p(x).y.  The map always intertwines the left tensor-ring action
    and both outer actions of the total algebra; those checks run
    unconditionally.
    """
    _check_left_quasibase(cr, left_quasibase, "induction comparison")
    return _induction_comparison(cr, cr.a_reg, left_quasibase, "pi_A")


def functor_iso_checks(cr: CanonicalRings, m: Bimodule,
                       left_quasibase: Optional[D2Certificate] = None) -> dict:
    """Induction from the base against induction from the centralizer.

    For a left module m over the total algebra, compares A (x)_B m with
    T (x)_R m and with the space of centralizer-linear maps from the endo
    ring to m.  With a left quasibase both comparison maps are certified
    isomorphisms; without one, each report carries the failing ingredient.
    """
    _require_module(m, "left", cr.ext.total)
    _check_left_quasibase(cr, left_quasibase, "induction comparison")
    collapse = _induction_comparison(cr, m, left_quasibase, "induction")
    if collapse.backward is not None:
        # report the map from the base-induced module to the other one
        induction = replace(
            collapse, domain=collapse.codomain, codomain=collapse.domain,
            domain_dim=collapse.codomain_dim, codomain_dim=collapse.domain_dim,
            forward=collapse.backward, backward=collapse.forward)
    else:
        induction = replace(collapse, detail="comparison map is not "
                            "bijective; reporting the collapse direction")
    coinduction = _coinduction_comparison(cr, m, cr.induced(m).tensor,
                                          left_quasibase)
    return {"induction": induction, "coinduction": coinduction}


def centralizer_projectivity(cr: CanonicalRings) -> dict:
    """Whether the tensor ring is finitely generated projective as a right
    centralizer module and the endo ring as a left one; neither depends on
    a module, so a report asks once."""
    return {
        "tensor_ring_fg_projective_over_centralizer": dual_basis_witness(
            cr.tensor_bimodule_cent, cr.centralizer, "right", cr.summand) is not None,
        "endo_ring_fg_projective_over_centralizer": dual_basis_witness(
            cr.endo_bimodule_cent, cr.centralizer, "left", cr.summand) is not None,
    }


def _induction_comparison(cr: CanonicalRings, m: Bimodule,
                          left_quasibase: Optional[D2Certificate],
                          name: str) -> VerifiedIso:
    """The always-constructible collapse pi from T (x)_R m to A (x)_B m,
    built once per content of m and quasibase and reported under name and
    m's label.

    A left quasibase, already verified by the caller, certifies its
    inverse.
    """
    def build() -> VerifiedIso:
        a, ext = cr.ext.total, cr.ext
        x, y, pi = _pi(cr, m)
        checks: dict = {
            "tensor_ring_linear": intertwines(pi, zip(
                y.module.generator_actions()[0],
                cr.induced(m).as_left_t.generator_actions()[0])),
            # the base acts on the second leg on the tensor-ring side and
            # by the outer action on the induced side
            "base_linear": intertwines(pi, (
                (y.second_leg(m.left_operator(b)), x.module.left_operator(b))
                for b in ext.base_generators())),
        }
        if m.right_algebra == a:
            checks["right_linear"] = intertwines(pi, (
                (y.second_leg(op), x.second_leg(op))
                for op in m.generator_actions()[1]))

        back = None
        if left_quasibase is not None:
            back = _quasibase_to_y(cr, m, x, y, left_quasibase.pairs)
            checks["quasibase_inverse"] = _certify_inverse(
                pi, back, "a verified left quasibase must invert the "
                "induced-module comparison map")

        m1 = keep_side(m, "left")
        return _comparison("", pi, "", "", checks, cr.hom(m1, m1),
                           lambda e: (y.second_leg(e), x.second_leg(e)),
                           back, "left-quasibase",
                           "" if left_quasibase is not None else _NO_QUASIBASE)

    # one verdict serves every module of m's content
    iso = cr.once(("induction", content_key(left_quasibase)), build, m)
    return replace(iso, name=name, domain=f"T(x)R[{m.label}]",
                   codomain=f"A(x)B[{m.label}]", checks=dict(iso.checks))


def _coinduction_comparison(cr: CanonicalRings, m: Bimodule,
                            x: TensorProduct,
                            left_quasibase: Optional[D2Certificate]
                            ) -> VerifiedIso:
    """A (x)_B m against centralizer-linear maps from the endo ring to m.

    Forward: a (x) v goes to the map alpha -> alpha(a).v.  A left
    quasibase certifies the inverse F -> sum_p t_p1 (x) t_p2.F(beta_p).
    """
    f, ext = cr.field, cr.ext
    s_basis = cr.endo_space.basis
    s_left_r = one_sided(cr.centralizer, "left", cr.endo_ring.dim,
                         cr.endo_bimodule_cent.left_action)
    homsp = cr.hom(s_left_r, _m_over_r(cr, m, "left"))

    @cache
    def values_at(i: int) -> list[Matrix]:
        return [m.left_operator(sb.col(i)).transpose() for sb in s_basis]

    fwd = x.map_out(homsp.dim, lambda i, mu: coordinates_in(
        homsp, _gather(values_at(i), mu), "a structural map"))
    base = [(x.module.left_operator(b), m.left_operator(b))
            for b in ext.base_generators()]
    s = cr.endo_ring
    checks: dict = {
        "base_linear": intertwines(fwd, (
            (xb, _on_hom(homsp, lambda h: mb @ h)) for xb, mb in base)),
        # the endo ring applies to the first leg on the induced side and
        # precomposes on the hom side
        "endo_ring_linear": intertwines(fwd, (
            (x.first_leg(s_basis[j]),
             _on_hom(homsp, lambda h: h @ s.basis_right_mult(j)))
            for j in s.generators())),
    }

    back = None
    if left_quasibase is not None:
        pre = [(cr.s_coords(p.endo), _through_legs(cr, m, x, p.tensor))
               for p in left_quasibase.pairs]
        back = Matrix.from_cols(f, x.module.dim, [_sum(f, [
            legs.apply(h.apply(sco)) for sco, legs in pre]) for h in homsp.basis])
        checks["quasibase_inverse"] = _certify_inverse(
            fwd, back, "a verified left quasibase must invert the "
            "coinduction comparison map")

    m1 = keep_side(m, "left")
    return _comparison("coinduction", fwd, f"A(x)B[{m.label}]",
                       f"HomR(S,{m.label})", checks, cr.hom(m1, m1),
                       lambda e: (x.second_leg(e),
                                  _on_hom(homsp, lambda h: e @ h)),
                       back, "left-quasibase",
                       "" if left_quasibase is not None else _NO_QUASIBASE)


# ---------------------------------------------------------------------------
# hom-side maps for right modules

def _precomposition_module(hs: MapSpace, ring: FDAlgebra,
                           endos: Sequence[Matrix]) -> Bimodule:
    """hs as a right module over a ring of endomorphisms of its source,
    the basis element endos[j] acting by precomposition (built on first
    read), recording a generating set."""
    return generated(one_sided(ring, "right", hs.dim, OnRead(
        len(endos), lambda j: _on_hom(hs, lambda h: h @ endos[j]))), "right")


def _hom_from_total(cr: CanonicalRings, target: Bimodule
                    ) -> tuple[MapSpace, Bimodule]:
    """Base-linear maps from the right-restricted total algebra to a right
    module over the base, as a right module over the endo ring through
    argument precomposition."""
    hs = cr.hom(keep_side(restrict(cr.a_reg, cr.ext, "right"), "right"), target)
    return hs, _precomposition_module(hs, cr.endo_ring, cr.endo_space.basis)


def _endo_as_r_s(cr: CanonicalRings) -> Bimodule:
    """The endo ring as a left centralizer module and right module over
    itself, recording a generating set over the centralizer; built once."""
    s = cr.endo_ring
    return cr.once(("S as R-S",), lambda: generated(Bimodule(
        cr.centralizer, s, s.dim, cr.endo_bimodule_cent.left_action,
        [s.basis_right_mult(j) for j in range(s.dim)], label="S"), "left"))


def _chi(cr: CanonicalRings, m: Bimodule,
         left_quasibase: Optional[D2Certificate]) -> tuple:
    """(hs, h_mod, dom, chi, inverse) for a right module m, built once per
    content of m and quasibase for chi_M and rho_M.

    hs holds the base-linear maps from the total algebra to m, h_mod is hs
    as a right endo-ring module, dom is m (x)_R S and chi(v (x) alpha) =
    (a -> v.alpha(a)) maps dom into hs.  A left quasibase gives the inverse
    F -> sum_p F(t_p1).t_p2 (x) beta_p, certified; else inverse is None.
    """
    f, a = cr.field, cr.ext.total

    def build() -> tuple:
        hs, h_mod = _hom_from_total(
            cr, restrict(keep_side(m, "right"), cr.ext, "right"))
        dom = cr.tensor(_m_over_r(cr, m, "right"), _endo_as_r_s(cr))
        values_of = cache(lambda b: [
            m.right_operator(cr.endo_space.basis[b].col(k)).transpose()
            for k in range(a.dim)])
        fwd = dom.map_out(hs.dim, lambda mu, b: coordinates_in(
            hs, _gather(values_of(b), mu), "a structural map"))
        if left_quasibase is None:
            return hs, h_mod, dom, fwd, None
        pre = [(_leg_ops(cr, m.right_operator, p.tensor), cr.s_coords(p.endo))
               for p in left_quasibase.pairs]
        # F(t_p1).t_p2 is sum_k F(e_k).t_pk, and F(e_k) is h.col(k)
        back = Matrix.from_cols(f, dom.module.dim, [dom.sum_pure(
            (_sum(f, [op.apply(h.col(k)) for k, op in enumerate(ops)]), sco)
            for ops, sco in pre) for h in hs.basis])
        _certify_inverse(fwd, back, "a verified left quasibase must invert chi")
        return hs, h_mod, dom, fwd, back

    return cr.once(("chi", content_key(left_quasibase)), build, m)


def chi_M(cr: CanonicalRings, m: Bimodule,
          left_quasibase: Optional[D2Certificate] = None) -> VerifiedIso:
    """m (x)_R S against base-linear maps out of the total algebra.

    For a right module m over the total algebra, chi(v (x) alpha) is the
    map a -> v.alpha(a).  Right linearity over the endo ring is checked
    unconditionally.  A left quasibase certifies the inverse
    F -> sum_p F(t_p1).t_p2 (x) beta_p.
    """
    _require_module(m, "right", cr.ext.total)
    _check_left_quasibase(cr, left_quasibase, "chi certification")
    hs, h_mod, dom, fwd, back = _chi(cr, m, left_quasibase)
    # right endo-ring linearity, tensor side versus precomposition
    checks: dict = {"endo_ring_linear": intertwines(fwd, zip(
        dom.module.generator_actions()[1], h_mod.generator_actions()[1]))}
    if back is not None:
        checks["quasibase_inverse"] = True

    m1 = keep_side(m, "right")
    return _comparison("chi", fwd, f"{m.label}(x)R[S]", f"Hom(A,{m.label})",
                       checks, cr.hom(m1, m1),
                       lambda e: (dom.first_leg(e),
                                  _on_hom(hs, lambda h: e @ h)),
                       back, "left-quasibase",
                       "" if left_quasibase is not None else _NO_QUASIBASE)


def _counit(cr: CanonicalRings, hs: MapSpace, h_mod: Bimodule
            ) -> tuple[TensorProduct, Matrix]:
    """Evaluation at centralizer points, Hom_B(A, target) (x)_S R -> target,
    for hs and h_mod as _hom_from_total builds them."""
    dom = cr.tensor(h_mod, cr.cent_module_endo)
    rows = cr.centralizer_space.basis.pairs
    return dom, dom.map_out(hs.target.dim,
                            lambda b, u: hs.basis[b].apply(rows[u]))


def rho_M(cr: CanonicalRings, m: Bimodule,
          left_quasibase: Optional[D2Certificate] = None) -> VerifiedIso:
    """Evaluation at centralizer points, Hom(A, m) (x)_S R -> m.

    Built directly and compared against the composite route: chi into the
    hom space followed by the unconditional collapse of
    (m (x)_R S) (x)_S R.  With a left quasibase the composite certifies
    the inverse; agreement of the two constructions is always checked.
    """
    _require_module(m, "right", cr.ext.total)
    _check_left_quasibase(cr, left_quasibase, "chi certification")
    f, m1 = cr.field, keep_side(m, "right")
    hs, h_mod, chi_dom, chi_fwd, chi_back = _chi(cr, m, left_quasibase)
    dom, fwd = _counit(cr, hs, h_mod)

    # composite route through chi
    nested = cr.tensor(chi_dom.module, cr.cent_module_endo)
    big = tensor_map(nested, dom, chi_fwd, Matrix.identity(f, cr.centralizer.dim))
    rows, endos = cr.centralizer_space.basis.pairs, cr.endo_space.basis
    # (v (x) alpha) (x) r -> v.alpha(r)
    direct = _collapse(m, nested, chi_dom,
                       lambda u, b: endos[b].apply(rows[u]), "right")
    checks: dict = {"agrees_with_composite": fwd @ big == direct}
    direct_inv = invert(direct)
    if direct_inv is None:
        raise InternalInconsistency(
            "the collapse through the endo ring is always bijective")

    back = None
    if chi_back is not None and checks["agrees_with_composite"]:
        back = big @ direct_inv
        checks["composite_inverse"] = _certify_inverse(
            fwd, back, "composite route must invert the evaluation")

    return _comparison("rho", fwd, f"Hom(A,{m.label})(x)S[R]", m.label,
                       checks, cr.hom(m1, m1), _postcompose_square(hs, dom),
                       back, "composite-through-chi",
                       "" if left_quasibase is not None else _NO_QUASIBASE)


def split_counit(cr: CanonicalRings, n: Bimodule,
                 split: Optional[SplitCertificate] = None) -> VerifiedIso:
    """Evaluation Hom(A, n) (x)_S R -> n for a right module n over the base.

    A conditional expectation E certifies the inverse
    v -> (a -> v.E(a)) (x) 1.  The map intertwines the right base action
    given on the domain by precomposing with left multiplications, and,
    when n carries a left base action as well, that one too.
    """
    _require_module(n, "right", cr.ext.base)
    if split is not None and not cr.certified(verify_split, split):
        raise BimoduleError(
            "conditional expectation certificate failed verification")
    f, a, b = cr.field, cr.ext.total, cr.ext.base
    n_one = keep_side(n, "right")
    hs, h_mod = _hom_from_total(cr, n_one)
    dom, fwd = _counit(cr, hs, h_mod)

    # right base action on the domain: precompose with left multiplication
    lefts, rights = n.generator_actions()
    lmats = [a.left_mult_matrix(x) for x in cr.ext.base_generators()]
    checks: dict = {"base_linear": intertwines(fwd, (
        (dom.first_leg(_on_hom(hs, lambda h: h @ lm)), op)
        for lm, op in zip(lmats, rights)))}
    if n.left_algebra == b:
        checks["left_linear"] = intertwines(fwd, (
            (dom.first_leg(_on_hom(hs, lambda h: op @ h)), op) for op in lefts))

    back = None
    if split is not None:
        ops = [n.right_operator(split.expectation.col(k)).transpose()
               for k in range(a.dim)]
        back = Matrix.from_cols(f, dom.module.dim, [dom.pure(coordinates_in(
            hs, _gather(ops, mu), "a structural map"), cr.centralizer.unit)
            for mu in range(n.dim)])
        checks["expectation_inverse"] = _certify_inverse(
            fwd, back,
            "a verified conditional expectation must invert the counit")

    return _comparison(
        "split_counit", fwd, f"Hom(A,{n.label})(x)S[R]", n.label, checks,
        cr.hom(n_one, n_one), _postcompose_square(hs, dom), back,
        "conditional-expectation", "" if split is not None else
        "no conditional expectation supplied; formula inverse not certified")


# ---------------------------------------------------------------------------
# generic evaluation over an endomorphism ring

def evaluation_map(cr: CanonicalRings, m: Bimodule, n: Bimodule
                   ) -> VerifiedIso:
    """Hom(m, n) (x)_End(m) m -> n for right modules over one algebra C.

    The evaluation is right linear over C; bijectivity is decided by
    exact rank, and it is an isomorphism exactly when n is a summand of a
    finite power of m.  The hom spaces and the tensor product come from
    cr.hom and cr.tensor, and End(m) and Hom(m, n) as a right End(m)
    module are built once per module content, so the tensor's key
    repeats.
    """
    m1, n1 = keep_side(m, "right"), keep_side(n, "right")
    if m1.right_algebra != n1.right_algebra:
        raise BimoduleError("evaluation needs two right modules over one ring")
    end_space = cr.hom(m1, m1)
    basis = end_space.basis
    # the composition generators the naturality squares use
    end_alg = cr.once(("End",), lambda: ring_on(
        end_space, lambda i, j: basis[i] @ basis[j],
        Matrix.identity(cr.field, m1.dim), "End", end_space.generators), m1)
    hs = cr.hom(m1, n1)
    hom_mod = cr.once(("precomposition",), lambda: _precomposition_module(
        hs, end_alg, basis), m1, n1)
    tp = cr.tensor(hom_mod, generated(Bimodule(
        end_alg, m1.right_algebra, m1.dim, list(basis), m1.right_action), "left"))
    hs_cols = [h.transpose().pairs for h in hs.basis]
    fwd = tp.map_out(n1.dim, lambda b, mu: hs_cols[b][mu])
    checks: dict = {"ring_linear": intertwines(fwd, zip(
        tp.module.generator_actions()[1], n1.generator_actions()[1]))}
    return _comparison("evaluation", fwd,
                       f"Hom({m.label},{n.label})(x)End[{m.label}]", n.label,
                       checks, cr.hom(n1, n1), _postcompose_square(hs, tp))
