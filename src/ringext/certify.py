"""Decision procedures with machine-checkable certificates.

Four properties of an extension B -> A are decided here, each through an
exact linear problem whose solution doubles as a certificate:

* separable: some fully A-central tensor multiplies out to 1;
* split: some B-B-linear conditional expectation A -> B fixes 1;
* H-separable: 1 (x) 1 is a combination of A-central tensors pushed by
  centralizer elements;
* left / right depth two: the identity-leg maps x -> x (x) 1 and
  y -> 1 (x) y factor through finitely many invariant tensors paired
  with bimodule endomorphisms (quasibases).

Every verifier is substitution only: it re-checks the defining identity
of the certificate against A, B, the embedding and the tensor square
with its canonical subspaces (a CanonicalSpaces, no ring structure) and
never trusts the search that produced it.  A certificate's vectors are
pair vectors (linalg), and substitution acts on them: an element x of A
acts on a tensor v as the combination, by comb, of the images of v under
the basis actions at the nonzero entries of x (_acted), and a quasibase
tensor's images are computed when first read and shared by every free
point, so no operator of x is formed.  Invariance under A or B and
B-B-linearity are checked on generators only: the input checks make A
associative and unital and the embedding unital and multiplicative, so
A|B and the tensor square are representations, and what commutes with
the generators commutes with their algebra.  Likewise the depth-two
identity is solved and checked only with the basis elements of A
generating it as a B-B-bimodule (CanonicalSpaces.bb_generators) in its
free leg: with each tensor B-central and each endomorphism B-B-linear,
both of its sides are B-B-linear in that leg, so they agree on A once
they agree there.  A search records what it verified on its
CanonicalRings, for later consumers of the same content.  The depth-two
verdicts are cross-checked against an independent characterization (the
tensor square splitting off a finite power of the algebra as a one-sided
bimodule); those two answers agreeing is a theorem, so a mismatch raises
InternalInconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .bimodule import (
    Bimodule,
    OnRead,
    SummandWitness,
    dual_basis_witness,
    is_bimodule_map,
    keep_side,
    regular_module,
    restrict,
)
from .canonical import (CanonicalRings, CanonicalSpaces, InternalInconsistency,
                        coordinate_matrix)
from .linalg import Matrix, lin_comb, rank, span_decide, span_decide_pairs


# ---------------------------------------------------------------------------
# certificates

@dataclass
class SeparabilityCertificate:
    """A-central tensor with multiplication value 1."""
    element: tuple  # tensor-square coordinates


@dataclass
class SplitCertificate:
    """Conditional expectation: a B-B-linear retraction of the embedding."""
    expectation: Matrix  # dim(B) x dim(A)


@dataclass
class HSepPair:
    casimir: tuple    # tensor-square coordinates, fully A-central
    multiplier: tuple  # element of A lying in the centralizer


@dataclass
class HSepCertificate:
    """1 (x) 1 written as a sum of Casimir elements times centralizer
    elements (acting through the second leg)."""
    pairs: list


@dataclass
class QuasibasePair:
    tensor: tuple  # tensor-square coordinates, base-central
    endo: Matrix   # B-B-linear endomorphism of A


@dataclass
class D2Certificate:
    """Left: x (x) 1 = sum tensor_a . endo_a(x).  Right: 1 (x) y =
    sum endo_a(y) . tensor_a.  The dot is the outer action of A on the
    corresponding leg of the tensor square."""
    side: str
    pairs: list
    reverse_order: bool = False  # kept in payloads; searches run forward


# ---------------------------------------------------------------------------
# verifiers (substitution only)

def _acted(f, terms) -> tuple:
    """The sum of x.v over the terms (ops, x, v, images), x acting through
    the operators ops of the basis elements: one comb of the images of v
    under ops[k] at the nonzero x_k, each kept in images by k for the next
    call on the same v and ops."""
    vectors, coeffs = [], []
    for ops, x, v, images in terms:
        for k, c in x:
            if k not in images:
                images[k] = ops[k].apply(v)
            coeffs.append((len(vectors), c))
            vectors.append(images[k])
    return f.comb(vectors, coeffs)


def _is_invariant(m: Bimodule, elements: Sequence[tuple], v: tuple) -> bool:
    """x.v = v.x in m for every listed element x of its (one) algebra.

    Callers list generators only: m's actions are a representation and an
    anti-representation that commute, so the x with x.v = v.x form a
    subalgebra, and generators of a subalgebra suffice."""
    return all(_acted(m.field, [(m.left_action, x, v, {})])
               == _acted(m.field, [(m.right_action, x, v, {})])
               for x in elements)


def _a_generators(cr: CanonicalSpaces) -> list:
    return [cr.a_basis[i] for i in cr.ext.total.generators()]


def verify_separability(cr: CanonicalSpaces, cert: SeparabilityCertificate) -> bool:
    if not _is_invariant(cr.q.module, _a_generators(cr), cert.element):
        return False
    value = cr.mu_matrix.apply(cert.element)
    return value == cr.ext.total.unit


def verify_split(cr: CanonicalSpaces, cert: SplitCertificate) -> bool:
    f, b = cr.field, cr.ext.base
    e = cert.expectation
    if not is_bimodule_map(cr.restricted, cr.b_reg, e):
        return False
    if e.apply(cr.ext.total.unit) != b.unit:
        return False
    # a retraction: composing with the embedding gives the identity of B
    return e @ cr.ext.iota == Matrix.identity(f, b.dim)


def verify_hsep(cr: CanonicalSpaces, cert: HSepCertificate) -> bool:
    for pair in cert.pairs:
        if not _is_invariant(cr.q.module, _a_generators(cr), pair.casimir):
            return False
        if not _is_invariant(cr.a_reg, cr.ext.base_generators(), pair.multiplier):
            return False
    return _acted(cr.field, [
        (cr.q.module.right_action, pair.multiplier, pair.casimir, {})
        for pair in cert.pairs]) == cr.one_tensor_one()


def _d2_side(cr: CanonicalSpaces, side: str) -> tuple:
    """One side's quasibase identity x (x) y = sum_p act(value(endo_p, x, y))
    applied to tensor_p, as (actions, value, free points), where act(z) is
    the combination of the basis actions with the coordinates of z.

    Left: x (x) y = sum t_p . endo_p(x) y, the right outer action on Q.
    Right: x (x) y = sum x endo_p(y) . t_p, the left outer action.  The
    free points put each B-B-generator of A (bb_generators) into the free
    leg, the other being 1; the identity at them is the search's system.
    """
    a = cr.ext.total
    if side == "left":
        return (cr.q.module.right_action,
                lambda endo, x, y: a.multiply(endo.apply(x), y),
                [(cr.a_basis[k], a.unit) for k in cr.bb_generators])
    if side == "right":
        return (cr.q.module.left_action,
                lambda endo, x, y: a.multiply(x, endo.apply(y)),
                [(a.unit, cr.a_basis[k]) for k in cr.bb_generators])
    raise ValueError("side must be 'left' or 'right'")


def verify_d2(cr: CanonicalSpaces, cert: D2Certificate) -> bool:
    iotas = cr.ext.base_generators()
    for pair in cert.pairs:
        if not _is_invariant(cr.q.module, iotas, pair.tensor):
            return False
        if not is_bimodule_map(cr.restricted, cr.restricted, pair.endo):
            return False
    actions, value, free = _d2_side(cr, cert.side)
    # each tensor's images under the basis actions, computed when first read
    images = [{} for _ in cert.pairs]

    def holds(x: tuple, y: tuple) -> bool:
        return _acted(cr.field, [
            (actions, value(pair.endo, x, y), pair.tensor, seen)
            for pair, seen in zip(cert.pairs, images)]) == cr.q.pure(x, y)

    # the free points imply the identity: by the checks above both of its
    # sides are B-B-linear in the free leg, which they generate; acting by
    # y on the other side of x (x) 1 gives x (x) y on the left and the
    # same action on every summand on the right
    return all(holds(x, y) for x, y in free)


# ---------------------------------------------------------------------------
# searches

def _checked(cr: CanonicalRings, verify, cert, what: str):
    """cert, verified by substitution and recorded as verified on cr; a
    search whose certificate fails is a bug."""
    if not cr.certified(verify, cert):
        raise InternalInconsistency(f"{what} failed verification")
    return cert


def find_separability_element(cr: CanonicalRings
                              ) -> Optional[SeparabilityCertificate]:
    """Solve for a Casimir element with multiplication value 1."""
    a = cr.ext.total
    # row k of casimir basis @ mu^T is mu of the k-th Casimir basis tensor
    values = (cr.casimir_space.basis @ cr.mu_matrix.transpose()).pairs
    coeffs = span_decide(cr.field, a.dim, values, a.unit)
    if coeffs is None:
        return None
    return _checked(cr, verify_separability, SeparabilityCertificate(
        cr.casimir_space.element(coeffs)), "separability element")


def find_conditional_expectation(cr: CanonicalRings) -> Optional[SplitCertificate]:
    """Solve for a B-B-linear map A -> B fixing the unit."""
    f = cr.field
    b = cr.ext.base
    maps = cr.hom(cr.restricted, cr.b_reg)
    if maps.dim == 0:
        return None
    values = [mat.apply(cr.ext.total.unit) for mat in maps.basis]
    coeffs = span_decide(f, b.dim, values, b.unit)
    if coeffs is None:
        return None
    return _checked(cr, verify_split, SplitCertificate(maps.element(coeffs)),
                    "conditional expectation")


def find_hsep_system(cr: CanonicalRings) -> Optional[HSepCertificate]:
    """Express 1 (x) 1 through Casimir elements and centralizer multipliers."""
    cent, casimirs = cr.centralizer_space, cr.casimir_space.basis.pairs
    found = span_decide_pairs(
        cr.field, cr.dim_q, casimirs, cent.basis.pairs,
        lambda c, r: _acted(cr.field, [(cr.q.module.right_action, r, c, {})]),
        cr.one_tensor_one())
    if found is None:
        return None
    return _checked(cr, verify_hsep, HSepCertificate([
        HSepPair(casimirs[i], cent.element(c)) for i, c in found]),
        "H-separability system")


def find_d2_quasibase(cr: CanonicalRings, side: str) -> Optional[D2Certificate]:
    """Solve the identity-leg factorization through invariant tensors.

    The unknowns are coefficients over (invariant tensor, endomorphism)
    basis pairs; the equations are the side's quasibase identity at its
    free points, one B-B-generator e_k of A at a time in the free leg.
    Each pair's generator and the target are B-B-linear in that leg, so a
    linear relation among them holds at the e_k exactly when on all of A:
    the solution is the one the whole basis gives.  The generator of a
    pair (t, s) is s^T @ M_t at the rows k, where the orbit matrix M_t has
    rows act(e_l).t, read off the products of the tensor basis with each
    act(e_l)^T, formed once per call.
    """
    actions, _, free = _d2_side(cr, side)
    f, n, gens = cr.field, cr.ext.total.dim, cr.bb_generators
    basis, endos = cr.tensor_space.basis, cr.endo_space.basis
    # row i of basis @ act(e_k)^T is act(e_k).t_i, row k of M_{t_i}
    images = [(basis @ op.transpose()).pairs for op in actions]
    orbits = [Matrix(f, n, cr.dim_q, tuple(img[i] for img in images))
              for i in range(basis.rows)]
    # at the free point of e_k value(s, x, y) is s.e_k, so the summand at
    # t is row k of s^T @ M_t, and only those rows of s^T are kept; the
    # target is the pure tensors at the free points, stacked
    found = span_decide_pairs(
        f, len(gens) * cr.dim_q, orbits,
        [Matrix(f, len(gens), n, tuple(s.col(k) for k in gens)) for s in endos],
        lambda mt, st: (st @ mt).vec(),
        tuple((k * cr.dim_q + j, c) for k, (x, y) in enumerate(free)
              for j, c in cr.q.pure(x, y)))
    if found is None:
        return None
    pairs = [QuasibasePair(basis.pairs[i], lin_comb(f, n, n, c, endos))
             for i, c in found]
    return _checked(cr, verify_d2, D2Certificate(side, pairs),
                    f"{side} quasibase")


# ---------------------------------------------------------------------------
# independent characterizations

def d2_summand_witness(cr: CanonicalRings, side: str) -> Optional[SummandWitness]:
    """The tensor square as a summand of a finite power of the algebra,
    with the outer action forgotten down to B on the stated side."""
    return cr.summand(restrict(cr.q.module, cr.ext, side),
                      restrict(cr.a_reg, cr.ext, side))


def hsep_summand_witness(cr: CanonicalRings) -> Optional[SummandWitness]:
    """The tensor square as a summand of a finite power of the algebra,
    with both outer actions kept."""
    return cr.summand(cr.q.module, cr.a_reg)


def base_module_projectivity(cr: CanonicalRings) -> dict:
    """Finitely generated projectivity of A over B on each side."""
    return {side: dual_basis_witness(restrict(cr.a_reg, cr.ext, side),
                                     cr.ext.base, side, cr.summand)
            for side in ("left", "right")}


def endo_ring_probe(cr: CanonicalRings, right_projective: bool
                    ) -> Optional[bool]:
    """Left depth two read off the one-sided endomorphism ring.

    When A is finitely generated projective as a right B-module (the
    right verdict of base_module_projectivity), the ring of right-B-linear
    endomorphisms of A, carrying A on the left and B on the right, splits
    off a finite power of A exactly when the extension is left depth two.
    Returns None when the projectivity hypothesis fails, else the verdict.
    """
    if not right_projective:
        return None
    a = cr.ext.total
    right_a = keep_side(restrict(cr.a_reg, cr.ext, "right"), "right")
    endos = cr.hom(right_a, right_a)
    # each action is built on its first read, from what holds no
    # reference back to cr, whose memo keeps e_bimod
    iota = cr.ext.iota
    lefts = OnRead(a.dim, lambda i: coordinate_matrix(
        endos, [a.basis_left_mult(i) @ mat for mat in endos.basis],
        "left translate of a one-sided endomorphism"))
    rights = OnRead(iota.cols, lambda j: coordinate_matrix(
        endos, [mat @ a.left_mult_matrix(iota.col(j)) for mat in endos.basis],
        "precomposite of a one-sided endomorphism"))
    e_bimod = Bimodule(a, cr.ext.base, endos.dim, lefts, rights, label="End(A|B)")
    a_ab = restrict(cr.a_reg, cr.ext, "right")
    return cr.summand(e_bimod, a_ab) is not None


def module_facts(cr: CanonicalRings) -> dict:
    """Projectivity, generator, and cyclicity facts for the centralizer
    as a right module over the invariant tensor ring and as a left module
    over the endomorphism ring.  Projective and generator are the two
    summand questions between the module and the regular one."""

    def facts(r_mod: Bimodule, reg: Bimodule, counit: Matrix) -> dict:
        return {"projective": cr.summand(r_mod, reg) is not None,
                "generator": cr.summand(reg, r_mod) is not None,
                "cyclic_via_unit": rank(counit) == cr.centralizer.dim}

    return {
        "cent_over_tensor_ring": facts(
            cr.cent_module_tensor, regular_module(cr.tensor_ring, "right"),
            cr.tensor_counit),
        "cent_over_endo_ring": facts(
            cr.cent_module_endo, regular_module(cr.endo_ring, "left"),
            cr.endo_counit),
    }


# ---------------------------------------------------------------------------
# classification

class CertificateKind(NamedTuple):
    """One certificate kind: its certify name, report flag, key (in the
    report's certificates and on Classification), search, verifier, and
    the class and quasibase side certificate_from_json decodes it to."""
    name: str
    flag: str
    key: str
    search: Callable    # (cr) -> certificate or None
    verify: Callable    # (spaces, cert) -> bool
    cls: type
    side: Optional[str] = None


def certificate_kinds() -> tuple:
    """The five certificate kinds, in report order.

    Built on each call so that the functions are looked up afresh, and a
    caller that rebinds one of them (a tracer, say) is seen.
    """
    def d2(side: str) -> CertificateKind:
        return CertificateKind(
            f"d2-{side}", f"{side}_depth_two", f"{side}_quasibase",
            partial(find_d2_quasibase, side=side), verify_d2, D2Certificate,
            side)

    return (
        CertificateKind("separable", "separable", "separability_element",
                        find_separability_element, verify_separability,
                        SeparabilityCertificate),
        CertificateKind("split", "split", "conditional_expectation",
                        find_conditional_expectation, verify_split,
                        SplitCertificate),
        CertificateKind("hsep", "hseparable", "hsep_system",
                        find_hsep_system, verify_hsep, HSepCertificate),
        d2("left"),
        d2("right"),
    )


@dataclass
class Classification:
    """A certificate or None per kind, in table order, then the probes."""
    separability_element: Optional[SeparabilityCertificate]
    conditional_expectation: Optional[SplitCertificate]
    hsep_system: Optional[HSepCertificate]
    left_quasibase: Optional[D2Certificate]
    right_quasibase: Optional[D2Certificate]
    endo_d2: Optional[bool]
    base_projective: dict
    facts: dict
    consistency_notes: list = dc_field(default_factory=list)


def classify(cr: CanonicalRings) -> Classification:
    """Decide all four properties, cross-check every redundant
    characterization, and assemble the certificates."""
    certs = {}
    # a loop: a comprehension's frame would be the exit-2 stage before 3.12
    for kind in certificate_kinds():
        certs[kind.key] = kind.search(cr)
    sep, _, hsep, left_qb, right_qb = certs.values()

    notes: list[str] = []

    # quasibases and one-sided summand witnesses must agree (theorem)
    for side, qb in (("left", left_qb), ("right", right_qb)):
        wit = d2_summand_witness(cr, side)
        if (qb is None) != (wit is None):
            raise InternalInconsistency(
                f"{side} quasibase and summand characterization disagree")
    notes.append("depth-two quasibases agree with the summand characterization")

    # the H-separability system and the two-sided summand must agree (theorem)
    hsep_wit = hsep_summand_witness(cr)
    if (hsep is None) != (hsep_wit is None):
        raise InternalInconsistency(
            "H-separability system and summand characterization disagree")
    notes.append("H-separability system agrees with the summand characterization")

    if hsep is not None:
        if sep is None:
            raise InternalInconsistency(
                "H-separable extension produced no separability element")
        if left_qb is None or right_qb is None:
            raise InternalInconsistency(
                "H-separable extension is missing a depth-two quasibase")
        _check_hsep_induced_quasibases(cr, hsep)
        notes.append("explicit quasibases from the H-separability system verified")

    base = base_module_projectivity(cr)
    endo = endo_ring_probe(cr, base["right"] is not None)
    if endo is not None:
        if endo != (left_qb is not None):
            raise InternalInconsistency(
                "endomorphism-ring depth-two detection disagrees with the quasibase")
        notes.append("endomorphism-ring depth-two detection agrees")

    return Classification(
        **certs, endo_d2=endo,
        base_projective={k: v is not None for k, v in base.items()},
        facts=module_facts(cr), consistency_notes=notes)


def _check_hsep_induced_quasibases(cr: CanonicalRings, hsep: HSepCertificate
                                   ) -> None:
    """An H-separability system yields explicit quasibases on both sides:
    pair each Casimir element with right (resp. left) multiplication by
    its centralizer multiplier.  Both must verify by substitution."""
    a = cr.ext.total
    for side, mult in (("left", a.right_mult_matrix),
                       ("right", a.left_mult_matrix)):
        pairs = [QuasibasePair(p.casimir, mult(p.multiplier))
                 for p in hsep.pairs]
        if not verify_d2(cr, D2Certificate(side, pairs)):
            raise InternalInconsistency(
                f"H-separability system does not induce a {side} quasibase")
