"""Normality checks for subrings and their centralizer analogues.

A subring is normal in the sense tested here when contracting any
two-sided ideal of the big ring down to the subring yields a subspace
whose left and right translates span the same thing.  For group
algebras this recovers ordinary normality of the subgroup, and the
module-theoretic analogue replaces the subring by the invariant part
of a bimodule.  The checks stay inside exact linear algebra: ideals and
translate spans are spins of subspaces under the actions of algebra
generators (linalg.spin), contractions are computed once per distinct
ideal closure, and every verdict is a rank comparison.

Also here: the double centralizer of the base inside the total
algebra, and the braided commutation law tying the centralizer to a
right-sided quasibase.  The latter replaces naive commutativity
(which can fail, e.g. for a full matrix ring over its scalars) by a
twisted rule that provably holds whenever the right quasibase exists.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import Field, Subspace, spin
from .algebra import AlgebraError, Extension, FDAlgebra, GroupData, group_algebra
from .bimodule import (Bimodule, BimoduleError, invariants_subspace,
                       regular_bimodule)
from .canonical import CanonicalRings, InternalInconsistency
from .certify import D2Certificate, verify_d2


# ---------------------------------------------------------------------------
# ideals as closed subspaces


@dataclass
class Ideal:
    """A two-sided ideal presented by generators plus its closed span.

    closure is the least subspace containing the generators and stable
    under left and right multiplication by every basis element.
    """

    algebra: FDAlgebra
    generators: list
    closure: Subspace
    label: str = "J"

    @property
    def dim(self) -> int:
        return self.closure.dim


def ideal_closure(a: FDAlgebra, generators: Sequence[tuple],
                  label: str = "J") -> Ideal:
    """Two-sided ideal generated by the given elements of a, pair vectors:
    their spin under left and right multiplication by the algebra
    generators."""
    if any(g and g[-1][0] >= a.dim for g in generators):
        raise AlgebraError(f"ideal generator has an index outside 0..{a.dim - 1}")
    gens = [tuple(g) for g in generators]
    return Ideal(a, gens, spin(a.field, a.dim, gens, sum(
        regular_bimodule(a).generator_actions(), [])), label)


def _translates(m: Bimodule, sub: Subspace) -> tuple:
    """m's left and right algebra translates of sub: its spins under each
    side's generator actions, whose words span the algebra."""
    return tuple(spin(m.field, m.dim, sub.basis.pairs, ops)
                 for ops in m.generator_actions())


def _balance(m: Bimodule, sub: Subspace) -> dict:
    """Compare m's left and right algebra translates of a subspace."""
    left, right = _translates(m, sub)
    return {
        "left_dim": left.dim,
        "right_dim": right.dim,
        "left_in_right": left.is_contained_in(right),
        "right_in_left": right.is_contained_in(left),
        "equal": left == right,
    }


def _minus_identity(field: Field, elements: Sequence[int]) -> list:
    """e_g - e_0 for each listed group element g other than the identity."""
    return [((0, field.neg(field.one)), (g, field.one)) for g in elements if g]


def a_invariant_contraction(ext: Extension, j: Ideal) -> bool:
    """Does the ideal contract to a left-right balanced subspace of the base?

    Intersects the ideal with the embedded base and asks whether the
    span of algebra multiples on the left equals the span on the right.
    Every ideal passing this for every j makes the base a normal subring.
    """
    if j.algebra != ext.total:
        raise AlgebraError("ideal does not live in the extension's total algebra")
    contracted = j.closure.intersect(ext.image())
    return _balance(regular_bimodule(ext.total), contracted)["equal"]


# ---------------------------------------------------------------------------
# normality of the centralizer and of bimodule invariants


def default_ideal_sample(a: FDAlgebra,
                         extra_generators: Optional[Sequence[tuple]] = None) -> list:
    """Standard spread of ideals: zero, unit, augmentation when the
    algebra is a group algebra, one ideal per basis element, plus one
    per caller-supplied generator."""
    f = a.field
    out = [Ideal(a, [], Subspace.zero(f, a.dim), "0"),
           ideal_closure(a, [a.unit], "(1)")]
    if a.group is not None and a.dim > 1:
        out.append(ideal_closure(a, _minus_identity(f, range(a.dim)),
                                 "augmentation"))
    for i in range(a.dim):
        out.append(ideal_closure(a, [((i, f.one),)], f"(e{i})"))
    for k, g in enumerate(extra_generators or []):
        out.append(ideal_closure(a, [g], f"(x{k})"))
    return out


def per_closure(ideals: Sequence[Ideal], fn) -> list:
    """fn(j) for each ideal j, computed once per distinct closure."""
    done: dict = {}
    return [done[k] if (k := j.closure.basis.pairs) in done
            else done.setdefault(k, fn(j)) for j in ideals]


def centralizer_normality_suite(cr: CanonicalRings,
                                ideals: Sequence[Ideal]) -> dict:
    """Normality facts about the centralizer of the base.

    Three layers, all reported as exact span comparisons:
      * the centralizer itself: algebra times centralizer versus
        centralizer times algebra inside the total algebra;
      * each ideal of the sample (report.normality_block passes
        default_ideal_sample and the input's ideals), contracted to the
        centralizer, compared the same way;
      * the invariant part of the regular bimodule and of the tensor
        square over the base (the rings R and T), with both inclusion
        directions reported so a one-sided quasibase can certify its
        one-sided inclusion.
    """
    a = cr.ext.total
    cent_sub = cr.centralizer_space
    report = {"centralizer": _balance(cr.a_reg, cent_sub)}
    report["centralizer"]["dim"] = cent_sub.dim

    def contract(j: Ideal) -> dict:
        contracted = j.closure.intersect(cent_sub)
        return {"contracted_dim": contracted.dim,
                **_balance(cr.a_reg, contracted)}

    for j in ideals:
        if j.algebra != a:
            raise AlgebraError(f"ideal {j.label} lives in the wrong algebra")
    contractions = [{"ideal": j.label, "ideal_dim": j.dim, **entry}
                    for j, entry in zip(ideals, per_closure(ideals, contract))]
    report["ideal_contractions"] = contractions

    invariants = [{"module": label, "invariants_dim": inv.dim, **_balance(m, inv)}
                  for label, m, inv in ((cr.a_reg.label, cr.a_reg, cent_sub),
                                        ("Q", cr.q.module, cr.tensor_space))]
    report["bimodule_invariants"] = invariants
    report["all_equal"] = (report["centralizer"]["equal"]
                           and all(c["equal"] for c in contractions)
                           and all(v["equal"] for v in invariants))
    return report


# ---------------------------------------------------------------------------
# group algebras: three independent routes to subgroup normality


def hopf_normality(group: GroupData, subgroup: Sequence[int], field: Field) -> dict:
    """Three independent normality verdicts for a subgroup span.

    subgroup_normal reads the multiplication table directly;
    conjugation_hopf_normal conjugates the subgroup span by every
    generator of the algebra through its multiplication operators and
    checks stability; augmentation_test compares the left and right ideals
    generated by k_plus, the counit kernel of the span, spanned by the
    differences h - 1, which must equal the intersection of the global
    augmentation ideal with the span.  The three booleans agree for every
    pair; a disagreement would falsify the equivalence the checks encode.
    """
    idx = list(subgroup)
    group.check_subgroup(idx)
    kg, n = group_algebra(field, group), group.order
    span = Subspace.from_vectors(field, n, [((i, field.one),) for i in idx])
    k_plus = Subspace.from_vectors(field, n, _minus_identity(field, idx))
    h_plus = Subspace.from_vectors(field, n, _minus_identity(field, range(n)))
    if k_plus != h_plus.intersect(span):
        raise InternalInconsistency(
            "counit kernel of the subgroup span disagrees with the "
            "contracted augmentation ideal")
    hset = set(idx)
    table_normal = all(group.conjugate(g, h) in hset
                       for g in range(n) for h in idx)
    conj_stable = all(span.contains(
        (kg.basis_left_mult(g) @ kg.basis_right_mult(group.inverse[g]))
        .apply(((h, field.one),)))
        for g in kg.generators() for h in idx)

    return {
        "subgroup_normal": table_normal,
        "conjugation_hopf_normal": conj_stable,
        "augmentation_test": _balance(regular_bimodule(kg), k_plus)["equal"],
    }


# ---------------------------------------------------------------------------
# double centralizer


def double_centralizer(cr: CanonicalRings) -> dict:
    """The centralizer of the base and the centralizer of that.

    The base always lands inside its double centralizer; strict
    reports whether the containment is proper, i.e. whether commuting
    with everything that commutes with the base is weaker than lying
    in the base.
    """
    c = cr.centralizer_space
    cc = invariants_subspace(cr.a_reg, c.basis.pairs)
    image = cr.ext.image()
    if not image.is_contained_in(cc):
        raise InternalInconsistency(
            "base algebra escapes its own double centralizer")
    return {"centralizer": c, "double_centralizer": cc,
            "strict": cc.dim > image.dim}


# ---------------------------------------------------------------------------
# braided commutation against a right quasibase


def prebraided_check(cr: CanonicalRings, right_quasibase: D2Certificate) -> dict:
    """Twisted commutativity of the centralizer through a right quasibase.

    With pairs (u_j, gamma_j), where each u_j is a base-central tensor
    and each gamma_j a bimodule endomorphism of the total algebra, the
    law states s * r = sum_j gamma_j(r) * (u_j' s u_j'') for all s, r
    in the centralizer, with u' s u'' the two legs of u_j multiplied
    around s.  Naive commutativity s r = r s can fail while this holds;
    the verdict must not depend on which right quasibase is supplied.
    """
    if right_quasibase is None:
        raise BimoduleError("prebraided check needs a right quasibase")
    if right_quasibase.side != "right":
        raise BimoduleError("prebraided check needs a right-sided quasibase")
    if not cr.certified(verify_d2, right_quasibase):
        raise BimoduleError("supplied right quasibase fails verification")

    a, f = cr.ext.total, cr.field
    cent = cr.centralizer_space.basis.pairs
    sandwich_ops = [cr.cent_module_tensor.right_operator(cr.t_coords(p.tensor))
                    for p in right_quasibase.pairs]
    ones = [(k, f.one) for k in range(len(sandwich_ops))]

    holds = True
    naive = True
    for s in cent:
        s_co = cr.r_coords(s)
        for r in cent:
            lhs = a.multiply(s, r)
            if lhs != a.multiply(r, s):
                naive = False
            acc = f.comb([
                a.multiply(p.endo.apply(r), cr.r_lift(op.apply(s_co)))
                for p, op in zip(right_quasibase.pairs, sandwich_ops)], ones)
            if lhs != acc:
                holds = False
    return {"holds": holds, "naive_commutative": naive,
            "pairs": len(right_quasibase.pairs)}
