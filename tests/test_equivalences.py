"""Structural isomorphisms between module categories, with certificates."""

import sys
from copy import deepcopy
from dataclasses import replace

import pytest

from ringext import algebra, bimodule, equivalences
from ringext.bimodule import (BimoduleError, hom_space, intertwines,
                              keep_side, regular_module)
from ringext.canonical import build_canonical_rings
from ringext.certify import verify_d2, verify_separability, verify_split
from ringext.equivalences import (_comparison, centralizer_projectivity,
                                  chi_M, evaluation_map,
                                  functor_iso_checks, gamma_M, pi_A_iso,
                                  rho_M, split_counit, triangle_check)
from ringext.linalg import Matrix, PrimeField
from ringext.report import analysis_report
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, LEFT_D2, SEPARABLE, corpus_doc
from tests.groups import GROUP_CASES, case_doc
from tests.helpers import dense_matrix
from tests.modules import random_cyclic_module
from tests.oracle_linalg import FracOps, ModOps, rank


def end_dim(cr, m) -> int:
    """The dimension of End(m), the space whose squares are proved to
    commute."""
    return cr.hom(m, m).dim


def _assert_verified_with_inverse(iso, endos: int):
    assert iso.status == "verified"
    f = iso.forward.field
    assert iso.forward @ iso.backward == Matrix.identity(f, iso.codomain_dim)
    assert iso.backward @ iso.forward == Matrix.identity(f, iso.domain_dim)
    assert iso.naturality_samples == endos
    assert iso.checks.get("naturality", False)


# -- the action map gamma -----------------------------------------------------

def test_gamma_separability_route(built):
    b = built("qc2_q")
    iso = gamma_M(b.cr, b.cr.a_reg, separability=b.cls.separability_element)
    _assert_verified_with_inverse(iso, end_dim(b.cr, keep_side(b.cr.a_reg, "left")))
    assert iso.route == "separability-element"
    assert iso.checks["separability_inverse"]


def test_gamma_quasibase_route_without_separability(built):
    # char 2 kills separability but the quasibase collapse still certifies
    b = built("f2c2_f2")
    iso = gamma_M(b.cr, b.cr.a_reg, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(iso, end_dim(b.cr, keep_side(b.cr.a_reg, "left")))
    assert iso.route == "left-quasibase-collapse"
    assert iso.checks["factors_through_collapse"]


def test_gamma_uncertified_falls_back_to_rank(built):
    b = built("qc2_q")
    iso = gamma_M(b.cr, b.cr.a_reg)
    assert iso.status == "bijective"
    assert iso.route == "exact-rank"


def test_gamma_on_random_cyclic_module(built):
    b = built("qs3_qa3")
    m = random_cyclic_module(b.cr.ext.total, "left", 2, seed=17)
    iso = gamma_M(b.cr, m, separability=b.cls.separability_element)
    _assert_verified_with_inverse(iso, end_dim(b.cr, keep_side(m, "left")))


def test_triangle_identity_needs_no_hypotheses(built):
    for name in CORPUS_NAMES:
        cr = built(name).cr
        assert triangle_check(cr, cr.a_reg)


# -- induction, coinduction, and the tensor-square comparison ----------------

def test_functor_isos_verified_under_quasibase(built):
    b = built("qc2_q")
    fi = functor_iso_checks(b.cr, b.cr.a_reg,
                            left_quasibase=b.cls.left_quasibase)
    endos = end_dim(b.cr, keep_side(b.cr.a_reg, "left"))
    _assert_verified_with_inverse(fi["induction"], endos)
    _assert_verified_with_inverse(fi["coinduction"], endos)
    assert fi["induction"].route == "left-quasibase"
    fgp = centralizer_projectivity(b.cr)
    assert fgp["tensor_ring_fg_projective_over_centralizer"]
    assert fgp["endo_ring_fg_projective_over_centralizer"]


def test_pi_a_verified_under_quasibase(built):
    b = built("qs3_qa3")
    iso = pi_A_iso(b.cr, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(iso, end_dim(b.cr, keep_side(b.cr.a_reg, "left")))


def test_comparisons_fail_without_depth_two(built):
    # group algebra over a non-normal subgroup: dims 16 vs 18 split apart
    b = built("f7s3_f7t")
    fi = functor_iso_checks(b.cr, b.cr.a_reg)
    for key in ("induction", "coinduction"):
        iso = fi[key]
        assert iso.status == "not-bijective"
        assert iso.domain_dim != iso.codomain_dim
    assert pi_A_iso(b.cr).status == "not-bijective"
    assert chi_M(b.cr, b.cr.a_reg).status == "not-bijective"
    # structural side conditions still hold for the maps that exist
    assert fi["induction"].checks.get("naturality", False)


# -- hom-side comparisons -----------------------------------------------------

def test_chi_and_rho_verified(built):
    b = built("qc2_q")
    endos = end_dim(b.cr, keep_side(b.cr.a_reg, "right"))
    chi = chi_M(b.cr, b.cr.a_reg, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(chi, endos)
    assert chi.route == "left-quasibase"
    rho = rho_M(b.cr, b.cr.a_reg, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(rho, endos)
    assert rho.route == "composite-through-chi"
    assert rho.checks["agrees_with_composite"]


def test_rho_bijective_without_certificate(built):
    b = built("f7s3_f7t")
    rho = rho_M(b.cr, b.cr.a_reg)
    assert rho.status == "bijective"
    assert rho.route == "exact-rank"


def test_chi_rho_on_user_style_right_module(built):
    b = built("m2q_q")
    m = random_cyclic_module(b.cr.ext.total, "right", 2, seed=23)
    endos = end_dim(b.cr, keep_side(m, "right"))
    chi = chi_M(b.cr, m, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(chi, endos)
    rho = rho_M(b.cr, m, left_quasibase=b.cls.left_quasibase)
    _assert_verified_with_inverse(rho, endos)


def test_split_counit_route(built):
    b = built("qc2_q")
    iso = split_counit(b.cr, b.cr.b_reg, split=b.cls.conditional_expectation)
    _assert_verified_with_inverse(iso, end_dim(b.cr, keep_side(b.cr.b_reg, "right")))
    assert iso.route == "conditional-expectation"


def test_split_counit_every_split_extension(built):
    for name in CORPUS_NAMES:
        b = built(name)
        if b.cls.conditional_expectation is None:
            continue
        iso = split_counit(b.cr, b.cr.b_reg,
                           split=b.cls.conditional_expectation)
        assert iso.status == "verified"


# -- evaluation ----------------------------------------------------------------

def test_evaluation_regular_module(built):
    cr = built("qs3_qa3").cr
    a = cr.ext.total
    reg = regular_module(a, "right")
    iso = evaluation_map(cr, reg, reg)
    assert iso.status == "bijective"
    assert iso.checks["ring_linear"]
    assert iso.checks["naturality"]
    assert iso.naturality_samples == hom_space(reg, reg).dim == a.dim


# -- naturality on composition generators of the endomorphisms ---------------

@pytest.mark.parametrize("name", ["qc2_q", "qq8_qi"])
def test_naturality_checked_on_a_basis_of_every_endomorphism_space(built,
                                                                   name):
    b = built(name)
    cr, cls = b.cr, b.cls
    lqb = cls.left_quasibase
    a_left, a_right = keep_side(cr.a_reg, "left"), keep_side(cr.a_reg, "right")
    reg = regular_module(cr.ext.total, "right")
    fi = functor_iso_checks(cr, cr.a_reg, left_quasibase=lqb)
    comparisons = [
        (gamma_M(cr, cr.a_reg, separability=cls.separability_element,
                 left_quasibase=lqb), a_left),
        (fi["induction"], a_left),
        (fi["coinduction"], a_left),
        (pi_A_iso(cr, left_quasibase=lqb), a_left),
        (chi_M(cr, cr.a_reg, left_quasibase=lqb), a_right),
        (rho_M(cr, cr.a_reg, left_quasibase=lqb), a_right),
        (split_counit(cr, cr.b_reg, split=cls.conditional_expectation),
         keep_side(cr.b_reg, "right")),
        (evaluation_map(cr, reg, reg), reg),
    ]
    for iso, m in comparisons:
        assert iso.naturality_samples == end_dim(cr, m), (name, iso.name)
        assert iso.checks["naturality"], (name, iso.name)


def test_naturality_fails_when_one_basis_endomorphism_does_not_commute(built):
    cr = built("qc2_q").cr
    f = cr.field
    reg = regular_module(cr.ext.total, "right")
    endos = cr.hom(reg, reg)
    assert endos.dim == 2
    # a coordinate projection commutes with the identity of the group
    # algebra but not with left multiplication by the group element
    fwd = dense_matrix(f, [[f.one, f.zero], [f.zero, f.zero]])
    eye = Matrix.identity(f, 2)
    assert intertwines(fwd, [(eye, eye)])
    assert not all(intertwines(fwd, [(e, e)]) for e in endos.basis)
    iso = _comparison("probe", fwd, "A", "A", {}, endos, lambda e: (e, e))
    assert iso.naturality_samples == 2
    assert iso.checks["naturality"] is False


@pytest.fixture(scope="module")
def analysed_comparisons():
    """Every _comparison call an analysis of the corpus and of GROUP_CASES
    makes, as (input name, fwd, endos, square, the VerifiedIso)."""
    calls, original = [], equivalences._comparison

    def recording(name, fwd, domain, codomain, checks, endos, square,
                  *rest, **kwargs):
        iso = original(name, fwd, domain, codomain, checks, endos, square,
                       *rest, **kwargs)
        calls.append((label, fwd, endos, square, iso))
        return iso

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivalences, "_comparison", recording)
        for label, doc in [*((n, corpus_doc(n)) for n in CORPUS_NAMES),
                           *((n, case_doc(n)) for n in GROUP_CASES)]:
            analysis_report(parse_input(doc))
    return calls


def _flat(ops, mat: Matrix) -> list:
    return [ops.of(x) for row in mat.data for x in row]


def _word_rank(endos) -> int:
    """The rank of the words in endos.generators under composition, grown
    from the identity by the reference elimination: a word dependent on
    earlier ones has its images dependent on theirs, so only independent
    words are extended."""
    f = endos.field
    ops = ModOps(f.p) if isinstance(f, PrimeField) else FracOps()
    gens = [endos.basis[g] for g in endos.generators]
    words = frontier = [Matrix.identity(f, endos.source.dim)]
    while frontier:
        grown = []
        for w in frontier:
            for g in gens:
                x = w @ g
                if rank(ops, [_flat(ops, y) for y in words + [x]]) > len(words):
                    words = words + [x]
                    grown.append(x)
        frontier = grown
    return rank(ops, [_flat(ops, y) for y in words])


def _distinct_end_spaces(calls) -> list:
    return list({id(endos): endos for _, _, endos, _, _ in calls}.values())


def test_end_generators_span_every_end_space_by_composition(
        analysed_comparisons):
    spaces = _distinct_end_spaces(analysed_comparisons)
    assert any(endos.dim > 2 for endos in spaces)
    for endos in spaces:
        gens = endos.generators
        assert gens == sorted(set(gens)) and len(gens) < max(endos.dim, 1)
        assert _word_rank(endos) == endos.dim, endos


def test_end_generators_are_found_once_per_end_space(analysed_comparisons):
    # several comparisons of one report share an End space, and its
    # generators are cached on the one memoized MapSpace
    calls = analysed_comparisons
    assert len(_distinct_end_spaces(calls)) < len(calls)
    for _, _, endos, _, _ in calls:
        assert "generators" in vars(endos)


def test_every_comparison_square_sends_the_identity_to_the_identity(
        analysed_comparisons):
    for label, fwd, endos, square, iso in analysed_comparisons:
        f = fwd.field
        on_domain, on_codomain = square(Matrix.identity(f, endos.source.dim))
        assert on_domain == Matrix.identity(f, fwd.cols), (label, iso.name)
        assert on_codomain == Matrix.identity(f, fwd.rows), (label, iso.name)


def test_generator_check_and_whole_basis_check_agree(analysed_comparisons):
    for label, fwd, endos, square, iso in analysed_comparisons:
        whole_basis = intertwines(fwd, map(square, endos.basis))
        assert whole_basis == iso.checks["naturality"], (label, iso.name)
        assert iso.naturality_samples == endos.dim


def _diagonal_entries(pairs: tuple, k: int):
    """x when a row or column is x at position k alone (0 when empty),
    None otherwise."""
    if not pairs:
        return 0
    return pairs[0][1] if len(pairs) == 1 and pairs[0][0] == k else None


def test_a_forward_map_failing_at_few_basis_maps_is_refused(
        analysed_comparisons):
    """fwd + E_ij is natural at e exactly when E_ij D = C E_ij for the
    square (D, C) of e, that is when row j of D and column i of C are the
    same multiple of e_j and e_i.  For each comparison of the corpus with
    an End space past the identity, the unit perturbation that fails at
    the fewest basis maps (at least one) is refused."""
    refused = 0
    for label, fwd, endos, square, iso in analysed_comparisons:
        if label not in CORPUS_NAMES or endos.dim < 2:
            continue
        f, squares = fwd.field, list(map(square, endos.basis))
        rows = [[_diagonal_entries(d.pairs[j], j) for j in range(fwd.cols)]
                for d, _ in squares]
        cols = [[_diagonal_entries(c.transpose().pairs[i], i)
                 for i in range(fwd.rows)] for _, c in squares]
        failures = {(i, j): sum(r[j] is None or r[j] != c[i]
                                for r, c in zip(rows, cols))
                    for i in range(fwd.rows) for j in range(fwd.cols)}
        i, j = min((ij for ij, n in failures.items() if n),
                   key=failures.get)
        bumped = fwd + Matrix(f, fwd.rows, fwd.cols, tuple(
            ((j, f.one),) if r == i else () for r in range(fwd.rows)))
        assert not intertwines(bumped, squares)
        probe = _comparison("probe", bumped, "", "", {}, endos, square)
        assert probe.checks["naturality"] is False, (label, iso.name)
        refused += 1
    assert refused


# -- sweeping certificates across the corpus ----------------------------------

def test_gamma_certified_for_every_separable_extension(built):
    for name in SEPARABLE:
        b = built(name)
        iso = gamma_M(b.cr, b.cr.a_reg,
                      separability=b.cls.separability_element)
        assert iso.status == "verified", name
        assert iso.route == "separability-element", name


def test_functor_isos_certified_for_every_depth_two_extension(built):
    for name in LEFT_D2:
        b = built(name)
        fi = functor_iso_checks(b.cr, b.cr.a_reg,
                                left_quasibase=b.cls.left_quasibase)
        assert fi["induction"].status == "verified", name
        assert fi["coinduction"].status == "verified", name


# -- every constructor re-checks the certificate it is given -------------------

def _right_quasibase(b):
    return {"left_quasibase": b.cls.right_quasibase}


def _altered_quasibase(b):
    qb, f = b.cls.left_quasibase, b.cr.field
    first = qb.pairs[0]
    tensor = f.comb([first.tensor, ((0, f.one),)], [(0, f.one), (1, f.one)])
    bad = replace(qb, pairs=[replace(first, tensor=tensor)] + qb.pairs[1:])
    assert not verify_d2(b.cr, bad)
    return {"left_quasibase": bad}


def _altered_separability(b):
    cert, f = b.cls.separability_element, b.cr.field
    element = f.comb([cert.element, ((0, f.one),)], [(0, f.one), (1, f.one)])
    bad = replace(cert, element=element)
    assert not verify_separability(b.cr, bad)
    return {"separability": bad}


def _altered_expectation(b):
    cert, f = b.cls.conditional_expectation, b.cr.field
    e = cert.expectation
    data = [row[:] for row in e.data]
    data[0][0] = f.of(data[0][0] + f.one)
    bad = replace(cert, expectation=dense_matrix(f, data, e.cols))
    assert not verify_split(b.cr, bad)
    return {"split": bad}


def _verified_then_mutated_quasibase(b):
    qb = deepcopy(b.cls.left_quasibase)
    for name in _QUASIBASE_TAKERS:
        _CONSTRUCTORS[name](b.cr, left_quasibase=qb)
    qb.pairs[0] = _altered_quasibase(b)["left_quasibase"].pairs[0]
    return {"left_quasibase": qb}


def _verified_then_mutated_separability(b):
    cert, f = deepcopy(b.cls.separability_element), b.cr.field
    gamma_M(b.cr, b.cr.a_reg, separability=cert)
    cert.element = f.comb([cert.element, ((0, f.one),)],
                          [(0, f.one), (1, f.one)])
    assert not verify_separability(b.cr, cert)
    return {"separability": cert}


def _verified_then_mutated_expectation(b):
    cert = deepcopy(b.cls.conditional_expectation)
    split_counit(b.cr, b.cr.b_reg, split=cert)
    cert.expectation = _altered_expectation(b)["split"].expectation
    return {"split": cert}


_QUASIBASE_TAKERS = ("gamma_M", "functor_iso_checks", "chi_M", "rho_M",
                     "pi_A_iso")
_CONSTRUCTORS = {
    "gamma_M": lambda cr, **kw: gamma_M(cr, cr.a_reg, **kw),
    "functor_iso_checks": lambda cr, **kw: functor_iso_checks(cr, cr.a_reg, **kw),
    "chi_M": lambda cr, **kw: chi_M(cr, cr.a_reg, **kw),
    "rho_M": lambda cr, **kw: rho_M(cr, cr.a_reg, **kw),
    "pi_A_iso": pi_A_iso,
    "split_counit": lambda cr, **kw: split_counit(cr, cr.b_reg, **kw),
}


@pytest.mark.parametrize("constructor, fault", [
    *((name, fault)
      for name in _QUASIBASE_TAKERS
      for fault in (_right_quasibase, _altered_quasibase,
                    _verified_then_mutated_quasibase)),
    ("gamma_M", _altered_separability),
    ("gamma_M", _verified_then_mutated_separability),
    ("split_counit", _altered_expectation),
    ("split_counit", _verified_then_mutated_expectation),
], ids=lambda v: v if isinstance(v, str) else v.__name__.lstrip("_"))
def test_constructors_reject_unverified_certificates(built, constructor, fault):
    """A certificate that fails substitution is refused, also when an
    earlier call verified it and it was changed in place since."""
    b = built("qc2_q")
    with pytest.raises(BimoduleError):
        _CONSTRUCTORS[constructor](b.cr, **fault(b))


def test_end_generators_are_searched_once_per_end_space(monkeypatch):
    """evaluation_map builds End(m) with the composition generators its
    MapSpace found: over a qq8_qi analysis no End algebra searches its own,
    no End space is searched twice, and each End algebra's generators are
    its space's."""
    searched = []
    for module in (algebra, bimodule):
        original = module.word_generators

        def recording(*args, original=original):
            owner = sys._getframe(1).f_locals.get("self")
            searched.append((type(owner).__name__, getattr(owner, "name", ""),
                             id(owner)))
            return original(*args)

        monkeypatch.setattr(module, "word_generators", recording)
    parsed = parse_input(corpus_doc("qq8_qi"))
    cr = build_canonical_rings(parsed.ext)
    analysis_report(parsed, rings=cr)
    ends = [entry for key, entry in cr._memo.items() if key[0] == "End"]
    assert ends
    for (m1,), end_alg in ends:
        assert end_alg.generators() == cr.hom(m1, m1).generators
    spaces = [owner for kind, _, owner in searched if kind == "MapSpace"]
    assert spaces and len(spaces) == len(set(spaces))
    assert not [name for kind, name, _ in searched
                if kind == "FDAlgebra" and name == "End"]
