"""The depth-two identity at B-B-generators of A only.

The quasibase search and verifier put only the basis elements in
CanonicalSpaces.bb_generators into the free leg.  These tests check that
those elements generate A as a B-B-bimodule, one per double coset for a
group algebra, that the search gives the certificate the full-basis
reference search gives, and that a generating set missing a double
coset yields a certificate that the full-basis reference verifier
refuses, as does a verifier deriving the set afresh.
"""

import pytest

from ringext.canonical import CanonicalSpaces, build_canonical_rings
from ringext.certify import find_d2_quasibase, verify_d2
from ringext.linalg import Subspace
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import GROUP_CASES, case_doc, s4_over_a4_doc
from tests.oracles import reference_d2_quasibase, reference_verify_d2

S4_CASES = {"s4_a4_f5": {"Fp": 5}}
NAMES = CORPUS_NAMES + sorted(GROUP_CASES) + sorted(S4_CASES)


def doc(name: str) -> dict:
    if name in GROUP_CASES:
        return case_doc(name)
    if name in S4_CASES:
        return s4_over_a4_doc(S4_CASES[name])
    return corpus_doc(name)


@pytest.fixture(scope="module")
def rings():
    """Lazy canonical rings per corpus input, GROUP_CASES or S4 entry."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_canonical_rings(parse_input(doc(name)).ext)
        return cache[name]

    return get


def double_cosets(ext) -> list:
    """The double cosets HgH of a group algebra extension, as frozensets."""
    cayley, sub = ext.total.group.cayley, ext.subgroup()
    return list({frozenset(cayley[cayley[h][g]][k] for h in sub for k in sub)
                 for g in range(len(cayley))})


@pytest.mark.parametrize("name", NAMES)
def test_bb_generators_generate_a(rings, name):
    """B x B' over the generators x and the basis of B's image spans A."""
    cr = rings(name)
    a, f = cr.ext.total, cr.field
    bs = cr.ext.iota.transpose().pairs
    span = Subspace.from_vectors(f, a.dim, [
        a.multiply(a.multiply(b, cr.a_basis[x]), c)
        for x in cr.bb_generators for b in bs for c in bs])
    assert span.dim == a.dim
    assert cr.bb_generators == sorted(set(cr.bb_generators))
    if cr.ext.subgroup() is not None:
        cosets = double_cosets(cr.ext)
        assert len(cr.bb_generators) == len(cosets)
        assert {c for c in cosets for x in cr.bb_generators if x in c} \
            == set(cosets)


@pytest.mark.parametrize("name", sorted(GROUP_CASES) + sorted(S4_CASES))
def test_d2_search_matches_the_full_basis_reference(rings, name):
    """Past the corpus (test_certify compares the corpus): the search at
    the generators gives the full-basis search's certificate, and the
    full-basis verifier accepts it."""
    cr = rings(name)
    for side in ("left", "right"):
        got = find_d2_quasibase(cr, side)
        assert got == reference_d2_quasibase(cr, side)
        assert got is None or reference_verify_d2(cr, got)


@pytest.mark.parametrize("name", ["s3_c2_q", "q8_c4_f3", "s4_a4_f5"])
def test_a_planted_set_missing_a_double_coset_is_caught(name):
    """Solved with the last generator dropped, a search returns a
    certificate that its own spaces pass but the full-basis reference
    and a verifier on fresh spaces refuse."""
    cr = build_canonical_rings(parse_input(doc(name)).ext)
    full = cr.bb_generators
    cr.bb_generators = full[:-1]
    for side in ("left", "right"):
        cert = find_d2_quasibase(cr, side)
        assert cert is not None and verify_d2(cr, cert)
        assert not reference_verify_d2(cr, cert)
        fresh = CanonicalSpaces(cr.ext)
        assert fresh.bb_generators == full
        assert not verify_d2(fresh, cert)
