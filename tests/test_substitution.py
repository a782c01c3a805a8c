"""Certificate substitution on vectors against the operator-building
verifiers it replaced: the same verdict on every certificate the searches
find and on each of them with one entry moved, and the same
H-separability system."""

import pytest

from ringext.canonical import build_canonical_rings
from ringext.certify import (D2Certificate, HSepCertificate, HSepPair,
                             QuasibasePair, SeparabilityCertificate,
                             classify, find_hsep_system, verify_d2,
                             verify_hsep, verify_separability)
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc
from tests.groups import GROUP_CASES, case_doc
from tests.helpers import dense_matrix
from tests.oracles import (reference_find_hsep_system, reference_verify_d2,
                           reference_verify_hsep,
                           reference_verify_separability)

NAMES = CORPUS_NAMES + sorted(GROUP_CASES)


@pytest.fixture(scope="module")
def analysed():
    """Lazy (rings, classification) per corpus input or GROUP_CASES entry."""
    cache = {}

    def get(name: str):
        if name not in cache:
            doc = case_doc(name) if name in GROUP_CASES else corpus_doc(name)
            cr = build_canonical_rings(parse_input(doc).ext)
            cache[name] = cr, classify(cr)
        return cache[name]

    return get


def _positions(n: int) -> list:
    return sorted({0, n // 2, n - 1}) if n else []


def _moved_vectors(f, v: tuple, n: int) -> list:
    """The pair vector v of length n with one entry moved by one, at its
    first, middle and last index."""
    return [f.comb([v, ((i, f.one),)], [(0, f.one), (1, f.one)])
            for i in _positions(n)]


def _moved_matrices(mat) -> list:
    """mat with one entry moved by one, on its diagonal at the first,
    middle and last index."""
    f = mat.field
    rows = [mat.row(i) for i in range(mat.rows)]
    out = []
    for i in _positions(min(mat.rows, mat.cols)):
        moved = [r[:] for r in rows]
        moved[i][i] = f.of(moved[i][i] + f.one)
        out.append(dense_matrix(f, moved, mat.cols))
    return out


def _with_pair(pairs: list, k: int, pair) -> list:
    return pairs[:k] + [pair] + pairs[k + 1:]


def separability_cases(cr, cert):
    yield cert
    for v in _moved_vectors(cr.field, cert.element, cr.dim_q):
        yield SeparabilityCertificate(v)


def hsep_cases(cr, cert):
    yield cert
    for k, p in enumerate(cert.pairs):
        for v in _moved_vectors(cr.field, p.casimir, cr.dim_q):
            yield HSepCertificate(_with_pair(cert.pairs, k,
                                             HSepPair(v, p.multiplier)))
        for v in _moved_vectors(cr.field, p.multiplier, cr.ext.total.dim):
            yield HSepCertificate(_with_pair(cert.pairs, k,
                                             HSepPair(p.casimir, v)))


def _mixed(cert, k: int) -> D2Certificate:
    """The same sum of tensor (x) endo over the pairs, written with pairs
    k and k + 1 as (t, s + s'), (t' - t, s'): another valid quasibase,
    whose endomorphisms give values with more nonzero entries."""
    (t, s), (t2, s2) = ((p.tensor, p.endo) for p in cert.pairs[k:k + 2])
    f = s.field
    pairs = cert.pairs[:k] + [
        QuasibasePair(t, s + s2),
        QuasibasePair(f.comb([t2, t], [(0, f.one), (1, f.neg(f.one))]), s2),
    ] + cert.pairs[k + 2:]
    return D2Certificate(cert.side, pairs, cert.reverse_order)


def d2_cases(cr, cert):
    for side in ("left", "right"):   # the other side's label is a fault
        yield D2Certificate(side, cert.pairs, cert.reverse_order)
    for k in range(len(cert.pairs) - 1):
        yield _mixed(cert, k)
    for k, p in enumerate(cert.pairs):
        for v in _moved_vectors(cr.field, p.tensor, cr.dim_q):
            yield D2Certificate(cert.side, _with_pair(
                cert.pairs, k, QuasibasePair(v, p.endo)))
        for mat in _moved_matrices(p.endo):
            yield D2Certificate(cert.side, _with_pair(
                cert.pairs, k, QuasibasePair(p.tensor, mat)))


@pytest.mark.parametrize("name", NAMES)
def test_substitution_matches_the_operator_verifiers(analysed, name):
    cr, cls = analysed(name)
    checks = []
    if cls.separability_element is not None:
        checks += [(verify_separability, reference_verify_separability, c)
                   for c in separability_cases(cr, cls.separability_element)]
    if cls.hsep_system is not None:
        checks += [(verify_hsep, reference_verify_hsep, c)
                   for c in hsep_cases(cr, cls.hsep_system)]
    for qb in (cls.left_quasibase, cls.right_quasibase):
        if qb is not None:
            checks += [(verify_d2, reference_verify_d2, c)
                       for c in d2_cases(cr, qb)]
    verdicts = []
    for verify, reference, cert in checks:
        verdict = verify(cr, cert)
        assert verdict is reference(cr, cert), (verify.__name__, cert)
        verdicts.append(verdict)
    # every found certificate passes, and some moved one fails
    assert not checks or (True in verdicts and False in verdicts)


@pytest.mark.parametrize("name", NAMES)
def test_hsep_search_matches_the_operator_search(analysed, name):
    cr, _ = analysed(name)
    found, reference = find_hsep_system(cr), reference_find_hsep_system(cr)
    assert found == reference
