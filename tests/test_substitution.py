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


def _moved_vectors(f, v: list) -> list:
    """v with one entry moved by one, at its first, middle and last index."""
    return [v[:i] + [f.of(v[i] + f.one)] + v[i + 1:] for i in _positions(len(v))]


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


def separability_cases(f, cert):
    yield cert
    for v in _moved_vectors(f, cert.element):
        yield SeparabilityCertificate(v)


def hsep_cases(f, cert):
    yield cert
    for k, p in enumerate(cert.pairs):
        for v in _moved_vectors(f, p.casimir):
            yield HSepCertificate(_with_pair(cert.pairs, k,
                                             HSepPair(v, p.multiplier)))
        for v in _moved_vectors(f, p.multiplier):
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
        QuasibasePair([f.of(x - y) for x, y in zip(t2, t)], s2),
    ] + cert.pairs[k + 2:]
    return D2Certificate(cert.side, pairs, cert.reverse_order)


def d2_cases(f, cert):
    for side in ("left", "right"):   # the other side's label is a fault
        yield D2Certificate(side, cert.pairs, cert.reverse_order)
    for k in range(len(cert.pairs) - 1):
        yield _mixed(cert, k)
    for k, p in enumerate(cert.pairs):
        for v in _moved_vectors(f, p.tensor):
            yield D2Certificate(cert.side, _with_pair(
                cert.pairs, k, QuasibasePair(v, p.endo)))
        for mat in _moved_matrices(p.endo):
            yield D2Certificate(cert.side, _with_pair(
                cert.pairs, k, QuasibasePair(p.tensor, mat)))


@pytest.mark.parametrize("name", NAMES)
def test_substitution_matches_the_operator_verifiers(analysed, name):
    cr, cls = analysed(name)
    f = cr.field
    checks = []
    if cls.separability_element is not None:
        checks += [(verify_separability, reference_verify_separability, c)
                   for c in separability_cases(f, cls.separability_element)]
    if cls.hsep_system is not None:
        checks += [(verify_hsep, reference_verify_hsep, c)
                   for c in hsep_cases(f, cls.hsep_system)]
    for qb in (cls.left_quasibase, cls.right_quasibase):
        if qb is not None:
            checks += [(verify_d2, reference_verify_d2, c)
                       for c in d2_cases(f, qb)]
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
