"""The memo of CanonicalRings: it is scoped to one set of rings, exact,
shares one result among modules of one content whatever their labels,
and shares only frozen results."""

import dataclasses
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from ringext import bimodule, canonical, certify, equivalences, normality
from ringext.algebra import FDAlgebra
from ringext.bimodule import Bimodule, BimoduleError
from ringext.canonical import build_canonical_rings, content_key
from ringext.certify import classify
from ringext.report import (_iso_block, analysis_report, equivalence_block,
                            report_json)
from ringext.serialize import parse_input

from tests.conftest import CORPUS_NAMES, corpus_doc, expected_doc
from tests.test_equivalences import (_CONSTRUCTORS, _QUASIBASE_TAKERS,
                                     _altered_expectation, _altered_quasibase,
                                     _altered_separability)


def _counting(monkeypatch, name: str) -> list:
    """Wrap the uncached engine bimodule.<name> under every name a ringext
    module holds it by, and record the module pair of every call."""
    calls = []
    engine = getattr(bimodule, name)

    def counted(m, n, *args, **kwargs):
        calls.append((m, n))
        return engine(m, n, *args, **kwargs)

    for module in (bimodule, canonical, equivalences):
        if getattr(module, name, None) is engine:
            monkeypatch.setattr(module, name, counted)
    return calls


def _without_stamp(doc: dict) -> str:
    return report_json({k: v for k, v in doc.items() if k != "generated_at"})


def _content(m) -> tuple:
    """A module by dimension and action matrices only."""
    return (m.dim, tuple(tuple(map(tuple, a.data))
                         for a in [*m.left_action, *m.right_action]))


def _twin(m) -> Bimodule:
    """m's algebras and action matrices under another label."""
    return Bimodule(m.left_algebra, m.right_algebra, m.dim, m.left_action,
                    m.right_action, label="twin")


def test_no_state_carries_over_between_analyses(monkeypatch):
    parsed = parse_input(corpus_doc("qc2_q"))
    calls = _counting(monkeypatch, "hom_space")
    first = analysis_report(parsed)
    n_first = len(calls)
    second = analysis_report(parsed)
    assert n_first > 0
    assert len(calls) - n_first == n_first
    assert _without_stamp(first) == _without_stamp(second)


@pytest.mark.parametrize("engine", ["hom_space", "tensor_over"])
def test_no_pair_is_built_twice_in_one_analysis(monkeypatch, engine):
    parsed = parse_input(corpus_doc("qq8_qi"))
    calls = _counting(monkeypatch, engine)
    analysis_report(parsed)
    seen = Counter((_content(m), _content(n)) for m, n in calls)
    assert calls and max(seen.values()) == 1


def test_a_shared_result_keeps_each_callers_label():
    """A second module with the regular module's actions reuses every hom
    space and tensor product built for the regular one, and its report
    block is the regular block under its own label."""
    doc = corpus_doc("qc2_q")
    eye, swap = [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]
    doc["modules"].append({"label": "twin", "dim": 2,
                           "left_action": [eye, swap],
                           "right_action": [eye, swap]})
    got = analysis_report(parse_input(doc))["equivalences"]
    want = expected_doc("qc2_q")["equivalences"]
    assert got["regular"] == want["regular"]
    assert got["sign"] == want["sign"]
    assert got["twin"] == json.loads(
        json.dumps(want["regular"]).replace("kG", "twin"))


def test_memo_hit_is_shared_by_a_twin_module(monkeypatch):
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    first, hs = cr.tensor(cr.a_reg, cr.a_reg), cr.hom(cr.a_reg, cr.a_reg)
    tensors = _counting(monkeypatch, "tensor_over")
    homs = _counting(monkeypatch, "hom_space")
    twin = _twin(cr.a_reg)
    assert cr.tensor(twin, cr.a_reg).relations is first.relations
    assert cr.hom(twin, twin).basis is hs.basis
    assert tensors == homs == []


def test_a_recorded_generator_keys_its_own_tensor_product(monkeypatch):
    """R as a right T-module with its recorded generating set {1_R} and
    without one gives two tensor products with T (recording none), presented
    over {1_R} and over R's unit basis, of one dimension; the maps out of
    both are one memo entry, as a generating set changes no hom space."""
    cr = build_canonical_rings(parse_input(corpus_doc("qq8_qi")).ext)
    r_t, t = cr.cent_module_tensor, cr.tensor_ring
    plain = _twin(r_t)
    assert r_t.generating_set is not None and plain.generating_set is None
    t_t = _twin(bimodule.regular_module(t, "left"))
    tensors = _counting(monkeypatch, "tensor_over")
    homs = _counting(monkeypatch, "hom_space")
    presented = cr.tensor(r_t, t_t)
    ambient = cr.tensor(plain, t_t)
    assert len(tensors) == 2
    assert presented.presented[0] == "left"
    assert len(ambient.presented[1]) == r_t.dim
    assert presented.module.dim == ambient.module.dim == r_t.dim
    t_t = bimodule.regular_module(t, "right")
    assert cr.hom(r_t, t_t) is cr.hom(plain, t_t)
    assert len(homs) == 1


def test_memo_keys_tell_apart_modules_differing_at_one_generator(monkeypatch):
    """The memo keys a module on its generators' actions only.  Two
    modules that differ in one generator's action are two keys, and each
    call reaches the engine; an on-demand action list is not built for
    the key."""
    cr = build_canonical_rings(parse_input(corpus_doc("qq8_qi")).ext)
    a = cr.ext.total
    m = bimodule.regular_module(a, "left")
    g = a.generators()[-1]
    lefts = list(m.left_action)
    lefts[g] = m.left_action[g] @ m.left_action[g]
    bent = Bimodule(a, m.right_algebra, m.dim, lefts, m.right_action)
    homs = _counting(monkeypatch, "hom_space")
    first, second = cr.hom(m, m), cr.hom(bent, m)
    assert len(homs) == 2 and first is not second
    built = []
    lazy = Bimodule(a, m.right_algebra, m.dim, bimodule.OnRead(
        a.dim, lambda i: built.append(i) or m.left_action[i]), m.right_action)
    assert cr.hom(lazy, m) is first and len(homs) == 2
    assert sorted(built) == a.generators()


def test_memo_tells_apart_modules_over_different_algebras(monkeypatch):
    """Equal action matrices over two equal but distinct algebras are two
    keys: each call reaches the engine, and each space keeps its own."""
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    a = cr.ext.total
    twin = FDAlgebra(a.field, a.dim, a.mult, a.unit, name="twin")
    over_a = bimodule.regular_module(a, "right")
    over_twin = bimodule.regular_module(twin, "right")
    calls = _counting(monkeypatch, "hom_space")
    assert cr.hom(over_a, over_a).source.right_algebra is a
    assert cr.hom(over_twin, over_twin).source.right_algebra is twin
    assert len(calls) == 2


def test_shared_results_cannot_be_mutated():
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    hs = cr.hom(cr.restricted, cr.restricted)
    with pytest.raises(AttributeError):
        hs.basis.append(hs.basis[0])
    with pytest.raises(TypeError):
        hs.basis[0] = hs.basis[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        hs.basis = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cr.q.module = cr.a_reg
    with pytest.raises(dataclasses.FrozenInstanceError):
        cr.q.relations = None
    with pytest.raises(TypeError):
        cr.q.free_cols[0] = 0


@pytest.mark.parametrize("name", ["qc2_q", "m2q_t2"])
def test_reused_rings_give_the_fresh_report(name):
    parsed = parse_input(corpus_doc(name))
    fresh = _without_stamp(analysis_report(parsed))
    cr = build_canonical_rings(parsed.ext)
    cls = classify(cr)
    for _ in range(2):
        again = analysis_report(parsed, rings=cr, classification=cls)
        assert _without_stamp(again) == fresh


def test_each_induced_module_is_built_once(monkeypatch):
    """One qc2_q analysis induces the regular module for gamma, the
    induction comparison and pi_A, and the sign module for the first two
    (five calls without a memo): each is built once, and the
    report is the golden one."""
    built_for = Counter()
    build = canonical.CanonicalRings._build_induced

    def counted(cr, m):
        built_for[m.label] += 1
        return build(cr, m)

    monkeypatch.setattr(canonical.CanonicalRings, "_build_induced", counted)
    doc = analysis_report(parse_input(corpus_doc("qc2_q")))
    assert built_for == Counter({"kG": 1, "sign": 1})
    assert _without_stamp(doc) == _without_stamp(expected_doc("qc2_q"))


def test_repeated_evaluation_maps_hit_the_memo(monkeypatch):
    """End(m) and the precomposition module are built once per content, so
    the tensor product of a repeated evaluation map is keyed alike."""
    cr = build_canonical_rings(parse_input(corpus_doc("qq8_qi")).ext)
    a = cr.ext.total
    calls = _counting(monkeypatch, "tensor_over")
    blocks, sizes = [], []
    for _ in range(3):
        a_right = bimodule.regular_module(a, "right")
        blocks.append(_iso_block(equivalences.evaluation_map(
            cr, a_right, a_right)))
        sizes.append(len(cr._memo))
    assert len(calls) == 1
    assert blocks[0] == blocks[1] == blocks[2]
    assert sizes[0] == sizes[1] == sizes[2]


def test_induced_memo_hit_is_shared_by_a_twin_module(monkeypatch):
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    first = cr.induced(cr.a_reg)
    builds = []
    monkeypatch.setattr(canonical.CanonicalRings, "_build_induced",
                        lambda cr, m: builds.append(m))
    again = cr.induced(_twin(cr.a_reg))
    assert again.collapse is first.collapse
    assert again.tensor.relations is first.tensor.relations
    assert builds == []


def test_one_analysis_verifies_each_certificate_once(monkeypatch):
    """classify verifies what it finds; gamma, the induction comparisons,
    chi, rho, split_counit and the prebraided check take the same
    certificates and substitute none of them again."""
    seen = Counter()
    for name in ("verify_separability", "verify_split", "verify_hsep",
                 "verify_d2"):
        verify = getattr(certify, name)

        def counted(cr, cert, verify=verify):
            seen[content_key(cert)] += 1
            return verify(cr, cert)

        for module in (certify, equivalences, normality):
            if getattr(module, name, None) is verify:
                monkeypatch.setattr(module, name, counted)
    doc = analysis_report(parse_input(corpus_doc("qq8_qi")))
    assert sorted(key[0] for key in seen) == [
        "D2Certificate", "D2Certificate", "SeparabilityCertificate",
        "SplitCertificate"]
    assert max(seen.values()) == 1
    assert _without_stamp(doc) == _without_stamp(expected_doc("qq8_qi"))


@pytest.mark.parametrize("constructors, fault", [
    (_QUASIBASE_TAKERS, _altered_quasibase),
    (("gamma_M",), _altered_separability),
    (("split_counit",), _altered_expectation),
], ids=["quasibase", "separability", "expectation"])
def test_a_failing_certificate_is_substituted_once(monkeypatch, constructors,
                                                   fault):
    """A certificate that fails substitution is substituted once per
    content, and every constructor given it raises on every call."""
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    kwargs = fault(SimpleNamespace(cr=cr, cls=classify(cr)))
    seen = Counter()
    for name in ("verify_separability", "verify_split", "verify_d2"):
        verify = getattr(equivalences, name)

        def counted(cr, cert, verify=verify):
            seen[content_key(cert)] += 1
            return verify(cr, cert)

        monkeypatch.setattr(equivalences, name, counted)
    for _ in range(2):
        for name in constructors:
            with pytest.raises(BimoduleError):
                _CONSTRUCTORS[name](cr, **kwargs)
    assert list(seen.values()) == [1]


def test_each_comparison_map_is_built_once(monkeypatch):
    """pi_A is the regular module's induction comparison, gamma's quasibase
    route goes through pi and rho through chi: one qc2_q analysis builds pi
    once per left module (kG three times without the memo), and the hom
    space out of A, with its endo-ring action, once per right module for
    chi and rho (twice without) and once for split_counit on B."""
    built_for = Counter()
    for name in ("_pi_matrix", "_hom_from_total"):
        build = getattr(equivalences, name)

        def counted(cr, m, *args, name=name, build=build):
            built_for[name, m.label] += 1
            return build(cr, m, *args)

        monkeypatch.setattr(equivalences, name, counted)
    doc = analysis_report(parse_input(corpus_doc("qc2_q")))
    assert built_for == Counter({("_pi_matrix", "kG"): 1,
                                 ("_pi_matrix", "sign"): 1,
                                 ("_hom_from_total", "kG"): 1,
                                 ("_hom_from_total", "sign"): 1,
                                 ("_hom_from_total", "B"): 1})
    assert _without_stamp(doc) == _without_stamp(expected_doc("qc2_q"))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_shared_base_change_equals_a_standalone_pi_a(name, built):
    b = built(name)
    shared = equivalence_block(b.cr, b.cls, b.parsed.modules)
    alone = equivalences.pi_A_iso(build_canonical_rings(b.parsed.ext),
                                  left_quasibase=b.cls.left_quasibase)
    assert shared["base_change_of_total"] == _iso_block(alone)


def test_memo_tells_apart_comparisons_with_and_without_a_quasibase():
    """A comparison built without a quasibase is not handed to a caller
    that supplies one, nor the other way round."""
    cr = build_canonical_rings(parse_input(corpus_doc("qc2_q")).ext)
    lqb = classify(cr).left_quasibase
    comparisons = {
        "pi_A": lambda **kw: equivalences.pi_A_iso(cr, **kw),
        "induction": lambda **kw: equivalences.functor_iso_checks(
            cr, cr.a_reg, **kw)["induction"],
        "chi": lambda **kw: equivalences.chi_M(cr, cr.a_reg, **kw),
        "rho": lambda **kw: equivalences.rho_M(cr, cr.a_reg, **kw),
    }
    for name, build in comparisons.items():
        statuses = [build().status, build(left_quasibase=lqb).status,
                    build().status]
        assert statuses == ["bijective", "verified", "bijective"], name
