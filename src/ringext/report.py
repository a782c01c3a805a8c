"""Assemble analysis results into deterministic report documents.

A report is a plain JSON-able dict: input echo, dimensions, the
classification with its certificate payloads, isomorphism verdicts,
normality results, and the braided commutation verdict.  Nothing is
sampled at random: two runs on the same input produce byte-identical
JSON except for the generated_at stamp.  Reports can be re-verified
later against the tensor square and its canonical subspaces alone (no
rings, no ring axioms): every certificate payload is decoded and
substituted back into its defining equations, and the header, dims,
classification, equivalences and normality are checked against them
and against the types the report schema gives them.
"""

import json
from datetime import datetime, timezone
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import __version__, certify, serialize
from .bimodule import right_regular_module
from .canonical import CanonicalRings, CanonicalSpaces, build_canonical_rings
from .certify import Classification, classify
from .equivalences import (VerifiedIso, chi_M, evaluation_map,
                           functor_iso_checks, gamma_M, pi_A_iso, rho_M,
                           split_counit)
from .normality import (a_invariant_contraction, centralizer_normality_suite,
                        default_ideal_sample, double_centralizer,
                        hopf_normality, prebraided_check)
from .serialize import (InputError, ParsedInput, field_json, parse_input,
                        vector_json)

TOOL = {"name": "ringext", "version": __version__}


class CertificateKind(NamedTuple):
    """One certificate kind: its certify name, its report flag, its key
    (both in the report's certificates and on Classification), and its
    search, verifier and JSON codec."""
    name: str
    flag: str
    key: str
    search: Callable    # (cr) -> certificate or None
    verify: Callable    # (spaces, cert) -> bool
    encode: Callable    # (f, cert) -> payload
    decode: Callable    # (f, payload, dims, loc) -> cert; raises InputError


def certificate_kinds() -> tuple:
    """The five certificate kinds, in report order.

    Built on each call so that the functions are looked up afresh, and a
    caller that rebinds one of them (a tracer, say) is seen.
    """
    c, s = certify, serialize

    def d2(side: str) -> CertificateKind:
        return CertificateKind(
            f"d2-{side}", f"{side}_depth_two", f"{side}_quasibase",
            partial(c.find_d2_quasibase, side=side), c.verify_d2, s.d2_json,
            partial(s.d2_from_json, side=side))

    return (
        CertificateKind("separable", "separable", "separability_element",
                        c.find_separability_element, c.verify_separability,
                        s.separability_json, s.separability_from_json),
        CertificateKind("split", "split", "conditional_expectation",
                        c.find_conditional_expectation, c.verify_split,
                        s.split_json, s.split_from_json),
        CertificateKind("hsep", "hseparable", "hsep_system",
                        c.find_hsep_system, c.verify_hsep,
                        s.hsep_json, s.hsep_from_json),
        d2("left"),
        d2("right"),
    )


def _iso_block(iso: VerifiedIso) -> dict:
    """Every key _ISO_TYPES types, detail only when there is one."""
    out = {key: getattr(iso, key) for key in _ISO_TYPES}
    out["checks"] = dict(iso.checks)
    if not iso.detail:
        del out["detail"]
    return out


def classification_block(cr: CanonicalRings, cls: Classification) -> dict:
    kinds = certificate_kinds()
    certs = {k.key: getattr(cls, k.key) for k in kinds}
    block = {k.flag: certs[k.key] is not None for k in kinds}
    block.update({
        "endo_ring_detection": cls.endo_d2,
        "base_projective": dict(cls.base_projective),
        "module_facts": cls.facts,
        "consistency_notes": list(cls.consistency_notes),
        "certificates": {k.key: k.encode(cr.field, certs[k.key])
                         for k in kinds if certs[k.key] is not None},
    })
    return block


def module_block(cr: CanonicalRings, cls: Classification, m) -> tuple:
    """The equivalence entry of one module, and its functor_iso_checks.

    A left module over the total algebra gets the triangle, gamma and the
    induction and coinduction comparisons; a right one gets chi and rho.
    The second value is None when m is not a left module.
    """
    lqb = cls.left_quasibase
    entry, fi = {}, None
    if m.left_algebra is cr.ext.total:
        gamma = gamma_M(cr, m, separability=cls.separability_element,
                        left_quasibase=lqb)
        entry["triangle"] = gamma.checks["triangle"]
        entry["gamma"] = _iso_block(gamma)
        fi = functor_iso_checks(cr, m, left_quasibase=lqb)
        entry["induction"] = _iso_block(fi["induction"])
        entry["coinduction"] = _iso_block(fi["coinduction"])
    if m.right_algebra is cr.ext.total:
        entry["chi"] = _iso_block(chi_M(cr, m, left_quasibase=lqb))
        entry["rho"] = _iso_block(rho_M(cr, m, left_quasibase=lqb))
    return entry, fi


def equivalence_block(cr: CanonicalRings, cls: Classification,
                      modules) -> dict:
    lqb = cls.left_quasibase
    regular, fi = module_block(cr, cls, cr.a_reg)
    a_right = right_regular_module(cr.ext.total)
    out = {
        "regular": regular,
        "base_change_of_total": _iso_block(pi_A_iso(cr, left_quasibase=lqb)),
        "split_counit_on_base": _iso_block(
            split_counit(cr, cr.b_reg, split=cls.conditional_expectation)),
        "evaluation_regular": _iso_block(
            evaluation_map(cr.ext.total, a_right, a_right, rings=cr)),
        "tensor_ring_fg_projective_over_centralizer":
            fi["tensor_ring_fg_projective_over_centralizer"],
        "endo_ring_fg_projective_over_centralizer":
            fi["endo_ring_fg_projective_over_centralizer"],
    }

    for m in modules:
        out[m.label] = module_block(cr, cls, m)[0]
    return out


def normality_block(cr: CanonicalRings, cls: Classification, ideals) -> dict:
    a = cr.ext.total
    sample = default_ideal_sample(
        a, extra_generators=cr.centralizer_space.rows)
    sample.extend(ideals)
    suite = centralizer_normality_suite(cr, ideals=sample)
    base_contractions = [{"ideal": j.label,
                          "balanced": a_invariant_contraction(cr.ext, j)}
                         for j in sample]
    out = {"centralizer_suite": suite,
           "base_ideal_contractions": base_contractions,
           "base_normal_on_sample": all(c["balanced"] for c in base_contractions)}

    idx = cr.ext.subgroup()
    if idx is not None:
        out["hopf"] = hopf_normality(a.group, sorted(idx), cr.field)

    dc = double_centralizer(cr)
    out["double_centralizer"] = {
        "centralizer_dim": dc["centralizer"].dim,
        "double_dim": dc["double_centralizer"].dim,
        "base_dim": cr.ext.base.dim,
        "strict": dc["strict"],
        "double_basis": [vector_json(cr.field, r)
                         for r in dc["double_centralizer"].rows],
    }

    if cls.right_quasibase is not None:
        out["prebraided"] = dict(
            prebraided_check(cr, cls.right_quasibase), applicable=True)
    else:
        out["prebraided"] = {"applicable": False}
    return out


def analysis_report(parsed: ParsedInput,
                    rings: Optional[CanonicalRings] = None,
                    classification: Optional[Classification] = None) -> dict:
    """The full pipeline on one parsed input.

    Prebuilt canonical rings and classification may be supplied to
    reuse work; they must come from the same extension.
    """
    cr = rings if rings is not None else build_canonical_rings(parsed.ext)
    cls = classification if classification is not None else classify(cr)
    return {
        **report_header(parsed, "analyze"),
        "dims": cr.dims(),
        "classification": classification_block(cr, cls),
        "equivalences": equivalence_block(cr, cls, parsed.modules),
        "normality": normality_block(cr, cls, parsed.ideals),
    }


def report_header(parsed: ParsedInput, command: str) -> dict:
    """The keys every report starts with: the tool, the command that made
    it, the time, the input's seed (echoed; it has no effect), the field
    and the input echo."""
    return {"tool": dict(TOOL),
            "command": command,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "seed": parsed.seed,
            "field": field_json(parsed.field),
            "input": parsed.echo}


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# re-verification of emitted documents


def verify_report(doc) -> tuple:
    """Decode every certificate in a report and substitute it back.

    Returns (ok, messages).  The input echo is parsed exactly like a
    fresh input file, only its CanonicalSpaces are built (no rings, no
    ring axioms), the dims must be theirs, and each certificate payload
    must still satisfy its defining equations.  A report carries an
    analyze classification, a certify block, or both; verdicts must agree
    with certificate presence.  The header, equivalences and normality
    must have the types of docs/report.schema.json, and the header the
    field and seed of the input echo.
    """
    if not isinstance(doc, dict):
        return False, ["report is not a JSON object"]
    for key in ("input", "dims"):
        if key not in doc:
            return False, [f"report lacks the {key} block"]
    if "classification" not in doc and "certify" not in doc:
        return False, ["report lacks both the classification and the "
                       "certify block"]
    try:
        parsed = parse_input(doc["input"])
    except InputError as exc:
        return False, [f"input echo does not parse: {exc}"]
    cs = CanonicalSpaces(parsed.ext)
    dims = cs.dims()

    msgs = []
    _check_header(doc, parsed, msgs)
    if doc["dims"] != dims:
        msgs.append("recorded dimensions disagree with the rebuilt extension")
    attached = []
    if "classification" in doc:
        attached += _classification_certificates(doc["classification"], msgs)
    if "certify" in doc:
        attached += _certify_certificate(doc["certify"], msgs)
    if "equivalences" in doc:
        _check_equivalences(doc["equivalences"], msgs)
    if "normality" in doc:
        _check_typed(doc["normality"], _NORMALITY_TYPES, "$.normality", msgs)
    for kind, payload, loc in attached:
        try:
            cert = kind.decode(cs.field, payload, dims, loc)
        except InputError as exc:
            msgs.append(f"certificate payload malformed: {exc}")
            continue
        if not kind.verify(cs, cert):
            msgs.append(f"{loc}: fails substitution")
    return not msgs, msgs


# (what, test) of each JSON type docs/report.schema.json names
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STR = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))

# the typed keys of each block the schema describes
_CLASSIFICATION_TYPES = {
    "endo_ring_detection": ("a boolean or null",
                            lambda v: v is None or isinstance(v, bool)),
    "base_projective": _OBJECT,
    "module_facts": _OBJECT,
    "consistency_notes": ("a list of strings", lambda v: isinstance(
        v, list) and all(isinstance(s, str) for s in v)),
}
_ISO_STATUSES = ("verified", "bijective", "not-bijective", "inapplicable")
_ISO_TYPES = {
    "name": _STR, "domain": _STR, "codomain": _STR, "domain_dim": _INT,
    "codomain_dim": _INT, "route": _STR, "naturality_samples": _INT,
    "checks": _OBJECT, "detail": _STR,
    "status": (f"one of {', '.join(_ISO_STATUSES)}",
               lambda v: isinstance(v, str) and v in _ISO_STATUSES),
}
_HEADER_TYPES = {"tool": dict.fromkeys(("name", "version"), _STR),
                 "command": _STR, "seed": _INT}
_NORMALITY_TYPES = {
    "centralizer_suite": _OBJECT,
    "base_ideal_contractions": ("a list", lambda v: isinstance(v, list)),
    "base_normal_on_sample": _BOOL,
    "hopf": dict.fromkeys(("subgroup_normal", "conjugation_hopf_normal",
                           "augmentation_test"), _BOOL),
    "double_centralizer": _OBJECT,
    "prebraided": _OBJECT,
}


def _check_typed(block, types: dict, loc: str, msgs: list,
                 required: bool = False) -> bool:
    """block must be a JSON object whose keys named in types, when
    present (always, if required), pass their (what, test), or are
    objects typed by a nested dict; each fault goes to msgs.  Whether
    block was an object."""
    if not isinstance(block, dict):
        msgs.append(f"{loc}: not a JSON object")
        return False
    for key, spec in types.items():
        if key not in block:
            if required:
                msgs.append(f"{loc}.{key}: missing")
            continue
        if isinstance(spec, dict):
            _check_typed(block[key], spec, f"{loc}.{key}", msgs, required)
        elif not spec[1](block[key]):
            msgs.append(f"{loc}.{key}: not {spec[0]}")
    return True


def _check_header(doc: dict, parsed: ParsedInput, msgs: list) -> None:
    """The header keys the schema requires, typed, generated_at typed if
    present, and the field and seed of the input echo."""
    _check_typed(doc, _HEADER_TYPES, "$", msgs, required=True)
    _check_typed(doc, {"generated_at": _STR}, "$", msgs)
    for key, echoed in (("field", field_json(parsed.field)),
                        ("seed", parsed.seed)):
        if doc.get(key) != echoed:
            msgs.append(f"$.{key}: differs from the input echo")


def _check_entry(value, loc: str, msgs: list) -> None:
    """A boolean, or an isomorphism block: name and status required, the
    other keys typed."""
    if isinstance(value, bool):
        return
    if not isinstance(value, dict):
        msgs.append(f"{loc}: not a boolean or an isomorphism block")
        return
    _check_typed(value, _ISO_TYPES, loc, msgs)
    for key in ("name", "status"):
        if key not in value:
            msgs.append(f"{loc}: lacks {key}")


def _check_equivalences(eq, msgs: list) -> None:
    """Each entry is an entry of _check_entry or an object of them; a
    name or status marks an isomorphism block."""
    loc = "$.equivalences"
    if not isinstance(eq, dict):
        msgs.append(f"{loc}: not a JSON object")
        return
    for key, entry in eq.items():
        if isinstance(entry, dict) and not ("name" in entry
                                            or "status" in entry):
            for sub, value in entry.items():
                _check_entry(value, f"{loc}.{key}.{sub}", msgs)
        else:
            _check_entry(entry, f"{loc}.{key}", msgs)


def _classification_certificates(cl, msgs: list) -> list:
    """(kind, payload, location) of each certificate in a classification
    block; every problem with the block itself goes to msgs."""
    if not _check_typed(cl, _CLASSIFICATION_TYPES, "$.classification", msgs):
        return []
    loc = "$.classification.certificates"
    certs = cl.get("certificates", {})
    if not isinstance(certs, dict):
        msgs.append(f"{loc}: not a JSON object")
        return []
    kinds = certificate_kinds()
    unknown = sorted(set(certs) - {k.key for k in kinds})
    if unknown:
        msgs.append(f"{loc}: unknown certificates {unknown}")
    for k in kinds:
        if cl.get(k.flag) is not (k.key in certs):
            msgs.append(f"$.classification.{k.flag}: disagrees with the "
                        f"presence of {k.key}")
    return [(k, certs[k.key], f"{loc}.{k.key}") for k in kinds
            if k.key in certs]


def _certify_certificate(ct, msgs: list) -> list:
    """The certificate of a certify block, as for a classification; the
    verdict must be true exactly when a certificate is attached, and the
    verified claim true then and null otherwise."""
    loc = "$.certify"
    if not isinstance(ct, dict):
        msgs.append(f"{loc}: not a JSON object")
        return []
    kind = next((k for k in certificate_kinds() if k.name == ct.get("kind")),
                None)
    payload = ct.get("certificate")
    if kind is None:
        msgs.append(f"{loc}.kind: unknown certificate kind {ct.get('kind')!r}")
    elif ct.get("verdict") is not (payload is not None):
        msgs.append(f"{loc}.verdict: disagrees with the certificate")
    elif ct.get("verified") is not (True if payload is not None else None):
        msgs.append(f"{loc}.verified: disagrees with the certificate")
    elif payload is not None:
        return [(kind, payload, f"{loc}.certificate")]
    return []


# ---------------------------------------------------------------------------
# prose rendering


def _yn(v) -> str:
    if v is None:
        return "n/a"
    return "yes" if v else "no"


def render_text(doc: dict) -> str:
    lines = []
    tool = doc.get("tool", TOOL)
    lines.append(f"{tool['name']} {tool['version']} "
                 f"{doc.get('command', 'analyze')} report")
    fld = doc.get("field")
    fld_txt = "Q" if fld == "Q" else f"F_{fld['Fp']}" if isinstance(fld, dict) else "?"
    d = doc.get("dims")
    if d:
        lines.append(f"field {fld_txt}; algebra dim {d.get('algebra')}, "
                     f"subalgebra dim {d.get('subalgebra')}")
        lines.append(f"tensor square dim {d.get('tensor_square')}; "
                     f"centralizer {d.get('centralizer')}; "
                     f"tensor ring {d.get('tensor_ring')}; "
                     f"endo ring {d.get('endo_ring')}; "
                     f"casimir elements {d.get('casimir')}")
    ct = doc.get("certify")
    if ct:
        lines.append(f"certificate search ({ct['kind']}): "
                     f"{'found' if ct['verdict'] else 'none exists'}")
        if ct["verdict"]:
            lines.append("substitution check: "
                         f"{'passed' if ct['verified'] else 'FAILED'}")
    cl = doc.get("classification")
    if cl:
        lines.append("classification: "
                     f"separable {_yn(cl['separable'])}; "
                     f"split {_yn(cl['split'])}; "
                     f"H-separable {_yn(cl['hseparable'])}; "
                     f"depth two left {_yn(cl['left_depth_two'])} "
                     f"right {_yn(cl['right_depth_two'])}")
        attached = sorted(cl.get("certificates", {}))
        if attached:
            lines.append("certificates attached: " + ", ".join(attached))
        for note in cl.get("consistency_notes", []):
            lines.append(f"  cross-check: {note}")
    eq = doc.get("equivalences")
    if eq:
        for name in sorted(eq):
            block = eq[name]
            if isinstance(block, bool):
                lines.append(f"{name}: {_yn(block)}")
                continue
            if "status" in block:
                lines.append(_iso_line(name, block))
                continue
            for sub in sorted(block):
                v = block[sub]
                if isinstance(v, bool):
                    lines.append(f"{name}.{sub}: {_yn(v)}")
                else:
                    lines.append(_iso_line(f"{name}.{sub}", v))
    nm = doc.get("normality")
    if nm:
        suite = nm.get("centralizer_suite")
        if suite:
            lines.append("centralizer normality: "
                         f"{'balanced' if suite.get('all_equal') else 'NOT balanced'} "
                         f"on {len(suite.get('ideal_contractions', []))} sampled ideals "
                         f"and {len(suite.get('bimodule_invariants', []))} bimodules")
        if "base_normal_on_sample" in nm:
            lines.append(f"base subring normal on sample: "
                         f"{_yn(nm.get('base_normal_on_sample'))}")
        if "hopf" in nm:
            h = nm["hopf"]
            lines.append("group-algebra normality: "
                         f"table {_yn(h['subgroup_normal'])}, "
                         f"conjugation {_yn(h['conjugation_hopf_normal'])}, "
                         f"augmentation ideal {_yn(h['augmentation_test'])}")
        dc = nm.get("double_centralizer")
        if dc:
            lines.append("double centralizer: base dim "
                         f"{dc['base_dim']} inside dim {dc['double_dim']}, "
                         f"strict {_yn(dc['strict'])}")
        pb = nm.get("prebraided")
        if pb is not None:
            if pb.get("applicable"):
                lines.append("braided commutation law: "
                             f"{_yn(pb['holds'])} "
                             f"(naive commutativity {_yn(pb['naive_commutative'])})")
            else:
                lines.append("braided commutation law: "
                             "not applicable (no right quasibase)")
    return "\n".join(lines) + "\n"


def _iso_line(name: str, block: dict) -> str:
    route = f" via {block['route']}" if block.get("route") else ""
    return (f"{name}: {block['status']}{route} "
            f"({block['domain_dim']} -> {block['codomain_dim']}, "
            f"naturality checked on {block['naturality_samples']} basis "
            "endomorphisms)")
