"""Assemble analysis results into deterministic report documents.

A report is a plain JSON-able dict: input echo, dimensions, the
classification with its certificate payloads, isomorphism verdicts,
normality results, and the braided commutation verdict.  Nothing is
sampled at random: two runs on the same input produce byte-identical
JSON except for the generated_at stamp.  Reports can be re-verified
later against the tensor square and its canonical subspaces alone (no
rings, no ring axioms): one check against report.schema.json settles
every key and type, then each certificate payload is decoded by the one
certificate codec (serialize.certificate_from_json) and substituted back
into its defining equations, and the header, dims and verdict flags are
compared with the input echo and the certificates.
"""

import json
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .bimodule import regular_module
from .canonical import CanonicalRings, CanonicalSpaces, build_canonical_rings
from .certify import Classification, certificate_kinds, classify
from .equivalences import (VerifiedIso, centralizer_projectivity, chi_M,
                           evaluation_map, functor_iso_checks, gamma_M,
                           pi_A_iso, rho_M, split_counit)
from .normality import (a_invariant_contraction, centralizer_normality_suite,
                        default_ideal_sample, double_centralizer,
                        hopf_normality, per_closure, prebraided_check)
from .schema import schema
from .serialize import (InputError, ParsedInput, build_input,
                        certificate_from_json, certificate_json, field_json,
                        vector_json)

TOOL = {"name": "ringext", "version": __version__}


def _iso_block(iso: VerifiedIso) -> dict:
    """Every field of the verdict but its two maps, detail only when there
    is one."""
    out = {k: v for k, v in vars(iso).items() if k not in ("forward",
                                                             "backward")}
    out["checks"] = dict(iso.checks)
    if not iso.detail:
        del out["detail"]
    return out


def classification_block(cr: CanonicalRings, cls: Classification) -> dict:
    kinds = certificate_kinds()
    certs = {k.key: getattr(cls, k.key) for k in kinds}
    block = {k.flag: certs[k.key] is not None for k in kinds}
    dims = cr.dims()
    block.update({
        "endo_ring_detection": cls.endo_d2,
        "base_projective": dict(cls.base_projective),
        "module_facts": cls.facts,
        "consistency_notes": list(cls.consistency_notes),
        "certificates": {k.key: certificate_json(cr.field, certs[k.key], dims)
                         for k in kinds if certs[k.key] is not None},
    })
    return block


def module_block(cr: CanonicalRings, cls: Classification, m) -> dict:
    """The equivalence entry of one module.

    A left module over the total algebra gets the triangle, gamma and the
    induction and coinduction comparisons; a right one gets chi and rho.
    """
    lqb = cls.left_quasibase
    entry = {}
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
    return entry


def equivalence_block(cr: CanonicalRings, cls: Classification,
                      modules) -> dict:
    lqb = cls.left_quasibase
    a_right = regular_module(cr.ext.total, "right")
    out = {
        "regular": module_block(cr, cls, cr.a_reg),
        "base_change_of_total": _iso_block(pi_A_iso(cr, left_quasibase=lqb)),
        "split_counit_on_base": _iso_block(
            split_counit(cr, cr.b_reg, split=cls.conditional_expectation)),
        "evaluation_regular": _iso_block(evaluation_map(cr, a_right, a_right)),
        **centralizer_projectivity(cr),
    }

    for m in modules:
        out[m.label] = module_block(cr, cls, m)
    return out


def normality_block(cr: CanonicalRings, cls: Classification, ideals) -> dict:
    a = cr.ext.total
    sample = default_ideal_sample(
        a, extra_generators=cr.centralizer_space.basis.pairs)
    sample.extend(ideals)
    suite = centralizer_normality_suite(cr, ideals=sample)
    base_contractions = [{"ideal": j.label, "balanced": balanced}
                         for j, balanced in zip(sample, per_closure(
                             sample, lambda j: a_invariant_contraction(cr.ext, j)))]
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
        "double_basis": [vector_json(cr.field, r, a.dim)
                         for r in dc["double_centralizer"].basis.pairs],
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
    """Check a report against report.schema.json, then substitute every
    certificate back.  Returns (ok, messages).

    A schema fault is the only message, located at the value and at what
    holds it.  Otherwise the input echo is built unchecked into its
    CanonicalSpaces (no rings, no ring axioms), and the dims, field and
    seed must be theirs, each verdict flag must match the presence of its
    certificate, and each certificate must satisfy its equations.
    """
    fault = schema("report.schema.json").first_fault(doc)
    if fault is not None:
        return False, [f"{fault.location(1)}: fails the report schema at "
                       f"{fault.location()}: {fault.reason}"]
    try:
        parsed = build_input(doc["input"])
    except InputError as exc:
        return False, [f"input echo does not parse: {exc}"]
    cs = CanonicalSpaces(parsed.ext)
    dims = cs.dims()

    msgs = [f"$.{key}: differs from the input echo" for key, echoed in (
        ("field", field_json(parsed.field)), ("seed", parsed.seed))
        if doc[key] != echoed]
    if doc["dims"] != dims:
        msgs.append("recorded dimensions disagree with the rebuilt extension")
    attached = []
    if "classification" in doc:
        cl = doc["classification"]
        certs = cl.get("certificates", {})
        for k in certificate_kinds():
            if cl.get(k.flag) is not (k.key in certs):
                msgs.append(f"$.classification.{k.flag}: disagrees with the "
                            f"presence of {k.key}")
            if k.key in certs:
                attached.append((k, certs[k.key],
                                 f"$.classification.certificates.{k.key}"))
    if "certify" in doc:
        ct = doc["certify"]
        payload = ct.get("certificate")
        if ct["verdict"] is not (payload is not None):
            msgs.append("$.certify.verdict: disagrees with the certificate")
        elif payload is not None:
            attached.append((next(k for k in certificate_kinds()
                                  if k.name == ct["kind"]),
                             payload, "$.certify.certificate"))
    for kind, payload, loc in attached:
        try:
            cert = certificate_from_json(kind.cls, cs.field, payload, dims,
                                         loc, kind.side)
        except InputError as exc:
            msgs.append(f"certificate payload malformed: {exc}")
            continue
        if not kind.verify(cs, cert):
            msgs.append(f"{loc}: fails substitution")
    return not msgs, msgs


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
            "naturality checked at the generators of End, dim "
            f"{block['naturality_samples']})")
