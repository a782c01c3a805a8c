"""JSON encodings for inputs, certificates, and exact scalars.

Input documents describe a field, an algebra with an embedded
subalgebra, and optionally extra modules, ideal generators, and a
seed, which is echoed and has no effect; everything else the tool
computes.  Rational scalars travel as strings like "3/4" so nothing is
rounded, prime-field scalars as plain integers with the modulus stated
once in the field descriptor.  Every encoder has a matching decoder and
each pair round-trips exactly; floats are rejected outright since they
cannot promise exactness.
"""

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from .linalg import GF, QQ, Field, LinalgError, Matrix, PrimeField
from .algebra import (AlgebraError, Extension, FDAlgebra, GroupData,
                      group_algebra, self_extension, subalgebra_extension,
                      trivial_algebra)
from .bimodule import Bimodule, BimoduleError, left_module, right_module
from .certify import (D2Certificate, HSepCertificate, HSepPair,
                      QuasibasePair, SeparabilityCertificate, SplitCertificate)
from .normality import Ideal, ideal_closure


class InputError(ValueError):
    """Malformed or semantically invalid input; location is a JSON path."""

    def __init__(self, message: str, location: str = "$") -> None:
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


# ---------------------------------------------------------------------------
# scalars

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_scalar(f: Field, v, loc: str):
    if isinstance(v, bool):
        raise InputError("booleans are not scalars", loc)
    if isinstance(v, float):
        raise InputError("floats are not exact; write rationals as \"p/q\"", loc)
    if isinstance(f, PrimeField):
        if not isinstance(v, int):
            raise InputError(f"prime-field scalar must be an integer, got {v!r}", loc)
        return f.of(v)
    if isinstance(v, int):
        return f.of(v)
    if isinstance(v, str):
        # only the input schema's grammar: Fraction alone would also read
        # "1_0", "0.5e1" and exponents too large to print
        try:
            if _RATIONAL.fullmatch(v):
                return f.of(Fraction(v))
        except (ValueError, ZeroDivisionError):
            pass
        raise InputError(f"cannot read {v!r} as a rational \"p\" or \"p/q\"",
                         loc)
    raise InputError(f"cannot read {v!r} as a scalar", loc)


def scalar_json(f: Field, v):
    if isinstance(f, PrimeField):
        return int(v)
    return str(v)


def parse_vector(f: Field, v, n: int, loc: str) -> list:
    if not isinstance(v, list):
        raise InputError("expected a list of scalars", loc)
    if len(v) != n:
        raise InputError(f"expected length {n}, got {len(v)}", loc)
    return [parse_scalar(f, c, f"{loc}[{i}]") for i, c in enumerate(v)]


def vector_json(f: Field, v: Sequence) -> list:
    return [scalar_json(f, c) for c in v]


def parse_matrix(f: Field, rows, nrows: int, ncols: int, loc: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise InputError(f"expected {nrows} rows", loc)
    data = [parse_vector(f, r, ncols, f"{loc}[{i}]") for i, r in enumerate(rows)]
    return Matrix(f, nrows, ncols, data)


def matrix_json(mat: Matrix) -> list:
    return [vector_json(mat.field, mat.row(i)) for i in range(mat.rows)]


# ---------------------------------------------------------------------------
# field / algebra / extension


def parse_field(spec, loc: str = "$.field") -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError("Fp wants a prime integer", f"{loc}.Fp")
        try:
            return GF(p)
        except LinalgError as exc:
            raise InputError(str(exc), f"{loc}.Fp")
    raise InputError("field must be \"Q\" or {\"Fp\": prime}", loc)


def field_json(f: Field):
    return {"Fp": f.p} if isinstance(f, PrimeField) else "Q"


def _require_keys(spec: dict, allowed: set, required: set, loc: str) -> None:
    extra = set(spec) - allowed
    if extra:
        raise InputError(f"unknown keys {sorted(extra)}", loc)
    missing = required - set(spec)
    if missing:
        raise InputError(f"missing keys {sorted(missing)}", loc)


def parse_group(spec, loc: str) -> GroupData:
    if not isinstance(spec, dict):
        raise InputError("group wants {order, cayley}", loc)
    _require_keys(spec, {"order", "cayley"}, {"order", "cayley"}, loc)
    order = spec["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InputError("order must be a positive integer", f"{loc}.order")
    try:
        return GroupData(order, spec["cayley"])
    except (AlgebraError, TypeError) as exc:
        raise InputError(str(exc), f"{loc}.cayley")


def parse_algebra(f: Field, spec, loc: str = "$.algebra") -> FDAlgebra:
    if not isinstance(spec, dict):
        raise InputError("algebra must be an object", loc)
    if "group" in spec:
        _require_keys(spec, {"group", "name"}, {"group"}, loc)
        g = parse_group(spec["group"], f"{loc}.group")
        return group_algebra(f, g, name=spec.get("name", "kG"))
    _require_keys(spec, {"dim", "mult", "unit", "name"}, {"dim", "mult", "unit"}, loc)
    dim = spec["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dim must be a positive integer", f"{loc}.dim")
    mult_spec = spec["mult"]
    if not isinstance(mult_spec, list) or len(mult_spec) != dim:
        raise InputError(f"mult must be a {dim}x{dim} table of vectors", f"{loc}.mult")
    mult = []
    for i, row in enumerate(mult_spec):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"row must have {dim} entries", f"{loc}.mult[{i}]")
        mult.append([parse_vector(f, v, dim, f"{loc}.mult[{i}][{j}]")
                     for j, v in enumerate(row)])
    unit = parse_vector(f, spec["unit"], dim, f"{loc}.unit")
    try:
        return FDAlgebra(f, dim, mult, unit, name=spec.get("name", "A"))
    except AlgebraError as exc:
        raise InputError(str(exc), loc)


def algebra_json(a: FDAlgebra) -> dict:
    if a.group is not None:
        return {"group": {"order": a.group.order,
                          "cayley": [row[:] for row in a.group.cayley]},
                "name": a.name}
    return {"dim": a.dim,
            "mult": [[vector_json(a.field, v) for v in row] for row in a.mult],
            "unit": vector_json(a.field, a.unit),
            "name": a.name}


def parse_extension(a: FDAlgebra, spec, loc: str = "$.subalgebra") -> Extension:
    if not isinstance(spec, dict):
        raise InputError("subalgebra must be an object", loc)
    if "subgroup" in spec:
        _require_keys(spec, {"subgroup"}, {"subgroup"}, loc)
        idx = spec["subgroup"]
        if (not isinstance(idx, list)
                or any(not isinstance(i, int) or isinstance(i, bool) for i in idx)):
            raise InputError("subgroup wants a list of indices", f"{loc}.subgroup")
        try:
            return subalgebra_extension(a, subgroup=idx)
        except AlgebraError as exc:
            raise InputError(str(exc), f"{loc}.subgroup")
    _require_keys(spec, {"basis"}, {"basis"}, loc)
    rows = spec["basis"]
    if not isinstance(rows, list) or not rows:
        raise InputError("basis wants a nonempty list of vectors", f"{loc}.basis")
    basis = [parse_vector(a.field, r, a.dim, f"{loc}.basis[{i}]")
             for i, r in enumerate(rows)]
    try:
        return subalgebra_extension(a, basis=basis)
    except AlgebraError as exc:
        raise InputError(str(exc), f"{loc}.basis")


def extension_json(ext: Extension) -> dict:
    idx = ext.subgroup()
    if idx is not None:
        return {"subgroup": idx}
    return {"basis": [vector_json(ext.field, col) for col in ext.iota.columns()]}


# ---------------------------------------------------------------------------
# modules and ideals


def parse_module(a: FDAlgebra, spec, loc: str) -> Bimodule:
    if not isinstance(spec, dict):
        raise InputError("module must be an object", loc)
    _require_keys(spec, {"label", "dim", "left_action", "right_action"}, {"dim"}, loc)
    dim = spec["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dim must be a positive integer", f"{loc}.dim")
    label = spec.get("label", "M")
    if not isinstance(label, str):
        raise InputError("label must be a string", f"{loc}.label")
    f = a.field

    def actions(key):
        mats = spec.get(key)
        if mats is None:
            return None
        if not isinstance(mats, list) or len(mats) != a.dim:
            raise InputError(f"wants one {dim}x{dim} matrix per algebra "
                             f"basis element ({a.dim} total)", f"{loc}.{key}")
        return [parse_matrix(f, m, dim, dim, f"{loc}.{key}[{i}]")
                for i, m in enumerate(mats)]

    left = actions("left_action")
    right = actions("right_action")
    if left is None and right is None:
        raise InputError("module needs left_action, right_action, or both", loc)
    if left is not None and right is not None:
        m = Bimodule(a, a, dim, left, right, label=label)
    elif left is not None:
        m = left_module(a, dim, left, label=label)
    else:
        m = right_module(a, dim, right, label=label)
    try:
        m.validate()
    except BimoduleError as exc:
        raise InputError(str(exc), loc)
    return m


def module_json(m: Bimodule) -> dict:
    triv = trivial_algebra(m.field)
    out = {"label": m.label, "dim": m.dim}
    if m.left_algebra is not triv:
        out["left_action"] = [matrix_json(mat) for mat in m.left_action]
    if m.right_algebra is not triv:
        out["right_action"] = [matrix_json(mat) for mat in m.right_action]
    return out


def parse_ideals(a: FDAlgebra, spec, loc: str = "$.ideals") -> list:
    if not isinstance(spec, list):
        raise InputError("ideals wants a list", loc)
    out = []
    for k, entry in enumerate(spec):
        eloc = f"{loc}[{k}]"
        if not isinstance(entry, dict):
            raise InputError("ideal wants {label?, generators}", eloc)
        _require_keys(entry, {"label", "generators"}, {"generators"}, eloc)
        gens_spec = entry["generators"]
        if not isinstance(gens_spec, list):
            raise InputError("generators wants a list of vectors", f"{eloc}.generators")
        gens = [parse_vector(a.field, g, a.dim, f"{eloc}.generators[{i}]")
                for i, g in enumerate(gens_spec)]
        label = entry.get("label", f"(user{k})")
        if not isinstance(label, str):
            raise InputError("label must be a string", f"{eloc}.label")
        out.append(ideal_closure(a, gens, label))
    return out


def ideal_json(j: Ideal) -> dict:
    f = j.algebra.field
    return {"label": j.label,
            "generators": [vector_json(f, g) for g in j.generators]}


# ---------------------------------------------------------------------------
# whole input documents


@dataclass
class ParsedInput:
    field: Field
    ext: Extension
    modules: list
    ideals: list
    seed: int
    echo: dict = dc_field(default_factory=dict)


def parse_input(doc) -> ParsedInput:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    _require_keys(doc, {"field", "algebra", "subalgebra", "modules",
                        "ideals", "seed"},
                  {"field", "algebra"}, "$")
    f = parse_field(doc["field"])
    a = parse_algebra(f, doc["algebra"])
    if "subalgebra" in doc:
        ext = parse_extension(a, doc["subalgebra"])
    else:
        ext = self_extension(a)
    modules_spec = doc.get("modules", [])
    if not isinstance(modules_spec, list):
        raise InputError("modules wants a list", "$.modules")
    modules = [parse_module(a, m, f"$.modules[{i}]")
               for i, m in enumerate(modules_spec)]
    labels = [m.label for m in modules]
    if len(set(labels)) != len(labels):
        raise InputError("module labels must be distinct", "$.modules")
    if "regular" in labels:
        raise InputError("module label \"regular\" is reserved", "$.modules")
    ideals = parse_ideals(a, doc["ideals"]) if "ideals" in doc else []
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError("seed must be an integer", "$.seed")
    parsed = ParsedInput(f, ext, modules, ideals, seed)
    parsed.echo = input_json(parsed)
    return parsed


def input_json(parsed: ParsedInput) -> dict:
    out = {"field": field_json(parsed.field),
           "algebra": algebra_json(parsed.ext.total),
           "subalgebra": extension_json(parsed.ext),
           "seed": parsed.seed}
    if parsed.modules:
        out["modules"] = [module_json(m) for m in parsed.modules]
    if parsed.ideals:
        out["ideals"] = [ideal_json(j) for j in parsed.ideals]
    return out


# ---------------------------------------------------------------------------
# certificates


def _certificate_object(payload, keys: set, loc: str,
                        optional: frozenset = frozenset()) -> dict:
    """A certificate or pair object: every key in keys and no others
    besides those in optional."""
    if not isinstance(payload, dict):
        raise InputError(f"wants an object with keys {sorted(keys)}", loc)
    _require_keys(payload, keys | optional, keys, loc)
    return payload


def _pairs(payload: dict, keys: set, loc: str):
    """(location, object) for each pair of a certificate, keys checked."""
    if not isinstance(payload["pairs"], list):
        raise InputError("pairs must be a list", loc)
    for i, p in enumerate(payload["pairs"]):
        ploc = f"{loc}.pairs[{i}]"
        yield ploc, _certificate_object(p, keys, ploc)


def separability_json(f: Field, cert: SeparabilityCertificate) -> dict:
    return {"element": vector_json(f, cert.element)}


def separability_from_json(f: Field, payload, dims: dict,
                           loc: str) -> SeparabilityCertificate:
    payload = _certificate_object(payload, {"element"}, loc)
    return SeparabilityCertificate(parse_vector(
        f, payload["element"], dims["tensor_square"], f"{loc}.element"))


def split_json(f: Field, cert: SplitCertificate) -> dict:
    return {"expectation": matrix_json(cert.expectation)}


def split_from_json(f: Field, payload, dims: dict, loc: str) -> SplitCertificate:
    payload = _certificate_object(payload, {"expectation"}, loc)
    return SplitCertificate(parse_matrix(
        f, payload["expectation"], dims["subalgebra"], dims["algebra"],
        f"{loc}.expectation"))


def hsep_json(f: Field, cert: HSepCertificate) -> dict:
    return {"pairs": [{"casimir": vector_json(f, p.casimir),
                       "multiplier": vector_json(f, p.multiplier)}
                      for p in cert.pairs]}


def hsep_from_json(f: Field, payload, dims: dict, loc: str) -> HSepCertificate:
    payload = _certificate_object(payload, {"pairs"}, loc)
    return HSepCertificate([
        HSepPair(parse_vector(f, p["casimir"], dims["tensor_square"],
                              f"{ploc}.casimir"),
                 parse_vector(f, p["multiplier"], dims["algebra"],
                              f"{ploc}.multiplier"))
        for ploc, p in _pairs(payload, {"casimir", "multiplier"}, loc)])


def d2_json(f: Field, cert: D2Certificate) -> dict:
    return {"side": cert.side,
            "reverse_order": cert.reverse_order,
            "pairs": [{"tensor": vector_json(f, p.tensor),
                       "endo": matrix_json(p.endo)}
                      for p in cert.pairs]}


def d2_from_json(f: Field, payload, dims: dict, loc: str,
                 side: str) -> D2Certificate:
    """Decode a quasibase that must be labeled for the given side."""
    payload = _certificate_object(payload, {"side", "pairs"}, loc,
                                  optional=frozenset({"reverse_order"}))
    if payload["side"] != side:
        raise InputError(f"a {side} quasibase wants side {side!r}",
                         f"{loc}.side")
    reverse_order = payload.get("reverse_order", False)
    if not isinstance(reverse_order, bool):
        raise InputError("reverse_order must be a boolean",
                         f"{loc}.reverse_order")
    n = dims["algebra"]
    return D2Certificate(side, [
        QuasibasePair(parse_vector(f, p["tensor"], dims["tensor_square"],
                                   f"{ploc}.tensor"),
                      parse_matrix(f, p["endo"], n, n, f"{ploc}.endo"))
        for ploc, p in _pairs(payload, {"tensor", "endo"}, loc)], reverse_order)
