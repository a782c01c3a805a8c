"""JSON encodings for inputs, certificates, and exact scalars.

This is the one module that knows dense lists: the JSON documents list
every coordinate of a vector, and the library holds vectors as pair
vectors (linalg).  parse_vector reads a dense list into a pair vector
(sparse) once its length and scalars pass, and every encoder pads a
vector back to the length its dimension gives (dense).

Input documents describe a field, an algebra with an embedded
subalgebra, and optionally extra modules, ideal generators, and a
seed, which is echoed and has no effect; everything else the tool
computes.  Rational scalars travel as strings like "3/4" so nothing is
rounded, prime-field scalars as plain integers with the modulus stated
once in the field descriptor.  Every encoder has a matching decoder and
each pair round-trips exactly; one pair, driven by a table of field
shapes, serves all five certificate kinds.  Keys, types, the scalar
grammar and the refusal of floats are input.schema.json's to check; the
builders check only what a schema cannot state: vector lengths against
dimensions, primality, algebra and module axioms, subgroup and
subalgebra closure.
"""

from dataclasses import dataclass, field as dc_field, fields
from functools import cache
from typing import Optional

from .linalg import (GF, QQ, Field, LinalgError, Matrix, PrimeField, dense,
                     sparse)
from .algebra import (AlgebraError, Extension, FDAlgebra, GroupData,
                      group_algebra, self_extension, subalgebra_extension,
                      trivial_algebra)
from .bimodule import Bimodule, BimoduleError, one_sided
from .certify import D2Certificate, HSepCertificate, HSepPair, QuasibasePair
from .normality import Ideal, ideal_closure
from .schema import schema

# the keys an equivalences block holds beside its module blocks, which no
# module label may take
RESERVED_LABELS = ("regular", "base_change_of_total", "split_counit_on_base",
                   "evaluation_regular",
                   "tensor_ring_fg_projective_over_centralizer",
                   "endo_ring_fg_projective_over_centralizer")


class InputError(ValueError):
    """Malformed or semantically invalid input; location is a JSON path."""

    def __init__(self, message: str, location: str = "$") -> None:
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


# ---------------------------------------------------------------------------
# scalars


def parse_scalar(f: Field, v, loc: str):
    """A scalar of the schema's grammar: an integer, or over Q also "p/q"."""
    if type(v) is str and isinstance(f, PrimeField):
        raise InputError(f"prime-field scalar must be an integer, got {v!r}",
                         loc)
    try:
        return f.of(v)
    except LinalgError as exc:
        raise InputError(str(exc), loc) from None


def scalar_json(f: Field, v):
    return int(v) if isinstance(f, PrimeField) else str(v)


def parse_vector(f: Field, v: list, n: int, loc: str) -> tuple:
    """The pair vector of a dense list of n scalars; a second scan locates a fault."""
    if len(v) != n:
        raise InputError(f"expected length {n}, got {len(v)}", loc)
    try:
        return sparse([parse_scalar(f, c, loc) for c in v])
    except InputError:
        for i, c in enumerate(v):
            parse_scalar(f, c, f"{loc}[{i}]")
        raise


def vector_json(f: Field, v: tuple, n: int) -> list:
    """The pair vector v as a dense list of length n."""
    return [scalar_json(f, c) for c in dense(f, n, v)]


def parse_matrix(f: Field, rows: list, nrows: int, ncols: int,
                 loc: str) -> Matrix:
    if len(rows) != nrows:
        raise InputError(f"expected {nrows} rows", loc)
    return Matrix(f, nrows, ncols, tuple(
        parse_vector(f, r, ncols, f"{loc}[{i}]") for i, r in enumerate(rows)))


def matrix_json(mat: Matrix) -> list:
    return [vector_json(mat.field, row, mat.cols) for row in mat.pairs]


# ---------------------------------------------------------------------------
# field / algebra / extension


def parse_field(spec, loc: str = "$.field") -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict):
        try:
            return GF(spec["Fp"])
        except LinalgError as exc:
            raise InputError(str(exc), f"{loc}.Fp")
    raise InputError("field must be \"Q\" or {\"Fp\": prime}", loc)


def field_json(f: Field):
    return {"Fp": f.p} if isinstance(f, PrimeField) else "Q"


def parse_algebra(f: Field, spec: dict, loc: str = "$.algebra") -> FDAlgebra:
    if "group" in spec:
        g = spec["group"]
        try:
            group = GroupData(g["order"], g["cayley"])
        except AlgebraError as exc:
            raise InputError(str(exc), f"{loc}.group.cayley")
        return group_algebra(f, group, name=spec.get("name", "kG"))
    dim = spec["dim"]
    # FDAlgebra checks that the table is dim x dim
    mult = [[parse_vector(f, v, dim, f"{loc}.mult[{i}][{j}]")
             for j, v in enumerate(row)] for i, row in enumerate(spec["mult"])]
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
            "mult": [[vector_json(a.field, v, a.dim) for v in row]
                     for row in a.mult],
            "unit": vector_json(a.field, a.unit, a.dim),
            "name": a.name}


def parse_extension(a: FDAlgebra, spec: dict,
                    loc: str = "$.subalgebra") -> Extension:
    if "subgroup" in spec:
        try:
            return subalgebra_extension(a, subgroup=spec["subgroup"])
        except AlgebraError as exc:
            raise InputError(str(exc), f"{loc}.subgroup")
    basis = [parse_vector(a.field, r, a.dim, f"{loc}.basis[{i}]")
             for i, r in enumerate(spec["basis"])]
    try:
        return subalgebra_extension(a, basis=basis)
    except AlgebraError as exc:
        raise InputError(str(exc), f"{loc}.basis")


def extension_json(ext: Extension) -> dict:
    idx = ext.subgroup()
    if idx is not None:
        return {"subgroup": idx}
    return {"basis": [vector_json(ext.field, col, ext.total.dim)
                      for col in ext.iota.transpose().pairs]}


# ---------------------------------------------------------------------------
# modules and ideals


def parse_module(a: FDAlgebra, spec: dict, loc: str) -> Bimodule:
    """A module with the left action, the right action or both (the schema
    asks for one), counted before a one-sided module builds its identity."""
    dim, label = spec["dim"], spec.get("label", "M")
    for key in ("left_action", "right_action"):
        if key in spec and len(spec[key]) != a.dim:
            raise InputError(f"wants one {dim}x{dim} matrix per algebra "
                             f"basis element ({a.dim} total)", f"{loc}.{key}")
    left, right = ([parse_matrix(a.field, m, dim, dim, f"{loc}.{key}[{i}]")
                    for i, m in enumerate(spec[key])] if key in spec else None
                   for key in ("left_action", "right_action"))
    if left is not None and right is not None:
        m = Bimodule(a, a, dim, left, right, label=label)
    elif left is not None:
        m = one_sided(a, "left", dim, left, label=label)
    else:
        m = one_sided(a, "right", dim, right, label=label)
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


def ideal_json(j: Ideal) -> dict:
    a = j.algebra
    return {"label": j.label,
            "generators": [vector_json(a.field, g, a.dim) for g in j.generators]}


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
    """Check doc against input.schema.json, then build it and its echo."""
    fault = schema("input.schema.json").first_fault(doc)
    if fault is not None:
        raise InputError(fault.reason, fault.location())
    parsed = build_input(doc)
    parsed.echo = input_json(parsed)
    return parsed


def build_input(doc: dict) -> ParsedInput:
    """Build an input document that input.schema.json admits, leaving the
    echo, which only parse_input makes, empty."""
    f = parse_field(doc["field"])
    a = parse_algebra(f, doc["algebra"])
    if "subalgebra" in doc:
        ext = parse_extension(a, doc["subalgebra"])
    else:
        ext = self_extension(a)
    modules = [parse_module(a, m, f"$.modules[{i}]")
               for i, m in enumerate(doc.get("modules", []))]
    labels = [m.label for m in modules]
    if len(set(labels)) != len(labels):
        raise InputError("module labels must be distinct", "$.modules")
    for label in labels:
        if label in RESERVED_LABELS:
            raise InputError(f"module label \"{label}\" is reserved",
                             "$.modules")
    ideals = [ideal_closure(a, [
        parse_vector(f, g, a.dim, f"$.ideals[{k}].generators[{i}]")
        for i, g in enumerate(j["generators"])], j.get("label", f"(user{k})"))
        for k, j in enumerate(doc.get("ideals", []))]
    return ParsedInput(f, ext, modules, ideals, doc.get("seed", 0))


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
# certificates, whose keys and types the report schema has checked: SHAPES
# gives the dims keys of each vector field's length and each matrix field's
# rows and columns, pairs hold PAIRS instances, and the rest pass through.

SHAPES = {"element": ("tensor_square",), "casimir": ("tensor_square",),
          "tensor": ("tensor_square",), "multiplier": ("algebra",),
          "expectation": ("subalgebra", "algebra"),
          "endo": ("algebra", "algebra")}
PAIRS = {HSepCertificate: HSepPair, D2Certificate: QuasibasePair}


@cache
def _names(cls: type) -> tuple:
    """The field names of a certificate or pair class, in dataclass order."""
    return tuple(fld.name for fld in fields(cls))


def certificate_json(f: Field, cert, dims: dict) -> dict:
    """The payload of a certificate, or of one of its pairs."""
    out = {}
    for name in _names(type(cert)):
        v, shape = getattr(cert, name), SHAPES.get(name)
        if name == "pairs":
            v = [certificate_json(f, p, dims) for p in v]
        elif shape is not None:
            v = (vector_json(f, v, dims[shape[0]]) if len(shape) == 1
                 else matrix_json(v))
        out[name] = v
    return out


def certificate_from_json(cls: type, f: Field, payload: dict, dims: dict,
                          loc: str, side: Optional[str] = None):
    """The cls that payload encodes, its fields decoded in order so that a
    fault is located at the first bad one; a quasibase must be on side."""
    args = {}
    for name in filter(payload.__contains__, _names(cls)):
        v, shape, at = payload[name], SHAPES.get(name), f"{loc}.{name}"
        if name == "side" and v != side:
            raise InputError(f"a {side} quasibase wants side {side!r}", at)
        if name == "pairs":
            v = [certificate_from_json(PAIRS[cls], f, p, dims, f"{at}[{i}]")
                 for i, p in enumerate(v)]
        elif shape is not None:
            v = (parse_vector(f, v, dims[shape[0]], at) if len(shape) == 1
                 else parse_matrix(f, v, dims[shape[0]], dims[shape[1]], at))
        args[name] = v
    return cls(**args)
