"""The input and report JSON schemas, and the one checker that reads them.

A Schema compiles the Draft-7 keywords the shipped schemas use into
checks, and refuses any other keyword when it loads.  One departure
from Draft 7: a float is never an integer, not even 1.0, because a JSON
reader may already have rounded it.  A check returns None or the first
Fault, whose path is built only on failure: a missing or unknown key is
a fault at that key, and a oneOf no branch matches gives its deepest
branch fault.
"""

import json
import re
import reprlib
from functools import cache, partial
from importlib.resources import files
from math import inf
from typing import Callable

_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "boolean": bool, "null": type(None)}
_NAMES = {dict: "an object", list: "an array", str: "a string",
          int: "an integer", bool: "a boolean", type(None): "null"}
_KEYWORDS = {"$ref", "type", "const", "enum", "properties", "required",
             "additionalProperties", "items", "minItems", "allOf", "oneOf",
             "if", "then", "else", "minimum", "exclusiveMaximum", "pattern",
             "$schema", "$id", "title", "description", "definitions"}


class SchemaError(ValueError):
    """A schema uses a keyword or form the checker does not read."""


class Fault:
    """Why a value fails, and the steps from it up to the document root."""

    def __init__(self, reason: str) -> None:
        self.reason, self.steps = reason, []

    def at(self, step) -> "Fault":
        self.steps.append(step)
        return self

    def location(self, up: int = 0) -> str:
        """The JSON path of the fault, or of its up-th enclosing value."""
        return "$" + "".join(f"[{s}]" if type(s) is int else f".{s}"
                             for s in reversed(self.steps[up:]))


def _got(x) -> str:
    if type(x) is float:
        return f"the float {x!r}: floats are not exact"
    name = _NAMES.get(type(x), type(x).__name__)
    return name if type(x) in (dict, list) else f"{name} {reprlib.repr(x)}"


class Schema:
    """One schema, with every schema its $refs reach, compiled."""

    def __init__(self, name: str, load: Callable[[str], dict]) -> None:
        self._load, self._compiled = cache(load), {}
        self.first_fault = self._ref(name, name)

    def _ref(self, ref: str, base: str) -> Callable:
        name, _, pointer = ref.partition("#")
        key = (name or base, pointer)
        if key not in self._compiled:
            node = self._load(key[0])
            for part in filter(None, pointer.split("/")):
                node = node[part]
            self._compiled[key] = self._compile(node, key[0])
        return self._compiled[key]

    def _compile(self, s, base: str) -> Callable:
        if type(s) is not dict or s.keys() - _KEYWORDS:
            raise SchemaError(f"unsupported schema {s!r}")
        if "$ref" in s:
            return self._ref(s["$ref"], base)
        sub = partial(self._compile, base=base)
        checks = []
        if "type" in s:
            names = [s["type"]] if type(s["type"]) is str else s["type"]
            if not _TYPES.keys() >= set(names):
                raise SchemaError(f"unsupported type {names!r}")
            ok = tuple(_TYPES[n] for n in names)
            types = " or ".join(_NAMES[t] for t in ok)
            checks.append(lambda x: None if type(x) in ok
                          else Fault(f"expected {types}, got {_got(x)}"))
        if "const" in s or "enum" in s:
            values = s.get("enum", [s.get("const")])
            listed = " or ".join(map(json.dumps, values))
            typed = [(type(v), v) for v in values]
            checks.append(lambda x: None if (type(x), x) in typed
                          else Fault(f"expected {listed}, got {_got(x)}"))
        if "pattern" in s:
            rx = re.compile(s["pattern"])
            checks.append(lambda x: Fault(f"{reprlib.repr(x)} does not match "
                                          f"{rx.pattern}")
                          if type(x) is str and not rx.search(x) else None)
        if "minimum" in s or "exclusiveMaximum" in s:
            low, high = s.get("minimum", -inf), s.get("exclusiveMaximum", inf)
            checks.append(lambda x: Fault(f"{x} is outside [{low}, {high})")
                          if type(x) in (int, float) and not low <= x < high
                          else None)
        if s.keys() & {"properties", "required", "additionalProperties"}:
            extra = s.get("additionalProperties", True)
            checks.append(_object(
                {k: sub(v) for k, v in s.get("properties", {}).items()},
                s.get("required", []), None if extra is True
                else (lambda x: Fault("unknown key")) if extra is False
                else sub(extra)))
        if "items" in s or "minItems" in s:
            checks.append(_array(sub(s.get("items", {})),
                                 s.get("minItems", 0)))
        checks += map(sub, s.get("allOf", ()))
        if "oneOf" in s:
            checks.append(_one_of(list(map(sub, s["oneOf"]))))
        if "if" in s:
            cond, then, other = map(sub, (s["if"], s.get("then", {}),
                                          s.get("else", {})))
            checks.append(lambda x: (then if cond(x) is None else other)(x))
        check = checks[0] if len(checks) == 1 else _first(checks)
        if "type" in s:
            check.admits = ok   # read by an enclosing oneOf
        return check


def _first(checks: list) -> Callable:
    def check(x):
        for c in checks:
            if (fault := c(x)) is not None:
                return fault
        return None
    return check


def _object(props: dict, required: list, extra) -> Callable:
    """Each key's property check, or else extra (None passes any), then
    the required keys."""
    each = props or extra is not None

    def check(x):
        if type(x) is dict:
            for key, value in x.items() if each else ():
                c = props.get(key, extra)
                if c is not None and (fault := c(value)) is not None:
                    return fault.at(key)
            for key in required:
                if key not in x:
                    return Fault("missing").at(key)
        return None
    return check


def _array(items: Callable, least: int) -> Callable:
    def check(x):
        if type(x) is list:
            if len(x) < least:
                return Fault(f"expected at least {least} items")
            for i, y in enumerate(x):
                if (fault := items(y)) is not None:
                    return fault.at(i)
        return None
    return check


def _one_of(branches: list) -> Callable:
    """Exactly one branch passes.  Only the branches whose type admits the
    value run, so on no match the deepest of their faults wins."""
    runs = {t: [c for c in branches if t in getattr(c, "admits", (t,))]
            for t in _NAMES}

    def check(x):
        tried = runs.get(type(x)) or branches
        if len(tried) == 1:
            return tried[0](x)
        faults = [fault for c in tried if (fault := c(x)) is not None]
        if len(faults) == len(tried):
            return max(faults, key=lambda fault: len(fault.steps))
        return None if len(faults) == len(tried) - 1 else Fault(
            "matches more than one alternative")
    return check


@cache
def schema(name: str) -> Schema:
    """The shipped schema of that file name, compiled on first use."""
    return Schema(name, lambda n: json.loads(
        files(__package__).joinpath(n).read_text("utf-8")))
