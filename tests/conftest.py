import json
import os
import re
from types import SimpleNamespace

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
EXPECTED = os.path.join(CORPUS, "expected")
SCHEMAS = os.path.join(os.path.dirname(__file__), "..", "src", "ringext")

CORPUS_NAMES = ["b_eq_a", "qc2_q", "f2c2_f2", "f3c3_f3", "qs3_qa3",
                "f7s3_f7t", "m2q_q", "m2q_t2", "qq8_qi", "qxq_q"]

# separable / split / hseparable / left depth two / right depth two
EXPECTED_FLAGS = {
    "b_eq_a":   (True, True, True, True, True),
    "qc2_q":    (True, True, False, True, True),
    "f2c2_f2":  (False, True, False, True, True),
    "f3c3_f3":  (False, True, False, True, True),
    "qs3_qa3":  (True, True, False, True, True),
    "f7s3_f7t": (True, True, False, False, False),
    "m2q_q":    (True, True, True, True, True),
    "m2q_t2":   (True, False, True, True, True),
    "qq8_qi":   (True, True, False, True, True),
    "qxq_q":    (True, True, False, True, True),
}

SEPARABLE = [n for n, f in EXPECTED_FLAGS.items() if f[0]]
LEFT_D2 = [n for n, f in EXPECTED_FLAGS.items() if f[3]]
RIGHT_D2 = [n for n, f in EXPECTED_FLAGS.items() if f[4]]


def corpus_doc(name: str) -> dict:
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_doc(name: str) -> dict:
    with open(os.path.join(EXPECTED, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def built():
    """Lazy per-extension cache of parsed input, canonical rings, and
    classification; building these dominates the suite runtime, so
    every test shares one instance per corpus entry."""
    from ringext.canonical import build_canonical_rings
    from ringext.certify import classify
    from ringext.serialize import parse_input

    cache = {}

    def get(name: str) -> SimpleNamespace:
        if name not in cache:
            parsed = parse_input(corpus_doc(name))
            cr = build_canonical_rings(parsed.ext)
            cls = classify(cr)
            cache[name] = SimpleNamespace(name=name, parsed=parsed,
                                          cr=cr, cls=cls)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def certify_docs(tmp_path_factory):
    """Lazy per-extension `certify KIND --json` documents: for each kind
    name, the path the CLI wrote and the document read back."""
    from ringext.cli import main
    from ringext.report import certificate_kinds

    out = tmp_path_factory.mktemp("certify")
    cache = {}

    def get(name: str) -> dict:
        if name not in cache:
            cache[name] = {}
            for k in certificate_kinds():
                target = str(out / f"{name}.{k.name}.json")
                assert main(["certify", k.name, os.path.join(
                    CORPUS, f"{name}.json"), "--json", "-o", target]) == 0
                with open(target, encoding="utf-8") as fh:
                    cache[name][k.name] = (target, json.load(fh))
        return cache[name]

    return get


def draft7_validators(strict_integers: bool = False) -> dict:
    """jsonschema's Draft7Validator for each shipped schema, by file name.
    With strict_integers a float is never an integer, as in ringext."""
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    from referencing.jsonschema import DRAFT7
    cls = jsonschema.Draft7Validator
    if strict_integers:
        cls = jsonschema.validators.extend(
            cls, type_checker=cls.TYPE_CHECKER.redefine(
                "integer", lambda checker, x: type(x) is int))
    schemas = {}
    for name in ("report.schema.json", "input.schema.json"):
        with open(os.path.join(SCHEMAS, name), encoding="utf-8") as fh:
            schemas[name] = json.load(fh)
        if strict_integers:
            # a $ref into a schema that names its $schema would switch
            # back to the plain Draft7Validator there
            del schemas[name]["$schema"]
    # both schemas carry an $id, so the report's relative $ref to the
    # input schema resolves within this registry and never leaves it
    registry = referencing.Registry().with_resources(
        (s["$id"], DRAFT7.create_resource(s)) for s in schemas.values())
    return {name: cls(s, registry=registry) for name, s in schemas.items()}


@pytest.fixture(scope="session")
def report_validator():
    """A validator for the shipped report.schema.json."""
    return draft7_validators()["report.schema.json"]


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion test

_acceptance: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)([a-z_]*)", report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    label = m.group(2).strip("_").replace("_", " ")
    _acceptance[(num, label)] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for (num, label), outcome in sorted(_acceptance.items()):
        status = "PASS" if outcome == "passed" else "FAIL"
        suffix = f" ({label})" if label else ""
        terminalreporter.write_line(f"criterion {num}{suffix}: {status}")
