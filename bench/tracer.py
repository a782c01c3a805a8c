"""Per-module spans taken from outside the library.

The tracer wraps public functions of ``ringext`` modules and rebinds
every name under which a ``ringext`` module holds them, because the
modules import each other's functions by name (``rref`` and
``hom_space`` live on in ``canonical``, ``certify``, ``equivalences``
and ``normality``).  Two methods of ``CanonicalRings`` are wrapped on
the class.  ``restore`` puts every original back.

Spans stay in memory as (name, start, end, parent, extension id), with
parent the index of the enclosing span or None; ``write`` stores them
as JSON lines when the run ends.
"""

import json
import sys
from time import perf_counter

PACKAGE = "ringext"

# (module, attribute) pairs; a dotted attribute names a method of a class
TARGETS = [
    ("serialize", "parse_input"),
    ("canonical", "CanonicalRings.__init__"),
    ("canonical", "CanonicalRings.verify_ring_axioms"),
    *(("certify", name) for name in (
        "find_separability_element", "find_conditional_expectation",
        "find_hsep_system", "find_d2_quasibase", "d2_summand_witness",
        "hsep_summand_witness", "endo_ring_probe", "module_facts",
        "base_module_projectivity", "verify_separability", "verify_split",
        "verify_hsep", "verify_d2")),
    *(("equivalences", name) for name in (
        "gamma_M", "functor_iso_checks", "chi_M", "rho_M", "pi_A_iso",
        "split_counit", "evaluation_map", "triangle_check")),
    *(("normality", name) for name in (
        "centralizer_normality_suite", "double_centralizer",
        "prebraided_check", "hopf_normality")),
    ("bimodule", "hom_space"),
    ("bimodule", "tensor_over"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "solve"),
    ("report", "report_json"),
    ("report", "verify_report"),
]


def span_name(module: str, attr: str) -> str:
    """canonical.CanonicalRings.__init__ is reported as the constructor,
    canonical.CanonicalRings; other methods drop the class name."""
    if attr.endswith(".__init__"):
        attr = attr[:-len(".__init__")]
    elif "." in attr:
        attr = attr.rsplit(".", 1)[1]
    return f"{module}.{attr}"


def _bimodule_key(m) -> tuple:
    """Identity of a bimodule by content: field, dimension and actions."""
    return (str(m.field), m.dim,
            tuple(tuple(map(tuple, a.data)) for a in m.left_action),
            tuple(tuple(map(tuple, a.data)) for a in m.right_action))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.rref_shapes: list = []   # (span index, rows, cols, rank, field, zeros)
        self.pair_keys: dict = {"bimodule.hom_space": [],
                                "bimodule.tensor_over": []}
        self.ext_id = None
        self._stack: list = []
        self._saved: list = []        # (owner, attribute, original)

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, attr in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(span_name(module, attr),
                                                   getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        pairs = self.pair_keys.get(name)
        is_rref = name == "linalg.rref"

        def traced(*args, **kwargs):
            if pairs is not None:
                pairs.append((_bimodule_key(args[0]), _bimodule_key(args[1])))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.ext_id)
            if is_rref:
                self._record_rref(index, args[0], result[1])
            return result

        return traced

    def _record_rref(self, index: int, mat, pivots) -> None:
        # counted after the rref span closes, so only its parents carry the
        # cost, which trace.overhead_s includes
        zeros = sum(1 for row in mat.data for x in row if not x)
        self.rref_shapes.append((index, mat.rows, mat.cols, len(pivots),
                                 str(mat.field), zeros))

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, ext = span
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "ext": ext}) + "\n")
            for index, rows, cols, rank, field, zeros in self.rref_shapes:
                fh.write(json.dumps({"rref": index, "rows": rows, "cols": cols,
                                     "rank": rank, "field": field,
                                     "zeros": zeros}) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time counts only the outermost span of a name, so a
    function that reaches itself again is not counted twice.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            entry["s"] += end - start
    for name, keys in tracer.pair_keys.items():
        if name in out:
            out[name]["distinct_ratio"] = len(set(keys)) / len(keys)
    return out
