#!/usr/bin/env python3
"""The ringext benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload q-corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  A run times set-up, parses every input of
the workload, then repeats passes until ``--seconds`` have gone by (at
least one).  A pass takes each extension through ``analysis_report`` and
``report_json`` (the ``ringext analyze`` path) and at once hands the
report to ``verify_report`` (the ``ringext verify`` path).  Everything
runs in this process, single-threaded and in sequence, except the set-up
probe, which times fresh interpreters that import ringext and parse the
inputs.

Timings are wall times rescaled to a fixed machine speed by the
``speed.SpeedProbe`` that samples the machine during each operation; the
plain wall times go to the detail line and the result file.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``analyze_s`` and ``verify_s``, each the sum over the cases of
the median of that case's rescaled timings; ``setup_s``, the median of
five rescaled set-up probes; the peak resident memory ``peak_rss_mb``;
and ``success_ratio``, the share of analyze and verify operations that
did not fail.  Each pass makes one analyze and one verify operation per
case.  An operation fails on an exception, a report that differs from
its golden or from an earlier pass, a verdict that contradicts the
group-algebra theorems, or a report that ``verify_report`` rejects.

With ``--trace 1`` one untraced analyze pass is followed by a traced
parse, analyze and verify pass, with spans taken around the public
functions of each ringext module (see ``tracer.py``); the last line holds
the per-module metrics (in wall seconds), the tracing overhead and the
share of the traced analyze wall time that the top-level spans cover.

Every run also writes its result, the environment fingerprint, the
per-case timings and any failures to ``bench/out/``, and with
``--trace 1`` the spans too.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from operator import itemgetter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5

sys.path.insert(0, BENCH)

import oracle      # noqa: E402
import workloads   # noqa: E402
from speed import SpeedProbe   # noqa: E402
from tracer import Tracer, summarize   # noqa: E402

_STAMP = re.compile(r'^  "generated_at": .*\n', re.M)

# a fresh interpreter: import ringext, parse every input read from stdin
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ringext
for doc in json.load(sys.stdin):
    try:
        ringext.parse_input(doc)
    except ringext.InputError:
        pass
"""


def unstamped(text: str) -> str:
    """Report text without its generated_at line, the one field that may
    differ between runs."""
    return _STAMP.sub("", text, count=1)


def fingerprint(ringext) -> dict:
    """What the timings depend on besides the inputs.  src_sha256 names
    the code where no .git directory exists to give git_sha."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ringext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rational = ringext.linalg._rational
    return {"git_sha": git_sha(),
            "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "rational_backend": f"{rational.__module__}.{rational.__name__}",
            "numpy_importable": find_spec("numpy") is not None}


def git_sha():
    """The commit checked out at ROOT, read from .git without running git;
    None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Workload:
    """One workload's cases with the checks, counts and timings of a run."""

    def __init__(self, ringext, cases: list) -> None:
        self.ringext = ringext
        self.cases = cases
        self.parsed: dict = {}
        self.first_text: dict = {}   # case name -> unstamped report of pass 1
        self.ops: list = []          # ("operation/case name", start, end)
        self.attempted = 0
        self.failures: list = []

    def fail(self, case, op: str, why: str) -> None:
        self.failures.append(f"{op} {case.name}: {why}")

    def time_setup(self, probe: SpeedProbe) -> None:
        """Fresh interpreters that import ringext and parse every input."""
        payload = json.dumps([case.doc for case in self.cases]).encode()
        for _ in range(SETUP_REPEATS):
            with probe.paused():
                start = time.perf_counter()
                # no timeout: with one, wait() polls in steps of up to 50 ms
                subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC],
                               input=payload, check=True)
                self.ops.append(("setup", start, time.perf_counter()))

    def parse(self, tracer=None) -> None:
        for case in self.cases:
            if tracer is not None:
                tracer.ext_id = f"parse/{case.name}"
            try:
                self.parsed[case.name] = self.ringext.parse_input(case.doc)
            except Exception as exc:   # counted as failed, never dropped
                self.parsed[case.name] = exc

    def run_pass(self, tracer=None, verify: bool = True) -> None:
        """Analyze each case and verify its report right away, so that
        verification is sampled across the whole pass as analysis is."""
        for case in self.cases:
            if tracer is not None:
                tracer.ext_id = f"analyze/{case.name}"
            text = self.analyze(case)
            if verify:
                if tracer is not None:
                    tracer.ext_id = f"verify/{case.name}"
                self.verify(case, text)

    def analyze(self, case):
        """One analyze operation; returns the report text, or None."""
        rx = self.ringext
        self.attempted += 1
        parsed = self.parsed[case.name]
        if isinstance(parsed, Exception):
            self.fail(case, "analyze", f"parse_input raised {parsed!r}")
            return None
        start = time.perf_counter()
        try:
            text = rx.report_json(rx.analysis_report(parsed))
        except Exception as exc:
            self.lap("analyze", case, start)
            self.fail(case, "analyze", f"raised {exc!r}")
            return None
        self.lap("analyze", case, start)
        self.check(case, text)
        return text

    def verify(self, case, text) -> None:
        """One verify operation."""
        self.attempted += 1
        if text is None:
            self.fail(case, "verify", "no report to verify")
            return
        doc = json.loads(text)
        start = time.perf_counter()
        try:
            ok, msgs = self.ringext.verify_report(doc)
        except Exception as exc:
            ok, msgs = False, [f"raised {exc!r}"]
        self.lap("verify", case, start)
        if not ok:
            self.fail(case, "verify", "; ".join(msgs))

    def lap(self, op: str, case, start: float) -> None:
        self.ops.append((f"{op}/{case.name}", start, time.perf_counter()))

    def check(self, case, text: str) -> None:
        """Golden, repeat and theorem checks of one analyze operation; the
        first problem found fails it."""
        body = unstamped(text)
        first = self.first_text.setdefault(case.name, body)
        if case.golden is not None and body != case.golden:
            self.fail(case, "analyze", "report differs from its golden")
        elif body != first:
            self.fail(case, "analyze", "report differs from an earlier pass")
        else:
            wrong = oracle.mismatches(json.loads(text))
            if wrong:
                self.fail(case, "analyze", "; ".join(wrong))

    def timings(self, probe: SpeedProbe) -> tuple:
        """(rescaled, wall): each maps an operation key to its seconds, in
        the order the operations ran."""
        rescaled, wall = {}, {}
        for key, start, end in self.ops:
            rescaled.setdefault(key, []).append(
                probe.rescale(end - start, start, end))
            wall.setdefault(key, []).append(end - start)
        return rescaled, wall


def case_total(timings: dict, op: str, pick=statistics.median) -> float:
    """Sum over the cases of pick(timings of that case and operation)."""
    return sum(pick(v) for k, v in timings.items() if k.startswith(op + "/"))


def run_untraced(work: Workload, seconds: float) -> dict:
    """End-to-end metrics.  Summing per-case medians means one slow pass
    moves analyze_s and verify_s little."""
    with SpeedProbe() as probe:
        work.time_setup(probe)
        work.parse()
        passes = 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            work.run_pass()
            passes += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rescaled, wall = work.timings(probe)
    metrics = {"analyze_s": (case_total(rescaled, "analyze"), "s"),
               "verify_s": (case_total(rescaled, "verify"), "s"),
               "setup_s": (statistics.median(rescaled["setup"]), "s"),
               "peak_rss_mb": (peak_kb / 1024, "MB"),
               "success_ratio": (1 - len(work.failures) / work.attempted,
                                 "ratio")}
    return {"metrics": metrics,
            "detail": {"passes": passes,
                       "wall_analyze_s": case_total(wall, "analyze"),
                       "wall_verify_s": case_total(wall, "verify"),
                       "wall_setup_s": statistics.median(wall["setup"]),
                       "speed_samples": len(probe.at),
                       "speed_tick_median_s": statistics.median(probe.seconds)},
            "times": rescaled, "wall": wall}


LAYER_METRICS = [
    ("serialize.parse_input", "s"),
    ("canonical.CanonicalRings", "s"),
    ("canonical.verify_ring_axioms", "s"),
    *((f"certify.{name}", "s") for name in (
        "find_separability_element", "find_conditional_expectation",
        "find_hsep_system", "find_d2_quasibase", "d2_summand_witness",
        "hsep_summand_witness", "endo_ring_probe", "module_facts",
        "base_module_projectivity")),
    *((f"certify.verify_{kind}", stat) for kind in ("separability", "split",
                                                   "hsep", "d2")
      for stat in ("s", "calls")),
    *((f"equivalences.{name}", "s") for name in (
        "gamma_M", "functor_iso_checks", "chi_M", "rho_M", "pi_A_iso",
        "split_counit", "evaluation_map", "triangle_check")),
    *((f"normality.{name}", "s") for name in (
        "centralizer_normality_suite", "double_centralizer",
        "prebraided_check", "hopf_normality")),
    *((f"bimodule.{name}", stat) for name in ("hom_space", "tensor_over")
      for stat in ("calls", "s", "self_s", "distinct_ratio")),
    ("linalg.rref", "calls"),
    ("linalg.rref", "self_s"),
    ("linalg.kernel", "calls"),
    ("linalg.solve", "calls"),
    ("report.report_json", "s"),
    ("report.verify_report", "self_s"),
]
UNITS = {"s": "s", "self_s": "s", "calls": "count", "distinct_ratio": "ratio"}


def run_traced(work: Workload, seed: int, name: str) -> dict:
    """Per-layer metrics from one traced parse-analyze-verify pass, after
    one untraced analyze pass that the overhead is measured against."""
    tracer = Tracer()
    with SpeedProbe() as probe:
        work.parse()
        work.run_pass(verify=False)
        tracer.install()
        try:
            work.parse(tracer)
            work.run_pass(tracer)
        finally:
            tracer.restore()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{name}-seed{seed}.spans.jsonl"))
    rescaled, wall = work.timings(probe)
    first, last = itemgetter(0), itemgetter(-1)
    per_name = summarize(tracer)
    metrics = {}
    for span, stat in LAYER_METRICS:
        value = per_name.get(span, {}).get(stat, 0)
        metrics[f"{span}.{stat}"] = (value, UNITS[stat])
    entries = sum(rows * cols for _, rows, cols, _, _, _ in tracer.rref_shapes)
    zeros = sum(z for *_, z in tracer.rref_shapes)
    metrics["linalg.rref.entries"] = (entries, "count")
    metrics["linalg.rref.zero_share"] = (zeros / entries if entries else 0.0,
                                         "ratio")
    untraced_s = case_total(rescaled, "analyze", first)
    traced_s = case_total(rescaled, "analyze", last)
    # spans hold wall time, so coverage compares with wall time
    top = sum(end - start for _, start, end, parent, ext in tracer.spans
              if parent is None and ext.startswith("analyze/"))
    traced_wall = case_total(wall, "analyze", last)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.coverage"] = (top / traced_wall, "ratio")
    return {"metrics": metrics,
            "detail": {"untraced_analyze_s": untraced_s,
                       "traced_analyze_s": traced_s,
                       "traced_analyze_wall_s": traced_wall,
                       "spans": len(tracer.spans)},
            "times": rescaled, "wall": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ringext")):
        print(f"no ringext sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import ringext

    cases = workloads.cases(args.workload, args.seed, ROOT)
    work = Workload(ringext, cases)
    if args.trace:
        result = run_traced(work, args.seed, args.workload)
    else:
        result = run_untraced(work, args.seconds)

    env = fingerprint(ringext)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "cases": len(cases),
              "attempted": work.attempted, "failures": work.failures,
              **result}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for line in work.failures:
        print("FAILED", line, file=sys.stderr)
    print(json.dumps({"env": env, "detail": result["detail"]}))
    print(json.dumps({
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
