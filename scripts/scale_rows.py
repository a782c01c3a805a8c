#!/usr/bin/env python3
"""Time named scale cases of the ROADMAP Scale table, one child each.

    python scripts/scale_rows.py s4_s3_q a5_a4_f7
    python scripts/scale_rows.py --tree ../other-checkout s4_s3_q
    python scripts/scale_rows.py --list

A case is k[G] over k[H] for a permutation group G (A4, S4 or A5, as the
even or all permutations of its points, identity first) and the
subgroup H its generators span, over Q or F_p; its name is
GROUP_SUB_FIELD.  The input document is built with tests/groups.py.  For
each case the script starts a child process that caps its own address
space at CAP_GIB with RLIMIT_AS, imports ringext from the src/ of --tree
(default: this checkout), and runs parse_input, analysis_report,
report_json and verify_report.  The child prints one JSON line, which is
passed on: analyze seconds (parse, analysis and JSON), whether the
report verified, the child's ru_maxrss in MB, and the SHA-256 of the
report without its generated_at line, so that two trees' reports can be
compared.  A child still running after TIMEOUT_S seconds is killed and
its line says so, and so does one that ran out of memory or failed.
Cases run one after another, never in parallel.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from itertools import permutations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from tests.groups import _parity, compose, group_doc, subgroup, table

CAP_GIB = 2
TIMEOUT_S = 900
STAMP = re.compile(r'^  "generated_at": .*\n', re.M)

# group -> number of points and whether only even permutations count
GROUPS = {"a4": (4, True), "s4": (4, False), "a5": (5, True)}
# name -> (group, generators of the subgroup as images of the points)
EXTENSIONS = {
    "a4_v4": ("a4", [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "a4_c2": ("a4", [(1, 0, 3, 2)]),
    "a4_1": ("a4", []),
    "s4_a4": ("s4", [(1, 2, 0, 3), (1, 0, 3, 2)]),
    "s4_v4": ("s4", [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "s4_d4": ("s4", [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "s4_s3": ("s4", [(1, 0, 2, 3), (1, 2, 0, 3)]),
    "s4_c3": ("s4", [(1, 2, 0, 3)]),
    "s4_c4": ("s4", [(1, 2, 3, 0)]),
    "s4_c2": ("s4", [(1, 0, 2, 3)]),
    "a5_a4": ("a5", [(1, 2, 0, 3, 4), (1, 0, 3, 2, 4)]),
    "a5_d5": ("a5", [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),
    "a5_c5": ("a5", [(1, 2, 3, 4, 0)]),
}
FIELDS = {"q": "Q", "f3": {"Fp": 3}, "f5": {"Fp": 5}, "f7": {"Fp": 7}}


def case_doc(name: str) -> dict:
    """The input document of a case named GROUP_SUB_FIELD."""
    ext, _, field = name.rpartition("_")
    group, gens = EXTENSIONS[ext]
    points, even = GROUPS[group]
    elements = [p for p in sorted(permutations(range(points)))
                if not (even and _parity(p))]
    cayley = table(elements, compose)
    return group_doc(cayley, subgroup(cayley, map(elements.index, gens)),
                     FIELDS[field])


def child(name: str, tree: str) -> dict:
    """Run one case in this process under the address-space cap."""
    cap = CAP_GIB * 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(tree, "src"))
    from ringext.report import analysis_report, report_json, verify_report
    from ringext.serialize import parse_input

    row = {"case": name}
    try:
        start = time.perf_counter()
        text = report_json(analysis_report(parse_input(case_doc(name))))
        row["analyze_s"] = round(time.perf_counter() - start, 2)
        ok, messages = verify_report(json.loads(text))
        row["verified"] = ok if ok else messages
        row["digest"] = hashlib.sha256(
            STAMP.sub("", text).encode()).hexdigest()[:16]
    except MemoryError:
        row["error"] = f"out of memory under {CAP_GIB} GiB"
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    row["rss_mb"] = round(rss / 1024, 1)
    return row


def main(argv=None) -> int:
    names = [f"{ext}_{field}" for ext in EXTENSIONS for field in FIELDS]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cases", nargs="*", metavar="CASE")
    ap.add_argument("--list", action="store_true", help="print case names")
    ap.add_argument("--tree", default=ROOT, help="checkout whose src/ runs")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(names))
        return 0
    unknown = sorted(set(args.cases) - set(names))
    if unknown or not args.cases:
        ap.error(f"unknown cases {unknown}" if unknown else "name a case")
    if args.child:
        print(json.dumps(child(args.cases[0], args.tree)))
        return 0
    failed = 0
    for name in args.cases:
        cmd = [sys.executable, os.path.abspath(__file__), "--child",
               "--tree", os.path.abspath(args.tree), name]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            row = {"case": name, "error": f"killed after {TIMEOUT_S} s"}
        else:
            lines = done.stdout.strip().splitlines()
            row = json.loads(lines[-1]) if done.returncode == 0 and lines \
                else {"case": name, "error": f"exit {done.returncode}: "
                      f"{done.stderr.strip().splitlines()[-1:]}"}
        failed += "error" in row or row.get("verified") is not True
        print(json.dumps(row), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
