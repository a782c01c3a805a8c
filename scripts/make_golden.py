#!/usr/bin/env python3
"""Regenerate, or check, the expected-report fixtures for the input corpus.

Runs the full analysis on every corpus input and stores the report
with the timestamp removed, so the fixture is a pure function of the
input document.  Rerun after any intentional behavior change; tests
compare fresh runs against these files.

With --check nothing is written: every report is regenerated in memory
and compared byte for byte with its stored fixture (the timestamp is
never part of either), a unified diff is printed for each mismatch, and
the exit status is 1 if any fixture differs or is missing.

    python scripts/make_golden.py            # rewrite corpus/expected/
    python scripts/make_golden.py --check    # compare, write nothing
"""

import argparse
import difflib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ringext.report import analysis_report
from ringext.serialize import parse_input

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
EXPECTED = os.path.join(CORPUS, "expected")
DIFF_LINES = 40


def golden_text(name: str) -> str:
    """The fixture text for one corpus input, as the fixture file holds it."""
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        parsed = parse_input(json.load(fh))
    doc = analysis_report(parsed)
    doc.pop("generated_at", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check(name: str, text: str) -> bool:
    path = os.path.join(EXPECTED, f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            stored = fh.read()
    except OSError as exc:
        print(f"{name}: cannot read {path}: {exc}")
        return False
    if stored == text:
        return True
    diff = list(difflib.unified_diff(
        stored.splitlines(keepends=True), text.splitlines(keepends=True),
        fromfile=path, tofile=f"{name} (regenerated)"))
    sys.stdout.writelines(diff[:DIFF_LINES])
    if len(diff) > DIFF_LINES:
        print(f"... {len(diff) - DIFF_LINES} more diff lines")
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with corpus/expected/ and write nothing")
    args = ap.parse_args()
    if not args.check:
        os.makedirs(EXPECTED, exist_ok=True)
    names = sorted(f[:-5] for f in os.listdir(CORPUS) if f.endswith(".json"))
    failed = []
    for name in names:
        t0 = time.time()
        text = golden_text(name)
        if args.check:
            ok = check(name, text)
            if not ok:
                failed.append(name)
            print(f"{name}: {'same' if ok else 'DIFFERS'} "
                  f"({time.time() - t0:.2f}s)")
            continue
        out = os.path.join(EXPECTED, f"{name}.json")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out} ({time.time() - t0:.2f}s)")
    if failed:
        print(f"{len(failed)} of {len(names)} fixtures differ: "
              f"{', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
