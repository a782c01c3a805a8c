#!/usr/bin/env python3
"""Count the Python opcodes that one analysis and one verification run.

    python3 scripts/opcodes.py PARENT_TREE > parent.json
    python3 scripts/opcodes.py . > change.json
    cmp parent.json change.json
    python3 scripts/opcodes.py . --functions 20 > functions.json

Imports ringext from TREE's own src/ and takes its inputs from TREE:
every input in corpus/, and every fp-groups and small-many case of
seeds 1 to 3 as bench/workloads.py generates them.  Each input is
parsed once.  After one warm-up pass over all of them, as the
benchmark's later passes follow its first, one more pass counts, for
each input, the opcodes of its analyze operation (analysis_report and
report_json, as bench/run.py times it) and of verify_report on that
report, through sys.settrace.
The counts do not depend on the machine's speed, so two trees can be
compared where wall times drift.  Writes one sorted JSON object to
stdout: the counts per input and their totals per group.  With
--functions N it also holds, under functions/GROUP, the N functions
with the most self opcodes (those executed in their own frames) over
the group's counted analyze and verify operations, as [name, count]
pairs, most first; a name is FILE:QUALNAME with FILE relative to TREE.
String hashing is fixed (PYTHONHASHSEED=0), so that iteration orders,
and with them the counts, repeat from run to run.

Opcode counts miss the work done inside C calls: building a dict or a
tuple, sorting, and raising an exception count as one opcode or none,
whatever they cost.  Two measured cases, on fp-groups in six
alternating pairs of bench/run.py --seconds 5 (seeds 1 to 6):
- Field.comb passing a one-term combination through instead of building
  a dict, sorting it and making a tuple: analyze opcodes +0.6%, about
  flat, while analyze_s fell by a median 2.0%, in 5 of 6 pairs.
- Matrix.from_cols building its rows on first read through a
  __getattr__ fallback on the pairs slot: analyze opcodes -1.0%, while
  analyze_s rose by a median 4.0% (-0.2% to +7.1%), slower in 5 of 6
  pairs, as each fallback first raises an AttributeError.
So a kernel change is judged by paired bench/run.py runs; the counts
show where work moved.
"""

import json
import os
import sys
from collections import Counter

SEEDS = (1, 2, 3)


def counted(fn, *args, by_code=None) -> tuple:
    """(the number of opcodes fn(*args) executes, its result); by_code,
    when given, also counts them by the code object executing them."""
    n = 0

    def trace(frame, event, arg):
        nonlocal n
        frame.f_trace_opcodes = True
        if event == "opcode":
            n += 1
            if by_code is not None:
                by_code[frame.f_code] += 1
        return trace

    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return n, result


def inputs(tree: str) -> list:
    """(group, key, document) for every input the counts cover."""
    corpus = os.path.join(tree, "corpus")
    out = []
    for entry in sorted(f for f in os.listdir(corpus) if f.endswith(".json")):
        with open(os.path.join(corpus, entry), encoding="utf-8") as fh:
            out.append(("corpus", f"corpus/{entry[:-len('.json')]}",
                        json.load(fh)))
    import workloads
    for group in ("fp-groups", "small-many"):
        for seed in SEEDS:
            out += [(group, f"{group}/{seed}/{case.name}", case.doc)
                    for case in workloads.cases(group, seed, tree)]
    return out


def name(code, tree: str) -> str:
    """FILE:QUALNAME of a code object, FILE relative to tree when in it."""
    path = os.path.relpath(code.co_filename, tree)
    if path.startswith(".."):
        path = os.path.basename(code.co_filename)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def main() -> int:
    args = sys.argv[1:]
    top = None
    if len(args) == 3 and args[1] == "--functions" and args[2].isdigit():
        top = int(args[2])
    elif len(args) != 1:
        sys.stderr.write("usage: opcodes.py TREE [--functions N]\n")
        return 1
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tree = os.path.abspath(args[0])
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import ringext

    cases = [(group, key, ringext.parse_input(doc))
             for group, key, doc in inputs(tree)]

    def analyze(parsed):
        return ringext.report_json(ringext.analysis_report(parsed))

    for _, _, parsed in cases:   # the warm-up pass
        ringext.verify_report(json.loads(analyze(parsed)))
    counts, totals, by_group = {}, {}, {}
    for group, key, parsed in cases:
        by_code = None if top is None else by_group.setdefault(group, Counter())
        n_analyze, text = counted(analyze, parsed, by_code=by_code)
        n_verify, (ok, msgs) = counted(ringext.verify_report, json.loads(text),
                                       by_code=by_code)
        if not ok:
            sys.stderr.write(f"{key}: the report does not verify: {msgs}\n")
            return 1
        counts[key] = {"analyze": n_analyze, "verify": n_verify}
        total = totals.setdefault(f"total/{group}", {"analyze": 0, "verify": 0})
        total["analyze"] += n_analyze
        total["verify"] += n_verify
    functions = {}
    for group, by_code in by_group.items():
        named = Counter()
        for code, n in by_code.items():
            named[name(code, tree)] += n
        functions[f"functions/{group}"] = sorted(
            named.items(), key=lambda t: (-t[1], t[0]))[:top]
    json.dump({**counts, **totals, **functions}, sys.stdout, indent=1,
              sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
