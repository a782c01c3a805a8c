#!/usr/bin/env python3
"""Record every command line output of one source tree on the corpus.

Runs, in process and from TREE's own src/ and corpus/, each subcommand
on each corpus input: analyze, normality, hopf, certify KIND for every
certificate kind, and equivalence --module for "regular" and for every
module the input lists, each once with --json and once with --text;
then verify on each golden report in corpus/expected/.  Writes one JSON
object to stdout, keyed by the command line and sorted, whose entries
hold stdout, stderr and the exit code, with the generated_at line of
every JSON report removed, so that two trees can be compared byte for
byte:

    python scripts/cli_outputs.py PARENT_TREE > parent.json
    python scripts/cli_outputs.py . > change.json
    cmp parent.json change.json

It exits 1, after writing every output, when a command line exits with
a code other than 0 or 1 (2 is an internal error) or writes "Traceback"
to stderr, and names those lines on stderr; CI runs it on every push.
"""

import contextlib
import io
import json
import os
import re
import sys

STAMP = re.compile(r'^\s*"generated_at": ".*",?\n', re.MULTILINE)


def commands(corpus: str, kinds: list) -> list:
    """The argument lists to run, with paths relative to the tree."""
    out = []
    for name in sorted(f for f in os.listdir(corpus) if f.endswith(".json")):
        path = f"corpus/{name}"
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            labels = [m["label"] for m in json.load(fh).get("modules", [])]
        runs = [["analyze"], ["normality"], ["hopf"],
                *(["certify", kind] for kind in kinds),
                *(["equivalence", "--module", label]
                  for label in ["regular", *labels])]
        out += [[*run, path, fmt]
                for run in runs for fmt in ("--json", "--text")]
        out.append(["verify", f"corpus/expected/{name}"])
    return out


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write("usage: cli_outputs.py TREE\n")
        return 1
    tree = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(tree, "src"))
    os.chdir(tree)
    from ringext import cli
    from ringext.report import certificate_kinds

    outputs = {}
    for argv in commands("corpus", [k.name for k in certificate_kinds()]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs[" ".join(argv)] = {"stdout": STAMP.sub("", out.getvalue()),
                                   "stderr": err.getvalue(), "exit": code}
    json.dump(outputs, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    broken = sorted(line for line, out in outputs.items()
                    if out["exit"] not in (0, 1) or "Traceback" in out["stderr"])
    for line in broken:
        sys.stderr.write(f"exit {outputs[line]['exit']}: {line}\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
