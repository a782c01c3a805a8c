"""The benchmark's workloads as lists of input documents.

``cases(workload, seed, root)`` returns the extensions one pass runs.
The seed picks everything random (subgroups, primes, relabellings of the
non-identity group elements, the analysis seed written into each
document, the order of the q-corpus); the library only ever sees the
generated JSON.

* ``q-corpus``: the seven inputs over Q in ``corpus/``, at their
  committed seeds, each with its golden report from ``corpus/expected/``.
* ``fp-groups``: one group algebra extension over F_p from each of six
  families, with tensor squares of dimension 8 to 18.
* ``small-many``: group algebras of C2, C3, C4 and V4, M2 over T2 and
  Q x Q over the diagonal, over Q and F_p, all with tensor squares of
  dimension at most 4.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

import groups

PRIMES = (2, 3, 5, 7)
WORKLOADS = ("q-corpus", "fp-groups", "small-many")


@dataclass
class Case:
    name: str
    doc: dict
    golden: Optional[str] = None   # expected report text, without generated_at


def cases(workload: str, seed: int, root: str) -> list:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "q-corpus":
        return q_corpus(rng, root)
    if workload == "fp-groups":
        return fp_groups(rng)
    if workload == "small-many":
        return small_many(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def q_corpus(rng: random.Random, root: str) -> list:
    corpus = os.path.join(root, "corpus")
    out = []
    for entry in sorted(os.listdir(corpus)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(corpus, entry), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["field"] != "Q":
            continue
        with open(os.path.join(corpus, "expected", entry), encoding="utf-8") as fh:
            golden = fh.read()
        out.append(Case(entry[:-len(".json")], doc, golden))
    rng.shuffle(out)
    return out


def group_case(rng: random.Random, label: str, cayley: list, subgroup,
               field) -> Case:
    table, sub = groups.relabel(cayley, subgroup, rng)
    doc = {"field": field,
           "algebra": {"group": {"order": len(table), "cayley": table}},
           "subalgebra": {"subgroup": sub},
           "seed": rng.randrange(1 << 16)}
    tag = "q" if field == "Q" else f"f{field['Fp']}"
    return Case(f"{label}-{''.join(map(str, subgroup))}-{tag}", doc)


# (label, table, order of the subgroups to pick from)
FP_FAMILIES = [
    ("q8", groups.quaternion(), 4),
    ("d4", groups.dihedral4(), 4),
    ("s3", groups.symmetric3(), 3),
    ("s3", groups.symmetric3(), 2),
    ("c4", groups.cyclic(4), 2),
    ("v4", groups.klein(), 2),
]


def fp_groups(rng: random.Random) -> list:
    out = []
    for label, cayley, order in FP_FAMILIES:
        sub = rng.choice([s for s in groups.subgroups(cayley) if len(s) == order])
        out.append(group_case(rng, label, cayley, sub, {"Fp": rng.choice(PRIMES)}))
    return out


SMALL_GROUPS = [("c2", groups.cyclic(2)), ("c3", groups.cyclic(3)),
                ("c4", groups.cyclic(4)), ("v4", groups.klein())]


def small_many(rng: random.Random) -> list:
    """Only pairs whose tensor square A (x)_B A, of dimension |G| [G:H]
    for groups, is at most 4-dimensional, so every linear system is tiny.
    Each pair runs over Q and over two seeded primes."""
    def fields():
        return ("Q", {"Fp": rng.choice(PRIMES)}, {"Fp": rng.choice(PRIMES)})

    out = []
    for label, cayley in SMALL_GROUPS:
        for sub in groups.subgroups(cayley):
            if len(cayley) ** 2 // len(sub) <= 4:
                for field in fields():
                    out.append(group_case(rng, label, cayley, sub, field))
    for field in fields():
        tag = "q" if field == "Q" else f"f{field['Fp']}"
        out.append(Case(f"m2-t2-{tag}", matrix_doc(field, rng)))
        out.append(Case(f"qxq-q-{tag}", diagonal_doc(field, rng)))
    for i, case in enumerate(out):   # a seed may repeat a pair and prime
        case.name = f"{i:02d}-{case.name}"
    return out


def _scalar(field, v: int):
    return str(v) if field == "Q" else v % field["Fp"]


def matrix_doc(field, rng: random.Random) -> dict:
    """M2 over its upper triangular subalgebra; e_ij sits at index 2i + j,
    and e_ij e_kl is e_il when j = k and 0 otherwise."""
    mult = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            (i, j), (k, l) = divmod(a, 2), divmod(b, 2)
            mult[a][b] = [_scalar(field, int(j == k and c == 2 * i + l))
                          for c in range(4)]
    basis = [[_scalar(field, int(k == e)) for k in range(4)] for e in (0, 1, 3)]
    return {"field": field,
            "algebra": {"dim": 4, "mult": mult,
                        "unit": [_scalar(field, v) for v in (1, 0, 0, 1)],
                        "name": "M2"},
            "subalgebra": {"basis": basis},
            "seed": rng.randrange(1 << 16)}


def diagonal_doc(field, rng: random.Random) -> dict:
    """k x k over the diagonal copy of k."""
    mult = [[[_scalar(field, int(i == j == k)) for k in range(2)]
             for j in range(2)] for i in range(2)]
    return {"field": field,
            "algebra": {"dim": 2, "mult": mult,
                        "unit": [_scalar(field, 1)] * 2, "name": "QxQ"},
            "subalgebra": {"basis": [[_scalar(field, 1)] * 2]},
            "seed": rng.randrange(1 << 16)}
