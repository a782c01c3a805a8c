#!/usr/bin/env python3
"""Write the input corpus: ten extensions spanning every verdict pattern.

Each file is a self-contained JSON input document.  Group tables are
generated here rather than typed in; structure-constant algebras go
through the library constructors so the emitted tables are exactly the
ones the tool validates.
"""

import json
import os
import sys
from itertools import permutations

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ringext.linalg import GF, QQ
from ringext.algebra import GroupData, group_algebra
from ringext.serialize import algebra_json
from tests.helpers import diagonal_algebra, matrix_algebra

OUT = os.path.join(ROOT, "corpus")


def cyclic_group(n: int) -> GroupData:
    return GroupData(n, [[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_group_3() -> GroupData:
    """All permutations of three letters in lexicographic order; the
    product s * t acts by s after t."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    cay = [[idx[tuple(s[t[x]] for x in range(3))] for t in perms]
           for s in perms]
    return GroupData(6, cay)


def quaternion_group() -> GroupData:
    """Unit quaternions ordered 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    products = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
                ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
                ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
                ("k", "1"): (1, "k"),
                ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                ("k", "k"): (-1, "1"),
                ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
                ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}

    def mul(x, y):
        sx, ux = (-1, x[1:]) if x.startswith("-") else (1, x)
        sy, uy = (-1, y[1:]) if y.startswith("-") else (1, y)
        s, u = products[(ux, uy)]
        return u if s * sx * sy == 1 else "-" + u

    pos = {n: i for i, n in enumerate(names)}
    cay = [[pos[mul(x, y)] for y in names] for x in names]
    return GroupData(8, cay)


def q(*vals):
    return [str(v) for v in vals]


def corpus() -> dict:
    s3 = symmetric_group_3()
    c2 = cyclic_group(2)
    c3 = cyclic_group(3)
    q8 = quaternion_group()
    m2 = matrix_algebra(QQ, 2, name="M2")
    qxq = diagonal_algebra(QQ, 2, name="QxQ")

    docs = {}

    # the identity extension: every property holds, all maps collapse
    docs["b_eq_a"] = {
        "field": "Q",
        "algebra": algebra_json(group_algebra(QQ, c2)),
        "subalgebra": {"subgroup": [0, 1]},
        "seed": 0,
    }

    # rational group algebra of order two over its scalars; the input
    # also carries a sign module and the augmentation ideal to exercise
    # the optional sections
    docs["qc2_q"] = {
        "field": "Q",
        "algebra": algebra_json(group_algebra(QQ, c2)),
        "subalgebra": {"basis": [q(1, 0)]},
        "modules": [
            {"label": "sign", "dim": 1,
             "left_action": [[q(1)], [q(-1)]],
             "right_action": [[q(1)], [q(-1)]]},
        ],
        "ideals": [
            {"label": "augmentation", "generators": [q(-1, 1)]},
        ],
        "seed": 0,
    }

    # characteristic two kills separability but not splitting
    docs["f2c2_f2"] = {
        "field": {"Fp": 2},
        "algebra": algebra_json(group_algebra(GF(2), c2)),
        "subalgebra": {"basis": [[1, 0]]},
        "seed": 0,
    }

    # characteristic three, order three: same phenomenon one prime up
    docs["f3c3_f3"] = {
        "field": {"Fp": 3},
        "algebra": algebra_json(group_algebra(GF(3), c3)),
        "subalgebra": {"basis": [[1, 0, 0]]},
        "seed": 0,
    }

    # index two subgroup: separable, split, depth two on both sides
    docs["qs3_qa3"] = {
        "field": "Q",
        "algebra": algebra_json(group_algebra(QQ, s3)),
        "subalgebra": {"subgroup": [0, 3, 4]},
        "seed": 0,
    }

    # non-normal subgroup in characteristic seven: separable and split
    # but depth two fails on both sides
    docs["f7s3_f7t"] = {
        "field": {"Fp": 7},
        "algebra": algebra_json(group_algebra(GF(7), s3)),
        "subalgebra": {"subgroup": [0, 2]},
        "seed": 0,
    }

    # full matrix ring over its scalars: the central simple showcase
    docs["m2q_q"] = {
        "field": "Q",
        "algebra": algebra_json(m2),
        "subalgebra": {"basis": [q(1, 0, 0, 1)]},
        "seed": 0,
    }

    # upper triangular subalgebra of the same matrix ring
    docs["m2q_t2"] = {
        "field": "Q",
        "algebra": algebra_json(m2),
        "subalgebra": {"basis": [q(1, 0, 0, 0), q(0, 1, 0, 0), q(0, 0, 0, 1)]},
        "seed": 0,
    }

    # quaternion group over a cyclic subgroup of order four
    docs["qq8_qi"] = {
        "field": "Q",
        "algebra": algebra_json(group_algebra(QQ, q8)),
        "subalgebra": {"subgroup": [0, 1, 2, 3]},
        "seed": 0,
    }

    # a split pair of scalars over the diagonal
    docs["qxq_q"] = {
        "field": "Q",
        "algebra": algebra_json(qxq),
        "subalgebra": {"basis": [q(1, 1)]},
        "seed": 0,
    }
    return docs


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    for name, doc in corpus().items():
        path = os.path.join(OUT, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
