"""Cayley tables of the small groups the generated workloads use.

Every table puts the identity at index 0, as ``GroupData`` requires;
``cayley[a][b]`` is the index of the product a * b.
"""

from itertools import permutations


def cyclic(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein() -> list:
    """C2 x C2 with (a, b) at index 2a + b, so the product is XOR."""
    return [[i ^ j for j in range(4)] for i in range(4)]


def symmetric3() -> list:
    """Permutations of three letters in lexicographic order; s * t acts
    by s after t."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(s[t[x]] for x in range(3))] for t in perms]
            for s in perms]


def dihedral4() -> list:
    """Symmetries of a square: r^a s^b at index a + 4b, with s r = r^-1 s."""
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        return (a + (c if b == 0 else -c)) % 4 + 4 * ((b + d) % 2)
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def quaternion() -> list:
    """Unit quaternions ordered 1, -1, i, -i, j, -j, k, -k."""
    units = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
             ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
             ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"),
             ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
             ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    pos = {n: i for i, n in enumerate(names)}

    def mul(x, y):
        sign, u = units[(x.lstrip("-"), y.lstrip("-"))]
        sign *= (-1 if x.startswith("-") else 1) * (-1 if y.startswith("-") else 1)
        return u if sign == 1 else "-" + u
    return [[pos[mul(x, y)] for y in names] for x in names]


def closure(cayley: list, gens) -> tuple:
    """The subgroup generated by gens, as a sorted tuple of indices."""
    sub = {0, *gens}
    while True:
        new = {cayley[a][b] for a in sub for b in sub} - sub
        if not new:
            return tuple(sorted(sub))
        sub |= new


def subgroups(cayley: list) -> list:
    """Every subgroup, ordered by size and then by its index tuple.  Each
    subgroup of a group of order at most 8 has at most two generators."""
    n = len(cayley)
    subs = {closure(cayley, (a, b)) for a in range(n) for b in range(n)}
    return sorted(subs, key=lambda s: (len(s), s))


def is_normal(cayley: list, sub) -> bool:
    n = len(cayley)
    inverse = [row.index(0) for row in cayley]
    members = set(sub)
    return all(cayley[cayley[g][h]][inverse[g]] in members
               for g in range(n) for h in sub)


def relabel(cayley: list, sub, rng) -> tuple:
    """Permute the non-identity elements at random; return the relabelled
    table and the image of sub, sorted."""
    n = len(cayley)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[cayley[a][b]]
    return table, sorted(perm[h] for h in sub)
