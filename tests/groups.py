"""Group tables for tests past the corpus, built from permutations.

Each builder returns a Cayley table with the identity at index 0, as
GroupData requires, together with the elements it indexes, so that
subgroups can be named by their elements.  group_doc turns a table and a
subgroup into an input document.  GROUP_CASES names the extensions past
the corpus that the reference comparisons run on.
"""

from itertools import permutations


def table(elements: list, mul) -> list:
    """The Cayley table of the listed elements (identity first) under mul."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(x, y)] for y in elements] for x in elements]


def generated(gens, mul, identity) -> list:
    """Every product of the generators, identity first, in breadth-first
    order."""
    elements, seen = [identity], {identity}
    for x in elements:  # grows while it is read
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def compose(s: tuple, t: tuple) -> tuple:
    """The permutation s after t."""
    return tuple(s[i] for i in t)


def _parity(p: tuple) -> int:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2


def symmetric3() -> tuple:
    elements = sorted(permutations(range(3)))
    return table(elements, compose), elements


def symmetric4() -> tuple:
    elements = sorted(permutations(range(4)))
    return table(elements, compose), elements


def dihedral4() -> tuple:
    """Symmetries of a square with vertices 0..3: a rotation and a flip."""
    elements = generated([(1, 2, 3, 0), (0, 3, 2, 1)], compose, (0, 1, 2, 3))
    return table(elements, compose), elements


def alternating4() -> tuple:
    """The even permutations of four points, identity first."""
    elements = [p for p in sorted(permutations(range(4))) if not _parity(p)]
    return table(elements, compose), elements


def quaternion8() -> tuple:
    """The units +-1, +-i, +-j, +-k as signed permutations of the basis
    1, i, j, k (left multiplication): pairs (image, sign) per basis
    vector."""
    def mul(s, t):
        return tuple((s[k][0], s[k][1] * sign) for k, sign in t)

    one = tuple((k, 1) for k in range(4))
    i = ((1, 1), (0, -1), (3, 1), (2, -1))
    j = ((2, 1), (3, -1), (0, -1), (1, 1))
    elements = generated([i, j], mul, one)
    return table(elements, mul), elements


def subgroup(cayley: list, gens) -> list:
    """The indices of the subgroup generated by the listed indices."""
    return sorted(generated(list(gens), lambda a, b: cayley[a][b], 0))


def group_doc(cayley: list, sub: list, field) -> dict:
    """The input document of k[G] over the subgroup's span."""
    return {"field": field,
            "algebra": {"group": {"order": len(cayley), "cayley": cayley}},
            "subalgebra": {"subgroup": sub}}


def group_case(builder, generator, field) -> dict:
    """k[G] over the subgroup generated by the element with this image
    (a permutation, or a signed permutation for Q8)."""
    cayley, elements = builder()
    return group_doc(cayley, subgroup(cayley, [elements.index(generator)]),
                     field)


S3_C2 = (symmetric3, (1, 0, 2))
D4_FLIP = (dihedral4, (0, 3, 2, 1))   # a reflection through two vertices
Q8_C4 = (quaternion8, ((1, 1), (0, -1), (3, 1), (2, -1)))   # <i>
GROUP_CASES = {f"{name}_{field}": (case, fld)
               for name, case in (("s3_c2", S3_C2), ("d4_flip", D4_FLIP),
                                  ("q8_c4", Q8_C4))
               for field, fld in (("q", "Q"), ("f3", {"Fp": 3}))}


def case_doc(name: str) -> dict:
    """The input document of a GROUP_CASES entry."""
    (builder, gen), field = GROUP_CASES[name]
    return group_case(builder, gen, field)


def s4_over_a4_doc(field) -> dict:
    """k[S4] over k[A4], spanned by a 3-cycle and a double transposition:
    24 dimensions over 12, two double cosets."""
    cayley, elements = symmetric4()
    return group_doc(cayley, subgroup(cayley, [
        elements.index((1, 2, 0, 3)), elements.index((1, 0, 3, 2))]), field)
