"""Seeded pseudo-random modules for tests.

The library itself is deterministic and samples nothing; tests use
these generators to exercise the module constructions on modules that
are neither free nor regular.
"""

import random
from typing import Optional

from ringext.algebra import FDAlgebra
from ringext.bimodule import Bimodule, BimoduleError, one_sided
from ringext.linalg import Field, Matrix, PrimeField, Subspace, sparse


def random_scalar(field: Field, rng: random.Random):
    """A seeded sample scalar: uniform over F_p, an integer in [-3, 3] over Q."""
    if isinstance(field, PrimeField):
        return field.of(rng.randrange(field.p))
    return field.of(rng.randint(-3, 3))


def submodule_as_module(parent: Bimodule, sub: Subspace,
                        label: str = "M'") -> Bimodule:
    """An action-stable subspace of a bimodule, in its own coordinates."""
    if sub.ambient_dim != parent.dim:
        raise BimoduleError("subspace does not live in the parent module")

    def induce(op: Matrix) -> Matrix:
        cols = []
        for row in sub.basis.pairs:
            coords = sub.coordinates(op.apply(row))
            if coords is None:
                raise BimoduleError(
                    f"subspace of {parent.label} is not action-stable")
            cols.append(coords)
        return Matrix.from_cols(parent.field, sub.dim, cols)

    return Bimodule(parent.left_algebra, parent.right_algebra, sub.dim,
                    [induce(op) for op in parent.left_action],
                    [induce(op) for op in parent.right_action], label=label)


def free_module(a: FDAlgebra, side: str, rank: int) -> Bimodule:
    """The free one-sided module of the given rank, block-diagonal
    regular actions."""
    f, dim = a.field, a.dim * rank

    def blocks(op: Matrix) -> Matrix:
        return Matrix.from_pairs(f, dim, dim, [
            [(b * a.dim + j, x) for j, x in row]
            for b in range(rank) for row in op.pairs])

    mult = a.basis_left_mult if side == "left" else a.basis_right_mult
    return one_sided(a, side, dim, [blocks(mult(i)) for i in range(a.dim)],
                     label=f"{a.name}^{rank}")


def random_cyclic_module(a: FDAlgebra, side: str, ambient_rank: int,
                         seed: int, label: Optional[str] = None) -> Bimodule:
    """A seeded pseudo-random one-sided module: the submodule of a free
    module of the given rank generated by one random element.

    The span of the basis translates of a single element is already
    action-stable, so no closure iteration is needed.
    """
    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    f = a.field
    rng = random.Random(seed)
    ambient = a.dim * ambient_rank
    free = free_module(a, side, ambient_rank)
    for _ in range(32):
        x = sparse([random_scalar(f, rng) for _ in range(ambient)])
        if x:
            break
    else:
        x = ((0, f.one),)
    acts = free.left_action if side == "left" else free.right_action
    gens = [acts[i].apply(x) for i in range(a.dim)]
    sub = Subspace.from_vectors(f, ambient, gens)
    return submodule_as_module(free, sub,
                               label=label or f"{a.name}-cyclic{seed}")
