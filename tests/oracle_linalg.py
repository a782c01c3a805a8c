"""Independent exact elimination used only to cross-check the package.

Deliberately shares no code with the library under test: plain
Fractions for the rational case and ints with pow(a, p-2, p) inverses
for the mod-p case, straightforward textbook row reduction and nothing
else.  Slow is fine here; disagreement with the fast path is the
signal these helpers exist to catch.
"""

from fractions import Fraction


class FracOps:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(v):
        return Fraction(v)

    @staticmethod
    def inv(a):
        return 1 / a


class ModOps:
    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v):
        return int(v) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def rref(ops, rows):
    """Reduced row echelon form; returns (new rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != ops.zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        iv = ops.inv(m[r][c])
        m[r] = [x * iv if isinstance(iv, Fraction) else (x * iv) % ops.p
                for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != ops.zero:
                factor = m[i][c]
                if isinstance(factor, Fraction):
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - factor * b) % ops.p
                            for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(ops, rows) -> int:
    return len(rref(ops, rows)[1])


def nullspace(ops, rows, ncols):
    """Basis of the right kernel of the matrix given by rows."""
    red, pivots = rref(ops, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for r, pc in zip(red, pivots):
            val = -r[fc] if isinstance(r[fc], Fraction) else (-r[fc]) % ops.p
            v[pc] = val
        basis.append(v)
    return basis


def particular(ops, rows, rhs, ncols):
    """The solution of rows x = rhs with its free variables zero, or None
    when the system is inconsistent."""
    red, pivots = rref(ops, [[ops.of(x) for x in row] + [ops.of(b)]
                             for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [ops.zero] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return x


def in_span(ops, rows, vec) -> bool:
    base = rank(ops, rows)
    return rank(ops, list(rows) + [list(vec)]) == base


def matmul(ops, a, b):
    """Product of two matrices given as row lists."""
    return [[ops.of(sum((x * y for x, y in zip(row, col)), ops.zero))
             for col in zip(*b)] for row in a]


def as_pairs(vec):
    """The (index, value) pairs of a dense vector's nonzero entries, in
    ascending index order: the library's vector format."""
    return tuple((i, x) for i, x in enumerate(vec) if x)
