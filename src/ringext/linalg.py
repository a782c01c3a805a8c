"""Exact dense linear algebra over Q and over prime fields F_p.

Scalars are plain Python values, one representative per value: over Q
an int when the value is whole and otherwise a rational in lowest terms
(gmpy2.mpq when importable, fractions.Fraction otherwise), over F_p an
int in the range [0, p).  Most structure constants are small integers,
so keeping whole values as ints lets their arithmetic run as int code.
A Field instance owns the arithmetic; values belonging to different
fields are never mixed, and matrices and subspaces remember their field.

Subspaces are stored with a reduced-row-echelon basis, so two equal
subspaces have literally equal data and membership coordinates can be
read off the pivot columns.  All solvers are deterministic: pivots are
chosen first-nonzero, particular solutions set free variables to zero.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    from fractions import Fraction as _rational


class LinalgError(ValueError):
    """Dimension mismatch, field mismatch, or malformed scalar input."""


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 2017), so
# larger moduli are refused rather than guessed at.
MODULUS_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic primality for 0 <= p < MODULUS_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _int_if_whole(q):
    """The int equal to rational q when q is whole, else q itself."""
    return int(q.numerator) if q.denominator == 1 else q


class RationalField:
    """Arithmetic for Q.  Elements are ints when whole, else Fraction/mpq;
    every operation returns an int for a whole result."""

    name = "Q"

    def __init__(self) -> None:
        self.zero = 0
        self.one = 1

    def of(self, value):
        """Coerce an int, numerator/denominator string, or rational."""
        if type(value) is int:
            return value
        if isinstance(value, bool) or isinstance(value, float):
            raise LinalgError(f"refusing inexact scalar {value!r} over Q")
        try:
            return _int_if_whole(_rational(value))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise LinalgError(f"bad rational scalar {value!r}: {exc}") from None

    def add(self, a, b):
        v = a + b
        return v if type(v) is int else _int_if_whole(v)

    def sub(self, a, b):
        v = a - b
        return v if type(v) is int else _int_if_whole(v)

    def mul(self, a, b):
        v = a * b
        return v if type(v) is int else _int_if_whole(v)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in Q")
        # divide as rationals: 1 / a on an int would give a float
        return _int_if_whole(_rational(1) / a)

    def is_one(self, a) -> bool:
        return a == 1

    # Row kernels.  These are the hot loops of every solver; they skip
    # zero source entries so sparse systems eliminate cheaply, and keep
    # whole results as ints.
    def row_submul(self, dst: list, src: list, c) -> None:
        for i, s in enumerate(src):
            if s:
                v = dst[i] - c * s
                dst[i] = v if type(v) is int else _int_if_whole(v)

    def row_addmul(self, dst: list, src: list, c) -> None:
        for i, s in enumerate(src):
            if s:
                v = dst[i] + c * s
                dst[i] = v if type(v) is int else _int_if_whole(v)

    def row_scale(self, row: list, c) -> None:
        for i, v in enumerate(row):
            if v:
                v = v * c
                row[i] = v if type(v) is int else _int_if_whole(v)

    def sparse_submul(self, dst: list, pairs: list, c) -> None:
        """dst -= c * src, src given by its (index, nonzero entry) pairs."""
        for i, s in pairs:
            v = dst[i] - c * s
            dst[i] = v if type(v) is int else _int_if_whole(v)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """Arithmetic for F_p, p prime.  Elements are ints in [0, p)."""

    def __init__(self, p: int) -> None:
        if isinstance(p, int) and p >= MODULUS_BOUND:
            raise LinalgError(f"modulus {p} is not below {MODULUS_BOUND}, "
                              f"the largest checked for primality")
        if not isinstance(p, int) or not _is_prime(p):
            raise LinalgError(f"modulus {p!r} is not a prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, bool) or isinstance(value, float):
            raise LinalgError(f"refusing scalar {value!r} over {self.name}")
        if isinstance(value, str):
            try:
                value = int(value, 10)
            except ValueError:
                raise LinalgError(f"bad {self.name} scalar {value!r}") from None
        if not isinstance(value, int):
            raise LinalgError(f"bad {self.name} scalar {value!r}")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def is_one(self, a) -> bool:
        return a == 1 % self.p

    def row_submul(self, dst: list, src: list, c) -> None:
        p = self.p
        for i, s in enumerate(src):
            if s:
                dst[i] = (dst[i] - c * s) % p

    def row_addmul(self, dst: list, src: list, c) -> None:
        p = self.p
        for i, s in enumerate(src):
            if s:
                dst[i] = (dst[i] + c * s) % p

    def row_scale(self, row: list, c) -> None:
        p = self.p
        for i, v in enumerate(row):
            if v:
                row[i] = (v * c) % p

    def sparse_submul(self, dst: list, pairs: list, c) -> None:
        p = self.p
        for i, s in pairs:
            dst[i] = (dst[i] - c * s) % p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (instances are cached)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


Field = RationalField | PrimeField


# ---------------------------------------------------------------------------
# vectors

def zero_vec(field: Field, n: int) -> list:
    return [field.zero] * n


def unit_vec(field: Field, n: int, i: int) -> list:
    v = [field.zero] * n
    v[i] = field.one
    return v


def vec_sum(field: Field, n: int, vectors: Iterable[Sequence]) -> list:
    """The sum of vectors of length n, accumulated in place."""
    out = [field.zero] * n
    for v in vectors:
        field.row_addmul(out, v, field.one)
    return out


def vec_scale(field: Field, v: Sequence, c) -> list:
    return [field.mul(c, a) for a in v]


def random_scalar(field: Field, rng):
    """A seeded sample scalar: uniform over F_p, an integer in [-3, 3] over Q."""
    if isinstance(field, PrimeField):
        return field.of(rng.randrange(field.p))
    return field.of(rng.randint(-3, 3))


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Dense row-major matrix over one exact field.

    Data is a list of row lists.  Constructors validate shape; arithmetic
    validates field and dimension compatibility.  Zero-row and zero-column
    matrices are legal (they show up as maps to or from zero spaces).
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: list) -> None:
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinalgError(f"matrix data does not match shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [[field.zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        data = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = field.one
        return cls(field, n, n, data)

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "Matrix":
        data = [list(r) for r in rows]
        n = len(data[0]) if data else 0
        return cls(field, len(data), n, data)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence],
                  rows: int = 0) -> "Matrix":
        """Columns side by side; rows is the row count when cols is empty."""
        m = len(cols[0]) if cols else rows
        data = [[col[i] for col in cols] for i in range(m)]
        return cls(field, m, len(cols), data)

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def columns(self) -> list[list]:
        return [self.col(j) for j in range(self.cols)]

    def apply(self, v: Sequence) -> list:
        """Matrix-vector product (v as a column)."""
        if len(v) != self.cols:
            raise LinalgError("matrix/vector size mismatch")
        f = self.field
        out = [f.zero] * self.rows
        for i, row in enumerate(self.data):
            acc = f.zero
            for a, b in zip(row, v):
                if a:
                    acc = f.add(acc, f.mul(a, b))
            out[i] = acc
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise LinalgError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise LinalgError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        f = self.field
        out = [[f.zero] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            dst = out[i]
            for k, a in enumerate(row):
                if a:
                    f.row_addmul(dst, odata[k], a)
        return Matrix(f, self.rows, other.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            f, self.rows, self.cols,
            [[f.add(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            f, self.rows, self.cols,
            [[f.sub(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(
            f, self.rows, self.cols,
            [[f.mul(c, a) for a in row] for row in self.data],
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def vec(self) -> list:
        """Row-major flattening."""
        out = []
        for row in self.data:
            out.extend(row)
        return out

    @classmethod
    def from_vec(cls, field: Field, rows: int, cols: int, flat: Sequence) -> "Matrix":
        if len(flat) != rows * cols:
            raise LinalgError("flat vector does not match matrix shape")
        return cls(field, rows, cols,
                   [list(flat[i * cols:(i + 1) * cols]) for i in range(rows)])

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("matrix shape or field mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self.data == other.data

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def lin_comb(field: Field, rows: int, cols: int, coeffs: Sequence,
             mats: Sequence[Matrix]) -> Matrix:
    """sum_k coeffs[k] * mats[k], accumulated row by row into one matrix."""
    out = [[field.zero] * cols for _ in range(rows)]
    for c, mat in zip(coeffs, mats):
        if c:
            for dst, src in zip(out, mat.data):
                field.row_addmul(dst, src, c)
    return Matrix(field, rows, cols, out)


# ---------------------------------------------------------------------------
# elimination

def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    f = mat.field
    rows = [r[:] for r in mat.data]
    m, n = mat.rows, mat.cols
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        if not f.is_one(rows[r][c]):
            f.row_scale(rows[r], f.inv(rows[r][c]))
        # the pivot row's nonzeros, found once for every row it clears
        nz = [(j, x) for j, x in enumerate(rows[r]) if x]
        for i in range(r + 1, m):
            a = rows[i][c]
            if a:
                f.sparse_submul(rows[i], nz, a)
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        nz = [(j, x) for j, x in enumerate(rows[k]) if x]
        for i in range(k):
            a = rows[i][c]
            if a:
                f.sparse_submul(rows[i], nz, a)
    return Matrix(f, m, n, rows), pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def invert(mat: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    if mat.rows != mat.cols:
        return None
    n = mat.rows
    f = mat.field
    eye = Matrix.identity(f, n)
    aug = Matrix(f, n, 2 * n,
                 [row + eyerow for row, eyerow in zip(mat.data, eye.data)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return Matrix(f, n, n, [row[n:] for row in red.data])


def _kernel_from_rref(field: Field, data: list, cols: int, pivots: list[int]) -> list[list]:
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        v = [field.zero] * cols
        v[fc] = field.one
        for k, pc in enumerate(pivots):
            a = data[k][fc]
            if a:
                v[pc] = field.neg(a)
        basis.append(v)
    return basis


def kernel(mat: Matrix) -> list[list]:
    """Basis of the right null space {v : mat v = 0}, one vector per free column."""
    red, pivots = rref(mat)
    return _kernel_from_rref(mat.field, red.data, mat.cols, pivots)


def solve(mat: Matrix, rhs: Sequence) -> Optional[tuple[list, list[list]]]:
    """Solve mat x = rhs exactly.

    Returns (particular, kernel_basis) or None when inconsistent.  The
    particular solution is canonical: free variables are set to zero, so
    the same system always yields the same answer.
    """
    if len(rhs) != mat.rows:
        raise LinalgError("rhs length does not match row count")
    f = mat.field
    n = mat.cols
    aug = Matrix(f, mat.rows, n + 1,
                 [row + [b] for row, b in zip(mat.data, rhs)])
    red, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None
    particular = [f.zero] * n
    for k, c in enumerate(pivots):
        particular[c] = red.data[k][n]
    left = [row[:n] for row in red.data]
    return particular, _kernel_from_rref(f, left, n, pivots)


def span_decide(field: Field, generators: Sequence[Sequence], target: Sequence
                ) -> Optional[list]:
    """Coefficients expressing target in the span of generators, or None.

    The coefficient vector is the canonical (free-variables-zero) solution,
    so the answer depends only on the generator list and the target.
    """
    n = len(target)
    for g in generators:
        if len(g) != n:
            raise LinalgError("generator/target length mismatch")
    if not generators:
        return None if any(target) else []
    cols = Matrix.from_cols(field, [list(g) for g in generators])
    result = solve(cols, list(target))
    return None if result is None else result[0]


def span_decide_pairs(field: Field, lefts: Sequence, rights: Sequence,
                      product: Callable[[object, object], Sequence],
                      target: Sequence) -> Optional[list]:
    """span_decide over the generators product(lefts[i], rights[j]) in
    row-major order, grouped by i: (i, [c_i0, c_i1, ...]) for each i whose
    coefficients are not all zero, in ascending i, or None."""
    coeffs = span_decide(field, [product(u, v) for u in lefts for v in rights],
                         target)
    if coeffs is None:
        return None
    n = len(rights)
    chunks = (coeffs[i * n:(i + 1) * n] for i in range(len(lefts)))
    return [(i, c) for i, c in enumerate(chunks) if any(c)]


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of F^n held as an RREF basis (canonical representation)."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: list, pivots: list[int]) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int,
                     vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise LinalgError("vector length does not match ambient dimension")
        if not vecs:
            return cls(field, ambient_dim, [], [])
        red, pivots = rref(Matrix.from_rows(field, vecs))
        return cls(field, ambient_dim, [red.data[i] for i in range(len(pivots))], pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return cls(field, ambient_dim, eye.data, list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> list:
        """Residual of v after subtracting its projection onto the basis rows."""
        f = self.field
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            a = w[pc]
            if a:
                f.row_submul(w, row, a)
        return w

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def element(self, coords: Sequence) -> list:
        """The vector with the given coefficients over the RREF basis."""
        f = self.field
        out = [f.zero] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            if c:
                f.row_addmul(out, row, c)
        return out

    def coordinates(self, v: Sequence) -> Optional[list]:
        """Coefficients of v over the RREF basis, or None if v is outside."""
        coeffs = [v[pc] for pc in self.pivots]
        if not self.contains(v):
            return None
        return coeffs

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        f = self.field
        # columns: basis of self, then negated basis of other; kernel rows
        # give coefficient pairs (a, b) with a.U = b.V, i.e. intersection.
        cols = [list(r) for r in self.rows] + \
               [vec_scale(f, r, f.neg(f.one)) for r in other.rows]
        ker = kernel(Matrix.from_cols(f, cols))
        return Subspace.from_vectors(
            f, self.ambient_dim, [self.element(kv[:self.dim]) for kv in ker])

    def is_contained_in(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(other.contains(r) for r in self.rows)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise LinalgError("subspace ambient mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        # equal RREF rows have equal pivots
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
