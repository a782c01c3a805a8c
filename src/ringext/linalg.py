"""Exact sparse linear algebra over Q and over prime fields F_p.

Scalars are plain Python values, one representative per value: over Q
an int when the value is whole and otherwise a rational in lowest terms
(gmpy2.mpq when importable, fractions.Fraction otherwise), over F_p an
int in the range [0, p).  Most structure constants are small integers,
so keeping whole values as ints lets their arithmetic run as int code.
QQ.of decodes a string of the input schema's grammar, an integer or
"p/q", through int alone, building a rational from two ints only when
the value is not whole; other strings go to the rational constructor.
A Field instance owns the arithmetic; values belonging to different
fields are never mixed, and matrices and subspaces remember their field.

Every vector is a pair vector: a tuple of (index, nonzero value) pairs
in ascending index order.  Algebra elements, structure constants, matrix
rows and columns, apply and col, kernel vectors, solutions, the
coefficients of lin_comb and the results of span_decide, Subspace bases
and coordinates, the classes of a tensor product and the vectors of
certificates all take this one form, so elimination touches only
nonzero entries and no vector is copied between two formats.  Dense
lists appear only at the JSON edge (serialize, which reads them with
sparse and pads vectors with dense) and in Matrix.data and row.  Each field has one fused
accumulation kernel, comb, which sums a combination of pair vectors in
one call with the field's arithmetic inlined (products of algebra
elements, rows of lin_comb and of a product, images, tensor class
tables); a one-term combination, or a one-entry row of a product, is
the vector itself or its scaled copy, with no dict.  A matrix keeps
its transpose once built, with no reference back (from_cols keeps the
columns it was given), and apply, spin and col read those cached
columns: an image is the sum of the columns at a vector's nonzero
entries, with no dot product.  Matrix.identity is one shared instance
per field and size.
Subspaces keep an RREF basis, so equal subspaces have equal data.  An
RREF is unique, so its rows, pivots, kernel basis and the particular
solution with free variables zero do not depend on the order in which
elimination visits the rows.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
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
        """Coerce an int, numerator/denominator string, or rational.

        A string of the input schema's grammar, -?[0-9]+ or -?[0-9]+/[0-9]+
        with a nonzero denominator, is decoded as ints; every other string
        goes to the rational constructor, which gives it its value or its
        error."""
        if type(value) is int:
            return value
        if type(value) is str:
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isascii() and digits.isdigit() and (not slash or (
                    den.isascii() and den.isdigit() and den.strip("0"))):
                try:
                    n, d = int(num), int(den or 1)
                except ValueError:   # past the int digit limit
                    pass
                else:
                    return n // d if n % d == 0 else _rational(n, d)
        if isinstance(value, bool) or isinstance(value, float):
            raise LinalgError(f"refusing inexact scalar {value!r} over Q")
        try:
            return _int_if_whole(_rational(value))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise LinalgError(f"bad rational scalar {value!r}: {exc}") from None

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

    # Row kernels, the hot loops of every solver; all keep whole results
    # as ints.
    def sparse_addmul(self, dst: dict, pairs: Iterable, c) -> None:
        """dst += c * src for a nonzero c: dst holds a row's nonzero entries
        as a dict, src its (index, nonzero value) pairs; zeros leave dst."""
        for j, s in pairs:
            v = dst.get(j, 0) + c * s
            if v:
                dst[j] = v if type(v) is int else _int_if_whole(v)
            else:
                del dst[j]

    def comb(self, vectors: Sequence[tuple], coeffs: Iterable) -> tuple:
        """sum x * vectors[j] over the (j, x) pairs of coeffs, zeros
        skipped, as a pair vector; an index j may repeat.  The one
        accumulation kernel of every sparse product: one call per
        combination, with sparse_addmul's arithmetic inlined.  The first
        nonzero term is kept aside: alone, it is vectors[j] itself, scaled
        unless x is 1; once a second arrives, it starts the dict."""
        terms = iter(coeffs)
        for j, c in terms:
            if c:
                break
        else:
            return ()
        first = vectors[j] if c == 1 else _scaled(self, c, vectors[j])
        for k, x in terms:
            if x:
                break
        else:
            return first
        acc = dict(first)
        get = acc.get
        for j, x in chain(((k, x),), terms):
            if x:
                for k, s in vectors[j]:
                    v = get(k, 0) + x * s
                    if v:
                        acc[k] = v if type(v) is int else _int_if_whole(v)
                    else:
                        del acc[k]
        return tuple(sorted(acc.items()))

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

    def sparse_addmul(self, dst: dict, pairs: Iterable, c) -> None:
        p = self.p
        for j, s in pairs:
            v = (dst.get(j, 0) + c * s) % p
            if v:
                dst[j] = v
            else:
                del dst[j]

    def comb(self, vectors: Sequence[tuple], coeffs: Iterable) -> tuple:
        terms = iter(coeffs)
        for j, c in terms:
            if c:
                break
        else:
            return ()
        first = vectors[j] if c == 1 else _scaled(self, c, vectors[j])
        for k, x in terms:
            if x:
                break
        else:
            return first
        p, acc = self.p, dict(first)
        get = acc.get
        for j, x in chain(((k, x),), terms):
            if x:
                for k, s in vectors[j]:
                    v = (get(k, 0) + x * s) % p
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
        return tuple(sorted(acc.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()


@cache
def GF(p: int) -> PrimeField:
    """The prime field with p elements (instances are cached)."""
    return PrimeField(p)


Field = RationalField | PrimeField


# ---------------------------------------------------------------------------
# vectors

def sparse(v: Sequence) -> tuple:
    """The (index, value) pairs of the nonzero entries of a dense vector."""
    return tuple([(j, x) for j, x in enumerate(v) if x])


def dense(field: Field, n: int, pairs: Iterable) -> list:
    """The length-n vector with the given (index, value) entries."""
    out = [field.zero] * n
    for j, x in pairs:
        out[j] = x
    return out


def _scaled(field: Field, c, v: tuple) -> tuple:
    """c * v for a nonzero c and a pair vector v."""
    mul = field.mul
    return tuple([(j, mul(c, x)) for j, x in v])


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """A matrix over one exact field, held as immutable sparse rows:
    pairs[i] holds the (column, value) pairs of the nonzero entries of row
    i in ascending column order, so equal matrices have equal pairs; _t
    caches the transpose.  No method changes a matrix's entries;
    zero-row and zero-column matrices are legal."""

    __slots__ = ("field", "rows", "cols", "pairs", "_t")

    def __init__(self, field: Field, rows: int, cols: int, pairs: tuple) -> None:
        """Pair rows as stored, unchecked; from_pairs checks its input."""
        self.field, self.rows, self.cols, self.pairs = field, rows, cols, pairs
        self._t = None

    @classmethod
    def from_pairs(cls, field: Field, rows: int, cols: int,
                   pair_rows: Iterable[Iterable[tuple]]) -> "Matrix":
        """The matrix whose row i has the (column, value) pairs pair_rows[i],
        in any order, zeros dropped; a column outside 0..cols-1 or repeated
        in a row leaves that row too few distinct valid columns."""
        out = [[(j, x) for j, x in row if x] for row in pair_rows]
        if len(out) != rows or any(len({j for j, _ in row if type(j) is int
                                        and 0 <= j < cols}) != len(row)
                                   for row in out):
            raise LinalgError(f"sparse rows do not fit a {rows}x{cols} matrix")
        return cls(field, rows, cols, tuple(tuple(sorted(r)) for r in out))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, ((),) * rows)

    @staticmethod
    @cache
    def identity(field: Field, n: int) -> "Matrix":
        """The n x n identity, one shared instance per field and size."""
        return Matrix(field, n, n, tuple(((i, field.one),) for i in range(n)))

    @classmethod
    def from_cols(cls, field: Field, rows: int,
                  cols: Sequence[tuple]) -> "Matrix":
        """The rows x len(cols) matrix whose column j is the pair vector
        cols[j]; cols stays as its transpose, which refers to nothing."""
        given = cls(field, len(cols), rows, tuple(cols))
        out = given.transpose()
        given._t, out._t = None, given
        return out

    @property
    def data(self) -> list[list]:
        """Fresh dense rows; writing to them leaves the matrix unchanged."""
        return [self.row(i) for i in range(self.rows)]

    def row(self, i: int) -> list:
        return dense(self.field, self.cols, self.pairs[i])

    def col(self, j: int) -> tuple:
        return self.transpose().pairs[j]

    def apply(self, v: tuple) -> tuple:
        """Matrix-vector product (v as a column): the columns at the
        nonzero entries of v, scaled and summed."""
        if v and v[-1][0] >= self.cols:
            raise LinalgError("matrix/vector size mismatch")
        return self.field.comb(self.transpose().pairs, v)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Each row combines other's rows at its entries; an empty row stays
        empty, a one-entry row is other's row, scaled unless the entry is 1."""
        f = self.field
        if f is not other.field and f != other.field:
            raise LinalgError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch {self.rows}x{self.cols} @ "
                              f"{other.rows}x{other.cols}")
        comb, opairs = f.comb, other.pairs
        out = []
        for row in self.pairs:
            if not row:
                out.append(row)
            elif len(row) == 1:
                k, a = row[0]
                out.append(opairs[k] if a == 1 else _scaled(f, a, opairs[k]))
            else:
                out.append(comb(opairs, row))
        return Matrix(f, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.one)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.neg(self.field.one))

    def _plus(self, other: "Matrix", c) -> "Matrix":
        if (self.field, self.rows, self.cols) != (other.field, other.rows, other.cols):
            raise LinalgError("matrix shape or field mismatch")
        return lin_comb(self.field, self.rows, self.cols,
                        ((0, self.field.one), (1, c)), (self, other))

    def transpose(self) -> "Matrix":
        if self._t is None:
            cols: list[list] = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.pairs):
                for j, x in row:
                    cols[j].append((i, x))
            self._t = Matrix(self.field, self.cols, self.rows,
                             tuple(map(tuple, cols)))
        return self._t

    def vec(self) -> tuple:
        """Row-major flattening, as the (index, value) pairs of its nonzeros."""
        n = self.cols
        return tuple([(i * n + j, x) for i, row in enumerate(self.pairs)
                      for j, x in row])

    @classmethod
    def from_vec(cls, field: Field, rows: int, cols: int, flat: Sequence) -> "Matrix":
        """The rows x cols matrix whose vec is the pair vector flat."""
        if flat and flat[-1][0] >= rows * cols:
            raise LinalgError("flat vector does not match matrix shape")
        out: list[list] = [[] for _ in range(rows)]
        for k, x in flat:
            i, j = divmod(k, cols)
            out[i].append((j, x))
        return cls(field, rows, cols, tuple(map(tuple, out)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.rows, self.cols, self.pairs) == \
            (other.field, other.rows, other.cols, other.pairs)

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def lin_comb(field: Field, rows: int, cols: int, coeffs: tuple,
             mats: Sequence[Matrix]) -> Matrix:
    """sum c * mats[k] over the (k, c) pairs of the pair vector coeffs,
    zeros skipped as in Field.comb, one field.comb per row; only the mats
    at its nonzero entries are read, so operators built on first read
    (bimodule.OnRead) are built only there.  A single term is scaled, or
    shared when its coefficient is 1, as matrices are immutable."""
    terms = [(c, mats[k]) for k, c in coeffs if c]
    if not terms:
        return Matrix.zeros(field, rows, cols)
    if len(terms) == 1:
        c, mat = terms[0]
        return mat if c == 1 else Matrix(field, rows, cols, tuple(
            [_scaled(field, c, row) for row in mat.pairs]))
    comb, cs = field.comb, list(enumerate(c for c, _ in terms))
    return Matrix(field, rows, cols, tuple(
        [comb(parts, cs) for parts in zip(*[mat.pairs for _, mat in terms])]))


# ---------------------------------------------------------------------------
# elimination

def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns; the rows
    enter one at a time through echelon_insert."""
    echelon: dict[int, dict] = {}   # pivot column -> its reduced row
    for row in mat.pairs:
        if len(echelon) == mat.cols:
            break
        echelon_insert(mat.field, echelon, dict(row))
    pivots = sorted(echelon)
    rows = tuple(tuple(sorted(echelon[c].items())) for c in pivots)
    return Matrix(mat.field, mat.rows, mat.cols,
                  rows + ((),) * (mat.rows - len(rows))), pivots


def echelon_insert(f: Field, echelon: dict, acc: dict) -> bool:
    """Reduce the row acc, a dict of nonzeros, by the pivot rows of
    echelon, which stay fully reduced; unless it vanishes, it takes its
    least column as a new pivot, cleared from the earlier pivot rows.
    True when acc was inserted."""
    addmul, neg = f.sparse_addmul, f.neg
    if not echelon_reduce(f, echelon, acc):
        return False
    c = min(acc)
    if not f.is_one(acc[c]):
        inv = f.inv(acc[c])
        acc = {j: f.mul(inv, x) for j, x in acc.items()}
    for other in echelon.values():
        a = other.get(c)
        if a:
            addmul(other, acc.items(), neg(a))
    echelon[c] = acc
    return True


def echelon_reduce(f: Field, echelon: dict, acc: dict) -> dict:
    """acc, a dict of nonzeros, reduced in place by the pivot rows of an
    echelon_insert dict, which vanish at each other's pivots, so it does."""
    for c in [c for c in acc if c in echelon]:
        f.sparse_addmul(acc, echelon[c].items(), f.neg(acc[c]))
    return acc


def spin(field: Field, dim: int, vectors: Iterable, operators: Sequence[Matrix],
         echelon: Optional[dict] = None) -> Optional["Subspace"]:
    """The least subspace of F^dim holding the pair vectors and closed under
    the operators: only a vector that enlarges the span has its images
    queued, so closed spans stay so, and the whole of F^dim stops the
    growth.  Given an echelon_insert dict, it is grown in place and nothing
    is returned; otherwise the span is returned as a Subspace."""
    own = echelon is None
    echelon = {} if own else echelon
    columns, queue = [op.transpose().pairs for op in operators], list(vectors)
    for v in queue:  # grows while it is read: the images of v, from columns
        if echelon_insert(field, echelon, dict(v)):
            if len(echelon) == dim:
                break
            queue.extend(field.comb(cols, v) for cols in columns)
    return Subspace.from_echelon(field, dim, echelon) if own else None


def word_generators(field: Field, dim: int, one: tuple,
                    right_mult: Callable[[int], Matrix]) -> list[int]:
    """Basis indices whose words span F^dim, for a product on F^dim with
    unit one (a pair vector) and right_mult(i) the matrix of right
    multiplication by basis vector i.  e_i is taken when outside the span
    of the words so far, then each generator that the others produce is
    dropped.  Words grow from one by right multiplication (spin), in one
    bracketing, so no associativity is assumed."""
    gens, echelon = [], {}
    spin(field, dim, [one], [], echelon)
    for i in range(dim):
        if echelon_reduce(field, echelon, {i: field.one}):
            gens.append(i)
            # the words so far are closed under the earlier generators, so
            # only their images under e_i can enlarge them
            cols = right_mult(i).transpose().pairs
            spin(field, dim, [field.comb(cols, row.items())
                              for row in echelon.values()],
                 [right_mult(g) for g in gens], echelon)
    for g in list(gens):
        if spin(field, dim, [one], [right_mult(h) for h in gens if h != g]
                ).dim == dim:
            gens.remove(g)
    return gens


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def invert(mat: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    if mat.rows != mat.cols:
        return None
    n, f = mat.rows, mat.field
    aug = Matrix(f, n, 2 * n, tuple(row + ((n + i, f.one),)
                                    for i, row in enumerate(mat.pairs)))
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return Matrix(f, n, n, tuple(tuple((j - n, x) for j, x in row if j >= n)
                                 for row in red.pairs))


def kernel(mat: Matrix) -> list[tuple]:
    """Basis of the right null space {v : mat v = 0} as pair vectors: for
    each free column fc, -x at each pivot whose RREF row holds x at fc,
    in ascending order as pivot rows vanish left of their pivot, then 1."""
    red, pivots = rref(mat)
    f, pivset = mat.field, set(pivots)
    free = {fc: [] for fc in range(mat.cols) if fc not in pivset}
    for pc, row in zip(pivots, red.pairs):
        for j, x in row:
            vector = free.get(j)
            if vector is not None:
                vector.append((pc, f.neg(x)))
    return [tuple(vector) + ((fc, f.one),) for fc, vector in free.items()]


def solve(mat: Matrix, rhs: Sequence) -> Optional[tuple]:
    """The particular solution of mat x = rhs, or None when inconsistent.

    rhs and the solution are pair vectors.  The solution is canonical:
    free variables are set to zero, so the same system always yields the
    same answer; kernel gives the rest of the solution space.
    """
    if rhs and rhs[-1][0] >= mat.rows:
        raise LinalgError("rhs length does not match row count")
    f, n, b = mat.field, mat.cols, dict(rhs)
    aug = Matrix(f, mat.rows, n + 1, tuple(
        row + ((n, b[i]),) if i in b else row for i, row in enumerate(mat.pairs)))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None
    return tuple((c, row[-1][1]) for c, row in zip(pivots, red.pairs)
                 if row[-1][0] == n)


def span_decide(field: Field, dim: int, generators: Sequence[tuple],
                target: tuple) -> Optional[tuple]:
    """Coefficients expressing target in the span of generators, as a pair
    vector over the generator list, or None.

    generators and target are pair vectors in F^dim; the column system
    is the generators stacked as rows, transposed once.  The coefficients
    are the canonical solution of solve, so the answer depends only on
    the generator list and the target.
    """
    if any(v and v[-1][0] >= dim for v in (*generators, target)):
        raise LinalgError("generator/target length mismatch")
    if not generators:
        return None if target else ()
    return solve(Matrix(field, len(generators), dim, tuple(generators))
                 .transpose(), target)


def span_decide_pairs(field: Field, dim: int, lefts: Sequence, rights: Sequence,
                      product: Callable[[object, object], tuple],
                      target: tuple) -> Optional[list]:
    """span_decide over the pair vectors product(lefts[i], rights[j]) in
    row-major order, grouped by i: (i, the pair vector of the c_ij over j)
    for each i with a nonzero c_ij, in ascending i, or None."""
    coeffs = span_decide(field, dim, [product(u, v) for u in lefts for v in rights],
                         target)
    if coeffs is None:
        return None
    n, grouped = len(rights), {}
    for k, c in coeffs:
        grouped.setdefault(k // n, []).append((k % n, c))
    return [(i, tuple(c)) for i, c in grouped.items()]


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of F^n held as its RREF basis: basis, a Matrix with one
    row per basis vector, whose pairs are the basis vectors.  coordinates
    maps pair vectors to pair vectors, reducing each to test membership."""

    def __init__(self, basis: Matrix, pivots: list[int]) -> None:
        """The span of basis, an RREF with these pivots and no zero row."""
        self.field = basis.field
        self.ambient_dim = basis.cols
        self.basis = basis
        self.pivots = pivots
        self._row_at = {c: dict(row) for c, row in zip(pivots, basis.pairs)}

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int,
                     vectors: Iterable[tuple]) -> "Subspace":
        """The span of pair vectors."""
        vecs = tuple(vectors)
        return cls.row_space(Matrix(field, len(vecs), ambient_dim, vecs))

    @classmethod
    def row_space(cls, mat: Matrix) -> "Subspace":
        if not mat.rows:
            return cls.zero(mat.field, mat.cols)
        red, pivots = rref(mat)
        return cls(Matrix(mat.field, len(pivots), mat.cols,
                          red.pairs[:len(pivots)]), pivots)

    @classmethod
    def from_echelon(cls, field: Field, ambient_dim: int,
                     echelon: dict) -> "Subspace":
        """The span of the rows an echelon_insert dict holds."""
        pivots = sorted(echelon)
        return cls(Matrix(field, len(pivots), ambient_dim, tuple(
            tuple(sorted(echelon[c].items())) for c in pivots)), pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(Matrix.zeros(field, 0, ambient_dim), [])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, w: dict) -> dict:
        """Reduce w, a vector's nonzero entries by index, by the basis rows
        in place; the result vanishes at every pivot."""
        return echelon_reduce(self.field, self._row_at, w)

    @cached_property
    def _position(self) -> dict:
        """The index of each pivot column among the pivots."""
        return {c: k for k, c in enumerate(self.pivots)}

    def _coordinates(self, w: dict) -> Optional[tuple]:
        """coordinates of the vector with nonzeros w, keys ascending,
        reduced in place: the basis rows vanish at each other's pivots, so
        they are w's entries at the pivots, read from w's nonzeros through
        the pivot positions, which ascend with the pivots."""
        at = self._position.get
        coords = tuple([(k, x) for c, x in w.items()
                        if (k := at(c)) is not None])
        return None if self._reduce(w) else coords

    def contains(self, v: tuple) -> bool:
        return not self._reduce(dict(v))

    def element(self, coords: tuple) -> tuple:
        """The vector with the pair vector coords as its coefficients over
        the RREF basis."""
        return self.field.comb(self.basis.pairs, coords)

    def coordinates(self, v: tuple) -> Optional[tuple]:
        """The coefficients of the pair vector v over the RREF basis, as a
        pair vector, or None if v is outside."""
        return self._coordinates(dict(v))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        f, d = self.field, self.dim
        # columns: basis of self, then negated basis of other; kernel rows
        # give coefficient pairs (a, b) with a.U = b.V, i.e. intersection.
        stacked = self.basis.pairs + tuple(
            tuple((j, f.neg(x)) for j, x in row)
            for row in other.basis.pairs)
        ker = kernel(Matrix(f, len(stacked), self.ambient_dim,
                            stacked).transpose())
        coeffs = tuple(tuple((k, c) for k, c in kv if k < d) for kv in ker)
        return Subspace.row_space(Matrix(f, len(coeffs), d, coeffs) @ self.basis)

    def is_contained_in(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(not other._reduce(dict(row)) for row in self.basis.pairs)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise LinalgError("subspace ambient mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
