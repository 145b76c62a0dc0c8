"""Exact arithmetic over the Gaussian rationals Q(i) and dense exact linear algebra.

Every quantity in this package (eigenvalues, polynomial-part coefficients,
matrix entries) lives in Q(i), so equality, rank and kernel questions are
decidable and all downstream certificates are reproducible bit for bit.
A matrix is one positive integer denominator over its row-major numerators
in the Gaussian integers Z[i], in lowest terms (the shared denominator of
FLINT's fmpq_mat), so sums, scalings, products and eliminations run on ints.
GaussRat is the scalar and the I/O type: a matrix is built from GaussRats and
gives them back only through its entry views.  Every elimination runs in one
kernel, `_Echelon`: a fraction-free (Bareiss) Gauss-Jordan basis that takes
one row at a time and says whether it was new.  Rank, RREF, kernels, inverses
and linear solves insert the rows of a matrix; basis completion inserts the
columns and then the standard vectors; the exact Burnside closure in
`matrixops` inserts the words it generates.  The pivot of a row is its first
nonzero entry, never a magnitude heuristic.  `rref_matrix` gives the pivots
and the nonzero RREF rows of one elimination; the canonical datum of
`matrixops` reads its projection straight from them, and kernels are built
from them, so no basis is completed and inverted there.

Eigenvalues are the roots in Q(i) of the characteristic polynomial, found
exactly in plain Python by modular root finding and Hensel lifting (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 15).  Scaling by the common
denominator makes every root in Q(i) a Gaussian integer.  The roots of the
squarefree part are found modulo a small prime p = 1 (mod 4), Hensel-lifted
until p^k bounds their size, and mapped back to the least Gaussian integer in
their class.  Exact deflation by each candidate gives its multiplicity, and a
factor left over proves that the polynomial does not split over Q(i).
"""

from __future__ import annotations

import math
from fractions import Fraction


class GaussParseError(ValueError):
    """Malformed Gaussian-rational literal; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class SingularOperatorError(ArithmeticError):
    """A linear system that was required to be uniquely solvable is not."""


class NonSplitError(ArithmeticError):
    """Spectral data whose eigenvalues do not all lie in Q(i)."""


class GaussRat:
    """Immutable Gaussian rational a + bi with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat(self.re / n, -self.im / n)

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def sort_key(self):
        """Lexicographic (re, im) key used for all deterministic orderings."""
        return (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return _frac_str(self.re)
        if self.re == 0:
            return _frac_str(self.im) + "i"
        sign = "+" if self.im > 0 else "-"
        return _frac_str(self.re) + sign + _frac_str(abs(self.im)) + "i"

    def __repr__(self):
        return "GaussRat(%r, %r)" % (str(self.re), str(self.im))


def _coerce(value):
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRat(value)
    return None


def _frac_str(f):
    if f.denominator == 1:
        return _int_str(f.numerator)
    return _int_str(f.numerator) + "/" + _int_str(f.denominator)


def _int_str(n):
    """The decimal digits of n, however many there are.

    str() refuses an int with more digits than the interpreter's limit
    (sys.set_int_max_str_digits; 4300 by default, never below 640 when set),
    and that limit is the process's to choose.  So an int of 2,000 bits or
    more, about 600 digits, is printed in two halves split at a power of ten.
    """
    if n.bit_length() < 2000:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20   # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10 ** k)
    return _int_str(high) + _int_str(low).zfill(k)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I_UNIT = GaussRat(0, 1)


def _scan_rational(text, pos, end):
    """The rational `['-'] digits ['/' digits]` that fills text[pos:end].

    Positions count from the start of text, in errors too; a scan that stops
    before end raises "trailing characters" where it stopped.  Digits are
    ASCII 0-9 only: int() would also read other Unicode decimal digits, such
    as Arabic-Indic or fullwidth ones.
    """
    start = pos
    if pos < end and text[pos] == "-":
        pos += 1
    d0 = pos
    while pos < end and "0" <= text[pos] <= "9":
        pos += 1
    if pos == d0:
        raise GaussParseError("expected digits", pos)
    num = _digits_int(text, start, pos)
    den = 1
    if pos < end and text[pos] == "/":
        d1 = pos = pos + 1
        while pos < end and "0" <= text[pos] <= "9":
            pos += 1
        if pos == d1:
            raise GaussParseError("expected denominator digits", pos)
        den = _digits_int(text, d1, pos)
        if den == 0:
            raise GaussParseError("zero denominator", d1)
    if pos != end:
        raise GaussParseError("trailing characters", pos)
    return Fraction(num, den)


def _digits_int(text, start, end):
    """int(text[start:end]) of ASCII digits, or a parse error at start: int()
    refuses more digits than the interpreter's limit
    (sys.set_int_max_str_digits)."""
    try:
        return int(text[start:end])
    except ValueError:
        raise GaussParseError("not a decimal integer within this interpreter's"
                              " digit limit", start) from None


def gauss_parse(text: str) -> GaussRat:
    """Parse a Gaussian-rational literal.

    Grammar: rational ::= ['-'] digits ['/' digits];
    gauss ::= rational | [rational] ('+'|'-') rational 'i' | rational 'i'.
    Surrounding whitespace is skipped, and an error's position counts from
    the start of text.  A literal ending in 'i' splits at its last sign after
    the first character; with no such sign, a leading sign belongs to the
    imaginary part.  A scan that starts after a sign never meets another one,
    since none follows it, so every scan may read a leading '-'.
    """
    if not isinstance(text, str):
        raise GaussParseError("expected a string", 0)
    start = len(text) - len(text.lstrip())
    end = len(text.rstrip())
    if start >= end:
        raise GaussParseError("empty literal", 0)
    if text[end - 1] != "i":
        return GaussRat(_scan_rational(text, start, end))
    end -= 1
    split = max(text.rfind("+", start + 1, end), text.rfind("-", start + 1, end))
    if split > start:
        re_part = _scan_rational(text, start, split)
        im = _scan_rational(text, split + 1, end)
        return GaussRat(re_part, im if text[split] == "+" else -im)
    plus = text.startswith("+", start, end)
    return GaussRat(0, _scan_rational(text, start + plus, end))


class ExactMatrix:
    """Dense matrix over Q(i), immutable after construction.

    Stored as one denominator `d`, a positive int, over `z`, the row-major
    Z[i] numerators as (re, im) int pairs, with gcd(d, every component) == 1
    so that equal matrices have equal fields.  The constructor takes GaussRat
    entries; `entries`, `entry` and `row_list` build GaussRats on demand.
    """

    __slots__ = ("rows", "cols", "d", "z")

    def __new__(cls, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        return _make(rows, cols, *_clear_denominators(entries))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def from_rows(rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            for x in row:
                g = _coerce(x)
                if g is None:
                    raise ValueError("entry %r is not a Gaussian rational" % (x,))
                flat.append(g)
        return ExactMatrix(r, c, flat)

    @staticmethod
    def zeros(rows, cols=None):
        if cols is None:
            cols = rows
        return _make(rows, cols, 1, [(0, 0)] * (rows * cols))

    @staticmethod
    def identity(n):
        return ExactMatrix.scalar(n, ONE)

    @staticmethod
    def scalar(n, value):
        return ExactMatrix.zeros(n).add_scalar(value)

    @property
    def entries(self):
        d = self.d
        return [_gauss_over(re, im, d) for re, im in self.z]

    def entry(self, i, j):
        return _gauss_over(*self.z[i * self.cols + j], self.d)

    def row_list(self, i):
        d = self.d
        return [_gauss_over(re, im, d)
                for re, im in self.z[i * self.cols:(i + 1) * self.cols]]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.d == other.d and self.z == other.z)

    def __hash__(self):
        return hash((self.rows, self.cols, self.d, tuple(self.z)))

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.rows, self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        d = math.lcm(self.d, other.d)
        f, g = d // self.d, d // other.d
        return _reduced(self.rows, self.cols, d, [
            (a * f + c * g, b * f + e * g) for (a, b), (c, e) in zip(self.z, other.z)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _make(self.rows, self.cols, self.d,
                     [(-a, -b) for a, b in self.z])

    def scale(self, c):
        cd, ((x, y),) = _clear_denominators([_coerce(c)])
        return _reduced(self.rows, self.cols, self.d * cd,
                        [(a * x - b * y, a * y + b * x) for a, b in self.z])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        return _reduced(self.rows, other.cols, self.d * other.d,
                        _zmatmul(self.z, other.z, self.rows, self.cols, other.cols))

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        diag = self.z[::self.cols + 1]
        return _gauss_over(sum(a for a, _ in diag), sum(b for _, b in diag), self.d)

    def is_zero(self):
        return self.z.count((0, 0)) == len(self.z)

    def block(self, r0, r1, c0, c1):
        z, c = self.z, self.cols
        return _reduced(r1 - r0, c1 - c0, self.d,
                        [x for i in range(r0, r1) for x in z[i * c + c0:i * c + c1]])

    def add_scalar(self, c):
        """self + c * identity."""
        if self.rows != self.cols:
            raise ValueError("shape mismatch")
        cd, ((x, y),) = _clear_denominators([_coerce(c)])
        d = math.lcm(self.d, cd)
        f, g = d // self.d, d // cd
        z = [(a * f, b * f) for a, b in self.z]
        for k in range(0, len(z), self.cols + 1):
            a, b = z[k]
            z[k] = (a + x * g, b + y * g)
        return _reduced(self.rows, self.cols, d, z)


def _make(rows, cols, d, z):
    """The matrix z / d; (d, z) must be in canonical form."""
    m = object.__new__(ExactMatrix)
    setattr_ = object.__setattr__
    setattr_(m, "rows", rows)
    setattr_(m, "cols", cols)
    setattr_(m, "d", d)
    setattr_(m, "z", z)
    return m


def _reduced(rows, cols, d, z):
    """The matrix z / d in canonical form: d and z divided by their gcd."""
    g = d
    for a, b in z:
        if g == 1:
            break
        g = math.gcd(g, a, b)
    if g > 1:
        d //= g
        z = [(a // g, b // g) for a, b in z]
    return _make(rows, cols, d, z)


def _common(blocks):
    """(d, numerator lists): the lcm d of the blocks' denominators and each
    block's numerators over d.  Every prime power of d is some block's in
    full, so stacking the lists keeps the canonical form."""
    d = 1
    for b in blocks:
        d = math.lcm(d, b.d)
    return d, [b.z if b.d == d else [(x * (d // b.d), y * (d // b.d)) for x, y in b.z]
               for b in blocks]


def hstack(blocks):
    rows = blocks[0].rows
    for b in blocks:
        if b.rows != rows:
            raise ValueError("row mismatch in hstack")
    d, zs = _common(blocks)
    out = []
    for i in range(rows):
        for b, z in zip(blocks, zs):
            out.extend(z[i * b.cols:(i + 1) * b.cols])
    return _make(rows, sum(b.cols for b in blocks), d, out)


def vstack(blocks):
    cols = blocks[0].cols
    for b in blocks:
        if b.cols != cols:
            raise ValueError("column mismatch in vstack")
    d, zs = _common(blocks)
    return _make(sum(b.rows for b in blocks), cols, d,
                 [x for z in zs for x in z])


def block_diag(blocks):
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    d, zs = _common(blocks)
    out = [(0, 0)] * (n * m)
    r = c = 0
    for b, z in zip(blocks, zs):
        for i in range(b.rows):
            out[(r + i) * m + c:(r + i) * m + c + b.cols] = z[i * b.cols:(i + 1) * b.cols]
        r += b.rows
        c += b.cols
    return _make(n, m, d, out)


# ---------------------------------------------------------------------------
# Gaussian-integer kernels: (re, im) int pairs


def _clear_denominators(entries):
    """(d, [(re, im), ...]): d the lcm of the denominators of the GaussRat
    entries, and each entry times d as a pair of ints.  Every prime power of
    d is some entry's denominator in full, so gcd(d, every component) == 1."""
    # A loop, not lcm(*...): CPython keeps freed argument tuples of each size
    # below 20 on free lists that only full collections empty (test_lint.py).
    d = 1
    for x in entries:
        d = math.lcm(d, x.re.denominator, x.im.denominator)
    return d, [(x.re.numerator * (d // x.re.denominator),
                x.im.numerator * (d // x.im.denominator)) for x in entries]


def _gauss_over(re, im, d):
    """The GaussRat (re + im i) / d, for ints re, im and d != 0."""
    if not (re or im):
        return ZERO
    g = object.__new__(GaussRat)
    object.__setattr__(g, "re", Fraction(re, d))
    object.__setattr__(g, "im", Fraction(im, d))
    return g


def _zmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _zdiv_exact(a, b):
    # Exact division in Z[i]; Bareiss guarantees divisibility.
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % n or im % n:
        raise ArithmeticError("inexact Gaussian-integer division (internal)")
    return (re // n, im // n)


def _zmatmul(a, b, n, k, m):
    """Product of the flat row-major Z[i] matrices a (n x k) and b (k x m);
    the dot products run over the nonzero entries of each row of a."""
    cols = [b[j::m] for j in range(m)]
    out = []
    for i in range(n):
        row = [(t, x, y) for t, (x, y) in enumerate(a[i * k:(i + 1) * k]) if x or y]
        for col in cols:
            re = im = 0
            for t, x, y in row:
                u, v = col[t]
                re += x * u - y * v
                im += x * v + y * u
            out.append((re, im))
    return out


class _Echelon:
    """Fraction-free Gauss-Jordan basis over Z[i], grown one row at a time.

    `rows` maps each pivot index to its row, and every row equals the common
    value `d` at its own pivot and 0 at the other pivots, so rows[q] / d is
    the row of the reduced row echelon form with pivot q.  add(vec) reduces
    d vec by the rows, v -> d v - sum vec[q] rows[q]; a nonzero result w,
    with first nonzero entry p at index q, turns every other row into
    (p row - row[q] w) / d and becomes rows[q], and d becomes p.  The
    entries stay minors of the accepted rows, so the division is exact
    (Bareiss, Math. Comp. 1968); reducing against rows that are only made
    primitive instead lets them grow without bound.  Every row is 0 before
    its pivot, so the pivots are the pivot columns of the RREF whatever
    order the rows came in.
    """

    __slots__ = ("rows", "d")

    def __init__(self):
        self.rows = {}
        self.d = (1, 0)

    def add(self, vec) -> bool:
        """Put the Z[i] vector vec into the basis; True when it was new."""
        dr, di = self.d
        if di:
            w = [(dr * a - di * b, dr * b + di * a) for a, b in vec]
        elif dr != 1:
            w = [(dr * a, dr * b) for a, b in vec]
        else:
            w = list(vec)
        for piv, row in self.rows.items():
            fr, fi = vec[piv]
            if fr or fi:
                w = [(a - fr * c + fi * e, b - fr * e - fi * c)
                     for (a, b), (c, e) in zip(w, row)]
        q = next((idx for idx, (a, b) in enumerate(w) if a or b), None)
        if q is None:
            return False
        pr, pi = w[q]
        # The division by d is exact; a Gaussian d divides through its
        # conjugate and norm, a real one directly.
        norm = dr * dr + di * di if di else dr
        for piv, row in self.rows.items():
            fr, fi = row[q]
            new = [(pr * x - pi * y - fr * c + fi * e, pr * y + pi * x - fr * e - fi * c)
                   for (x, y), (c, e) in zip(row, w)]
            if di:
                new = [(a * dr + b * di, b * dr - a * di) for a, b in new]
            if norm != 1:
                if any(a % norm or b % norm for a, b in new):
                    raise ArithmeticError("inexact Gaussian-integer division (internal)")
                new = [(a // norm, b // norm) for a, b in new]
            self.rows[piv] = new
        self.rows[q] = w
        self.d = (pr, pi)
        return True


def _eliminate(m: ExactMatrix) -> _Echelon:
    """The echelon basis of the rows of m's numerators."""
    kernel = _Echelon()
    cols = m.cols
    for i in range(m.rows):
        if len(kernel.rows) == cols:
            break
        kernel.add(m.z[i * cols:(i + 1) * cols])
    return kernel


def mat_rank(m: ExactMatrix) -> int:
    """Exact rank over Q(i): the pivot count of the fraction-free elimination."""
    return len(_eliminate(m).rows)


def _divided(rows, cols, z, p):
    """The matrix z / p, for a flat Z[i] list z and a Gaussian integer p != 0."""
    c = _zconj(p)
    return _reduced(rows, cols, _znorm(p), [_zmul(x, c) for x in z])


def _solution(kernel, n, c0, c1):
    """The n x (c1 - c0) matrix whose row q is columns c0..c1-1 of the RREF
    row with pivot q, or 0 where q is no pivot."""
    zero = [(0, 0)] * (c1 - c0)
    z = []
    for q in range(n):
        row = kernel.rows.get(q)
        z.extend(zero if row is None else row[c0:c1])
    return _divided(n, c1 - c0, z, kernel.d)


# ---------------------------------------------------------------------------
# reduced row echelon form over Q(i) and its consumers


def rref_matrix(m: ExactMatrix):
    """(pivots, R) from one elimination: the pivot columns of m's reduced row
    echelon form, ascending, and its nonzero rows R as a rank x cols matrix."""
    kernel = _eliminate(m)
    pivots = sorted(kernel.rows)
    return pivots, _divided(len(pivots), m.cols,
                            [x for q in pivots for x in kernel.rows[q]], kernel.d)


def rref(m: ExactMatrix):
    """Return (rref rows as lists, pivot column list); first-nonzero pivoting."""
    pivots, top = rref_matrix(m)
    rows = [top.row_list(i) for i in range(top.rows)]
    return rows + [[ZERO] * m.cols for _ in range(m.rows - len(rows))], pivots


def rref_kernel(pivots, r: ExactMatrix) -> ExactMatrix:
    """The kernel basis of an RREF R with the given pivot columns, one column
    per free column f: 1 at f and minus R's column f at the pivots."""
    cols = r.cols
    taken = set(pivots)
    free = [c for c in range(cols) if c not in taken]
    k = len(free)
    z = [(0, 0)] * (cols * k)
    for j, fc in enumerate(free):
        z[fc * k + j] = (r.d, 0)
        for i, pc in enumerate(pivots):
            a, b = r.z[i * cols + fc]
            z[pc * k + j] = (-a, -b)
    return _reduced(cols, k, r.d, z)


def mat_kernel(m: ExactMatrix) -> ExactMatrix:
    """Deterministic basis of the right kernel: `rref_kernel` of m's RREF."""
    return rref_kernel(*rref_matrix(m))


def solve_general(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """One exact solution X of a X = b; raises SingularOperatorError if none exists."""
    kernel = _eliminate(hstack([a, b]))
    if any(pc >= a.cols for pc in kernel.rows):
        raise SingularOperatorError("inconsistent linear system")
    return _solution(kernel, a.cols, a.cols, a.cols + b.cols)


def invert(m: ExactMatrix) -> ExactMatrix:
    """m^-1 from one elimination of [m | I]: m is invertible exactly when
    the pivots are the first n columns, and then the right half is m^-1."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    kernel = _eliminate(hstack([m, ExactMatrix.identity(n)]))
    if sorted(kernel.rows) != list(range(n)):
        raise SingularOperatorError("matrix is singular")
    return _solution(kernel, n, n, 2 * n)


def submatrix(m: ExactMatrix, rows, cols) -> ExactMatrix:
    """The entries of m in the given rows and columns, in the order given."""
    z, c = m.z, m.cols
    return _reduced(len(rows), len(cols), m.d, [z[i * c + j] for i in rows for j in cols])


def column_space_basis(m: ExactMatrix) -> ExactMatrix:
    """Pivot columns of m, as a matrix; deterministic spanning subset of the image."""
    return submatrix(m, range(m.rows), sorted(_eliminate(m).rows))


def complete_basis(basis: ExactMatrix) -> ExactMatrix:
    """Standard vectors, greedily by index, completing the independent
    columns of `basis`: one elimination that takes the columns and then each
    e_j in turn, keeping the e_j that are new."""
    n = basis.rows
    kernel = _Echelon()
    for j in range(basis.cols):
        kernel.add(basis.z[j::basis.cols])
    chosen = []
    for j in range(n):
        if len(kernel.rows) == n:
            break
        if kernel.add([(int(i == j), 0) for i in range(n)]):
            chosen.append(j)
    if basis.cols + len(chosen) != n:
        raise ValueError("could not complete basis")
    return _make(n, len(chosen), 1, [(int(i == j), 0) for i in range(n) for j in chosen])


# ---------------------------------------------------------------------------
# characteristic polynomial and Q(i) eigen-decomposition


def char_poly(m: ExactMatrix):
    """Monic characteristic polynomial coefficients [1, c_{n-1}, ..., c_0].

    Faddeev-LeVerrier on the Gaussian-integer matrix a = d*m, d the common
    denominator of m's entries; c_k(m) = c_k(a) / d^k.  Every matrix of the
    recurrence for a lies in Z[i], so its divisions by k are exact.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    d, a = m.d, m.z
    coeffs = [ONE]
    mk = [(int(i == j), 0) for i in range(n) for j in range(n)]
    for k in range(1, n + 1):
        mk = _zmatmul(a, mk, n, n, n)
        tr = (sum(z[0] for z in mk[::n + 1]), sum(z[1] for z in mk[::n + 1]))
        ck = _zdiv_exact((-tr[0], -tr[1]), (k, 0))
        coeffs.append(GaussRat(Fraction(ck[0], d ** k), Fraction(ck[1], d ** k)))
        for i in range(0, n * n, n + 1):
            mk[i] = (mk[i][0] + ck[0], mk[i][1] + ck[1])
    return coeffs


def qi_roots(coeffs):
    """Roots in Q(i) of a monic polynomial with GaussRat coefficients.

    Returns sorted (root, multiplicity) pairs; raises NonSplitError if some
    irreducible factor over Q(i) has degree > 1.
    """
    lead = coeffs[0]
    if lead != ONE:
        coeffs = [c / lead for c in coeffs]
    # q(y) = d^n p(y/d) is monic over Z[i]; its roots in Q(i) are Gaussian
    # integers, d times the roots of p.
    d, _ = _clear_denominators(coeffs)
    q = [(c.re.numerator * d ** k // c.re.denominator,
          c.im.numerator * d ** k // c.im.denominator)
         for k, c in enumerate(coeffs)]
    if len(q) == 1:
        return []
    n = len(q) - 1
    dq = [((n - k) * a, (n - k) * b) for k, (a, b) in enumerate(q[:-1])]
    g = _zprimitive(_zpoly_gcd(q, dq))
    s, _ = _zdivmod(q, [_zmul(_zconj(g[0]), c) for c in g])  # lc(g) is a unit
    # If q splits, the candidates are exactly its roots; if not, a factor
    # of q is left over after deflating by every candidate.
    roots = []
    for r in _gaussian_integer_candidates(s):
        mult = 0
        while True:
            quot, rem = _zdivmod(q, [(1, 0), (-r[0], -r[1])])
            if rem[0] != (0, 0):
                break
            q, mult = quot, mult + 1
        roots.append((GaussRat(Fraction(r[0], d), Fraction(r[1], d)), mult))
    if len(q) > 1:
        raise NonSplitError("polynomial does not split over Q(i)")
    roots.sort(key=lambda p: p[0].sort_key())
    return roots


# Polynomials over Z[i] are lists of (re, im) int pairs, highest degree first.


def _zconj(a):
    return (a[0], -a[1])


def _znorm(a):
    return a[0] * a[0] + a[1] * a[1]


def _zgcd(a, b):
    """A gcd in Z[i], by Euclid with nearest-integer quotients."""
    while b != (0, 0):
        n = _znorm(b)
        num = _zmul(a, _zconj(b))
        quo = ((2 * num[0] + n) // (2 * n), (2 * num[1] + n) // (2 * n))
        qb = _zmul(quo, b)
        a, b = b, (a[0] - qb[0], a[1] - qb[1])
    return a


def _zprimitive(f):
    """f divided by a gcd in Z[i] of its coefficients."""
    if not f:
        return f
    f = _primitive(f)
    # The rest h of the content divides h * conj(h), which divides the gcd
    # G of the norms; so h = gcd(G, f mod G), on numbers below G.
    big = 0
    for z in f:
        big = math.gcd(big, _znorm(z))
    h = (big, 0)
    for a, b in f:
        h = _zgcd(h, (a % big, b % big))
    return [_zdiv_exact(z, h) for z in f]


def _primitive(vec):
    """vec, a list of Z[i] pairs, divided by the gcd of all its components."""
    c = 0
    for a, b in vec:
        c = math.gcd(c, a, b)
        if c == 1:
            break
    if c <= 1:
        return vec
    return [(a // c, b // c) for a, b in vec]


def _zpoly_gcd(a, b):
    """A gcd over Q(i) of two Z[i] polynomials: Euclid on primitive pseudo-remainders."""
    while b:
        lb, a = b[0], list(a)
        while len(a) >= len(b):
            la = a[0]
            for j in range(len(a)):
                x = _zmul(lb, a[j])
                y = _zmul(la, b[j]) if j < len(b) else (0, 0)
                a[j] = (x[0] - y[0], x[1] - y[1])
            while a and a[0] == (0, 0):
                a.pop(0)
        a, b = b, _zprimitive(a)
    return a


def _zdivmod(a, b):
    """Quotient and remainder of a by the monic b, over Z[i]."""
    a = list(a)
    n = len(a) - len(b) + 1
    for k in range(n):
        c = a[k]
        if c != (0, 0):
            for j in range(1, len(b)):
                t = _zmul(c, b[j])
                a[k + j] = (a[k + j][0] - t[0], a[k + j][1] - t[1])
    return a[:n], a[n:]


def _lifting_prime(s):
    """(p, iota, roots of s mod p) for the least prime p = 1 (mod 4) at which
    every root of s mod p is simple; s maps to F_p by a + bi -> a + b*iota,
    where iota^2 = -1 (mod p).  Such p exists because s is squarefree."""
    n = len(s) - 1
    p = 1
    while True:
        p += 4
        if any(p % f == 0 for f in range(3, int(p ** 0.5) + 1, 2)):
            continue
        iota = next(x for x in (pow(c, (p - 1) // 4, p) for c in range(2, p))
                    if x * x % p == p - 1)
        sp = [(a + b * iota) % p for a, b in s]
        dsp = [(n - k) * c for k, c in enumerate(sp[:-1])]
        roots = [x for x in range(p) if _horner(sp, x, p) == 0]
        if all(_horner(dsp, x, p) for x in roots):
            return p, iota, roots


def _horner(f, x, m):
    acc = 0
    for c in f:
        acc = (acc * x + c) % m
    return acc


def _newton_lift(f, df, x, p, modulus):
    """Lift a simple root x of f mod p to a root mod `modulus` (a power of p)."""
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        x = (x - _horner(f, x, m) * pow(_horner(df, x, m), -1, m)) % m
    return x


def _gaussian_integer_candidates(s):
    """Gaussian integers among which every Gaussian-integer root of the
    monic squarefree s lies.

    Each such root r reduces to a simple root of s mod p, which lifts
    uniquely to r's image mod p^k.  The kernel of Z[i] -> Z/p^k is the ideal
    g Z[i], g = pi^k with pi Z[i] the kernel mod p, of norm p^k > 16 B^2;
    B = 2 max |c_k|^(1/k) over the coefficients c_k of s bounds |r|
    (Fujiwara), so r is the unique element of least modulus in its class.
    """
    p, iota, roots = _lifting_prime(s)
    # B, rounded up to a power of two: |c_k|^(1/k) < 2^(bits(|c_k|^2) / 2k)
    log_bound = 1 + max(-(-_znorm(c).bit_length() // (2 * k))
                        for k, c in enumerate(s[1:], 1))
    # Gauss reduction of the kernel lattice {(a, b) : a + b*iota = 0 mod p};
    # its shortest vector pi generates the ideal.
    pi, v = (p, 0), (-iota, 1)
    while True:
        if _znorm(v) < _znorm(pi):
            pi, v = v, pi
        m = (2 * (pi[0] * v[0] + pi[1] * v[1]) + _znorm(pi)) // (2 * _znorm(pi))
        if m == 0:
            break
        v = (v[0] - m * pi[0], v[1] - m * pi[1])
    modulus, g = p, pi
    while modulus >> (4 + 2 * log_bound) == 0:
        modulus, g = modulus * p, _zmul(g, pi)
    iota = _newton_lift([1, 0, 1], [2, 0], iota, p, modulus)
    n = len(s) - 1
    sm = [(a + b * iota) % modulus for a, b in s]
    dsm = [(n - k) * c for k, c in enumerate(sm[:-1])]
    out = []
    for x in roots:
        t = _newton_lift(sm, dsm, x, p, modulus)
        # t - round(t / g) * g, with t / g = t * conj(g) / modulus
        c = ((2 * t * g[0] + modulus) // (2 * modulus),
             (-2 * t * g[1] + modulus) // (2 * modulus))
        cg = _zmul(c, g)
        out.append((t - cg[0], -cg[1]))
    return out


def qi_eigenvalues(m: ExactMatrix):
    """Sorted (eigenvalue, algebraic multiplicity) pairs; NonSplitError if not in Q(i)."""
    return qi_roots(char_poly(m))


def eigenspace_basis(m: ExactMatrix, eigenvalue: GaussRat) -> ExactMatrix:
    return mat_kernel(m.add_scalar(-eigenvalue))
