"""Exact arithmetic over the Gaussian rationals Q(i) and dense exact linear algebra.

Every quantity in this package (eigenvalues, polynomial-part coefficients,
matrix entries) lives in Q(i), so equality, rank and kernel questions are
decidable and all downstream certificates are reproducible bit for bit.
Matrices store GaussRat entries, but products, rank and reduced row echelon
forms are computed over the Gaussian integers Z[i] after clearing
denominators, and converted back only at the end.  Products take integer
dot products; rank and RREF share one fraction-free (Bareiss) Gauss-Jordan
elimination, whose pivoting always takes the first nonzero entry, never a
magnitude heuristic.

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
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I_UNIT = GaussRat(0, 1)


def _scan_rational(text, pos, allow_sign):
    """Scan `['-'] digits ['/' digits]` starting at pos; return (Fraction, new pos)."""
    start = pos
    if pos < len(text) and text[pos] == "-" and allow_sign:
        pos += 1
    d0 = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == d0:
        raise GaussParseError("expected digits", pos)
    num = int(text[start:pos])
    if pos < len(text) and text[pos] == "/":
        pos += 1
        d1 = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == d1:
            raise GaussParseError("expected denominator digits", pos)
        den = int(text[d1:pos])
        if den == 0:
            raise GaussParseError("zero denominator", d1)
        return Fraction(num, den), pos
    return Fraction(num), pos


def gauss_parse(text: str) -> GaussRat:
    """Parse a Gaussian-rational literal.

    Grammar: rational ::= ['-'] digits ['/' digits];
    gauss ::= rational | [rational] ('+'|'-') rational 'i' | rational 'i'.
    """
    if not isinstance(text, str):
        raise GaussParseError("expected a string", 0)
    s = text.strip()
    offset = text.find(s) if s else 0
    if not s:
        raise GaussParseError("empty literal", offset)
    try:
        return _parse_body(s)
    except GaussParseError as exc:
        raise GaussParseError(str(exc).rsplit(" (at position", 1)[0],
                              exc.position + offset) from None


def _parse_body(s):
    if s.endswith("i"):
        body = s[:-1]
        # Interior sign splits re from im; a sign at 0 with no interior sign
        # belongs to the imaginary part itself.
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-":
                split = k
                break
        if split > 0:
            re_part, _ = _scan_full(body[:split], 0)
            sign = 1 if body[split] == "+" else -1
            im_mag, pos = _scan_rational(body, split + 1, allow_sign=False)
            if pos != len(body):
                raise GaussParseError("trailing characters", pos)
            return GaussRat(re_part, sign * im_mag)
        if body.startswith("+"):
            im, pos = _scan_rational(body, 1, allow_sign=False)
            if pos != len(body):
                raise GaussParseError("trailing characters", pos)
            return GaussRat(0, im)
        im, pos = _scan_rational(body, 0, allow_sign=True)
        if pos != len(body):
            raise GaussParseError("trailing characters", pos)
        return GaussRat(0, im)
    value, pos = _scan_rational(s, 0, allow_sign=True)
    if pos != len(s):
        raise GaussParseError("trailing characters", pos)
    return GaussRat(value)


def _scan_full(fragment, pos):
    value, end = _scan_rational(fragment, pos, allow_sign=True)
    if end != len(fragment):
        raise GaussParseError("trailing characters", end)
    return value, end


class ExactMatrix:
    """Dense matrix over Q(i), row-major, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
        return ExactMatrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n):
        return ExactMatrix(n, n, [ONE if i == j else ZERO
                                  for i in range(n) for j in range(n)])

    @staticmethod
    def scalar(n, value):
        value = _coerce(value)
        return ExactMatrix(n, n, [value if i == j else ZERO
                                  for i in range(n) for j in range(n)])

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.rows, self.cols)

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scale(self, c):
        c = _coerce(c)
        return ExactMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        da, a = _clear_denominators(self.entries)
        db, b = _clear_denominators(other.entries)
        d = da * db
        return ExactMatrix(self.rows, other.cols,
                           [_gauss_over(re, im, d) for re, im in
                            _zmatmul(a, b, self.rows, self.cols, other.cols)])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def is_zero(self):
        return all(not a for a in self.entries)

    def block(self, r0, r1, c0, c1):
        return ExactMatrix(r1 - r0, c1 - c0,
                           [self.entry(i, j) for i in range(r0, r1)
                            for j in range(c0, c1)])

    def add_scalar(self, c):
        """self + c * identity."""
        return self + ExactMatrix.scalar(self.rows, c)


def hstack(blocks):
    rows = blocks[0].rows
    for b in blocks:
        if b.rows != rows:
            raise ValueError("row mismatch in hstack")
    out = []
    for i in range(rows):
        for b in blocks:
            out.extend(b.entries[i * b.cols:(i + 1) * b.cols])
    return ExactMatrix(rows, sum(b.cols for b in blocks), out)


def vstack(blocks):
    cols = blocks[0].cols
    flat = []
    for b in blocks:
        if b.cols != cols:
            raise ValueError("column mismatch in vstack")
        flat.extend(b.entries)
    return ExactMatrix(sum(b.rows for b in blocks), cols, flat)


def block_diag(blocks):
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[ZERO] * m for _ in range(n)]
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r + i][c + j] = b.entry(i, j)
        r += b.rows
        c += b.cols
    return ExactMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# Gaussian-integer kernels: denominators cleared, (re, im) int pairs inside


def _clear_denominators(entries):
    """(d, [(re, im), ...]): d the lcm of the denominators of the GaussRat
    entries, and each entry times d as a pair of ints."""
    # The distinct denominators are few.  Passing all of them as arguments
    # would build a tuple of 2*len(entries) per call, and CPython keeps up
    # to 2000 freed tuples of each size below 20, which raised peak memory.
    d = math.lcm(*{part.denominator for x in entries for part in (x.re, x.im)})
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


def _zsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


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


def _echelon(m: ExactMatrix):
    """Fraction-free Gauss-Jordan elimination of m over Z[i].

    Each row is cleared of denominators first, which leaves the reduced row
    echelon form as it is.  Returns (rows, pivots, p): rows[r] / p is row r
    of the RREF.  At the pivot p in row r every other row becomes
    (p row_i - f row_r) / p_prev, f its entry in the pivot column; the
    entries stay minors of the cleared matrix, so the division is exact
    (Bareiss, Math. Comp. 1968), and every earlier pivot becomes p.
    Pivoting takes the first nonzero entry.
    """
    rows, cols = m.rows, m.cols
    work = [_clear_denominators(m.entries[i * cols:(i + 1) * cols])[1]
            for i in range(rows)]
    pivots = []
    prev = (1, 0)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][c] != (0, 0)), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(rows):
            if i != r:
                f = work[i][c]
                work[i] = [_zdiv_exact(_zsub(_zmul(p, x), _zmul(f, y)), prev)
                           for x, y in zip(work[i], prow)]
        pivots.append(c)
        prev = p
    return work, pivots, prev


def mat_rank(m: ExactMatrix) -> int:
    """Exact rank over Q(i): the pivot count of the fraction-free elimination."""
    return len(_echelon(m)[1])


# ---------------------------------------------------------------------------
# reduced row echelon form over Q(i) and its consumers


def rref(m: ExactMatrix):
    """Return (rref rows as lists, pivot column list); first-nonzero pivoting."""
    work, pivots, p = _echelon(m)
    pc, n = _zconj(p), _znorm(p)
    return [[_gauss_over(*_zmul(z, pc), n) for z in row] for row in work], pivots


def mat_kernel(m: ExactMatrix):
    """Deterministic basis of the right kernel, one vector per free column."""
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * m.cols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_general(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """One exact solution X of a X = b; raises SingularOperatorError if none exists."""
    aug = hstack([a, b])
    rows, pivots = rref(aug)
    for r in range(len(rows)):
        if all(not x for x in rows[r][:a.cols]) and any(rows[r][a.cols:]):
            raise SingularOperatorError("inconsistent linear system")
    x = [[ZERO] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        if pc >= a.cols:
            raise SingularOperatorError("inconsistent linear system")
        for j in range(b.cols):
            x[pc][j] = rows[r][a.cols + j]
    return ExactMatrix.from_rows(x) if a.cols else ExactMatrix.zeros(0, b.cols)


def invert(m: ExactMatrix) -> ExactMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    if mat_rank(m) != m.rows:
        raise SingularOperatorError("matrix is singular")
    return solve_general(m, ExactMatrix.identity(m.rows))


def column_space_basis(m: ExactMatrix) -> ExactMatrix:
    """Pivot columns of m, as a matrix; deterministic spanning subset of the image."""
    _, pivots = rref(m)
    if not pivots:
        return ExactMatrix.zeros(m.rows, 0)
    return hstack([m.block(0, m.rows, c, c + 1) for c in pivots])


def complete_basis(basis: ExactMatrix) -> ExactMatrix:
    """Standard vectors, greedily by index, completing the columns of `basis`."""
    n = basis.rows
    chosen = []
    current = basis
    for j in range(n):
        e = ExactMatrix(n, 1, [ONE if i == j else ZERO for i in range(n)])
        cand = hstack([current, e])
        if mat_rank(cand) > mat_rank(current):
            chosen.append(e)
            current = cand
        if current.cols == n:
            break
    if current.cols != n:
        raise ValueError("could not complete basis")
    return hstack(chosen) if chosen else ExactMatrix.zeros(n, 0)


def solve_sylvester(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """Unique X with aX - Xb = c; SingularOperatorError when spectra intersect."""
    s, t = a.rows, b.rows
    if a.cols != s or b.cols != t or c.rows != s or c.cols != t:
        raise ValueError("shape mismatch in Sylvester equation")
    # Row (i,j) of the Kronecker system: sum_k a[i,k] X[k,j] - sum_k X[i,k] b[k,j].
    dim = s * t
    sys_rows = []
    rhs = []
    for i in range(s):
        for j in range(t):
            row = [ZERO] * dim
            for k in range(s):
                row[k * t + j] = row[k * t + j] + a.entry(i, k)
            for k in range(t):
                row[i * t + k] = row[i * t + k] - b.entry(k, j)
            sys_rows.append(row)
            rhs.append([c.entry(i, j)])
    sys_m = ExactMatrix.from_rows(sys_rows) if dim else ExactMatrix.zeros(0, 0)
    if dim and mat_rank(sys_m) != dim:
        raise SingularOperatorError("Sylvester operator X -> aX - Xb is singular")
    x = solve_general(sys_m, ExactMatrix.from_rows(rhs) if dim else ExactMatrix.zeros(0, 1))
    return ExactMatrix(s, t, [x.entry(i * t + j, 0) for i in range(s) for j in range(t)])


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
    d, a = _clear_denominators(m.entries)
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
    d = math.lcm(*(part.denominator for c in coeffs for part in (c.re, c.im)))
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
    c = math.gcd(*(x for z in f for x in z))
    f = [(a // c, b // c) for a, b in f]
    # The rest h of the content divides h * conj(h), which divides the gcd
    # G of the norms; so h = gcd(G, f mod G), on numbers below G.
    big = math.gcd(*map(_znorm, f))
    h = (big, 0)
    for a, b in f:
        h = _zgcd(h, (a % big, b % big))
    return [_zdiv_exact(z, h) for z in f]


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
    vecs = mat_kernel(m.add_scalar(-eigenvalue))
    if not vecs:
        return ExactMatrix.zeros(m.rows, 0)
    return hstack([ExactMatrix(m.rows, 1, v) for v in vecs])
