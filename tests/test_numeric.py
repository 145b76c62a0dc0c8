import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gadsp.numeric import (
    ExactMatrix,
    GaussParseError,
    GaussRat,
    NonSplitError,
    SingularOperatorError,
    _Echelon,
    _lifting_prime,
    block_diag,
    char_poly,
    complete_basis,
    gauss_parse,
    hstack,
    I_UNIT,
    invert,
    mat_kernel,
    mat_rank,
    qi_eigenvalues,
    qi_roots,
    rref,
    rref_matrix,
    solve_general,
    submatrix,
    vstack,
)


def test_parse_rational_literal():
    assert gauss_parse("3/2") == GaussRat(Fraction(3, 2))


def test_parse_mixed_literal():
    assert gauss_parse("-1/3+2i") == GaussRat(Fraction(-1, 3), 2)


def test_parse_zero_imaginary():
    assert gauss_parse("0i") == GaussRat(0)


def test_parse_more_forms():
    assert gauss_parse("-2i") == GaussRat(0, -2)
    assert gauss_parse("+2i") == GaussRat(0, 2)
    assert gauss_parse("1-1i") == GaussRat(1, -1)
    assert gauss_parse("7") == GaussRat(7)


def test_parse_errors_carry_position():
    with pytest.raises(GaussParseError) as err:
        gauss_parse("1+i")
    assert err.value.position == 2
    with pytest.raises(GaussParseError):
        gauss_parse("")
    with pytest.raises(GaussParseError):
        gauss_parse("1/0")
    with pytest.raises(GaussParseError):
        gauss_parse("2x")
    # digits are ASCII 0-9; int() would read these Unicode digits as numbers
    for text, message, position in (
            ("\u0661\u0662", "expected digits", 0),              # Arabic-Indic 12
            ("\uff11/\uff12", "expected digits", 0),             # fullwidth 1/2
            ("1/\uff12", "expected denominator digits", 2),
            ("1+\u0662i", "expected digits", 2),
            ("\u00b2", "expected digits", 0)):                   # superscript 2
        with pytest.raises(GaussParseError, match=message) as err:
            gauss_parse(text)
        assert err.value.position == position


# The parser before it became one bounded scan, kept as the reference with
# only its names changed: it parses a stripped copy of the literal, then
# rebuilds each error with its position shifted back by the strip offset.
def _reference_scan_rational(text, pos, allow_sign):
    """Scan `['-'] digits ['/' digits]` starting at pos; return (Fraction, new pos).

    Digits are ASCII 0-9 only: int() would also read other Unicode decimal
    digits, such as Arabic-Indic or fullwidth ones.
    """
    start = pos
    if pos < len(text) and text[pos] == "-" and allow_sign:
        pos += 1
    d0 = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == d0:
        raise GaussParseError("expected digits", pos)
    num = _reference_digits_int(text, start, pos)
    if pos < len(text) and text[pos] == "/":
        pos += 1
        d1 = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == d1:
            raise GaussParseError("expected denominator digits", pos)
        den = _reference_digits_int(text, d1, pos)
        if den == 0:
            raise GaussParseError("zero denominator", d1)
        return Fraction(num, den), pos
    return Fraction(num), pos


def _reference_digits_int(text, start, end):
    """int(text[start:end]) of ASCII digits, or a parse error at start: int()
    refuses more digits than the interpreter's limit
    (sys.set_int_max_str_digits)."""
    try:
        return int(text[start:end])
    except ValueError:
        raise GaussParseError("not a decimal integer within this interpreter's"
                              " digit limit", start) from None


def reference_gauss_parse(text):
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
        return _reference_parse_body(s)
    except GaussParseError as exc:
        raise GaussParseError(str(exc).rsplit(" (at position", 1)[0],
                              exc.position + offset) from None


def _reference_parse_body(s):
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
            re_part, _ = _reference_scan_full(body[:split], 0)
            sign = 1 if body[split] == "+" else -1
            im_mag, pos = _reference_scan_rational(body, split + 1, allow_sign=False)
            if pos != len(body):
                raise GaussParseError("trailing characters", pos)
            return GaussRat(re_part, sign * im_mag)
        if body.startswith("+"):
            im, pos = _reference_scan_rational(body, 1, allow_sign=False)
            if pos != len(body):
                raise GaussParseError("trailing characters", pos)
            return GaussRat(0, im)
        im, pos = _reference_scan_rational(body, 0, allow_sign=True)
        if pos != len(body):
            raise GaussParseError("trailing characters", pos)
        return GaussRat(0, im)
    value, pos = _reference_scan_rational(s, 0, allow_sign=True)
    if pos != len(s):
        raise GaussParseError("trailing characters", pos)
    return GaussRat(value)


def _reference_scan_full(fragment, pos):
    value, end = _reference_scan_rational(fragment, pos, allow_sign=True)
    if end != len(fragment):
        raise GaussParseError("trailing characters", end)
    return value, end


def _parse_outcome(parse, text):
    """The value parse gives, or its error's message and position."""
    try:
        return parse(text)
    except GaussParseError as exc:
        return str(exc), exc.position


# Digits, the literal's own signs, whitespace (the no-break space too),
# non-ASCII digits (Arabic-Indic, fullwidth, superscript) and letters.
LITERAL_CHARS = "0123456789+-/i \t\n\u00a0\u0662\uff11\u00b2x.e\u00e9"


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=LITERAL_CHARS, max_size=12))
def test_parse_matches_the_reference(text):
    assert _parse_outcome(gauss_parse, text) == _parse_outcome(reference_gauss_parse, text)


def test_parse_matches_the_reference_on_every_short_string():
    alphabet = "01/+-i \u0662x"
    count = 0
    for length in range(5):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert _parse_outcome(gauss_parse, text) \
                == _parse_outcome(reference_gauss_parse, text), text
            count += 1
    assert count == sum(len(alphabet) ** k for k in range(5))
    assert _parse_outcome(gauss_parse, 5) == _parse_outcome(reference_gauss_parse, 5)


def test_over_limit_literal_is_a_parse_error_at_its_start():
    # int() of a string refuses more digits than the interpreter's limit;
    # the parser reports that at the literal, and leaves the limit alone.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text, position in (("1/" + "7" * 641, 2), (" -" + "7" * 641, 1),
                               ("2+" + "7" * 641 + "i", 2)):
            with pytest.raises(GaussParseError) as err:
                gauss_parse(text)
            assert err.value.position == position
            assert _parse_outcome(gauss_parse, text) \
                == _parse_outcome(reference_gauss_parse, text)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_values_print_past_the_interpreter_limit():
    rng = random.Random(3)
    ints = [10 ** 600 - 1, 10 ** 600, -(10 ** 9000) - 7, 7 * 10 ** 3000]
    ints += [rng.getrandbits(bits) * rng.choice((1, -1))
             for bits in (1999, 2000, 2001, 9000, 30000, 60000) for _ in range(5)]
    fractions = [Fraction(a, b) for a, b in zip(ints, ints[1:] + ints[:1]) if b]
    values = [GaussRat(f, f / 3) for f in fractions]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        printed = [str(GaussRat(f)) for f in fractions]
        printed_complex = [str(v) for v in values]
        sys.set_int_max_str_digits(0)   # plain str() and int() convert any length
        assert printed == ["%d/%d" % (f.numerator, f.denominator)
                           if f.denominator != 1 else str(f.numerator)
                           for f in fractions]
        assert [gauss_parse(text) for text in printed_complex] == values
    finally:
        sys.set_int_max_str_digits(limit)


def test_print_parse_roundtrip():
    rng = random.Random(0)
    values = [GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for _ in range(200)]
    values += [GaussRat(0), GaussRat(1), GaussRat(0, -1), GaussRat(-3)]
    for v in values:
        assert gauss_parse(str(v)) == v


def test_arithmetic_field_axioms_spotcheck():
    a = GaussRat(Fraction(2, 3), -1)
    b = GaussRat(0, Fraction(1, 2))
    assert (a * b) / b == a
    assert a + (-a) == GaussRat(0)
    assert a * a.inverse() == GaussRat(1)
    assert a.conjugate().conjugate() == a


def test_rank_identity_and_zero():
    assert mat_rank(ExactMatrix.identity(2)) == 2
    assert mat_rank(ExactMatrix.zeros(3)) == 0


def test_rank_dependent_complex_rows():
    # row2 = i * row1, so the rank is 1 (hand row reduction).
    m = ExactMatrix.from_rows([[1, I_UNIT], [I_UNIT, -1]])
    assert mat_rank(m) == 1


def test_kernel_examples():
    assert mat_kernel(ExactMatrix.zeros(2)) == ExactMatrix.identity(2)
    assert mat_kernel(ExactMatrix.identity(3)) == ExactMatrix.zeros(3, 0)
    m = ExactMatrix.from_rows([[0, 1], [0, 0]])
    basis = mat_kernel(m)
    assert basis == ExactMatrix.from_rows([[1], [0]])


def test_kernel_vectors_are_annihilated():
    rng = random.Random(1)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ExactMatrix.from_rows([[GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
                                    for _ in range(cols)] for _ in range(rows)])
        basis = mat_kernel(m)
        assert basis.rows == cols
        assert mat_rank(m) + basis.cols == cols == mat_rank(m) + mat_rank(basis)
        assert (m * basis).is_zero()


def test_invert_singular_raises():
    for rows in ([[1, 2], [2, 4]], [[0]], [[1, 0, 0], [0, 0, 1], [1, 0, 1]],
                 [[1, GaussRat(0, 1)], [GaussRat(0, 1), -1]]):
        with pytest.raises(SingularOperatorError, match="^matrix is singular$"):
            invert(ExactMatrix.from_rows(rows))
    with pytest.raises(ValueError, match="non-square"):
        invert(ExactMatrix.from_rows([[1, 2]]))


def test_invert_inverts_or_raises():
    rng = random.Random(12)
    assert invert(ExactMatrix.zeros(0, 0)) == ExactMatrix.zeros(0, 0)
    inverted = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = ExactMatrix.from_rows(
            [[GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                       rng.choice((0, 0, 1, -2))) for _ in range(n)]
             for _ in range(n)])
        if mat_rank(m) < n:
            with pytest.raises(SingularOperatorError):
                invert(m)
            continue
        inverted += 1
        inv = invert(m)
        assert inv * m == ExactMatrix.identity(n) == m * inv
    assert inverted > 20


def test_char_poly_and_eigenvalues():
    m = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    coeffs = char_poly(m)
    assert coeffs == [GaussRat(1), GaussRat(0), GaussRat(1)]
    eigs = qi_eigenvalues(m)
    assert eigs == [(GaussRat(0, -1), 1), (GaussRat(0, 1), 1)]


def reference_char_poly(m):
    """Faddeev-LeVerrier in GaussRat arithmetic, the reference for char_poly."""
    coeffs = [GaussRat(1)]
    mk = ExactMatrix.identity(m.rows)
    for k in range(1, m.rows + 1):
        mk = m * mk
        ck = -(mk.trace() / GaussRat(k))
        coeffs.append(ck)
        mk = mk.add_scalar(ck)
    return coeffs


small_fractions = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.builds(GaussRat, small_fractions, small_fractions),
    min_size=n * n, max_size=n * n).map(lambda e: ExactMatrix(n, n, e))))
def test_char_poly_matches_reference(m):
    assert char_poly(m) == reference_char_poly(m)


def reference_matmul(a, b):
    """The GaussRat product loop, the reference for ExactMatrix.__mul__."""
    n, m, k = a.rows, b.cols, a.cols
    out = []
    for i in range(n):
        for j in range(m):
            acc = GaussRat(0)
            for t in range(k):
                x = a.entries[i * k + t]
                if x:
                    acc = acc + x * b.entries[t * m + j]
            out.append(acc)
    return ExactMatrix(n, m, out)


def reference_rref(m):
    """Gauss-Jordan in GaussRat arithmetic, the reference for rref."""
    rows = [m.row_list(i) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


wide_fractions = st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.integers(1, 2 ** 40))
entries = st.one_of(
    st.just(GaussRat(0)),
    st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(GaussRat, small_fractions, small_fractions),
    st.builds(GaussRat, wide_fractions, wide_fractions),
)


@st.composite
def structured_matrices(draw, rows=None, cols=None):
    """Matrices with zero, repeated and dependent rows and zero columns."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    out = []
    for _ in range(r):
        kind = draw(st.sampled_from(("entries", "zero", "copy", "combination")))
        if kind == "entries" or not out:
            row = draw(st.lists(entries, min_size=c, max_size=c))
        elif kind == "zero":
            row = [GaussRat(0)] * c
        elif kind == "copy":
            row = list(draw(st.sampled_from(out)))
        else:
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(entries), draw(entries)
            row = [s * x + t * y for x, y in zip(u, v)]
        out.append(row)
    for j in draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c)):
        for row in out:
            row[j] = GaussRat(0)
    return ExactMatrix(r, c, [x for row in out for x in row])


@st.composite
def matrix_pairs(draw):
    n, k, m = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return draw(structured_matrices(n, k)), draw(structured_matrices(k, m))


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_product_matches_reference(pair):
    a, b = pair
    assert a * b == reference_matmul(a, b)


@settings(max_examples=200, deadline=None)
@given(structured_matrices())
def test_rref_and_rank_match_reference(m):
    expected = reference_rref(m)
    assert rref(m) == expected
    assert mat_rank(m) == len(expected[1])


def reference_complete_basis(basis):
    """The greedy loop as first written, with ranks from reference_rref: a
    standard vector is kept when it raises the rank of the columns so far."""
    n = basis.rows
    chosen = []
    current = basis
    for j in range(n):
        e = ExactMatrix(n, 1, [GaussRat(int(i == j)) for i in range(n)])
        cand = hstack([current, e])
        if len(reference_rref(cand)[1]) > len(reference_rref(current)[1]):
            chosen.append(e)
            current = cand
        if current.cols == n:
            break
    if current.cols != n:
        raise ValueError("could not complete basis")
    return hstack(chosen) if chosen else ExactMatrix.zeros(n, 0)


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
def test_complete_basis_matches_reference(m):
    # the pivot columns of m are independent
    _, pivots = reference_rref(m)
    basis = ExactMatrix(m.rows, len(pivots),
                        [m.entry(i, c) for i in range(m.rows) for c in pivots])
    assert complete_basis(basis) == reference_complete_basis(basis)


def test_complete_basis_rejects_dependent_columns():
    v = ExactMatrix.from_rows([[1], [GaussRat(0, 1)], [0]])
    with pytest.raises(ValueError, match="could not complete basis"):
        complete_basis(hstack([v, v.scale(GaussRat(2, 1))]))
    with pytest.raises(ValueError, match="could not complete basis"):
        complete_basis(hstack([ExactMatrix.identity(2), ExactMatrix.zeros(2, 1)]))
    assert complete_basis(ExactMatrix.identity(3)) == ExactMatrix.zeros(3, 0)
    assert complete_basis(ExactMatrix.zeros(0, 0)) == ExactMatrix.zeros(0, 0)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(structured_matrices(s[0], s[1]),
                        structured_matrices(s[1], s[2]),
                        structured_matrices(s[0], s[2]))))
def test_solve_general_solves_or_raises(problem):
    a, x, b = problem
    assert a * solve_general(a, a * x) == a * x
    # b is consistent exactly when no RREF pivot of [a | b] lies in b
    if any(pc >= a.cols for pc in reference_rref(hstack([a, b]))[1]):
        with pytest.raises(SingularOperatorError, match="^inconsistent linear system$"):
            solve_general(a, b)
    else:
        assert a * solve_general(a, b) == b


def test_rref_with_non_real_pivots():
    # The leading 1x1 and 2x2 minors, 1+2i and -7+6i, are not real, so the
    # second and third elimination steps divide by non-real pivots.
    m = ExactMatrix.from_rows([
        [GaussRat(1, 2), 3, GaussRat(0, 1), GaussRat(Fraction(1, 3))],
        [GaussRat(2, -1), GaussRat(1, 1), 4, GaussRat(0, Fraction(-2, 5))],
        [GaussRat(0, 3), 2, GaussRat(1, -3), 7],
    ])
    assert m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0) == GaussRat(-7, 6)
    expected = reference_rref(m)
    assert rref(m) == expected
    assert expected[1] == [0, 1, 2]
    assert mat_rank(m) == 3


def test_echelon_with_a_gaussian_first_pivot():
    # The first pivot is 1+i, so the second row is scaled and the first row
    # divided by a non-real d; the leading 2x2 minor (1+i)(1-i) = 2 is real,
    # so the third row takes the real branch with d = 2.
    m = ExactMatrix.from_rows([
        [GaussRat(1, 1), 1, 2, GaussRat(0, 1)],
        [0, GaussRat(1, -1), 1, 3],
        [1, 2, GaussRat(0, 1), 5],
        [GaussRat(2, -1), 0, 3, 1],
    ])
    assert m.d == 1
    kernel = _Echelon()
    divisors = []
    for i in range(m.rows):
        divisors.append(kernel.d)
        kernel.add(m.z[i * m.cols:(i + 1) * m.cols])
    assert divisors[:3] == [(1, 0), (1, 1), (2, 0)]
    expected = reference_rref(m)
    assert rref(m) == expected
    assert expected[1] == [0, 1, 2, 3]


@pytest.mark.parametrize("d", [(2, 0), (1, 1)], ids=["real", "gaussian"])
def test_echelon_rejects_an_inexact_division(d):
    # Rows with pivot entries d whose 2x2 minor off the pivots, 0*0 - 1*1,
    # is not a multiple of d: no elimination reaches this state, and the
    # update it forces does not divide exactly.
    kernel = _Echelon()
    kernel.rows = {0: [d, (0, 0), (1, 0), (0, 0)], 1: [(0, 0), d, (0, 0), (1, 0)]}
    kernel.d = d
    with pytest.raises(ArithmeticError, match="inexact"):
        kernel.add([(0, 0), (1, 0), (1, 0), (0, 0)])


@settings(max_examples=150, deadline=None)
@given(structured_matrices())
@example(ExactMatrix.zeros(3, 4))
@example(ExactMatrix.identity(3))
@example(ExactMatrix.from_rows([[1, GaussRat(0, 1), 2], [0, 1, GaussRat(1, 1)]]))
def test_kernel_completion_is_the_pivot_columns(m):
    # complete_basis(mat_kernel(m)) takes exactly the standard vectors at
    # the pivot columns of m's RREF, and the rows of the inverse of
    # [kernel | completion] that project onto the completion are the RREF.
    rows, pivots = reference_rref(m)
    assert rref_matrix(m) == (pivots, ExactMatrix(len(pivots), m.cols,
                                                  [x for row in rows[:len(pivots)] for x in row]))
    kernel = mat_kernel(m)
    comp = complete_basis(kernel)
    identity = ExactMatrix.identity(m.cols)
    assert comp == submatrix(identity, range(m.cols), pivots)
    inv = invert(hstack([kernel, comp]))
    assert inv.block(kernel.cols, m.cols, 0, m.cols) == rref_matrix(m)[1]


def test_submatrix_picks_rows_and_columns_in_order():
    m = ExactMatrix.from_rows([[1, 2, GaussRat(0, 3)], [4, GaussRat(Fraction(1, 2)), 6]])
    assert submatrix(m, [1, 0], [2, 0]) == ExactMatrix.from_rows(
        [[6, 4], [GaussRat(0, 3), 1]])
    assert submatrix(m, [1], [1]) == ExactMatrix.from_rows([[GaussRat(Fraction(1, 2))]])
    assert submatrix(m, [], [0, 1]) == ExactMatrix.zeros(0, 2)


def test_shapes_without_entries():
    for r, c in ((0, 3), (3, 0), (0, 0)):
        m = ExactMatrix(r, c, [])
        assert rref(m) == ([[] for _ in range(r)], [])
        assert mat_rank(m) == 0
    a, b = ExactMatrix(2, 0, []), ExactMatrix(0, 3, [])
    assert a * b == ExactMatrix.zeros(2, 3)
    assert b * ExactMatrix.zeros(3, 1) == ExactMatrix(0, 1, [])
    one = ExactMatrix.from_rows([[GaussRat(Fraction(2, 3), -1)]])
    assert one * one == ExactMatrix.from_rows([[GaussRat(Fraction(-5, 9), Fraction(-4, 3))]])
    assert rref(one) == ([[GaussRat(1)]], [0])


# ---------------------------------------------------------------------------
# ExactMatrix arithmetic against GaussRat lists, and its canonical form


def assert_matrix(m, rows, cols, ref):
    """m is the rows x cols matrix with GaussRat entries ref, in canonical
    form: d > 0 and gcd(d, every numerator component) == 1."""
    assert (m.rows, m.cols, len(m.z)) == (rows, cols, rows * cols)
    assert m.entries == ref
    assert [m.entry(i, j) for i in range(rows) for j in range(cols)] == ref
    assert [x for i in range(rows) for x in m.row_list(i)] == ref
    g = m.d
    for re, im in m.z:
        g = math.gcd(g, re, im)
    assert m.d > 0 and g == 1


def ref_block(m, r0, r1, c0, c1):
    return [m.entry(i, j) for i in range(r0, r1) for j in range(c0, c1)]


@st.composite
def arithmetic_cases(draw):
    """Two r x c matrices, a c x k and a c x c one, and a scalar."""
    r, c, k = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (draw(structured_matrices(r, c)), draw(structured_matrices(r, c)),
            draw(structured_matrices(c, k)), draw(structured_matrices(c, c)), draw(entries))


@settings(max_examples=200, deadline=None)
@given(arithmetic_cases())
def test_matrix_arithmetic_matches_reference(case):
    a, b, m, sq, s = case
    r, c, k = a.rows, a.cols, m.cols
    ea, eb, em, esq = a.entries, b.entries, m.entries, sq.entries
    assert_matrix(a, r, c, ea)
    assert ExactMatrix(r, c, ea) == a
    assert_matrix(a + b, r, c, [x + y for x, y in zip(ea, eb)])
    assert_matrix(a - b, r, c, [x - y for x, y in zip(ea, eb)])
    assert_matrix(-a, r, c, [-x for x in ea])
    assert_matrix(a.scale(s), r, c, [s * x for x in ea])
    assert_matrix(sq.add_scalar(s), c, c,
                  [x + s if i % (c + 1) == 0 else x for i, x in enumerate(esq)])
    assert_matrix(a * m, r, k, [sum((ea[i * c + t] * em[t * k + j] for t in range(c)),
                                    GaussRat(0)) for i in range(r) for j in range(k)])
    assert sq.trace() == sum((esq[i * (c + 1)] for i in range(c)), GaussRat(0))
    assert a.is_zero() == all(not x for x in ea)
    r0, c0 = r // 2, c // 3
    assert_matrix(a.block(r0, r, c0, c), r - r0, c - c0, ref_block(a, r0, r, c0, c))
    assert_matrix(hstack([a, b]), r, 2 * c,
                  [x for i in range(r) for x in ea[i * c:(i + 1) * c] + eb[i * c:(i + 1) * c]])
    assert_matrix(vstack([a, b]), 2 * r, c, ea + eb)
    assert_matrix(block_diag([a, m]), r + c, c + k,
                  [ea[i * c + j] if i < r and j < c else
                   em[(i - r) * k + j - c] if i >= r and j >= c else GaussRat(0)
                   for i in range(r + c) for j in range(c + k)])


def assert_same_form(x, y):
    assert (x.rows, x.cols, x.d, x.z) == (y.rows, y.cols, y.d, y.z)
    assert x == y and hash(x) == hash(y)


@settings(max_examples=100, deadline=None)
@given(arithmetic_cases())
def test_matrix_form_is_canonical(case):
    a, b, _, sq, s = case
    assert_same_form((a + b) - b, a)
    assert_same_form(a.scale(2).scale(Fraction(1, 2)), a)
    assert_same_form(sq.add_scalar(s).add_scalar(-s), sq)
    if s:
        assert_same_form(a.scale(s).scale(s.inverse()), a)
    for zero in (a - a, a.scale(0), a + (-a), ExactMatrix.zeros(a.rows, a.cols)):
        assert zero.d == 1 and zero.is_zero()
        assert_same_form(zero, ExactMatrix.zeros(a.rows, a.cols))
    if mat_rank(sq) == sq.rows:
        assert_same_form(invert(invert(sq)), sq)


def test_matrix_form_examples():
    half = ExactMatrix.from_rows([[Fraction(1, 2), GaussRat(0, Fraction(1, 3))], [1, 0]])
    assert (half.d, half.z) == (6, [(3, 0), (0, 2), (6, 0), (0, 0)])
    assert half.scale(GaussRat(0, 6)).z == [(0, 3), (-2, 0), (0, 6), (0, 0)]
    assert half.add_scalar(Fraction(1, 2)).z == [(6, 0), (0, 2), (6, 0), (3, 0)]
    assert (half + half).d == 3
    assert ExactMatrix.scalar(0, Fraction(1, 2)).d == 1
    assert ExactMatrix.zeros(0, 3) * ExactMatrix.zeros(3, 2) == ExactMatrix.zeros(0, 2)


def test_non_split_detection():
    with pytest.raises(NonSplitError):
        qi_roots([GaussRat(1), GaussRat(0), GaussRat(2)])  # x^2 + 2


# ---------------------------------------------------------------------------
# qi_roots: the modular root finder, against sympy as an independent oracle


def _poly_mul(a, b):
    out = [GaussRat(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _from_roots(roots):
    poly = [GaussRat(1)]
    for r in roots:
        poly = _poly_mul(poly, [GaussRat(1), -r])
    return poly


def _zi_from_roots(roots):
    """The monic Z[i] polynomial with the given Gaussian-integer roots."""
    return [(c.re.numerator, c.im.numerator)
            for c in _from_roots([GaussRat(*r) for r in roots])]


def sympy_qi_roots(coeffs):
    """Sorted (root, multiplicity) pairs from sympy's factorization over
    QQ_I, or None when some irreducible factor has degree > 1."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I
                       for c in coeffs], x, domain="QQ_I")
    roots = []
    for fac, mult in poly.factor_list()[1]:
        if fac.degree() > 1:
            return None
        lead, const = fac.all_coeffs()
        re, im = sympy.together(-const / lead).as_real_imag()
        roots.append((GaussRat(Fraction(int(re.p), int(re.q)),
                               Fraction(int(im.p), int(im.q))), mult))
    roots.sort(key=lambda p: p[0].sort_key())
    return roots


def _qi_roots_or_none(coeffs):
    try:
        return qi_roots(coeffs)
    except NonSplitError:
        return None


IRREDUCIBLE = {
    "x^2-2": [GaussRat(1), GaussRat(0), GaussRat(-2)],
    "x^2-i": [GaussRat(1), GaussRat(0), GaussRat(0, -1)],
    "x^3-3": [GaussRat(1), GaussRat(0), GaussRat(0), GaussRat(-3)],
}

big_fractions = st.builds(Fraction, st.integers(-50, 50),
                          st.one_of(st.integers(1, 12), st.integers(1, 2**40)))
gauss_roots = st.one_of(st.just(GaussRat(0)),
                        st.builds(GaussRat, big_fractions),
                        st.builds(GaussRat, big_fractions, big_fractions))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(gauss_roots, st.integers(1, 5)), max_size=3),
       st.sampled_from([None] + sorted(IRREDUCIBLE)))
def test_qi_roots_matches_sympy(factors, irreducible):
    poly = _from_roots([r for r, m in factors for _ in range(m)])
    if irreducible is not None:
        poly = _poly_mul(poly, IRREDUCIBLE[irreducible])
    assert _qi_roots_or_none(poly) == sympy_qi_roots(poly)


def test_qi_roots_degree_zero_and_empty_matrix():
    assert qi_roots([GaussRat(1)]) == []
    assert qi_eigenvalues(ExactMatrix.zeros(0, 0)) == []


def test_qi_roots_power_of_x():
    for n in range(1, 8):
        assert qi_roots([GaussRat(1)] + [GaussRat(0)] * n) == [(GaussRat(0), n)]


def test_qi_roots_non_monic_input():
    poly = [GaussRat(2) * c for c in _from_roots([GaussRat(1, 1), GaussRat(3)])]
    assert qi_roots(poly) == [(GaussRat(1, 1), 1), (GaussRat(3), 1)]


def test_qi_roots_skips_primes_where_roots_collide():
    # 0 and 5 meet mod 5; 0 and 2 +- i meet mod 5 and 0 and 3 +- 2i mod 13,
    # whichever square root of -1 is taken.
    assert _lifting_prime(_zi_from_roots([(0, 0), (5, 0)]))[0] == 13
    gaussian = [(0, 0), (2, 1), (2, -1), (3, 2), (3, -2)]
    assert _lifting_prime(_zi_from_roots(gaussian))[0] == 17
    roots = [GaussRat(*r) for r in gaussian]
    assert qi_roots(_from_roots(roots)) == sorted(
        ((r, 1) for r in roots), key=lambda p: p[0].sort_key())
    assert qi_roots(_from_roots([GaussRat(0), GaussRat(5), GaussRat(5)])) == [
        (GaussRat(0), 1), (GaussRat(5), 2)]


def test_qi_roots_rejects_roots_that_exist_only_mod_p():
    # (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root mod every prime, none in Q(i).
    poly = [GaussRat(c) for c in (1, 0, -11, 0, 36, 0, -36)]
    assert _lifting_prime([(c.re.numerator, 0) for c in poly])[2]
    with pytest.raises(NonSplitError):
        qi_roots(poly)


def test_importing_the_cli_does_not_import_sympy():
    import gadsp
    src = os.path.dirname(os.path.dirname(os.path.abspath(gadsp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gadsp.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
