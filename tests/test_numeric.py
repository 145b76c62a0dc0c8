import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.numeric import (
    ExactMatrix,
    GaussParseError,
    GaussRat,
    NonSplitError,
    SingularOperatorError,
    _lifting_prime,
    char_poly,
    gauss_parse,
    I_UNIT,
    mat_kernel,
    mat_rank,
    qi_eigenvalues,
    qi_roots,
    rref,
    solve_sylvester,
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
    assert len(mat_kernel(ExactMatrix.zeros(2))) == 2
    assert mat_kernel(ExactMatrix.identity(3)) == []
    m = ExactMatrix.from_rows([[0, 1], [0, 0]])
    basis = mat_kernel(m)
    assert basis == [(GaussRat(1), GaussRat(0))]


def test_kernel_vectors_are_annihilated():
    rng = random.Random(1)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ExactMatrix.from_rows([[GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
                                    for _ in range(cols)] for _ in range(rows)])
        basis = mat_kernel(m)
        assert mat_rank(m) + len(basis) == cols
        for vec in basis:
            col = ExactMatrix(cols, 1, vec)
            assert (m * col).is_zero()


def test_sylvester_scalar():
    a = ExactMatrix.from_rows([[2]])
    b = ExactMatrix.from_rows([[1]])
    c = ExactMatrix.from_rows([[3]])
    assert solve_sylvester(a, b, c) == ExactMatrix.from_rows([[3]])


def test_sylvester_componentwise():
    a = ExactMatrix.from_rows([[1, 0], [0, 2]])
    b = ExactMatrix.from_rows([[0]])
    c = ExactMatrix.from_rows([[4], [6]])
    assert solve_sylvester(a, b, c) == ExactMatrix.from_rows([[4], [3]])


def test_sylvester_singular_spectra_intersect():
    a = ExactMatrix.from_rows([[1]])
    with pytest.raises(SingularOperatorError):
        solve_sylvester(a, a, a)


def test_sylvester_exact_on_random_disjoint_spectra():
    rng = random.Random(2)
    for _ in range(20):
        s = rng.randint(1, 3)
        t = rng.randint(1, 3)
        # Strictly triangular perturbations keep the spectra at 1 and -1.
        a = ExactMatrix.from_rows(
            [[1 if i == j else (GaussRat(rng.randint(-2, 2)) if j > i else 0)
              for j in range(s)] for i in range(s)])
        b = ExactMatrix.from_rows(
            [[-1 if i == j else (GaussRat(rng.randint(-2, 2)) if j > i else 0)
              for j in range(t)] for i in range(t)])
        c = ExactMatrix.from_rows([[GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
                                    for _ in range(t)] for _ in range(s)])
        x = solve_sylvester(a, b, c)
        assert a * x - x * b == c


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
