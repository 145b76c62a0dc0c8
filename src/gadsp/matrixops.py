"""Exact matrix-level realization: truncated principal parts, gauge reduction
to local normal form, orbit membership, irreducibility, additions, middle
convolution, and the passage to quiver representations.

A pole part is the list [A_1, ..., A_k] of coefficients of x^-1..x^-k.  The
truncated gauge action is conjugation computed in Laurent series and cut to
the x^-1..x^-k window (the derivative term of a polynomial gauge only
touches non-negative powers, so it never survives the truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .builder import QuiverInstance
from .numeric import (
    ExactMatrix,
    GaussRat,
    NonSplitError,
    ZERO,
    _Echelon,
    _clear_denominators,
    _primitive,
    _reduced,
    _zmatmul,
    _zmul,
    block_diag,
    column_space_basis,
    eigenspace_basis,
    hstack,
    invert,
    mat_rank,
    qi_eigenvalues,
    rref_kernel,
    rref_matrix,
    solve_general,
    submatrix,
    vstack,
)
from .spectral import SpectralData, SpectralDataError, shifted_products


class OrbitMismatchError(SpectralDataError):
    """A pole part does not lie in the prescribed truncated orbit."""


class ResidueSumError(SpectralDataError):
    """The residue-sum-zero constraint is violated."""


# ---------------------------------------------------------------------------
# truncated polynomial gauges


def poly_identity(n, order):
    return [ExactMatrix.identity(n)] + [ExactMatrix.zeros(n)] * (order - 1)


def _sum_of_products(pairs, n):
    """The n x n sum of x * y over the (x, y) pairs; a pair with a zero
    factor adds nothing, so it is skipped."""
    acc = None
    for x, y in pairs:
        if not (x.is_zero() or y.is_zero()):
            acc = x * y if acc is None else acc + x * y
    return ExactMatrix.zeros(n) if acc is None else acc


def poly_mul(a, b, order):
    """Product of matrix polynomials in x, truncated below x^order: the x^s
    coefficient is sum_{i+j=s} a_i b_j."""
    n = a[0].rows
    return [_sum_of_products(((a[i], b[s - i]) for i in range(min(s + 1, len(a)))
                              if s - i < len(b)), n)
            for s in range(order)]


def poly_inverse(u, order):
    """Inverse w of a unipotent gauge u (u[0] = 1) modulo x^order.

    From u w = 1 with w_0 = 1: w_s = -(u_s + sum_{0<t<s} u_t w_{s-t}).
    """
    n = u[0].rows
    if u[0] != ExactMatrix.identity(n):
        raise AssertionError("poly_inverse needs a unipotent gauge (bug)")
    out = [u[0]]
    for s in range(1, order):
        acc = _sum_of_products(((u[t], out[s - t]) for t in range(1, min(s, len(u)))), n)
        out.append(-(acc + u[s]) if s < len(u) else -acc)
    return out


def unipotent_conjugate(u, part, order):
    """u . A . u^{-1} truncated to the x^-1..x^-order window, for u[0] = 1.

    The conjugate B satisfies B u = u A, so from the top power down
    B_j = A_j + sum_{a>=1} (u_a A_{j+a} - B_{j+a} u_a): no inverse of u is
    needed.
    """
    n = part[0].rows
    out = list(part)
    for j in range(order - 1, 0, -1):
        lags = range(1, min(order - j, len(u) - 1) + 1)
        out[j - 1] = (part[j - 1]
                      + _sum_of_products(((u[a], part[j + a - 1]) for a in lags), n)
                      - _sum_of_products(((out[j + a - 1], u[a]) for a in lags), n))
    return out


def gauge_conjugate(g, part, order):
    """g . A . g^{-1} truncated to the x^-1..x^-order window.

    part[j-1] is the x^-j coefficient; g is a polynomial gauge of length
    <= order with invertible constant term.  With u = g g_0^{-1} this is
    u (g_0 A g_0^{-1}) u^{-1}.
    """
    h0 = invert(g[0])
    return unipotent_conjugate([x * h0 for x in g], [g[0] * m * h0 for m in part],
                               order)


def poly_times_part(g, part, order):
    """One-sided product g . A, truncated to the x^-1..x^-order window: the
    x^-j coefficient is sum_{a>=0} g_a A_{j+a}."""
    n = g[0].rows
    return [_sum_of_products(((g[a], part[j + a - 1])
                              for a in range(min(order - j + 1, len(g)))), n)
            for j in range(1, order + 1)]


# ---------------------------------------------------------------------------
# local normal forms


def _ranges(sizes):
    """The consecutive index ranges (start, end) of blocks of the given sizes."""
    out = []
    start = 0
    for size in sizes:
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class HtlBlock:
    q_coeffs: tuple      # degrees 2..order, padded
    size: int
    residue: ExactMatrix


@dataclass(frozen=True)
class HtlForm:
    order: int
    blocks: tuple

    @property
    def n(self):
        return sum(b.size for b in self.blocks)

    def block_ranges(self):
        return _ranges(b.size for b in self.blocks)

    def part_matrices(self):
        """[B_1, ..., B_order] with scalar q-blocks above the residue level."""
        mats = [block_diag([b.residue for b in self.blocks])]
        for deg in range(2, self.order + 1):
            mats.append(block_diag([
                ExactMatrix.scalar(b.size, b.q_coeffs[deg - 2])
                for b in self.blocks]))
        return mats


def _scalar_value(m):
    """The scalar c when m == c * I, else None."""
    c = m.entry(0, 0)
    return c if m == ExactMatrix.scalar(m.rows, c) else None


def _gap_matrix(values, sizes):
    """The n x n matrix with 1 / (v_i - v_j) on the blocks (i, j), i != j,
    of the given sizes and 0 on the diagonal blocks, in canonical form.

    Over the values' common denominator D, v_k = w_k / D with w_k in Z[i],
    so the entry is D conj(w_i - w_j) / |w_i - w_j|^2, a Gaussian integer
    over an integer; it changes sign with (i, j), so each pair is computed
    once.
    """
    scale, w = _clear_denominators(values)
    pairs = {}
    den = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            re, im = w[i][0] - w[j][0], w[i][1] - w[j][1]
            norm = re * re + im * im
            pairs[i, j] = (re * scale, -im * scale, norm)
            den = math.lcm(den, norm)
    entry = {}
    for (i, j), (re, im, norm) in pairs.items():
        f = den // norm
        entry[i, j] = (re * f, im * f)
        entry[j, i] = (-re * f, -im * f)
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block_of)
    return _reduced(n, n, den, [entry.get((i, j), (0, 0))
                                for i in block_of for j in block_of])


def htl_reduce(part, order, keys):
    """Reduce a pole part to block-diagonal local normal form, split by the
    leading values an orbit names.

    keys are the q-coefficient tuples (degrees 2..order) of the orbit's
    blocks of size > 0.  Returns (HtlForm, gauge) with gauge[A]=form; blocks
    come out sorted by their polynomial coefficient tuples from top degree
    down, so the order is canonical.  Raises NonSplitError when the part is
    not in that orbit.

    The candidate values at the top are the distinct q[-1], sorted by
    sort_key, the order qi_roots gives roots in.  Eigenspaces of distinct
    values are independent, so their dimensions sum to at most n, and to n
    exactly when the top is semisimple over Q(i) with every eigenvalue among
    the candidates.  So when every candidate has an eigenvector and the sum
    is n, the candidates are the top's eigenvalues in qi_roots' order, and
    the values, bases and eigenbasis below are those an eigenvalue search
    would give: the form and the gauge are the same.  Otherwise the part is
    not in the orbit:
    - a shortfall means the top is not semisimple over Q(i), so no
      reduction exists, or it has an eigenvalue no key names, whose blocks
      would carry a key outside the orbit;
    - a named value with no eigenvector leaves the keys ending in it with
      no block; a scalar top c is one eigenvalue, so every key must end in
      c.
    Each eigenspace block recurses with the keys ending in its value, cut
    to degrees 2..order-1, and the same holds one degree down: the form's
    keys are then exactly the orbit's.
    """
    n = part[0].rows
    if order == 1:
        return HtlForm(1, (HtlBlock((), n, part[0]),)), poly_identity(n, 1)

    top = part[order - 1]
    values = sorted({q[-1] for q in keys}, key=GaussRat.sort_key)
    scalar = _scalar_value(top)
    if scalar is not None:
        if values != [scalar]:
            raise NonSplitError("scalar leading coefficient is not the one value "
                                "the orbit names")
        sub_form, sub_gauge = htl_reduce(part[:order - 1], order - 1,
                                         [q[:-1] for q in keys])
        blocks = tuple(HtlBlock(b.q_coeffs + (scalar,), b.size, b.residue)
                       for b in sub_form.blocks)
        gauge = sub_gauge + [ExactMatrix.zeros(n)]
        return HtlForm(order, blocks), gauge

    bases = [eigenspace_basis(top, value) for value in values]
    sizes = [basis.cols for basis in bases]
    if 0 in sizes or sum(sizes) != n:
        raise NonSplitError("leading coefficient does not split into the eigenspaces "
                            "of the values the orbit names")

    pmat = hstack(bases)
    standard = pmat == ExactMatrix.identity(n)  # the eigenbasis is e_1..e_n
    g0 = pmat if standard else invert(pmat)
    cur = list(part) if standard else [g0 * m * pmat for m in part]

    # Each gauge step solves u_rc = target_rc / (v_i - v_j) on the blocks
    # (i, j), i != j: the entrywise product with one matrix of the inverses.
    gaps = _gap_matrix(values, sizes)

    # The gauge is unip . g0, with unip the product of the steps 1 + step x^s.
    unip = poly_identity(n, order)
    for s in range(1, order):
        target = cur[order - s - 1]
        u = [_zmul(x, y) for x, y in zip(target.z, gaps.z)]
        if u.count((0, 0)) == len(u):
            continue
        step = _reduced(n, n, target.d * gaps.d, u)
        g = poly_identity(n, order)
        g[s] = step
        cur = unipotent_conjugate(g, cur, order)
        # unip = (1 + step x^s) unip, from the top down; unip[0] is 1
        for j in range(order - 1, s, -1):
            if not unip[j - s].is_zero():
                unip[j] = unip[j] + step * unip[j - s]
        unip[s] = unip[s] + step
    total = [g0] + [v if standard or v.is_zero() else v * g0 for v in unip[1:]]

    blocks = []
    gauges = []
    for value, (r0, r1) in zip(values, _ranges(sizes)):
        sub_part = [cur[j].block(r0, r1, r0, r1) for j in range(order - 1)]
        sub_form, sub_gauge = htl_reduce(sub_part, order - 1,
                                         [q[:-1] for q in keys if q[-1] == value])
        for blk in sub_form.blocks:
            blocks.append(HtlBlock(blk.q_coeffs + (value,), blk.size, blk.residue))
        gauges.append(sub_gauge)
    if any(g != poly_identity(g[0].rows, order - 1) for g in gauges):
        assembled = [block_diag([g[s] for g in gauges]) for s in range(order - 1)]
        total = poly_mul(assembled, total, order)
    return HtlForm(order, tuple(blocks)), total


# ---------------------------------------------------------------------------
# orbit membership


@dataclass(frozen=True)
class OrbitBlockSpec:
    q_coeffs: tuple
    size: int
    xi: tuple
    ranks: tuple  # r_1..r_e with trailing 0
    # Middle-convolution predictions constrain the picked block's ranks only
    # from the second factor on (colliding shifted xi values can lower the
    # head rank); head_free skips the l = 1 comparison.
    head_free: bool = False


@dataclass(frozen=True)
class OrbitSpec:
    order: int
    blocks: tuple


def orbit_spec_from_data(data: SpectralData, i: int) -> OrbitSpec:
    pole = data.poles[i]
    blocks = tuple(OrbitBlockSpec(b.q_padded(pole.order), b.size, b.xi, b.ranks)
                   for b in pole.blocks)
    return OrbitSpec(pole.order, blocks)


def orbit_member(part, spec: OrbitSpec) -> bool:
    """Membership of a pole part in the truncated orbit described by spec."""
    return _orbit_reduction(part, spec) is not None


# The reduction of the last (pole part, order, orbit keys) reduced:
# (key, (form, gauge)) with the gauge a tuple, or (key, None) when the part
# is not in the orbit.  The checks of one part against orbits with the same
# keys (a predicted orbit and its xi-shifted twin) share it; only one entry
# is kept alive.
_last_reduction = None


def _orbit_reduction(part, spec: OrbitSpec):
    """The reduction (form, gauge) of a pole part in the orbit of spec, or
    None when the part is not in that orbit.  The gauge is a tuple.

    Decided by gauge reduction plus residue rank sequences against the
    annihilating sequence: the polynomial parts must match block for block
    and each reduced residue must reproduce the prescribed rank sequence.
    The reduction splits the part by the values the spec's block keys name
    (`htl_reduce`), so it depends on the part, spec.order and the set of
    keys alone, and is memoized on them; the keys are a frozenset, so a
    memo hit sorts nothing.  Only this function writes the memo, whole, once
    htl_reduce returned; a reduction that raises anything but NonSplitError
    leaves the previous entry.
    """
    global _last_reduction
    keys = frozenset(blk.q_coeffs for blk in spec.blocks if blk.size > 0)
    key, memo = (tuple(part), spec.order, keys), _last_reduction
    if memo is not None and memo[0] == key:
        reduced = memo[1]
    else:
        try:
            form, gauge = htl_reduce(part, spec.order, keys)
            reduced = form, tuple(gauge)
        except NonSplitError:
            reduced = None
        _last_reduction = (key, reduced)
    if reduced is None:
        return None
    form, gauge = reduced
    want = {}
    for blk in spec.blocks:
        if blk.size > 0:
            want[blk.q_coeffs] = blk
    have = {b.q_coeffs: b for b in form.blocks if b.size > 0}
    if set(want) != set(have):
        return None
    for key, blk in want.items():
        red = have[key]
        if red.size != blk.size:
            return None
        prod = None
        for l, (prod, r_l) in enumerate(
                zip(shifted_products(red.residue, blk.xi), blk.ranks), start=1):
            if l == 1 and blk.head_free:
                continue
            if mat_rank(prod) != r_l:
                return None
        if prod is None or not prod.is_zero():
            return None
    return form, gauge


# ---------------------------------------------------------------------------
# tuples


@dataclass(frozen=True)
class MatrixTuple:
    """Principal parts (A^(i)_j) at every pole; residues must sum to zero."""

    n: int
    orders: tuple
    parts: tuple  # parts[i][j-1] = coefficient of x^-j at pole i

    def __post_init__(self):
        if len(self.orders) != len(self.parts):
            raise ValueError("orders/parts length mismatch")
        for k, part in zip(self.orders, self.parts):
            if len(part) != k:
                raise ValueError("pole part length does not match its order")
            for m in part:
                if m.rows != self.n or m.cols != self.n:
                    raise ValueError("pole part matrices must be n x n")

    def residue_sum(self) -> ExactMatrix:
        acc = ExactMatrix.zeros(self.n)
        for part in self.parts:
            acc = acc + part[0]
        return acc

    def check_residue_sum(self):
        if not self.residue_sum().is_zero():
            raise ResidueSumError("residues do not sum to zero")

    def all_coefficients(self):
        return [m for part in self.parts for m in part]


def pole_part_from_data(data: SpectralData, i: int):
    """The normal-form pole part [B_1..B_k] of pole i, residues realized."""
    pole = data.poles[i]
    form = HtlForm(pole.order, tuple(
        HtlBlock(b.q_padded(pole.order), b.size, b.residue.as_matrix())
        for b in pole.blocks))
    return form.part_matrices()


def tuple_from_data(data: SpectralData) -> MatrixTuple:
    """The normal-form tuple of an instance; raises if residues cannot sum to
    zero as realized (use gauges/additions to build general candidates)."""
    parts = tuple(tuple(pole_part_from_data(data, i))
                  for i in range(len(data.poles)))
    t = MatrixTuple(data.rank, tuple(p.order for p in data.poles), parts)
    return t


# Prime = 1 mod 4, so Z[i] reduces into the prime field; the span dimension
# can only drop under reduction, which makes the modular path one-sided.
_FAST_PRIME = 1000000009
_FAST_I = pow(11, (_FAST_PRIME - 1) // 4, _FAST_PRIME)
assert (_FAST_I * _FAST_I + 1) % _FAST_PRIME == 0


def _spin(v, gens, n, product, add):
    """A basis of the smallest subspace of an n-dimensional space that holds
    v and that every generator maps into itself.

    product(g, w) applies a generator to a vector and add(w) puts w into an
    echelon basis of the span, saying whether it was new; the basis is the
    vectors add accepted.  The frontier holds the vectors that grew the span
    in the last round, so the span ends closed under every generator, and
    its dimension does not depend on the ring the vectors are computed in,
    only on the field of their span.  Spinning the identity under left
    multiplication in the space of m x m matrices (n = m * m) gives the
    unital algebra the generators span.
    """
    basis = [v] if add(v) else []
    frontier = list(basis)
    while frontier and len(basis) < n:
        new_frontier = []
        for g in gens:
            for w in frontier:
                img = product(g, w)
                if add(img):
                    basis.append(img)
                    if len(basis) == n:
                        return basis
                    new_frontier.append(img)
        frontier = new_frontier
    return basis


def _transposed(flat, n):
    """The transpose of a flat row-major n x n list."""
    return [flat[k * n + i] for i in range(n) for k in range(n)]


def _modp_gens(gens):
    """The generators reduced mod p as flat row-major lists, or None when p
    divides a denominator (exactly when it divides the common d)."""
    p = _FAST_PRIME
    red = []
    for g in gens:
        if g.d % p == 0:
            return None
        inv = pow(g.d, -1, p)
        red.append([(a + b * _FAST_I) * inv % p for a, b in g.z])
    return red


def _modp_matmul(a, b, n, k, m):
    """Product mod p of the flat row-major lists a (n x k) and b (k x m)."""
    prod = [0] * (n * m)
    for i in range(n):
        out = i * m
        for t in range(k):
            x = a[i * k + t]
            if x:
                row = t * m
                for j in range(m):
                    prod[out + j] += x * b[row + j]
    return [x % _FAST_PRIME for x in prod]


def _modp_echelon():
    """add(vec) for a fresh echelon basis mod p: True when vec was new."""
    p = _FAST_PRIME
    basis = {}

    def add(vec):
        for piv, row in basis.items():
            f = vec[piv]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
        for idx, x in enumerate(vec):
            if x:
                inv = pow(x, -1, p)
                basis[idx] = [(inv * y) % p for y in vec]
                return True
        return False

    return add


def _irreducible_modp(red, n):
    """True when the algebra closure of the generators mod p spans all
    n x n matrices."""
    ident = [int(i == j) for i in range(n) for j in range(n)]
    span = _spin(ident, red, n * n, lambda g, b: _modp_matmul(g, b, n, n, n),
                 _modp_echelon())
    return len(span) == n * n


def _poly_divmod(a, f):
    """(quotient, remainder) mod p of a by the monic f; coefficients run from
    x^0 up, and the remainder has no trailing zeros."""
    p = _FAST_PRIME
    a = list(a)
    d = len(f) - 1
    quot = []
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] % p
        quot.append(c)
        if c:
            for j in range(d):
                a[k - d + j] -= c * f[j]
    rem = [x % p for x in a[:d]]
    while rem and not rem[-1]:
        rem.pop()
    return quot[::-1], rem


def _gcd_with_power(f, delta, e, minus):
    """The monic gcd mod p of the monic f and (x + delta)^e - minus, for
    minus no longer than f's degree.

    The power is squared as one integer, w bits per coefficient (Kronecker
    substitution); w holds the unreduced sums of a square times x + delta
    and of its fold below x^d through the table of x^d .. x^(2d-1) mod f.
    """
    p = _FAST_PRIME
    d = len(f) - 1
    w = 64 + (2 * d * (delta + 2)).bit_length()
    mask = (1 << w) - 1

    def pack(coeffs):
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    folds, high = [], [0] * (d - 1) + [1]
    for _ in range(d):  # high = x^k mod f, k = d .. 2d - 1
        high = [(x - high[-1] * y) % p for x, y in zip([0] + high[:-1], f)]
        folds.append(pack(high))
    power = [1]
    for bit in bin(e)[2:]:
        sq = pack(power) ** 2
        if bit == "1":
            sq = (sq << w) + delta * sq
        low = sq & ((1 << (w * d)) - 1)
        for k, fold in enumerate(folds, d):
            low += ((sq >> (w * k)) & mask) % p * fold
        power = [((low >> (w * i)) & mask) % p for i in range(d)]
    for i, c in enumerate(minus):
        power[i] -= c
    a, b = f, _poly_divmod(power, f)[1]
    while b:
        inv = pow(b[-1], -1, p)
        a, b = [x * inv % p for x in b], a
        b = _poly_divmod(b, a)[1]
    return a


def _modp_sqrt(a):
    """A square root of a mod p, or None when a is not a square.  With
    p - 1 = 8 q, q odd, and omega = 11^q of order 8 (11 is no square),
    t = a^q is a power of omega^2 exactly when a is a nonzero square, and
    then a^((q + 1) / 2) omega^-j squares to a for t = omega^(2 j)."""
    p = _FAST_PRIME
    if not a:
        return 0
    q = (p - 1) // 8
    omega, t = pow(11, q, p), pow(a, q, p)
    for j in range(4):
        if pow(omega, 2 * j, p) == t:
            return pow(a, (q + 1) // 2, p) * pow(omega, -j, p) % p
    return None


def _modp_roots(f):
    """The distinct roots in F_p of the monic f.  Their product is
    g = gcd(f, x^p - x); Cantor-Zassenhaus splits it along
    gcd(g, (x + delta)^((p - 1) / 2) - 1) for delta = 1, 2, ..., the first
    delta that gives a proper factor (half of all delta split any two
    roots, so the search ends).  A factor of degree 1 or 2 is solved
    directly."""
    p = _FAST_PRIME
    pending, roots = [f if len(f) <= 3 else _gcd_with_power(f, 0, p, [0, 1])], []
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) == 3:
            root = _modp_sqrt((g[1] * g[1] - 4 * g[0]) % p)
            if root is not None:
                half = (p + 1) // 2
                roots += sorted({(root - g[1]) * half % p, (-root - g[1]) * half % p})
        elif len(g) > 3:
            delta = 1
            h = _gcd_with_power(g, delta, (p - 1) // 2, [1])
            while not 1 < len(h) < len(g):
                delta += 1
                h = _gcd_with_power(g, delta, (p - 1) // 2, [1])
            pending += [h, _poly_divmod(g, h)[0]]
    return roots


def _modp_charpoly(a, n):
    """det(x - a) mod p for the flat n x n list a, coefficients from x^0 up:
    a similar upper Hessenberg matrix h, then the expansion of each leading
    minor along its last column."""
    p = _FAST_PRIME
    h = [a[i * n:(i + 1) * n] for i in range(n)]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    minors = [[1]]
    for c in range(n):
        poly = [0] + minors[c]
        t = 1
        for i in range(c, -1, -1):
            coef = h[i][c] * t
            for deg, x in enumerate(minors[i]):
                poly[deg] -= coef * x
            t = t * h[i][i - 1] % p if i else 0
            if not t:
                break
        minors.append([x % p for x in poly])
    return minors[n]


def _modp_null_vector(a, n):
    """The vector spanning the kernel mod p of the flat n x n list a when
    that kernel has dimension 1, else None."""
    p = _FAST_PRIME
    rows = [a[i * n:(i + 1) * n] for i in range(n)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [0] * n
    vec[free] = 1
    for r, c in enumerate(pivots):
        vec[c] = -rows[r][free] % p
    return vec


def _norton_modp(red, n):
    """Norton's irreducibility test on the generators mod p (Holt & Rees,
    "Testing modules for irreducibility", 1994): True when they generate
    all n x n matrices mod p, False when a proper invariant subspace mod p
    shows that they do not, None when no element of its sequence decides.

    The elements are a_k = sum_j (1 + k j) w_j for k = 1 .. len(w), over
    the words w: the generators, then the product of each with the next.
    For a root r of det(x - a_k) in F_p, theta = a_k - r has a kernel; when
    that kernel is one line, spanned by v, and the kernel of theta^T is
    spanned by w, every proper invariant subspace U of V = F_p^n contains v,
    or its annihilator contains w (theta is bijective on U, hence singular
    on V/U).  So when v spins to V under the generators and w spins to V
    under their transposes, V is irreducible.  Its endomorphisms then form a
    finite field, and ker theta is a vector space over it of dimension 1
    over F_p, so that field is F_p and the algebra is all of M_n(F_p).
    """
    p = _FAST_PRIME
    words = red + [_modp_matmul(g, h, n, n, n) for g, h in zip(red, red[1:] + red[:1])]
    total = [sum(col) % p for col in zip(*words)]
    slope = [sum(j * x for j, x in enumerate(col)) % p for col in zip(*words)]
    dual = [_transposed(g, n) for g in red]
    for k in range(1, len(words) + 1):
        a = [(x + k * y) % p for x, y in zip(total, slope)]
        for r in _modp_roots(_modp_charpoly(a, n)):
            theta = [(x - r) % p if i % (n + 1) == 0 else x for i, x in enumerate(a)]
            v = _modp_null_vector(theta, n)
            if v is None:
                continue
            w = _modp_null_vector(_transposed(theta, n), n)
            return all(len(_spin(u, mats, n, lambda g, b: _modp_matmul(g, b, n, n, 1),
                                 _modp_echelon())) == n
                       for u, mats in ((v, red), (w, dual)))
    return None


def _irreducible_exact(gens, n):
    """The same closure over Z[i], exactly, with the span kept by the
    fraction-free elimination kernel `numeric._Echelon`.

    The generators are their numerators: a nonzero scalar leaves the unital
    algebra unchanged, so every word stays in Z[i].  Words are divided by
    their integer content.
    """
    ident = [(int(i == j), 0) for i in range(n) for j in range(n)]
    span = _spin(ident, [g.z for g in gens], n * n,
                 lambda g, b: _primitive(_zmatmul(g, b, n, n, n)), _Echelon().add)
    return len(span) == n * n


def _invariant_span_holds(basis, gens, n):
    """True when the Z[i] vectors `basis` span a proper nonzero subspace that
    every generator (a flat row-major Z[i] list) maps into itself.

    The ranks come from a fresh `_Echelon`, so the check does not trust the
    spin that found the basis.
    """
    span = _Echelon()
    for v in basis:
        span.add(v)
    if not 0 < len(span.rows) < n:
        return False
    return not any(span.add(_zmatmul(g, v, n, n, 1)) for g in gens for v in basis)


def _reducible_by_spin(gens, red, n):
    """True when a proper invariant subspace over Q(i) proves the tuple
    reducible; False when the probes find none.

    Each e_j is spun mod p under the generators and under their transposes
    (the dual module), and the e_j with the smallest proper span is spun
    again exactly over Z[i].  A proper span mod p is only a hint, since
    reduction can drop the dimension; the exact span is the certificate.
    """
    dual = [_transposed(g, n) for g in red]
    probes = []
    for side, mats in enumerate((red, dual)):
        for j in range(n):
            span = _spin([int(i == j) for i in range(n)], mats, n,
                         lambda g, v: _modp_matmul(g, v, n, n, 1), _modp_echelon())
            if len(span) < n:
                probes.append((len(span), side, j))
    if not probes:
        return False
    _, side, j = min(probes)
    exact = [g.z for g in gens]
    if side:
        exact = [_transposed(g, n) for g in exact]
    basis = _spin([(int(i == j), 0) for i in range(n)], exact, n,
                  lambda g, v: _primitive(_zmatmul(g, v, n, n, 1)), _Echelon().add)
    if len(basis) == n:
        return False
    if not _invariant_span_holds(basis, exact, n):
        raise AssertionError("the spin of e_%d is not a proper invariant subspace (bug)"
                             % (j + 1))
    return True


def irreducible_test(t: MatrixTuple) -> bool:
    """Burnside criterion: the unital algebra spanned by all coefficient
    matrices is the full matrix algebra.

    The algebra is spanned over Q(i); its dimension is stable under field
    extension, so the test decides absolute irreducibility.  Reduction mod
    p can only drop the dimension of a span, so an algebra that is all of
    M_n(F_p) mod p proves the answer True.  The stages:

    1. For n > 3, Norton's test mod p (`_norton_modp`) spins one kernel
       vector of an element of the algebra under the generators, and one
       of its transpose under the transposes: n-dimensional spins, not the
       n^2-dimensional closure.  When both reach n, the algebra mod p is
       M_n(F_p): the answer is True.  When one falls short, the algebra mod
       p is not M_n(F_p), and the closure mod p is skipped.
    2. For n <= 3, or when no element of Norton's sequence has a kernel of
       dimension 1, the closure mod p decides instead; reaching n^2 proves
       True.
    3. Otherwise probe for a proper invariant subspace by spinning
       standard basis vectors mod p, under the generators and under their
       transposes, and spin the best probe exactly.  A proper subspace
       over Q(i) invariant under every generator, or under every transpose
       (the transposed algebra has the same dimension), keeps the algebra
       below n^2, so the answer is False.  `_invariant_span_holds` rechecks
       the span's rank and invariance before it is believed.
    4. Otherwise the exact closure over Z[i] decides: when p divides a
       denominator, when reduction mod p lost the span's dimension, or when
       every invariant subspace needs a field larger than Q(i).  A True
       answer still comes only from a full span.
    """
    n = t.n
    gens = [m for m in t.all_coefficients() if not m.is_zero()]
    red = _modp_gens(gens)
    if red is not None:
        # Each element Norton's test tries costs a power x^p mod a degree-n
        # polynomial, about 30 squarings; up to n = 3 the whole closure is
        # cheaper (on random orbit tuples Norton's median time was 2.8 times
        # the closure's at n = 3, and 0.9 times at n = 4).
        norton = _norton_modp(red, n) if n > 3 else None
        if norton or (norton is None and _irreducible_modp(red, n)):
            return True
        if _reducible_by_spin(gens, red, n):
            return False
    return _irreducible_exact(gens, n)


def addition_op(t: MatrixTuple, pole: int, q_coeffs, compensate=False) -> MatrixTuple:
    """Subtract the scalar polynomial part sum q_j x^-j at one pole.

    q_coeffs[j-1] is the x^-j coefficient.  A nonzero residue coefficient
    q_1 breaks the residue sum unless a compensating +q_1/x is requested at
    the pole at infinity.
    """
    if not 0 <= pole < len(t.parts):
        raise ValueError("pole index out of range")
    q_coeffs = list(q_coeffs)
    new_order = max(t.orders[pole], len(q_coeffs))
    parts = [list(p) for p in t.parts]
    part = parts[pole]
    while len(part) < new_order:
        part.append(ExactMatrix.zeros(t.n))
    for j, c in enumerate(q_coeffs):
        if c:
            part[j] = part[j].add_scalar(-c)
    if q_coeffs and q_coeffs[0]:
        if not compensate:
            raise ResidueSumError(
                "addition with nonzero residue term needs compensation at infinity")
        if pole == 0:
            raise ValueError("cannot compensate an addition at infinity with itself")
        parts[0][0] = parts[0][0].add_scalar(q_coeffs[0])
    orders = list(t.orders)
    orders[pole] = new_order
    out = MatrixTuple(t.n, tuple(orders), tuple(tuple(p) for p in parts))
    out.check_residue_sum()
    return out


# ---------------------------------------------------------------------------
# canonical datum


@dataclass(frozen=True)
class CanonicalDatum:
    n: int
    dims_w: tuple
    t_blocks: tuple   # induced shift map per pole, End(W_i)
    q_blocks: tuple   # induced evaluation per pole, Hom(W_i, V)
    p_blocks: tuple   # induced inclusion per pole, Hom(V, W_i)

    @property
    def dim_w(self):
        return sum(self.dims_w)

    def q_map(self):
        return hstack(list(self.q_blocks))

    def p_map(self):
        return vstack(list(self.p_blocks))


def canonical_datum(t: MatrixTuple) -> CanonicalDatum:
    """Stack each pole part into shift data on V^{k_i} and quotient by the
    kernel of the block-Toeplitz matrix A of its coefficients.

    W_i is V^{k_i} / Ker A, and the projection onto it is R, the nonzero
    rows of A's RREF, with pivot columns P and free columns F.  Ker A has the
    basis K that is the identity on F and -R_{P,F} on P, and the standard
    vectors e_p, p in P, are the ones that complete it greedily by index:
    for f in F, e_f is K's column f plus e_p with p < f, while e_p is not in
    the span of K and the e_q, q < p, since the F rows force every K
    coefficient to 0.  Writing v = K a + E_P b, the F rows give a = v_F and
    the P rows b = v_P + R_{P,F} v_F = R v.  So E_P is the section of W_i,
    and the shift, evaluation and inclusion are read off at P: columns P of
    R N, columns P of the evaluation, and R's columns for the last copy of V.
    N moves each copy of V to the next, so R N is R shifted right by n
    columns, and no product is formed.
    """
    n = t.n
    dims = []
    t_blocks = []
    q_blocks = []
    p_blocks = []
    for k, part in zip(t.orders, t.parts):
        nk = n * k
        zero = ExactMatrix.zeros(n)
        a_hat = vstack([hstack([part[k - 1 - s + r] if s >= r else zero for s in range(k)])
                        for r in range(k)])
        q_hat = hstack([part[k - 1 - s] for s in range(k)])
        pivots, proj = rref_matrix(a_hat)
        dim_w = len(pivots)
        shifted = hstack([ExactMatrix.zeros(dim_w, n), proj])
        t_blocks.append(submatrix(shifted, range(dim_w), pivots))
        q_blocks.append(submatrix(q_hat, range(n), pivots))
        # proj times the inclusion of V as the last of the k copies
        p_blocks.append(proj.block(0, dim_w, nk - n, nk))
        dims.append(dim_w)
    return CanonicalDatum(n, tuple(dims), tuple(t_blocks), tuple(q_blocks),
                          tuple(p_blocks))


def sizeof_w_from_forms(forms) -> int:
    """Kernel-intersection formula for dim W, evaluated on normal forms.

    dim(intersection of kernels of B_k..B_{k-j}) = n - rank of their stack,
    so each pole contributes the sum of stacked ranks.
    """
    total = 0
    for form in forms:
        mats = form.part_matrices()
        k = form.order
        for j in range(k):
            stack = vstack([mats[k - 1 - l] for l in range(j + 1)])
            total += mat_rank(stack)
    return total


# ---------------------------------------------------------------------------
# middle convolution


@dataclass(frozen=True)
class McResult:
    output: MatrixTuple
    dim_w: int
    n_shift: int              # growth of the rank and of each picked block
    xi_new: dict              # (i, j) -> new annihilating sequence
    predicted: tuple          # OrbitSpec per pole for the output


def _scalar_shift_tuple(t: MatrixTuple, data: SpectralData, mi, sign):
    """Apply (sign) * Ad_mi: shift each pole by the picked block's scalar part."""
    parts = []
    for i, (k, part) in enumerate(zip(t.orders, t.parts)):
        blk = data.block(i, mi[i])
        coeffs = blk.q_padded(k)
        new = list(part)
        new[0] = new[0].add_scalar(sign * blk.xi[0])
        for deg in range(2, k + 1):
            c = coeffs[deg - 2]
            if c:
                new[deg - 1] = new[deg - 1].add_scalar(sign * c)
        parts.append(tuple(new))
    return MatrixTuple(t.n, t.orders, tuple(parts))


def _cokernel_section(p_map, q_map, xi):
    """(coordinates, C) for W = Im P + Ker Q, given Q P = -xi I.

    C is the kernel basis of Q's RREF, the identity on Q's free columns F,
    and the coordinates map W -> Ker Q ~ coker P takes w to b in
    w = P a + C b.  Applying Q gives -xi a = Q w, since Q C = 0, so
    C b = w + P Q w / xi, and its F rows are b: the coordinates are rows F
    of I + P Q / xi, one product and no inverse.
    """
    pivots, r = rref_matrix(q_map)
    taken = set(pivots)
    free = [c for c in range(q_map.cols) if c not in taken]
    coords = (submatrix(ExactMatrix.identity(q_map.cols), free, range(q_map.cols))
              + (submatrix(p_map, free, range(p_map.cols)) * q_map).scale(xi.inverse()))
    return coords, rref_kernel(pivots, r)


def middle_convolution(t: MatrixTuple, data: SpectralData, mi) -> McResult:
    """Middle convolution at a multi-index with nonzero leading-xi sum.

    Build the canonical datum of the scalar-shifted tuple, pass to the
    cokernel of its inclusion, read off new principal parts, and undo the
    scalar shifts with the extra -2 xi_mi / x twist at infinity.
    """
    t.check_residue_sum()
    if len(mi) != len(data.poles):
        raise SpectralDataError("multi-index %r needs one block for each of the %d poles"
                                % (tuple(mi), len(data.poles)))
    xi_mi = ZERO
    for i in range(len(data.poles)):
        if not 1 <= mi[i] <= data.m(i):
            raise SpectralDataError("multi-index block %d out of range 1..%d at pole %d"
                                    % (mi[i], data.m(i), i))
        xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
    if not xi_mi:
        raise SpectralDataError("xi_mi = 0: middle convolution undefined")

    shifted = _scalar_shift_tuple(t, data, mi, -1)
    cd = canonical_datum(shifted)
    p_map = cd.p_map()
    q_map = cd.q_map()
    if q_map * p_map != ExactMatrix.scalar(t.n, -xi_mi):
        raise OrbitMismatchError("canonical datum violates QP = -xi_mi (bad input)")
    dim_w = cd.dim_w
    n_new = dim_w - t.n
    if n_new <= 0:
        raise OrbitMismatchError("middle convolution collapses the tuple to rank <= 0")
    # The section of W -> coker P with image Ker Q: the only choice that
    # makes the output well-defined up to conjugation (N does not preserve
    # Im P, so other complements shear the new principal parts).
    q_prime, comp = _cokernel_section(p_map, q_map, xi_mi)
    if comp.cols != n_new:
        raise AssertionError("canonical datum evaluation is not surjective (bug)")
    p_prime = comp.scale(xi_mi)

    out_parts = []
    for i, (k, (w0, w1)) in enumerate(zip(t.orders, _ranges(cd.dims_w))):
        qp_i = q_prime.block(0, n_new, w0, w1)
        pp_i = p_prime.block(w0, w1, 0, n_new)
        n_i = cd.t_blocks[i]
        # coefficient j is qp_i N^(j-1) pp_i
        coeffs = [qp_i * pp_i]
        left = qp_i
        for _ in range(1, k):
            left = left * n_i
            coeffs.append(left * pp_i)
        out_parts.append(tuple(coeffs))
    prelim = MatrixTuple(n_new, t.orders, tuple(out_parts))
    if prelim.residue_sum() != ExactMatrix.scalar(n_new, xi_mi):
        raise AssertionError("intermediate residue sum is not xi_mi (bug)")

    n_shift = dim_w - 2 * t.n
    xi_new = {}
    for i in range(len(data.poles)):
        pole = data.poles[i]
        for j in range(1, pole.m + 1):
            blk = pole.blocks[j - 1]
            if j != mi[i]:
                d = data.d(i, j, mi[i])
                shift = (d + 2) * xi_mi if i != 0 else d * xi_mi
                xi_new[(i, j)] = tuple(x + shift for x in blk.xi)
            elif i != 0:
                xi_new[(i, j)] = (blk.xi[0],) + tuple(x + xi_mi for x in blk.xi[1:])
            else:
                xi_new[(i, j)] = (blk.xi[0] - 2 * xi_mi,) + \
                    tuple(x - xi_mi for x in blk.xi[1:])

    predicted = []
    for i in range(len(data.poles)):
        pole = data.poles[i]
        blocks = []
        for j in range(1, pole.m + 1):
            blk = pole.blocks[j - 1]
            picked = j == mi[i]
            size = blk.size + (n_shift if picked else 0)
            if size < 0 or (size == 0 and any(blk.ranks[1:])):
                raise OrbitMismatchError("predicted block size inconsistent")
            if size == 0:
                continue
            blocks.append(OrbitBlockSpec(blk.q_padded(pole.order), size,
                                         xi_new[(i, j)], blk.ranks,
                                         head_free=picked))
        predicted.append(OrbitSpec(pole.order, tuple(blocks)))

    # Undo the scalar shifts; the extra -2 xi_mi at infinity restores the
    # residue sum to zero.
    restored = _scalar_shift_tuple(prelim, data, mi, 1)
    inf = restored.parts[0]
    output = MatrixTuple(n_new, t.orders, (
        (inf[0].add_scalar(-2 * xi_mi),) + inf[1:],) + restored.parts[1:])
    if not output.residue_sum().is_zero():
        raise AssertionError("output residue sum is not zero (bug)")
    return McResult(output, dim_w, n_shift, xi_new, tuple(predicted))


# ---------------------------------------------------------------------------
# quiver representations


@dataclass(frozen=True)
class QuiverRep:
    dims: tuple
    psi: tuple       # per arrow, dims[target] x dims[source]
    psi_star: tuple  # per arrow, dims[source] x dims[target]


def moment_map(inst: QuiverInstance, rep: QuiverRep, core_only=False):
    """Per-vertex moment values sum(psi psi*) over incoming minus
    sum(psi* psi) over outgoing.

    With core_only the conjugacy-class legs of the irregular poles and the
    leg chains are dropped (regular-pole bridges stay): at a block vertex
    [i, j] the value is then minus a member of the prescribed residue class,
    shifted at pole 0 by the sum of the regular poles' leading xi values.
    """
    q = inst.quiver
    out = [ExactMatrix.zeros(d) for d in rep.dims]
    for a, (s, t) in enumerate(q.arrow_indices()):
        if core_only:
            sv, tv = q.vertices[s], q.vertices[t]
            if len(sv) == 3 and (len(tv) == 3 or tv == (sv[0], sv[1])):
                continue
        out[t] = out[t] + rep.psi[a] * rep.psi_star[a]
        out[s] = out[s] - rep.psi_star[a] * rep.psi[a]
    return out


def core_class_value(inst: QuiverInstance, data: SpectralData, core, i, j):
    """The residue-class representative carried by the core moment at [i,j]."""
    q = inst.quiver
    value = -core[q.index((i, j))]
    if i == 0:
        shift = ZERO
        for r in sorted(inst.i_reg):
            shift = shift + data.block(r, 1).xi[0]
        value = value.add_scalar(-shift)
    return value


@dataclass(frozen=True)
class PoleFactorization:
    pole: int
    a_part: tuple        # the pole part in constant-gauge-normalized position
    form: HtlForm
    g_const: ExactMatrix         # constant gauge with X = g A g^{-1}
    q_coeffs: tuple      # Q^{[s]} matrices, s = 1..order-2
    p_coeffs: tuple      # P^{[s]} matrices, s = 1..order-2


def _level_groups(form: HtlForm, level):
    """Group consecutive blocks agreeing on q coefficients at degrees > level."""
    keys = []
    for b in form.blocks:
        keys.append(tuple(c.sort_key() for c in b.q_coeffs[level - 1:]))
    groups = []
    start = 0
    for idx in range(1, len(keys) + 1):
        if idx == len(keys) or keys[idx] != keys[start]:
            groups.append((start, idx))
            start = idx
    return groups


def _graded_part(m, form, level, side):
    """The blocks (bi, bj) of m whose level groups compare as `side`: 1 for
    group(bi) > group(bj), strictly lower, and -1 for strictly upper; the
    other entries 0."""
    group_of = []
    for gi, (b0, b1) in enumerate(_level_groups(form, level)):
        group_of.extend([gi] * (b1 - b0))
    ranges = form.block_ranges()
    n = m.rows
    out = [(0, 0)] * (n * n)
    for bi, (r0, r1) in enumerate(ranges):
        for bj, (c0, c1) in enumerate(ranges):
            if (group_of[bi] - group_of[bj]) * side > 0:
                for k in range(r0 * n, r1 * n, n):
                    out[k + c0:k + c1] = m.z[k + c0:k + c1]
    return _reduced(n, n, m.d, out)


def factor_pole(pole, part, order, form: HtlForm, gauge):
    """Unipotent-lower / graded-parabolic factorization data for one pole.

    gauge[X] = form with X the (already normalized) pole part.  Produces the
    constant gauge g with X = g A g^{-1}, the orbit representative A with
    unipotent reduction v (v A v^{-1} = form), and the graded coefficients
    (Q, P) of the factorization v^{-1} = u_- p_+.
    """
    n = part[0].rows
    g0 = gauge[0]
    if g0 == ExactMatrix.identity(n):
        # htl_reduce found the eigenbasis standard, or to_quiver_rep carried
        # pole 0's gauge to constant term 1: there is nothing to conjugate
        g0_inv, a_part, v = g0, part, gauge
    else:
        g0_inv = invert(g0)
        a_part = [g0 * m * g0_inv for m in part]
        v = [g * g0_inv for g in gauge]
    # Q and P have levels 1..order-2, and none of them needs a gauge, u_-
    # or (u_-)^{-1} coefficient past level order - 2.
    top = order - 1
    g_low = poly_inverse(v, top)  # the G^o gauge carrying pr_irr(A) to the form

    u_minus = poly_identity(n, top)
    p_plus = poly_identity(n, top)
    # g_low = u_- p_+ at x^s: u_s + p_s = g_low_s - sum_{0<j<s} u_j p_{s-j}
    for s in range(1, top):
        residual = g_low[s] - _sum_of_products(
            ((u_minus[j], p_plus[s - j]) for j in range(1, s)), n)
        u_minus[s] = _graded_part(residual, form, s + 1, 1)
        p_plus[s] = residual - u_minus[s]

    q_coeffs = tuple(u_minus[1:])
    # (u_-)^{-1} A' without the residue level x^-1: a_prime[s - 1] is the
    # x^-(s+1) coefficient.  The inverse is unipotent, so its constant term
    # contributes A' itself, and only the higher terms are multiplied.
    u_inv = poly_inverse(u_minus, top)
    a_prime = [m + prod for m, prod in zip(a_part[1:], poly_times_part(
        [ExactMatrix.zeros(n)] + u_inv[1:], a_part[1:], top))]
    p_coeffs = tuple(_graded_part(a_prime[s - 1], form, s + 1, -1)
                     for s in range(1, top))
    return PoleFactorization(pole, tuple(a_part), form, g0_inv, q_coeffs, p_coeffs)


def residue_identity_holds(fact: PoleFactorization) -> bool:
    """The diagonal-block residue identity on factorization data.

    For every block l: R_l - (A_1)_{l,l} equals the x^-1 coefficient of
    - sum_{s<l} Q_{l,s} P_{s,l} + sum_{s>l} P_{l,s} Q_{s,l}.
    """
    form = fact.form
    ranges = form.block_ranges()
    a1 = fact.a_part[0]
    for l, (r0, r1) in enumerate(ranges):
        acc = form.blocks[l].residue - a1.block(r0, r1, r0, r1)
        for s, (c0, c1) in enumerate(ranges):
            if s == l:
                continue
            for qm, pm in zip(fact.q_coeffs, fact.p_coeffs):
                if s < l:
                    acc = acc + qm.block(r0, r1, c0, c1) * pm.block(c0, c1, r0, r1)
                else:
                    acc = acc - pm.block(r0, r1, c0, c1) * qm.block(c0, c1, r0, r1)
        if not acc.is_zero():
            return False
    return True


def _image_chain(s_mat, xi):
    """Bases of Im prod_{l<=k}(S - xi_l) for k = 1..len(xi)-1."""
    return [column_space_basis(prod) for prod in shifted_products(s_mat, xi[:-1])]


def _leg_maps(s_mat, xi, bases):
    """(psi, psi*) along one leg built from S and its annihilating sequence."""
    psi = []
    psi_star = []
    prev = None  # the identity: the first step needs no solve and no product
    for k, basis in enumerate(bases):
        shift = s_mat.add_scalar(-xi[k])
        psi.append(basis if prev is None else solve_general(prev, basis))
        psi_star.append(solve_general(basis, shift if prev is None else shift * prev))
        prev = basis
    return psi, psi_star


def to_quiver_rep(t: MatrixTuple, data: SpectralData, inst: QuiverInstance):
    """Pass a tuple in the prescribed orbits to a quiver representation.

    Returns (QuiverRep, factorizations by pole).  The moment map of the
    result equals lambda at every vertex; with legs ignored the junction
    values are minus the reduced residues, which realize the prescribed
    conjugacy classes.
    """
    t.check_residue_sum()
    if t.n != data.rank or t.orders != tuple(p.order for p in data.poles):
        raise OrbitMismatchError("tuple shape does not match the instance")
    # Every part is conjugated by the constant term c of pole 0's gauge, and
    # pole 0's reduction is transported so that its constant term is 1; the
    # other poles are reduced in that frame.  Orbit membership is invariant
    # under a constant conjugation, so the verdicts do not depend on it.
    # When c is the identity, the tuple is already in that frame.
    form0, gauge0 = _pole_reduction(list(t.parts[0]), data, 0)
    c = gauge0[0]
    parts = [list(part) for part in t.parts]
    reductions = {0: (form0, gauge0)}
    if c != ExactMatrix.identity(t.n):
        c_inv = invert(c)
        parts = [[c * m * c_inv for m in part] for part in parts]
        reductions[0] = (form0, tuple(g * c_inv for g in gauge0))
    for i in range(1, len(parts)):
        reductions[i] = _pole_reduction(parts[i], data, i)

    facts = {}
    for i in sorted(inst.i_irr):
        form, gauge = reductions[i]
        _check_form_matches(form, data, i)
        facts[i] = factor_pole(i, parts[i], t.orders[i], form, gauge)

    q = inst.quiver
    dims = list(inst.alpha)
    psi = [None] * len(q.arrows)
    psi_star = [None] * len(q.arrows)

    ranges = {}
    for i in sorted(inst.i_irr):
        ranges[i] = facts[i].form.block_ranges()

    leg_data = {}
    for i in range(len(data.poles)):
        pole = data.poles[i]
        for j in range(1, pole.m + 1):
            blk = pole.blocks[j - 1]
            if blk.e < 2:
                continue
            if i in inst.i_irr:
                s_mat = facts[i].form.blocks[j - 1].residue
            else:
                s_mat = parts[i][0]
            bases = _image_chain(s_mat, blk.xi)
            leg_data[(i, j)] = (bases, _leg_maps(s_mat, blk.xi, bases))

    # every crossing into outer pole i reads a block of one product
    x1g = {i: parts[i][0] * facts[i].g_const for i in sorted(inst.i_irr - {0})}
    copies = {}  # intra-pole arrow -> how many of its parallel copies came before
    for a, (src, tgt) in enumerate(q.arrows):
        if len(src) == 2 and len(tgt) == 2 and src[0] == 0 and tgt[0] != 0:
            i, jp = tgt
            j = src[1]
            rt0, rt1 = ranges[i][jp - 1]
            cs0, cs1 = ranges[0][j - 1]
            u0 = reductions[i][1][0]  # pole i's gauge at x^0: g_const inverted
            psi[a] = u0.block(rt0, rt1, cs0, cs1)
            psi_star[a] = -(x1g[i].block(cs0, cs1, rt0, rt1))
        elif len(src) == 2 and len(tgt) == 2:
            i = src[0]
            j, jp = src[1], tgt[1]
            kappa = copies.get((src, tgt), 0)
            copies[(src, tgt)] = kappa + 1
            fact = facts[i]
            r0, r1 = ranges[i][jp - 1]
            c0, c1 = ranges[i][j - 1]
            psi[a] = fact.q_coeffs[kappa].block(r0, r1, c0, c1)
            psi_star[a] = fact.p_coeffs[kappa].block(c0, c1, r0, r1)
        elif len(src) == 3 and tgt[0] == src[0]:
            # leg arrow [i,j,k] -> [i,j,k-1], where [i,j,0] is [i,j]
            i, j, k = src
            _, (leg_psi, leg_psi_star) = leg_data[(i, j)]
            psi[a] = leg_psi[k - 1]
            psi_star[a] = leg_psi_star[k - 1]
        else:
            # regular-pole bridge [i,1,1] -> [0,j]
            i = src[0]
            j = tgt[1]
            bases, _ = leg_data[(i, 1)]
            c0, c1 = ranges[0][j - 1]
            basis = bases[0]
            psi[a] = basis.block(c0, c1, 0, basis.cols)
            shift = parts[i][0].add_scalar(-data.block(i, 1).xi[0])
            g_full = solve_general(basis, shift)
            psi_star[a] = g_full.block(0, basis.cols, c0, c1)

    rep = QuiverRep(tuple(dims), tuple(psi), tuple(psi_star))
    _check_rep_shapes(inst, rep)
    return rep, facts


def _pole_reduction(part, data: SpectralData, i: int):
    """_orbit_reduction of pole i's part, or OrbitMismatchError naming pole i."""
    red = _orbit_reduction(part, orbit_spec_from_data(data, i))
    if red is None:
        raise OrbitMismatchError("pole %d is not in its prescribed orbit" % i)
    return red


def _check_form_matches(form: HtlForm, data: SpectralData, i: int):
    pole = data.poles[i]
    if [(b.q_coeffs, b.size) for b in form.blocks] \
            != [(b.q_padded(pole.order), b.size) for b in pole.blocks]:
        raise AssertionError("pole %d: reduced blocks do not match the data (bug)" % i)


def _check_rep_shapes(inst: QuiverInstance, rep: QuiverRep):
    q = inst.quiver
    for a, (s, t) in enumerate(q.arrow_indices()):
        m = rep.psi[a]
        ms = rep.psi_star[a]
        if m.rows != rep.dims[t] or m.cols != rep.dims[s]:
            raise AssertionError("psi shape mismatch on arrow %d" % a)
        if ms.rows != rep.dims[s] or ms.cols != rep.dims[t]:
            raise AssertionError("psi* shape mismatch on arrow %d" % a)


def crossing_determinants_nonzero(inst: QuiverInstance, rep: QuiverRep) -> bool:
    """The assembled crossing matrices (one per outer irregular pole) must be
    invertible; they are blocks of constant gauges."""
    q = inst.quiver
    for i in sorted(inst.i_irr - {0}):
        rows = []
        for jp in range(1, inst.m(i) + 1):
            row = []
            for j in range(1, inst.m(0) + 1):
                a = q.arrows.index(((0, j), (i, jp)))
                row.append(rep.psi[a])
            rows.append(hstack(row))
        big = vstack(rows)
        if mat_rank(big) != big.rows:
            return False
    return True


def generated_subrep_dims(inst: QuiverInstance, rep: QuiverRep, vertex, seed):
    """Dimension vector of the subrepresentation generated by one vector.

    Debug oracle: closes the seed under all arrow maps in both directions.
    """
    q = inst.quiver
    spaces = [ExactMatrix.zeros(d, 0) for d in rep.dims]
    v0 = q.index(vertex)
    spaces[v0] = column_space_basis(seed)
    changed = True
    while changed:
        changed = False
        for a, (s, t) in enumerate(q.arrow_indices()):
            for (frm, to, m) in ((s, t, rep.psi[a]), (t, s, rep.psi_star[a])):
                if spaces[frm].cols == 0:
                    continue
                joined = hstack([spaces[to], m * spaces[frm]]) \
                    if spaces[to].cols else m * spaces[frm]
                new_basis = column_space_basis(joined)
                if new_basis.cols != spaces[to].cols:
                    spaces[to] = new_basis
                    changed = True
    return tuple(sp.cols for sp in spaces)
