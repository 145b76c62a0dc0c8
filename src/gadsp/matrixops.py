"""Exact matrix-level realization: truncated principal parts, gauge reduction
to local normal form, orbit membership, irreducibility, additions, middle
convolution, and the passage to quiver representations.

A pole part is the list [A_1, ..., A_k] of coefficients of x^-1..x^-k.  The
truncated gauge action is conjugation computed in Laurent series and cut to
the x^-1..x^-k window (the derivative term of a polynomial gauge only
touches non-negative powers, so it never survives the truncation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import QuiverInstance
from .numeric import (
    ExactMatrix,
    NonSplitError,
    ZERO,
    _Echelon,
    _primitive,
    _reduced,
    _zmatmul,
    _zmul,
    block_diag,
    column_space_basis,
    complete_basis,
    eigenspace_basis,
    hstack,
    invert,
    mat_kernel,
    mat_rank,
    qi_eigenvalues,
    solve_general,
    vstack,
)
from .spectral import SpectralData


class OrbitMismatchError(ValueError):
    """A pole part does not lie in the prescribed truncated orbit."""


class ResidueSumError(ValueError):
    """The residue-sum-zero constraint is violated."""


# ---------------------------------------------------------------------------
# truncated polynomial gauges


def poly_identity(n, order):
    return [ExactMatrix.identity(n)] + [ExactMatrix.zeros(n)] * (order - 1)


def poly_mul(a, b, order):
    """Product of matrix polynomials in x, truncated below x^order."""
    n = a[0].rows
    out = [ExactMatrix.zeros(n) for _ in range(order)]
    for i, ai in enumerate(a):
        if i >= order or ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def poly_inverse(g, order):
    """Inverse of g modulo x^order; g[0] must be invertible."""
    n = g[0].rows
    h0 = invert(g[0])
    out = [h0] + [ExactMatrix.zeros(n) for _ in range(order - 1)]
    for s in range(1, order):
        acc = ExactMatrix.zeros(n)
        for t in range(1, s + 1):
            if t < len(g) and not g[t].is_zero():
                acc = acc + g[t] * out[s - t]
        out[s] = -(h0 * acc)
    return out


def gauge_conjugate(g, part, order, ginv=None):
    """g . A . g^{-1} truncated to the x^-1..x^-order window.

    part[j-1] is the x^-j coefficient; g is a polynomial gauge of length
    <= order with invertible constant term.
    """
    if ginv is None:
        ginv = poly_inverse(g, order)
    n = part[0].rows
    out = [ExactMatrix.zeros(n) for _ in range(order)]
    for b in range(1, order + 1):
        ab = part[b - 1]
        if ab.is_zero():
            continue
        for a in range(0, b):
            if a >= len(g) or g[a].is_zero():
                continue
            ga = g[a] * ab
            for c in range(0, b - a):
                j = b - a - c
                if c < len(ginv) and not ginv[c].is_zero():
                    out[j - 1] = out[j - 1] + ga * ginv[c]
    return out


def poly_times_part(g, part, order):
    """One-sided product g . A, truncated to the x^-1..x^-order window."""
    n = part[0].rows
    out = [ExactMatrix.zeros(n) for _ in range(order)]
    for b in range(1, order + 1):
        ab = part[b - 1]
        if ab.is_zero():
            continue
        for a in range(0, b):
            if a < len(g) and not g[a].is_zero():
                out[b - a - 1] = out[b - a - 1] + g[a] * ab
    return out


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


def htl_reduce(part, order):
    """Reduce a pole part to block-diagonal local normal form.

    Returns (HtlForm, gauge) with gauge[A]=form; blocks come out sorted by
    their polynomial coefficient tuples from top degree down, so the order
    is canonical.  Raises NonSplitError when a leading coefficient fails to
    be semisimple with Q(i) eigenvalues (ramified or non-split input).
    """
    n = part[0].rows
    if order == 1:
        return HtlForm(1, (HtlBlock((), n, part[0]),)), poly_identity(n, 1)

    top = part[order - 1]
    scalar = _scalar_value(top)
    if scalar is not None:
        sub_form, sub_gauge = htl_reduce(part[:order - 1], order - 1)
        blocks = tuple(HtlBlock(b.q_coeffs + (scalar,), b.size, b.residue)
                       for b in sub_form.blocks)
        gauge = sub_gauge + [ExactMatrix.zeros(n)]
        return HtlForm(order, blocks), gauge

    eigs = qi_eigenvalues(top)
    bases = []
    sizes = []
    values = []
    for value, _ in eigs:
        basis = eigenspace_basis(top, value)
        if basis.cols == 0:
            raise NonSplitError("leading coefficient has a defective eigenvalue")
        bases.append(basis)
        sizes.append(basis.cols)
        values.append(value)
    if sum(sizes) != n:
        raise NonSplitError(
            "leading coefficient is not semisimple (ramified or non-split)")

    pmat = hstack(bases)
    g0 = invert(pmat)
    total = [g0] + [ExactMatrix.zeros(n)] * (order - 1)
    cur = [g0 * m * pmat for m in part]

    # Each gauge step solves u_rc = target_rc / (v_i - v_j) on the blocks
    # (i, j), i != j: the entrywise product with one matrix of the inverses.
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    inverses = {(i, j): (values[i] - values[j]).inverse()
                for i in range(len(values)) for j in range(len(values)) if i != j}
    gaps = ExactMatrix.from_rows([[inverses.get((i, j), ZERO) for j in block_of]
                                  for i in block_of])

    for s in range(1, order):
        target = cur[order - s - 1]
        u = [_zmul(x, y) for x, y in zip(target.z, gaps.z)]
        if u.count((0, 0)) == len(u):
            continue
        g = poly_identity(n, order)
        g[s] = _reduced(n, n, target.d * gaps.d, u)
        cur = gauge_conjugate(g, cur, order)
        total = poly_mul(g, total, order)

    blocks = []
    gauges = []
    for b, (r0, r1) in enumerate(_ranges(sizes)):
        sub_part = [cur[j].block(r0, r1, r0, r1) for j in range(order - 1)]
        sub_form, sub_gauge = htl_reduce(sub_part, order - 1)
        for blk in sub_form.blocks:
            blocks.append(HtlBlock(blk.q_coeffs + (values[b],), blk.size,
                                   blk.residue))
        gauges.append(sub_gauge + [ExactMatrix.zeros(r1 - r0)])
    assembled = [block_diag([g[s] for g in gauges]) for s in range(order)]
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
    """Membership of a pole part in the truncated orbit described by spec.

    Decided by gauge reduction plus residue rank sequences against the
    annihilating sequence: the polynomial parts must match block for block
    and each reduced residue must reproduce the prescribed rank sequence.
    """
    try:
        form, _ = htl_reduce(part, spec.order)
    except NonSplitError:
        return False
    want = {}
    for blk in spec.blocks:
        if blk.size > 0:
            want[blk.q_coeffs] = blk
    have = {b.q_coeffs: b for b in form.blocks if b.size > 0}
    if set(want) != set(have):
        return False
    for key, blk in want.items():
        red = have[key]
        if red.size != blk.size:
            return False
        prod = ExactMatrix.identity(red.size)
        for l, (xi_l, r_l) in enumerate(zip(blk.xi, blk.ranks), start=1):
            prod = prod * red.residue.add_scalar(-xi_l)
            if l == 1 and blk.head_free:
                continue
            if mat_rank(prod) != r_l:
                return False
        if not prod.is_zero():
            return False
    return True


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


def _algebra_spans(ident, gens, n, product, add):
    """True when the unital algebra generated by gens is all n x n matrices.

    Matrices are flat row-major lists; product(g, b) multiplies two of them
    and add(vec) puts vec into an echelon basis of the span, saying whether
    it was new.  The frontier holds the words that grew the span in the last
    round, so span(B) ends closed under left multiplication by every
    generator, and the verdict does not depend on the ring the words are
    computed in, only on the field of their span.
    """
    dim = n * n
    size = int(add(ident))
    frontier = [ident]
    while frontier and size < dim:
        new_frontier = []
        for g in gens:
            for b in frontier:
                prod = product(g, b)
                if add(prod):
                    size += 1
                    if size == dim:
                        return True
                    new_frontier.append(prod)
        frontier = new_frontier
    return size == dim


def _irreducible_modp(gens, n):
    """True when the algebra closure mod p already spans; None if undecided."""
    p = _FAST_PRIME
    red_gens = []
    for g in gens:
        # p divides d exactly when it divides some entry's denominator
        if g.d % p == 0:
            return None
        inv = pow(g.d, -1, p)
        red_gens.append([(a + b * _FAST_I) * inv % p for a, b in g.z])
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

    def product(g, b):
        prod = [0] * (n * n)
        for i in range(n):
            for k in range(n):
                a = g[i * n + k]
                if a:
                    row = k * n
                    out = i * n
                    for j in range(n):
                        prod[out + j] = (prod[out + j] + a * b[row + j]) % p
        return prod

    ident = [1 if i == j else 0 for i in range(n) for j in range(n)]
    return _algebra_spans(ident, red_gens, n, product, add) or None


def _irreducible_exact(gens, n):
    """The same closure over Z[i], exactly, with the span kept by the
    fraction-free elimination kernel `numeric._Echelon`.

    The generators are their numerators: a nonzero scalar leaves the unital
    algebra unchanged, so every word stays in Z[i].  Words are divided by
    their integer content.
    """
    def product(g, b):
        return _primitive(_zmatmul(g, b, n, n, n))

    ident = [(int(i == j), 0) for i in range(n) for j in range(n)]
    return _algebra_spans(ident, [g.z for g in gens], n, product, _Echelon().add)


def irreducible_test(t: MatrixTuple) -> bool:
    """Burnside criterion: the unital algebra spanned by all coefficient
    matrices is the full matrix algebra.

    The span is computed over Q(i); its dimension is stable under field
    extension, so the test decides absolute irreducibility.  A modular
    closure decides the (common) spanning case quickly; anything else is
    settled by the exact closure over Z[i].
    """
    gens = [m for m in t.all_coefficients() if not m.is_zero()]
    return bool(_irreducible_modp(gens, t.n)) or _irreducible_exact(gens, t.n)


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
    kernel of the block-Toeplitz matrix of its coefficients."""
    n = t.n
    dims = []
    t_blocks = []
    q_blocks = []
    p_blocks = []
    for k, part in zip(t.orders, t.parts):
        nk = n * k
        zero, one = ExactMatrix.zeros(n), ExactMatrix.identity(n)
        a_hat = vstack([hstack([part[k - 1 - s + r] if s >= r else zero for s in range(k)])
                        for r in range(k)])
        n_hat = vstack([hstack([one if s == r + 1 else zero for s in range(k)])
                        for r in range(k)])
        q_hat = hstack([part[k - 1 - s] for s in range(k)])
        p_hat = vstack([zero] * (k - 1) + [one])
        k_mat = mat_kernel(a_hat)
        comp = complete_basis(k_mat)
        dim_w = comp.cols
        basis = hstack([k_mat, comp])
        inv = invert(basis)
        proj = inv.block(nk - dim_w, nk, 0, nk)
        t_blocks.append(proj * n_hat * comp)
        q_blocks.append(q_hat * comp)
        p_blocks.append(proj * p_hat)
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


def middle_convolution(t: MatrixTuple, data: SpectralData, mi) -> McResult:
    """Middle convolution at a multi-index with nonzero leading-xi sum.

    Build the canonical datum of the scalar-shifted tuple, pass to the
    cokernel of its inclusion, read off new principal parts, and undo the
    scalar shifts with the extra -2 xi_mi / x twist at infinity.
    """
    t.check_residue_sum()
    if len(mi) != len(data.poles):
        raise ValueError("multi-index must pick one block per pole")
    xi_mi = ZERO
    for i in range(len(data.poles)):
        if not 1 <= mi[i] <= data.m(i):
            raise ValueError("multi-index block out of range")
        xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
    if not xi_mi:
        raise ValueError("xi_mi = 0: middle convolution undefined")

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
    comp = mat_kernel(q_map)
    if comp.cols != n_new:
        raise OrbitMismatchError("canonical datum evaluation is not surjective")
    basis = hstack([p_map, comp])
    inv = invert(basis)
    q_prime = inv.block(t.n, dim_w, 0, dim_w)
    p_prime = comp.scale(xi_mi)

    out_parts = []
    for i, (k, (w0, w1)) in enumerate(zip(t.orders, _ranges(cd.dims_w))):
        qp_i = q_prime.block(0, n_new, w0, w1)
        pp_i = p_prime.block(w0, w1, 0, n_new)
        n_i = cd.t_blocks[i]
        coeffs = []
        power = ExactMatrix.identity(n_i.rows) if n_i.rows else ExactMatrix.zeros(0)
        for j in range(1, k + 1):
            coeffs.append(qp_i * power * pp_i)
            power = power * n_i
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
                d = _d_of(data, i, j, mi[i])
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
    output.check_residue_sum()
    return McResult(output, dim_w, n_shift, xi_new, tuple(predicted))


def _d_of(data: SpectralData, i, j, jp):
    from .spectral import d_value
    pole = data.poles[i]
    return d_value(pole.blocks[j - 1], pole.blocks[jp - 1], pole.order)


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


def factor_pole(part, order, form: HtlForm, gauge):
    """Unipotent-lower / graded-parabolic factorization data for one pole.

    gauge[X] = form with X the (already normalized) pole part.  Produces the
    constant gauge g with X = g A g^{-1}, the orbit representative A with
    unipotent reduction v (v A v^{-1} = form), and the graded coefficients
    (Q, P) of the factorization v^{-1} = u_- p_+.
    """
    n = part[0].rows
    g0 = gauge[0]
    g0_inv = invert(g0)
    a_part = [g0 * m * g0_inv for m in part]
    v = poly_mul(gauge, [g0_inv] + [ExactMatrix.zeros(n)] * (order - 1), order)
    g_low = poly_inverse(v, order)  # the G^o gauge carrying pr_irr(A) to the form

    u_minus = poly_identity(n, order)
    p_plus = poly_identity(n, order)
    for s in range(1, order):
        acc = ExactMatrix.zeros(n)
        for j in range(1, s):
            if not u_minus[j].is_zero() and not p_plus[s - j].is_zero():
                acc = acc + u_minus[j] * p_plus[s - j]
        residual = g_low[s] - acc
        # at level `order` all blocks form one group, so nothing is lower
        u_minus[s] = _graded_part(residual, form, s + 1, 1)
        p_plus[s] = residual - u_minus[s]

    q_coeffs = tuple(u_minus[s] for s in range(1, max(order - 1, 1)))
    irr = [ExactMatrix.zeros(n)] + list(a_part[1:])  # kill the residue level
    u_minus_inv = poly_inverse(u_minus, order)
    a_prime = poly_times_part(u_minus_inv, irr, order)
    p_coeffs = tuple(_graded_part(a_prime[s], form, s + 1, -1)
                     for s in range(1, max(order - 1, 1)))
    return PoleFactorization(-1, tuple(a_part), form, g0_inv, q_coeffs, p_coeffs)


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
    bases = []
    prod = ExactMatrix.identity(s_mat.rows)
    for x in xi[:-1]:
        prod = prod * s_mat.add_scalar(-x)
        bases.append(column_space_basis(prod))
    return bases


def _leg_maps(s_mat, xi, bases):
    """(psi, psi*) along one leg built from S and its annihilating sequence."""
    psi = []
    psi_star = []
    prev = ExactMatrix.identity(s_mat.rows)
    for k, basis in enumerate(bases):
        shift = s_mat.add_scalar(-xi[k])
        psi.append(solve_general(prev, basis))
        psi_star.append(solve_general(basis, shift * prev))
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
    for i in range(len(data.poles)):
        if not orbit_member(list(t.parts[i]), orbit_spec_from_data(data, i)):
            raise OrbitMismatchError("pole %d is not in its prescribed orbit" % i)

    n = t.n
    form0, gauge0 = htl_reduce(list(t.parts[0]), t.orders[0])
    c = gauge0[0]
    c_inv = invert(c)
    parts = [[c * m * c_inv for m in part] for part in t.parts]
    # Pole 0 keeps its reduction, transported so the constant term is 1.
    gauge0 = poly_mul(gauge0, [c_inv] + [ExactMatrix.zeros(n)] * (t.orders[0] - 1),
                      t.orders[0])

    facts = {}
    u0 = {}   # u_i[0], the constant term of pole i's gauge: g_const inverted
    for i in sorted(inst.i_irr):
        if i == 0:
            form, gauge = form0, gauge0
        else:
            form, gauge = htl_reduce(parts[i], t.orders[i])
        _check_form_matches(form, data, i)
        fact = factor_pole(parts[i], t.orders[i], form, gauge)
        facts[i] = PoleFactorization(i, fact.a_part, fact.form, fact.g_const,
                                     fact.q_coeffs, fact.p_coeffs)
        u0[i] = gauge[0]

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
                r0, r1 = ranges[i][j - 1]
                s_mat = facts[i].form.blocks[j - 1].residue
            else:
                s_mat = parts[i][0]
            bases = _image_chain(s_mat, blk.xi)
            maps = _leg_maps(s_mat, blk.xi, bases)
            leg_data[(i, j)] = (s_mat, bases, maps)

    for a, (src, tgt) in enumerate(q.arrows):
        if len(src) == 2 and len(tgt) == 2 and src[0] == 0 and tgt[0] != 0:
            i, jp = tgt
            j = src[1]
            x1g = parts[i][0] * facts[i].g_const
            rt0, rt1 = ranges[i][jp - 1]
            cs0, cs1 = ranges[0][j - 1]
            psi[a] = u0[i].block(rt0, rt1, cs0, cs1)
            psi_star[a] = -(x1g.block(cs0, cs1, rt0, rt1))
        elif len(src) == 2 and len(tgt) == 2:
            i = src[0]
            j, jp = src[1], tgt[1]
            kappa = _parallel_index(q.arrows, a)
            fact = facts[i]
            r0, r1 = ranges[i][jp - 1]
            c0, c1 = ranges[i][j - 1]
            psi[a] = fact.q_coeffs[kappa].block(r0, r1, c0, c1)
            psi_star[a] = fact.p_coeffs[kappa].block(c0, c1, r0, r1)
        elif len(src) == 3 and len(tgt) == 2 and tgt == (src[0], src[1]):
            i, j, _k = src
            _, _, (leg_psi, leg_psi_star) = leg_data[(i, j)]
            psi[a] = leg_psi[0]
            psi_star[a] = leg_psi_star[0]
        elif len(src) == 3 and len(tgt) == 3:
            i, j, k = src
            _, _, (leg_psi, leg_psi_star) = leg_data[(i, j)]
            psi[a] = leg_psi[k - 1]
            psi_star[a] = leg_psi_star[k - 1]
        else:
            # regular-pole bridge [i,1,1] -> [0,j]
            i = src[0]
            j = tgt[1]
            _, bases, _ = leg_data[(i, 1)]
            c0, c1 = ranges[0][j - 1]
            basis = bases[0]
            psi[a] = basis.block(c0, c1, 0, basis.cols)
            shift = parts[i][0].add_scalar(-data.block(i, 1).xi[0])
            g_full = solve_general(basis, shift)
            psi_star[a] = g_full.block(0, basis.cols, c0, c1)

    rep = QuiverRep(tuple(dims), tuple(psi), tuple(psi_star))
    _check_rep_shapes(inst, rep)
    return rep, facts


def _parallel_index(arrows, a):
    """Position of arrow a among its parallel copies (0-based)."""
    src, tgt = arrows[a]
    count = 0
    for b in range(a):
        if arrows[b] == (src, tgt):
            count += 1
    return count


def _check_form_matches(form: HtlForm, data: SpectralData, i: int):
    pole = data.poles[i]
    if len(form.blocks) != pole.m:
        raise OrbitMismatchError("pole %d: block count mismatch" % i)
    for blk, ref in zip(form.blocks, pole.blocks):
        if blk.q_coeffs != ref.q_padded(pole.order) or blk.size != ref.size:
            raise OrbitMismatchError("pole %d: block data mismatch" % i)


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
