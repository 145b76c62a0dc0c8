"""Finite quivers, Euler/Tits forms, simple and composite reflections.

Vertices are tuples: (i, j) for a block vertex of pole i, (i, j, k) for the
k-th leg vertex hanging off block (i, j).  Dimension vectors are integer
tuples aligned with Quiver.vertices; parameter vectors are GaussRat tuples
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import mul

from .numeric import GaussRat, ZERO, _clear_denominators


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # (source, target) pairs, parallel arrows repeated

    # Derived from the two above.  nbrs: the neighbour indices of each vertex,
    # one entry per arrow.  Bit i of a mask stands for vertex i: _bits holds
    # each vertex's own bit, _nbr_masks the bits of its neighbours.
    nbrs: tuple = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _arrow_idx: tuple = field(init=False, repr=False, compare=False)
    _bits: tuple = field(init=False, repr=False, compare=False)
    _nbr_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = {v: i for i, v in enumerate(self.vertices)}
        if len(idx) != len(self.vertices):
            raise ValueError("duplicate vertices")
        nbrs = [[] for _ in self.vertices]
        arrow_idx = []
        for s, t in self.arrows:
            if s == t:
                raise ValueError("loops are not allowed")
            si, ti = idx[s], idx[t]
            nbrs[si].append(ti)
            nbrs[ti].append(si)
            arrow_idx.append((si, ti))
        object.__setattr__(self, "nbrs", tuple(tuple(n) for n in nbrs))
        object.__setattr__(self, "_index", idx)
        object.__setattr__(self, "_arrow_idx", tuple(arrow_idx))
        object.__setattr__(self, "_bits", tuple(1 << i for i in range(len(idx))))
        object.__setattr__(self, "_nbr_masks",
                           tuple(sum(1 << w for w in set(n)) for n in nbrs))

    def __len__(self):
        return len(self.vertices)

    def index(self, v) -> int:
        return self._index[v]

    def unit(self, v) -> tuple:
        i = self.index(v)
        return tuple(1 if k == i else 0 for k in range(len(self.vertices)))

    def arrow_indices(self) -> tuple:
        """(source index, target index) per arrow, in arrow order."""
        return self._arrow_idx

    def support_connected(self, beta) -> bool:
        """Whether the vertices where beta is nonzero span a connected
        subquiver; False for the zero vector.

        A search over bitmasks: `left` holds the support not yet reached and
        `todo` the reached vertices whose neighbours are still to be added.
        """
        left = sum(compress(self._bits, beta))
        todo = left & -left
        if not todo:
            return False
        masks = self._nbr_masks
        while todo:
            low = todo & -todo
            left ^= low
            todo = (todo | masks[low.bit_length() - 1]) & left
        return not left

    def pairings(self, beta) -> list:
        """Every (beta, eps_j), in vertex order: 2 beta_j less beta_w once
        per arrow between j and w."""
        return [2 * b - sum([beta[w] for w in nb]) for b, nb in zip(beta, self.nbrs)]


def euler_form(q: Quiver, a, b) -> int:
    """<a, b> = sum a_v b_v - sum over arrows a_source b_target."""
    if len(a) != len(q.vertices) or len(b) != len(q.vertices):
        raise ValueError("vector/vertex index mismatch")
    total = sum(x * y for x, y in zip(a, b))
    for s, t in q.arrow_indices():
        total -= a[s] * b[t]
    return total


def sym_form(q: Quiver, a, b) -> int:
    """(a, b) = <a, b> + <b, a>."""
    return euler_form(q, a, b) + euler_form(q, b, a)


def tits(q: Quiver, a):
    """(q(a), p(a)) with q(a) = (a,a)/2 and p(a) = 1 - q(a)."""
    qv = sum(x * x for x in a)
    for s, t in q.arrow_indices():
        qv -= a[s] * a[t]
    return qv, 1 - qv


def pair_with_unit(q: Quiver, beta, vidx: int) -> int:
    """(beta, eps_v) computed locally: 2 beta_v - sum of neighbor values."""
    return 2 * beta[vidx] - sum(beta[w] for w in q.nbrs[vidx])


def reflect_dim(q: Quiver, v, beta) -> tuple:
    """s_v(beta) = beta - (beta, eps_v) eps_v; touches only coordinate v."""
    i = q.index(v)
    c = pair_with_unit(q, beta, i)
    out = list(beta)
    out[i] -= c
    return tuple(out)


def reflect_param(q: Quiver, v, lam) -> tuple:
    """r_v(lam)_b = lam_b - (eps_v, eps_b) lam_v."""
    i = q.index(v)
    lv = lam[i]
    out = list(lam)
    out[i] = out[i] - 2 * lv
    for w in q.nbrs[i]:
        out[w] = out[w] + lv
    return tuple(out)


def dot(beta, lam) -> GaussRat:
    acc = ZERO
    for b, l in zip(beta, lam):
        if b:
            acc = acc + b * l
    return acc


def orthogonality_rows(lam) -> tuple:
    """The integer rows whose dot products with beta all vanish exactly when
    beta . lam == 0.

    lam is brought over one common denominator (the lcm of its entries'
    denominators); the rows are the real and the imaginary numerators, each
    left out when it is zero, so lam == 0 gives no row.
    """
    _, z = _clear_denominators(lam)
    re = tuple(a for a, _ in z)
    im = tuple(b for _, b in z)
    return tuple(row for row in (re, im) if any(row))


def kernel_test(rows):
    """The predicate beta -> (row . beta == 0 for every row of `rows`)."""
    def in_kernel(beta) -> bool:
        return not any(sum(map(mul, row, beta)) for row in rows)
    return in_kernel


# ---------------------------------------------------------------------------
# composite reflections attached to multi-indices
#
# A multi-index picks one block j_i per pole (j_i = 1 forced at regular
# poles); its composite root is the indicator of the picked block vertices
# over the irregular poles.  The functions below take any object exposing
# quiver, i_irr, i_reg, m(i), e(i, j) -- in practice a builder.QuiverInstance.


def check_multi_index(inst, mi) -> None:
    if len(mi) != inst.num_poles:
        raise ValueError("multi-index must pick one block per pole")
    for i, j in enumerate(mi):
        if not 1 <= j <= inst.m(i):
            raise ValueError("multi-index block %d out of range at pole %d" % (j, i))
        if i not in inst.i_irr and j != 1:
            raise ValueError("regular poles force block 1")


def composite_eps(inst, mi) -> tuple:
    """Indicator vector of {[i, j_i] : i irregular}; a positive real root."""
    check_multi_index(inst, mi)
    q = inst.quiver
    out = [0] * len(q.vertices)
    for i in sorted(inst.i_irr):
        out[q.index((i, mi[i]))] = 1
    return tuple(out)


def composite_pair(inst, mi, beta) -> int:
    """(beta, eps_mi), additive over the picked block vertices."""
    q = inst.quiver
    return sum(pair_with_unit(q, beta, q.index((i, mi[i])))
               for i in inst.i_irr)


def composite_lambda(inst, mi, lam) -> GaussRat:
    acc = ZERO
    q = inst.quiver
    for i in inst.i_irr:
        acc = acc + lam[q.index((i, mi[i]))]
    return acc


def reflect_composite(inst, mi, beta) -> tuple:
    """s_mi(beta) = beta - (beta, eps_mi) eps_mi.

    Equals the sandwich product of simple reflections at the picked block
    vertices (outer poles, then pole 0, then outer poles again).
    """
    check_multi_index(inst, mi)
    q = inst.quiver
    c = composite_pair(inst, mi, beta)
    out = list(beta)
    for i in inst.i_irr:
        out[q.index((i, mi[i]))] -= c
    return tuple(out)


def reflect_pair_composite(inst, mi, alpha, lam):
    """The composite reflection on an (alpha, lambda) pair.

    lambda moves by the dual reflection of the lift lattice: the pole-0
    picked vertex drops 2*lam_mi, every other block vertex [i, j] gains
    (d_i(j, j_i) + 2) * lam_mi (d_i(j, j_0) at the pole at infinity), and
    each existing first leg vertex [i, j_i, 1] gains lam_mi.  This is the
    shift of the annihilating sequences under middle convolution, and it
    keeps beta . lambda constant on the level-sum lattice.  Defined only
    when lam_mi is nonzero.
    """
    check_multi_index(inst, mi)
    lam_mi = composite_lambda(inst, mi, lam)
    if not lam_mi:
        raise ValueError("composite reflection undefined: lambda_mi = 0")
    q = inst.quiver
    new_alpha = reflect_composite(inst, mi, alpha)
    new_lam = list(lam)
    for i in sorted(inst.i_irr):
        for j in range(1, inst.m(i) + 1):
            idx = q.index((i, j))
            if j == mi[i]:
                if i == 0:
                    new_lam[idx] = new_lam[idx] - 2 * lam_mi
            else:
                d = inst.d(i, j, mi[i])
                shift = d if i == 0 else d + 2
                new_lam[idx] = new_lam[idx] + shift * lam_mi
    for i in range(inst.num_poles):
        leg = (i, mi[i], 1)
        if leg in q._index:
            li = q.index(leg)
            new_lam[li] = new_lam[li] + lam_mi
    return new_alpha, tuple(new_lam)


def reflect_pair_leg(inst, v, alpha, lam):
    """Simple pair reflection at a leg vertex; defined only when lam_v != 0."""
    q = inst.quiver
    if len(v) != 3:
        raise ValueError("pair reflection only at leg vertices")
    if not lam[q.index(v)]:
        raise ValueError("leg reflection undefined: lambda vanishes at %r" % (v,))
    return reflect_dim(q, v, alpha), reflect_param(q, v, lam)
