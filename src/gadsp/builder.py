"""Construction of the quiver, dimension vector and parameter from an instance.

Vertex layout: block vertices [i, j] exist for irregular poles only; leg
vertices [i, j, k] (k = 1..e-1) exist for every pole.  Arrows:

  * crossing    [0, j] -> [i, j']      all pole-0 blocks to all blocks of
                                       every other irregular pole
  * intra-pole  [i, j] -> [i, j']      d_i(j, j') parallel arrows, j < j'
  * leg attach  [i, j, 1] -> [i, j]    irregular poles
  * bridges     [i, 1, 1] -> [0, j]    regular poles, one arrow per pole-0 block
  * chains      [i, j, k] -> [i, j, k-1]

alpha assigns block sizes at block vertices and the residue rank sequence
along legs; lambda is built from the leading xi values and their consecutive
differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .numeric import GaussRat, ZERO
from .quiver import Quiver, dot, reflect_dim, reflect_param
from .spectral import SpectralData, shift_pole, swap_xi


@dataclass(frozen=True)
class QuiverInstance:
    quiver: Quiver
    alpha: tuple
    lam: tuple
    i_irr: frozenset
    i_reg: frozenset
    num_poles: int
    n: int
    data: SpectralData

    def m(self, i: int) -> int:
        return self.data.m(i)

    def e(self, i: int, j: int) -> int:
        return self.data.e(i, j)

    def d(self, i: int, j: int, jp: int) -> int:
        return self.data.d(i, j, jp)

    def multi_indices(self):
        """All multi-indices, lazily; regular poles are pinned to block 1."""
        ranges = [range(1, self.m(i) + 1) if i in self.i_irr else range(1, 2)
                  for i in range(self.num_poles)]
        return itertools.product(*ranges)

    def block_vertices(self):
        return [v for v in self.quiver.vertices if len(v) == 2]

    def leg_vertices(self):
        return [v for v in self.quiver.vertices if len(v) == 3]


def build_instance(data: SpectralData) -> QuiverInstance:
    i_irr = data.i_irr
    i_reg = data.i_reg
    num_poles = len(data.poles)

    vertices = []
    for j in range(1, data.m(0) + 1):
        vertices.append((0, j))
    for i in sorted(i_irr - {0}):
        for j in range(1, data.m(i) + 1):
            vertices.append((i, j))
    leg_vertices = []
    for i in range(num_poles):
        for j in range(1, data.m(i) + 1):
            for k in range(1, data.e(i, j)):
                leg_vertices.append((i, j, k))
    leg_vertices.sort()
    vertices.extend(leg_vertices)

    arrows = []
    for j in range(1, data.m(0) + 1):
        for i in sorted(i_irr - {0}):
            for jp in range(1, data.m(i) + 1):
                arrows.append(((0, j), (i, jp)))
    for i in sorted(i_irr):
        for j in range(1, data.m(i) + 1):
            for jp in range(j + 1, data.m(i) + 1):
                arrows.extend([((i, j), (i, jp))] * data.d(i, j, jp))
    for i in sorted(i_irr):
        for j in range(1, data.m(i) + 1):
            if data.e(i, j) >= 2:
                arrows.append(((i, j, 1), (i, j)))
    for i in sorted(i_reg):
        if data.e(i, 1) >= 2:
            for j in range(1, data.m(0) + 1):
                arrows.append(((i, 1, 1), (0, j)))
    for i in range(num_poles):
        for j in range(1, data.m(i) + 1):
            for k in range(2, data.e(i, j)):
                arrows.append(((i, j, k), (i, j, k - 1)))

    q = Quiver(tuple(vertices), tuple(arrows))

    alpha = []
    lam = []
    reg_xi_sum = ZERO
    for i in sorted(i_reg):
        reg_xi_sum = reg_xi_sum + data.block(i, 1).xi[0]
    for v in q.vertices:
        if len(v) == 2:
            i, j = v
            blk = data.block(i, j)
            alpha.append(blk.size)
            if i == 0:
                lam.append(-blk.xi[0] - reg_xi_sum)
            else:
                lam.append(-blk.xi[0])
        else:
            i, j, k = v
            blk = data.block(i, j)
            alpha.append(blk.ranks[k - 1])
            lam.append(blk.xi[k - 1] - blk.xi[k])

    inst = QuiverInstance(q, tuple(alpha), tuple(lam), i_irr, i_reg,
                          num_poles, data.rank, data)
    if not lattice_member(inst, inst.alpha):
        raise AssertionError("alpha fell outside the level-sum lattice (bug)")
    return inst


def lattice_member(inst: QuiverInstance, beta) -> bool:
    """True iff the block-level sums agree across all irregular poles."""
    q = inst.quiver
    level0 = sum(beta[q.index((0, j))] for j in range(1, inst.m(0) + 1))
    for i in sorted(inst.i_irr - {0}):
        level = sum(beta[q.index((i, j))] for j in range(1, inst.m(i) + 1))
        if level != level0:
            return False
    return True


def lattice_rows(inst: QuiverInstance) -> tuple:
    """The integer rows whose dot products with beta all vanish exactly when
    beta is in the level-sum lattice: level_i - level_0 for each irregular
    pole i other than infinity.  With no such pole there is no row."""
    q = inst.quiver
    first = [q.index((0, j)) for j in range(1, inst.m(0) + 1)]
    rows = []
    for i in sorted(inst.i_irr - {0}):
        row = [0] * len(q.vertices)
        for k in first:
            row[k] = -1
        for j in range(1, inst.m(i) + 1):
            row[q.index((i, j))] = 1
        rows.append(tuple(row))
    return tuple(rows)


def perm_xi(inst: QuiverInstance, vertex, s: int) -> QuiverInstance:
    """Swap xi_s and xi_{s+1} at block `vertex`, rebuilding the instance.

    The effect on (alpha, lambda) is the simple reflection at [i0, j0, s]
    when the two xi values differ, the identity when they coincide; tests
    assert this against predict_perm_xi.
    """
    i0, j0 = vertex
    return build_instance(swap_xi(inst.data, i0, j0, s))


def predict_perm_xi(inst: QuiverInstance, vertex, s: int):
    """(alpha', lambda') the swap should produce, by reflection."""
    i0, j0 = vertex
    blk = inst.data.block(i0, j0)
    if blk.xi[s - 1] == blk.xi[s]:
        return inst.alpha, inst.lam
    v = (i0, j0, s)
    return (reflect_dim(inst.quiver, v, inst.alpha),
            reflect_param(inst.quiver, v, inst.lam))


def add_shift(inst: QuiverInstance, i0: int, gamma: GaussRat) -> QuiverInstance:
    """Additive twist by gamma/x at pole i0, compensated at infinity.

    alpha is unchanged.  For irregular i0 lambda moves by gamma * z where z
    is +1 on [i0, *] block vertices, -1 on [0, *] block vertices and 0
    elsewhere, so beta . lambda is preserved on the lattice; for regular i0
    the two moves cancel inside lambda_[0, j] and lambda is unchanged.
    """
    return build_instance(shift_pole(inst.data, i0, gamma))


def shift_vector(inst: QuiverInstance, i0: int):
    """The z vector of add_shift for an irregular pole i0 (zeros if regular)."""
    q = inst.quiver
    out = [ZERO] * len(q.vertices)
    if i0 in inst.i_irr and i0 != 0:
        for j in range(1, inst.m(i0) + 1):
            out[q.index((i0, j))] = GaussRat(1)
        for j in range(1, inst.m(0) + 1):
            out[q.index((0, j))] = GaussRat(-1)
    return tuple(out)


def alpha_dot_lambda(inst: QuiverInstance) -> GaussRat:
    return dot(inst.alpha, inst.lam)
