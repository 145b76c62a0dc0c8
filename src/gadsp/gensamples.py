"""Seeded random generators for instances, gauges and in-orbit tuples.

Tuples with exact residue-sum zero are built with an "absorber" pole: one
irregular pole carries rank-many size-1 blocks whose scalar residues are
read off from minus the sum of the other residues, which keeps every
eigenvalue inside Q(i).  All other poles are free gauge conjugates of their
normal forms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrixops import HtlBlock, HtlForm, MatrixTuple, gauge_conjugate
from .numeric import ExactMatrix, GaussRat, ZERO, mat_rank
from .spectral import (
    INFINITY,
    IrregularBlock,
    PoleData,
    ResidueSpec,
    SpectralData,
    make_spectral_data,
)

POOL = (GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(2),
        GaussRat(Fraction(1, 2)), GaussRat(0, 1), GaussRat(1, -1))


def pick(rng, pool=POOL):
    return pool[rng.randrange(len(pool))]


def random_partition(rng, n):
    """Random composition of n (sizes in random order)."""
    parts = []
    rest = n
    while rest:
        p = rng.randint(1, rest)
        parts.append(p)
        rest -= p
    rng.shuffle(parts)
    return parts


def random_jordan(rng, n, pool=POOL):
    """Random Jordan data of total size n with pool eigenvalues.

    Each value in turn takes a random share of what is left; a remainder
    after the last value (every share small, n above the pool size) becomes
    one more Jordan block of the last value, which draws no random number.
    """
    values = list(pool)
    rng.shuffle(values)
    out = []
    rest = n
    for value in values:
        if not rest:
            break
        take = rng.randint(1, rest)
        out.append((value, tuple(random_partition(rng, take))))
        rest -= take
    if rest:
        value, sizes = out[-1]
        out[-1] = (value, sizes + (rest,))
    return ResidueSpec(jordan=tuple(out))


def _total_trace(poles):
    acc = ZERO
    for pole in poles:
        for blk in pole.blocks:
            if blk.residue.jordan is not None:
                for value, sizes in blk.residue.jordan:
                    acc = acc + sum(sizes) * value
            else:
                acc = acc + blk.residue.explicit.trace()
    return acc


def random_fuchsian_data(rng, n=None, p=None, pool=POOL) -> SpectralData:
    """Random Fuchsian instance (all pole orders 1) with zero trace sum."""
    if n is None:
        n = rng.randint(1, 4)
    if p is None:
        p = rng.randint(1, 3)
    poles = [PoleData(INFINITY, 1, (IrregularBlock((), n, random_jordan(rng, n, pool)),))]
    for i in range(1, p + 1):
        poles.append(PoleData("a%d" % i, 1,
                              (IrregularBlock((), n, random_jordan(rng, n, pool)),)))
    trace = _total_trace(poles)
    if trace:
        delta = -(trace / GaussRat(n))
        blk = poles[0].blocks[0]
        poles[0] = PoleData(INFINITY, 1,
                            (IrregularBlock((), n, blk.residue.shifted(delta)),))
    return make_spectral_data(n, tuple(poles))


def _distinct_q(rng, count, order, pool=POOL):
    """count pairwise distinct polynomial parts of degree <= order."""
    seen = set()
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 500:
            raise RuntimeError("could not draw distinct polynomial parts")
        coeffs = tuple(pick(rng, pool) for _ in range(order - 1))
        key = tuple(c.sort_key() for c in coeffs)
        if key in seen:
            continue
        seen.add(key)
        out.append(coeffs)
    return out


def random_irregular_pole(rng, label, n, order, pool=POOL, min_blocks=1) -> PoleData:
    blocks = []
    sizes = random_partition(rng, n)
    while len(sizes) < min_blocks:
        sizes = random_partition(rng, n)
    qs = _distinct_q(rng, len(sizes), order, pool)
    for size, q in zip(sizes, qs):
        blocks.append(IrregularBlock(q, size, random_jordan(rng, size, pool)))
    return PoleData(label, order, tuple(blocks))


def random_instance_data(rng, n=None, p=None, max_order=3, pool=POOL) -> SpectralData:
    """Random instance mixing regular and irregular poles."""
    if n is None:
        n = rng.randint(1, 3)
    if p is None:
        p = rng.randint(1, 2)
    poles = []
    order0 = rng.randint(1, max_order)
    if order0 == 1:
        poles.append(PoleData(INFINITY, 1,
                              (IrregularBlock((), n, random_jordan(rng, n, pool)),)))
    else:
        poles.append(random_irregular_pole(rng, INFINITY, n, order0, pool))
    for i in range(1, p + 1):
        order = rng.randint(1, max_order)
        if order == 1 or n == 1:
            poles.append(PoleData("a%d" % i, 1,
                                  (IrregularBlock((), n, random_jordan(rng, n, pool)),)))
        else:
            poles.append(random_irregular_pole(rng, "a%d" % i, n, order, pool))
    trace = _total_trace(poles)
    if trace:
        # Add -trace/(n x) at infinity: every block residue shifts.
        delta = -(trace / GaussRat(n))
        blocks0 = tuple(IrregularBlock(blk.q_coeffs, blk.size, blk.residue.shifted(delta))
                        for blk in poles[0].blocks)
        poles[0] = PoleData(INFINITY, poles[0].order, blocks0)
    return make_spectral_data(n, tuple(poles))


def random_invertible(rng, n, pool=POOL):
    guard = 0
    while True:
        guard += 1
        if guard > 200:
            raise RuntimeError("could not draw an invertible matrix")
        m = ExactMatrix.from_rows([[pick(rng, pool) for _ in range(n)]
                                   for _ in range(n)])
        if mat_rank(m) == n:
            return m


def random_gauge(rng, n, order, pool=POOL):
    """A random truncated gauge [g_0, ..., g_{order-1}], g_0 invertible."""
    gauge = [random_invertible(rng, n, pool)]
    small = (GaussRat(0), GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1))
    for _ in range(order - 1):
        gauge.append(ExactMatrix.from_rows(
            [[pick(rng, small) for _ in range(n)] for _ in range(n)]))
    return gauge


def random_htl_form(rng, n, order, pool=POOL) -> HtlForm:
    """A random normal form with the canonical block order."""
    if order == 1:
        sizes = [n]
        qs = [()]
    else:
        sizes = random_partition(rng, n)
        qs = _distinct_q(rng, len(sizes), order, pool)
    blocks = []
    for size, q in zip(sizes, qs):
        res = random_jordan(rng, size, pool).as_matrix()
        blocks.append(HtlBlock(tuple(q), size, res))
    blocks.sort(key=lambda b: tuple(c.sort_key() for c in reversed(b.q_coeffs)))
    return HtlForm(order, tuple(blocks))


def random_orbit_tuple(rng, n=None, p=None, max_order=3, pool=POOL):
    """(SpectralData, MatrixTuple) with exact residue sum zero.

    One pole (infinity or the last finite pole, at random) is the absorber:
    rank-many size-1 blocks of order 2 whose scalar residues are forced by
    the other poles.  Every other pole part is a random truncated-gauge
    conjugate of its normal form.
    """
    if n is None:
        n = rng.randint(1, 3)
    if p is None:
        p = rng.randint(1, 2)
    # Finite single-block poles must stay order 1 (normalized data), so the
    # absorber sits at infinity whenever the rank is 1.
    absorber = 0 if (n == 1 or rng.random() < 0.5) else p
    labels = [INFINITY] + ["a%d" % i for i in range(1, p + 1)]

    poles = [None] * (p + 1)
    parts = [None] * (p + 1)
    for i in range(p + 1):
        if i == absorber:
            continue
        order = rng.randint(1, max_order)
        single_ok = i == 0
        if n == 1:
            order = 1
        if order == 1:
            res = random_jordan(rng, n, pool)
            poles[i] = PoleData(labels[i], 1, (IrregularBlock((), n, res),))
            form = HtlForm(1, (HtlBlock((), n, res.as_matrix()),))
        else:
            poles[i] = random_irregular_pole(rng, labels[i], n, order, pool,
                                             min_blocks=1 if single_ok else 2)
            blocks = tuple(HtlBlock(b.q_padded(order), b.size,
                                    b.residue.as_matrix())
                           for b in sorted(poles[i].blocks,
                                           key=lambda b: b.q_sort_key(order)))
            form = HtlForm(order, blocks)
        gauge = random_gauge(rng, n, poles[i].order, pool)
        parts[i] = gauge_conjugate(gauge, form.part_matrices(), poles[i].order)

    residue_sum = ExactMatrix.zeros(n)
    for i in range(p + 1):
        if i != absorber:
            residue_sum = residue_sum + parts[i][0]
    forced = -residue_sum

    # Absorber: order 2, n size-1 blocks with distinct leading coefficients;
    # the free off-diagonal residue part keeps the part inside the orbit of
    # the form whose scalar residues are the diagonal entries.
    lead = _distinct_scalars(rng, n, pool)
    lead.sort(key=lambda c: c.sort_key())
    blocks = tuple(
        IrregularBlock((lead[j],), 1,
                       ResidueSpec(explicit=ExactMatrix(1, 1, [forced.entry(j, j)])))
        for j in range(n))
    poles[absorber] = PoleData(labels[absorber], 2, blocks)
    top = ExactMatrix.from_rows([[lead[i] if i == j else ZERO for j in range(n)]
                                 for i in range(n)])
    parts[absorber] = [forced, top]

    data = make_spectral_data(n, tuple(poles))
    t = MatrixTuple(n, tuple(pl.order for pl in poles),
                    tuple(tuple(part) for part in parts))
    t.check_residue_sum()
    return data, t


def _distinct_scalars(rng, count, pool):
    values = [v for v in pool]
    rng.shuffle(values)
    if len(values) < count:
        values.extend(GaussRat(k + 10) for k in range(count - len(values)))
    return values[:count]


def random_lattice_vector(rng, inst):
    """A random non-negative member of the level-sum lattice."""
    q = inst.quiver
    out = [0] * len(q.vertices)
    level = rng.randint(0, 3)
    for i in sorted(inst.i_irr):
        rest = level
        js = list(range(1, inst.m(i) + 1))
        for idx, j in enumerate(js):
            take = rest if idx == len(js) - 1 else rng.randint(0, rest)
            out[q.index((i, j))] = take
            rest -= take
    for v in inst.leg_vertices():
        out[q.index(v)] = rng.randint(0, 3)
    return tuple(out)


def random_multi_index(rng, inst):
    mi = [1] * inst.num_poles
    for i in sorted(inst.i_irr):
        mi[i] = rng.randint(1, inst.m(i))
    return tuple(mi)


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)
