"""Problem instances: per-pole local normal forms and annihilating sequences.

A pole carries a block-diagonal local normal form: each block has a scalar
polynomial part q (coefficients of s^2..s^k in the local variable s = x^-1),
a size, and a residue conjugacy class given either by Jordan data or by an
explicit matrix.  Blocks within one pole are kept in a canonical order
(polynomial coefficients compared from top degree down, (re, im)-lex) so
that every later construction is deterministic and the block filtration
used by the matrix-level factorization is order-compatible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from .numeric import (
    ExactMatrix,
    GaussRat,
    NonSplitError,
    ZERO,
    block_diag,
    mat_rank,
    qi_eigenvalues,
)

INFINITY = "infinity"


class SpectralDataError(ValueError):
    """Rejected input, raised only where outside input is checked (documents,
    spectral data, tuples, multi-indices); the command line maps it to exit 2."""


@dataclass(frozen=True)
class ResidueSpec:
    """Residue conjugacy class: Jordan data or an explicit matrix (not both).

    Jordan data is a sequence of (eigenvalue, block sizes) pairs with pairwise
    distinct eigenvalues; it is the preferred encoding since the conjugacy
    class, not a representative, is the real input.
    """

    jordan: tuple | None = None
    explicit: ExactMatrix | None = None

    def __post_init__(self):
        if (self.jordan is None) == (self.explicit is None):
            raise SpectralDataError("residue needs exactly one of jordan/matrix")
        if self.jordan is not None:
            seen = set()
            for value, blocks in self.jordan:
                if value in seen:
                    raise SpectralDataError("repeated eigenvalue in jordan data")
                seen.add(value)
                if not blocks or any(b < 1 for b in blocks):
                    raise SpectralDataError("jordan block sizes must be positive")
        else:
            if self.explicit.rows != self.explicit.cols:
                raise SpectralDataError("explicit residue must be square")

    @property
    def size(self) -> int:
        if self.jordan is not None:
            return sum(sum(blocks) for _, blocks in self.jordan)
        return self.explicit.rows

    def as_matrix(self) -> ExactMatrix:
        """An explicit representative (Jordan blocks with 1's above the diagonal)."""
        if self.explicit is not None:
            return self.explicit
        blocks = []
        for value, sizes in self.jordan:
            for b in sizes:
                rows = [[value if i == j else (GaussRat(1) if j == i + 1 else ZERO)
                         for j in range(b)] for i in range(b)]
                blocks.append(ExactMatrix.from_rows(rows))
        return block_diag(blocks)

    def shifted(self, gamma: GaussRat) -> "ResidueSpec":
        """The class of R + gamma*I."""
        if self.jordan is not None:
            return ResidueSpec(jordan=tuple((value + gamma, blocks)
                                            for value, blocks in self.jordan))
        return ResidueSpec(explicit=self.explicit.add_scalar(gamma))


def select_xi(res: ResidueSpec):
    """Default annihilating sequence and its rank sequence.

    The default realizes the minimal polynomial: each eigenvalue repeated
    (largest Jordan block) times, eigenvalues in the order given by the
    Jordan data (or sorted (re, im)-lex for explicit matrices).  Returns
    (xi tuple, ranks tuple) with ranks[k-1] = rank of the first k factors.
    """
    if res.jordan is not None:
        xi = []
        for value, blocks in res.jordan:
            xi.extend([value] * max(blocks))
        xi = tuple(xi)
    else:
        m = res.explicit
        xi = []
        for value, _ in qi_eigenvalues(m):
            shifted = m.add_scalar(-value)
            power, rank = shifted, mat_rank(shifted)
            largest = 1
            while True:
                power = power * shifted
                next_rank = mat_rank(power)
                if next_rank == rank:
                    break
                rank = next_rank
                largest += 1
            xi.extend([value] * largest)
        xi = tuple(xi)
    return xi, rank_sequence(res, xi)


def shifted_products(m, xi):
    """Yield prod_{l<=k}(m - xi_l) for k = 1..len(xi), each from the last."""
    prod = None
    for x in xi:
        shift = m.add_scalar(-x)
        prod = shift if prod is None else prod * shift
        yield prod


def rank_sequence(res: ResidueSpec, xi) -> tuple:
    """Ranks r_k = rank prod_{l<=k}(R - xi_l), k = 1..len(xi); validates r_e = 0."""
    if res.jordan is not None:
        # r_k is the sum of max(b - h, 0) over the blocks b of each eigenvalue v,
        # h the hits of v in xi[:k]; so the h-th hit of v lowers r by the number
        # of blocks of v of size >= h.  Per v: [hits so far, sorted sizes].
        state = {value: [0, sorted(blocks)] for value, blocks in res.jordan}
        total = res.size
        ranks = []
        for x in xi:
            entry = state.get(x)
            if entry is not None:
                entry[0] += 1
                hits, sizes = entry
                total -= len(sizes) - bisect_left(sizes, hits)
            ranks.append(total)
    else:
        ranks = [mat_rank(prod) for prod in shifted_products(res.explicit, xi)]
    if ranks and ranks[-1] != 0:
        raise SpectralDataError("xi sequence does not annihilate the residue")
    if not ranks:
        raise SpectralDataError("xi sequence is empty")
    return tuple(ranks)


@dataclass(frozen=True)
class IrregularBlock:
    """One diagonal block: q coefficients (degrees 2..k), size, residue class.

    xi/ranks are resolved during parsing; q_coeffs never has degree-0/1 terms
    by construction of the indexing.
    """

    q_coeffs: tuple
    size: int
    residue: ResidueSpec
    xi: tuple = ()
    ranks: tuple = ()

    def q_padded(self, order: int) -> tuple:
        """Coefficients for degrees 2..order (padded with zeros above deg(q))."""
        need = max(order - 1, 0)
        return tuple(self.q_coeffs) + (ZERO,) * (need - len(self.q_coeffs))

    def q_sort_key(self, order: int):
        return tuple(c.sort_key() for c in reversed(self.q_padded(order)))

    @property
    def e(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class PoleData:
    label: str
    order: int
    blocks: tuple

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class SpectralData:
    """A full problem instance; pole 0 is the point at infinity."""

    rank: int
    poles: tuple

    @property
    def p(self) -> int:
        return len(self.poles) - 1

    @property
    def i_irr(self) -> frozenset:
        return frozenset({0} | {i for i, pole in enumerate(self.poles) if pole.m > 1})

    @property
    def i_reg(self) -> frozenset:
        return frozenset(range(len(self.poles))) - self.i_irr

    def block(self, i: int, j: int) -> IrregularBlock:
        """Block j (1-based, matching vertex names) of pole i."""
        return self.poles[i].blocks[j - 1]

    def m(self, i: int) -> int:
        return self.poles[i].m

    def e(self, i: int, j: int) -> int:
        return self.block(i, j).e

    def d(self, i: int, j: int, jp: int) -> int:
        """d_value of blocks j and jp (1-based) of pole i."""
        return d_value(self.block(i, j), self.block(i, jp))


def _q_width(blocks) -> int:
    """The pole order that pads the q's of these blocks to the longest one.

    Above it every q is zero, so padding to any larger order, the pole's own
    included, adds the same zero prefix to every key and changes no
    comparison; the pole order need not size the work."""
    return max(len(b.q_coeffs) for b in blocks) + 1


def d_value(block_a: IrregularBlock, block_b: IrregularBlock) -> int:
    """deg(q_a - q_b) - 2 for distinct blocks of one pole; -1 when q's coincide."""
    width = _q_width((block_a, block_b))
    qa = block_a.q_padded(width)
    qb = block_b.q_padded(width)
    for deg in range(width, 1, -1):
        if qa[deg - 2] != qb[deg - 2]:
            return deg - 2
    return -1


def make_spectral_data(rank, poles) -> SpectralData:
    """Validate raw pole data, canonicalize block order, resolve xi sequences."""
    if rank < 1:
        raise SpectralDataError("rank must be positive")
    if not poles or poles[0].label != INFINITY:
        raise SpectralDataError("pole 0 must be the point at infinity")
    labels = [p.label for p in poles]
    if len(set(labels)) != len(labels):  # so pole 0 is the only one at infinity
        raise SpectralDataError("duplicate pole labels")
    out_poles = []
    for pole in poles:
        if pole.order < 1:
            raise SpectralDataError("pole order must be >= 1")
        if pole.size != rank:
            raise SpectralDataError(
                "pole %r: block sizes sum to %d, expected rank %d"
                % (pole.label, pole.size, rank))
        for blk in pole.blocks:
            if len(blk.q_coeffs) > max(pole.order - 1, 0):
                raise SpectralDataError(
                    "pole %r: q degree exceeds pole order" % pole.label)
            if blk.residue.size != blk.size:
                raise SpectralDataError("pole %r: residue size mismatch" % pole.label)
        width = _q_width(pole.blocks)
        by_key = {blk.q_sort_key(width): blk for blk in pole.blocks}
        if len(by_key) != len(pole.blocks):
            raise SpectralDataError("pole %r: blocks not distinct" % pole.label)
        resolved = []
        for key in sorted(by_key):
            blk = by_key[key]
            try:
                xi, ranks = (blk.xi, rank_sequence(blk.residue, blk.xi)) if blk.xi \
                    else select_xi(blk.residue)
            except NonSplitError as exc:
                where = "pole %r block %d" % (pole.label, pole.blocks.index(blk))
                raise SpectralDataError("%s residue: %s" % (where, exc)) from None
            resolved.append(replace(blk, xi=xi, ranks=ranks))
        out_poles.append(PoleData(pole.label, pole.order, tuple(resolved)))
    return SpectralData(rank, tuple(out_poles))


def normalize(data: SpectralData):
    """Scalar-twist away the polynomial part of single-block finite poles.

    A finite pole with one block has a scalar irregular part, which a scalar
    gauge removes; the pole order drops to 1.  Returns (normalized data,
    twist log) where the log lists (pole label, removed q coefficients).
    Idempotent; the pole at infinity is never touched.
    """
    twists = []
    poles = [data.poles[0]]
    for pole in data.poles[1:]:
        if pole.m == 1 and pole.order > 1:
            blk = pole.blocks[0]
            if any(c for c in blk.q_coeffs):
                twists.append((pole.label, blk.q_coeffs))
            poles.append(PoleData(pole.label, 1, (replace(blk, q_coeffs=()),)))
        else:
            poles.append(pole)
    return SpectralData(data.rank, tuple(poles)), twists


def swap_xi(data: SpectralData, i: int, j: int, s: int) -> SpectralData:
    """New data with xi_s and xi_{s+1} of block [i, j] exchanged (1-based s)."""
    blk = data.block(i, j)
    if not 1 <= s <= blk.e - 1:
        raise SpectralDataError("swap position out of range")
    xi = list(blk.xi)
    xi[s - 1], xi[s] = xi[s], xi[s - 1]
    new_blk = replace(blk, xi=tuple(xi), ranks=rank_sequence(blk.residue, tuple(xi)))
    pole = data.poles[i]
    blocks = list(pole.blocks)
    blocks[j - 1] = new_blk
    poles = list(data.poles)
    poles[i] = PoleData(pole.label, pole.order, tuple(blocks))
    return SpectralData(data.rank, tuple(poles))


def shift_pole(data: SpectralData, i0: int, gamma: GaussRat) -> SpectralData:
    """Additive twist by gamma/x at pole i0 compensated at infinity.

    Residues and xi values at pole i0 drop by gamma, those at pole 0 rise by
    gamma; rank sequences are unchanged.
    """
    if not 1 <= i0 <= data.p:
        raise SpectralDataError("shift pole index out of range")
    poles = list(data.poles)
    for idx, delta in ((i0, -gamma), (0, gamma)):
        pole = poles[idx]
        blocks = tuple(
            replace(blk,
                    residue=blk.residue.shifted(delta),
                    xi=tuple(x + delta for x in blk.xi))
            for blk in pole.blocks)
        poles[idx] = PoleData(pole.label, pole.order, blocks)
    return SpectralData(data.rank, tuple(poles))
