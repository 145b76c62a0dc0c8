"""Root-system engine: classification, boxed enumeration, quasi-fundamental
set, and lifts into the auxiliary Kac-Moody lattice.

One scanner, box_points, streams the integer points of a box under integer
linear conditions, "== 0" rows and "<= 0" rows: depth first, it gives each
vertex only the values that keep every row's partial sum inside the range
its unassigned terms can still reach (interval propagation; Schrijver,
Theory of Linear and Integer Programming, 1986).  The boxed fundamental set
is its "<= 0" scan by the Cartan rows, (beta, eps_v) <= 0 at every v, kept
where the support is connected (Kac, Invent. Math. 1980).

Boxed enumeration works by reflection closure, seeded from that scan: a
reflection at a vertex with positive pairing lowers exactly one coordinate,
so the descending chain from any positive root to a simple root or
fundamental-set element stays inside every componentwise box containing the
root.  Closing the seeds (simple roots and boxed fundamental-set members)
under box-preserving reflections therefore yields every positive root below
the bound.

The closure and the root test is_root share one pairing rule: each carries
the pairings (beta, eps_j) of its vector along its reflections.  Reflecting
at vertex i with c = (beta, eps_i) gives

    (s_i beta, eps_j) = (beta, eps_j) - c (eps_i, eps_j),

so entry i becomes -c, each neighbor j of i gains c once per arrow between
them, and every other entry is unchanged.  Both read the adjacency that a
Quiver computes once, when it is built: a vector's first pairings come from
one pass over the neighbour tuples (Quiver.pairings), and every support test
here (is_root, the fundamental set, the quasi-fundamental set) is a search
over the neighbour bitmasks (Quiver.support_connected).  So is_root costs
about what its reflection walk costs.

The decision core uses the closure only when its candidates satisfy no
integer row.  Otherwise it scans the box points on which its rows vanish
with box_points, and decides each point by is_root.

One work budget, DEFAULT_WORK_CAP units unless a caller passes its own,
bounds each enumeration: box_points charges every partial point it keeps
and every point its free vertices add, so every point it yields is paid
for, and the closure charges every root it dequeues.  Nothing measures the
box itself, whose volume does not predict the work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from math import prod

from .builder import QuiverInstance, lattice_member
from .quiver import (
    Quiver,
    dot,  # noqa: F401 -- perfbench/tracer.py times calls made through roots.dot
    pair_with_unit,
    reflect_dim,
    sym_form,
    tits,
)


class SearchCapExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


DEFAULT_WORK_CAP = 10_000_000


@dataclass(frozen=True)
class RootClass:
    """Outcome of the root decision procedure.

    For real/imaginary vectors the witness replays to the input: apply the
    recorded reflections to `terminal` in reverse order, then negate if
    `negated`.
    """

    kind: str  # "real" | "imaginary" | "not_root"
    negated: bool = False
    reflections: tuple = ()
    terminal: tuple = None


def replay_witness(q: Quiver, rc: RootClass):
    if rc.kind == "not_root":
        raise ValueError("non-roots carry no witness")
    beta = rc.terminal
    for v in reversed(rc.reflections):
        beta = reflect_dim(q, v, beta)
    if rc.negated:
        beta = tuple(-b for b in beta)
    return beta


# Every non-root shares this one (frozen) outcome.
_NOT_ROOT = RootClass("not_root")


def is_root(q: Quiver, beta) -> RootClass:
    """Decide real root / imaginary root / not a root.

    The zero vector, vectors of mixed sign (one min/max pass) and vectors
    with disconnected support (a search over the quiver's neighbour
    bitmasks, Quiver.support_connected) are never roots.  A non-negative
    vector is reflected at the first vertex pairing positively until a simple
    root (real), a fundamental-set member (imaginary), or an exit from the
    positive cone (not a root) is reached.  The pairings (beta, eps_j) are
    computed once, in one pass over the quiver's neighbour tuples
    (Quiver.pairings), and then carried by the closure's rule: a reflection
    at i with c = (beta, eps_i) sets entry i to -c, and each neighbor gains
    c once per arrow.  In the cone a vertex with beta_v = 0 pairs <= 0, so
    the first positive pairing is the pivot.

    Support is checked at the two ends only: up front, and again at an
    imaginary terminal.  A reflection changes only its pivot coordinate and
    never enlarges the support, so each component of a disconnected vector
    reflects on its own: the pairings at its vertices depend on its
    coordinates alone.  A component disappears only by going negative,
    since a lone vertex pairs 2 beta_v > 0 and reflects to -beta_v.  A chain
    whose support splits therefore ends at not_root or at a disconnected
    fundamental terminal, never at a simple root: the same outcome as
    checking the support at every step.

    The loop ends: the coordinate sum falls by c >= 1 on every step and
    stays non-negative.  Every non-root gets the same shared outcome.
    """
    if len(beta) != len(q.vertices):
        raise ValueError("vector/vertex index mismatch")
    lo, hi = min(beta, default=0), max(beta, default=0)
    if lo < 0 < hi or not q.support_connected(beta):
        return _NOT_ROOT
    negated = lo < 0
    cur = [-b for b in beta] if negated else list(beta)
    pairing = q.pairings(cur)
    nbrs = q.nbrs
    total = sum(cur)
    used = []
    while total != 1:
        for pivot, c in enumerate(pairing):
            if c > 0:
                break
        else:
            # (cur, eps_a) <= 0 at every vertex
            if not q.support_connected(cur):
                return _NOT_ROOT
            return RootClass("imaginary", negated, tuple(used), tuple(cur))
        moved = cur[pivot] - c
        if moved < 0:
            return _NOT_ROOT
        cur[pivot] = moved
        total -= c
        used.append(q.vertices[pivot])
        pairing[pivot] = -c
        for w in nbrs[pivot]:
            pairing[w] += c
    return RootClass("real", negated, tuple(used), tuple(cur))


def fundamental_in_box(q: Quiver, bound, budget=None):
    """All fundamental-set members beta <= bound, sorted: nonzero,
    non-negative, connected support, (beta, eps_v) <= 0 at every vertex v.

    The conditions on the pairings are the "<= 0" rows of box_points: the
    symmetrized Cartan rows, 2 at v and -1 per arrow at each neighbor, so
    that row_v . beta = (beta, eps_v).
    """
    nv = len(q.vertices)
    cartan = [[0] * nv for _ in range(nv)]
    for v in range(nv):
        cartan[v][v] = 2
        for w in q.nbrs[v]:
            cartan[v][w] -= 1
    try:
        members = [beta for beta in box_points(bound, (), cartan, budget)
                   if any(beta) and q.support_connected(beta)]
    except SearchCapExceeded:
        raise SearchCapExceeded("fundamental-set scan budget exhausted") from None
    return sorted(members)


def positive_roots_in_box(q: Quiver, bound, budget=None):
    """Map beta -> "real" | "imaginary" over all positive roots beta <= bound.

    Each dequeued root costs one unit of work per vertex, charged to
    `budget` before its reflections are tried.
    """
    if budget is None:
        budget = [DEFAULT_WORK_CAP]
    nv = len(q.vertices)
    nbrs = q.nbrs
    found = {}
    queue = deque()

    def seed(beta, kind):
        found[beta] = kind
        queue.append((beta, q.pairings(beta)))

    for i in range(nv):
        if bound[i] >= 1:
            seed(tuple(1 if k == i else 0 for k in range(nv)), "real")
    for beta in fundamental_in_box(q, bound, budget):
        if beta not in found:
            seed(beta, "imaginary")
    while queue:
        beta, pairing = queue.popleft()
        budget[0] -= nv
        if budget[0] < 0:
            raise SearchCapExceeded("root closure budget exhausted")
        kind = found[beta]
        for idx, c in enumerate(pairing):
            if not c:
                continue
            nb = beta[idx] - c
            if nb < 0 or nb > bound[idx]:
                continue
            new = beta[:idx] + (nb,) + beta[idx + 1:]
            if new not in found:
                found[new] = kind
                moved = pairing[:]
                moved[idx] = -c
                for w in nbrs[idx]:
                    moved[w] += c
                queue.append((new, moved))
    return found


def box_points(bound, equal, at_most, budget=None):
    """Yield the integer points 0 <= beta <= bound with row . beta == 0 for
    every row of `equal` and row . beta <= 0 for every row of `at_most`,
    each once, in no fixed order.

    Vertices with a nonzero column are assigned first, depth first, by
    decreasing weight sum_r |row_v| * bound_v, each only to the values that
    keep every row's partial sum inside the range its unassigned terms can
    still cancel; the other vertices are free and range over their whole box
    under each full point.  A "<= 0" row is an equality with a slack in
    [0, sum of the weights], which is at least -(the least row . beta over
    the box).  The points stream: nothing is listed, so memory stays at the
    depth-first stack however many points pass.  Each partial point kept
    costs one unit of work, charged to `budget` as the scan reaches it.
    When there are free vertices, each full point of the others also costs
    the number of points the free vertices span under it, the product of
    their ranges, charged before the first of them is yielded.  So the
    budget bounds every point the scan yields, and a free tail larger than
    what is left of it raises before it yields a point.
    """
    if budget is None:
        budget = [DEFAULT_WORK_CAP]
    nv = len(bound)
    rows = (*equal, *at_most)
    nonzero = [[(r, row[v]) for r, row in enumerate(rows) if row[v]]
               for v in range(nv)]
    weight = [sum(abs(c) for _, c in col) * b for col, b in zip(nonzero, bound)]
    tied = sorted((v for v in range(nv) if weight[v]), key=lambda v: -weight[v])
    free = [v for v in range(nv) if not weight[v]]
    # columns[t] = [(r, row r at tied[t], then the least and the most that
    # row r's terms after tied[t] and its slack can add)] over the rows with
    # a nonzero entry at tied[t]
    lo = [0] * len(rows)
    hi = [0] * len(equal) + [sum(weight)] * len(at_most)
    columns = []
    for v in reversed(tied):
        columns.append([(r, c, lo[r], hi[r]) for r, c in nonzero[v]])
        for r, c in nonzero[v]:
            lo[r] += min(0, c * bound[v])
            hi[r] += max(0, c * bound[v])
    columns.reverse()
    # A partial point is its depth, the value of its last vertex and its row
    # sums.  Depth first, the partial points popped last at lower depths are
    # its ancestors, so `point` holds its earlier values.
    ranges = [range(bound[v] + 1) for v in free]
    span = prod(map(len, ranges)) if free else 0
    point = [0] * nv
    stack = [(0, 0, [0] * len(rows))]
    while stack:
        t, x, sums = stack.pop()
        if t:
            point[tied[t - 1]] = x
        if t == len(tied):
            budget[0] -= span
            if budget[0] < 0:
                raise SearchCapExceeded("candidate scan budget exhausted")
            for tail in product(*ranges):
                for v, y in zip(free, tail):
                    point[v] = y
                yield tuple(point)
            continue
        # keep -hi <= s + c x <= -lo for every row
        column = columns[t]
        a, b = 0, bound[tied[t]]
        for r, c, lo, hi in column:
            s = sums[r]
            if c > 0:
                least, most = -((hi + s) // c), (-lo - s) // c
            else:
                least, most = -((-lo - s) // -c), (hi + s) // -c
            if least > a:
                a = least
            if most < b:
                b = most
        if a > b:
            continue
        budget[0] -= b - a + 1
        if budget[0] < 0:
            raise SearchCapExceeded("candidate scan budget exhausted")
        for x in range(a, b + 1):
            moved = sums[:]
            for r, c, _, _ in column:
                moved[r] += c * x
            stack.append((t + 1, x, moved))


def quasi_fundamental_test(inst: QuiverInstance, beta) -> bool:
    """Membership in the quasi-fundamental set.

    Conditions: beta nonzero and non-negative, in the level-sum lattice,
    connected support, (beta, eps) <= 0 against every leg vertex and every
    composite root.  The composite condition over all multi-indices reduces
    to one inequality because (beta, eps_mi) is the sum over irregular poles
    of (beta, eps_[i, j_i]): its maximum is the sum of per-pole maxima.
    """
    q = inst.quiver
    if any(b < 0 for b in beta) or not any(beta):
        return False
    if not lattice_member(inst, beta):
        return False
    if not q.support_connected(beta):
        return False
    for v in inst.leg_vertices():
        if pair_with_unit(q, beta, q.index(v)) > 0:
            return False
    total = 0
    for i in sorted(inst.i_irr):
        total += max(pair_with_unit(q, beta, q.index((i, j)))
                     for j in range(1, inst.m(i) + 1))
    return total <= 0


# ---------------------------------------------------------------------------
# the lift lattice: generators c_mi (one per multi-index) and c_[i,j,k]


@dataclass(frozen=True)
class LiftElement:
    """Finitely supported integer combination of lift-lattice generators.

    Keys are ("J", multi-index tuple) for composite generators and
    ("L", (i, j, k)) for leg generators.
    """

    coeffs: tuple  # sorted ((key, value), ...) with nonzero values

    @staticmethod
    def from_dict(d):
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        return LiftElement(items)

    def as_dict(self):
        return dict(self.coeffs)

    def support(self):
        return [k for k, _ in self.coeffs]


def generator_pairing(inst: QuiverInstance, a, b) -> int:
    """Pairing of two lift-lattice generators."""
    ka, va = a
    kb, vb = b
    if ka == "J" and kb == "J":
        if va == vb:
            return 2
        total = 2
        for i in range(inst.num_poles):
            if va[i] != vb[i]:
                total -= inst.d(i, va[i], vb[i]) + 2
        return total
    if ka == "L" and kb == "L":
        if va == vb:
            return 2
        if va[:2] == vb[:2] and abs(va[2] - vb[2]) == 1:
            return -1
        return 0
    if ka == "J":
        mi, (i, j, k) = va, vb
    else:
        mi, (i, j, k) = vb, va
    return -1 if (mi[i] == j and k == 1) else 0


def lift_pairing(inst: QuiverInstance, x: LiftElement, y: LiftElement) -> int:
    total = 0
    for ka, va in x.coeffs:
        for kb, vb in y.coeffs:
            total += va * vb * generator_pairing(inst, ka, kb)
    return total


def xi_image(inst: QuiverInstance, x: LiftElement):
    """The projection of a lift element back to a dimension vector."""
    q = inst.quiver
    out = [0] * len(q.vertices)
    for key, value in x.coeffs:
        tag, payload = key
        if tag == "J":
            for i in sorted(inst.i_irr):
                out[q.index((i, payload[i]))] += value
        else:
            out[q.index(payload)] += value
    return tuple(out)


def lift_xi(inst: QuiverInstance, beta) -> LiftElement:
    """A lift of beta with positive weight on both extremal multi-indices.

    The composite coordinates solve a transportation problem: per irregular
    pole the supported block values are marginals with common total (the
    level sum).  One unit is reserved on the all-max multi-index, then the
    rest is filled greedily from the all-min corner, which keeps both
    extremes in the support.  Leg coordinates copy beta directly.
    """
    q = inst.quiver
    if any(b < 0 for b in beta) or not lattice_member(inst, beta):
        raise ValueError("lift requires a non-negative lattice member")
    if not any(beta):
        raise ValueError("lift of zero is not defined")
    coeffs = {}
    for v in inst.leg_vertices():
        val = beta[q.index(v)]
        if val:
            coeffs[("L", v)] = val
    irr = sorted(inst.i_irr)
    marginals = {}
    for i in irr:
        marginals[i] = {j: beta[q.index((i, j))]
                        for j in range(1, inst.m(i) + 1)
                        if beta[q.index((i, j))]}
    level = sum(marginals[irr[0]].values()) if irr else 0
    if level:
        def full_mi(choice):
            mi = [1] * inst.num_poles
            for i in irr:
                mi[i] = choice[i]
            return tuple(mi)

        hi = {i: max(marginals[i]) for i in irr}
        lo = {i: min(marginals[i]) for i in irr}
        mi_hi = full_mi(hi)
        mi_lo = full_mi(lo)
        if mi_hi != mi_lo:
            coeffs[("J", mi_hi)] = coeffs.get(("J", mi_hi), 0) + 1
            for i in irr:
                marginals[i][hi[i]] -= 1
                if not marginals[i][hi[i]]:
                    del marginals[i][hi[i]]
        while marginals[irr[0]]:
            choice = {i: min(marginals[i]) for i in irr}
            cell = full_mi(choice)
            mass = min(marginals[i][choice[i]] for i in irr)
            coeffs[("J", cell)] = coeffs.get(("J", cell), 0) + mass
            for i in irr:
                marginals[i][choice[i]] -= mass
                if not marginals[i][choice[i]]:
                    del marginals[i][choice[i]]
    lift = LiftElement.from_dict(coeffs)
    if xi_image(inst, lift) != tuple(beta):
        raise AssertionError("lift projection mismatch (bug)")
    return lift


def extremal_multi_indices(inst: QuiverInstance, beta):
    """(all-min, all-max) multi-indices of the supported blocks of beta."""
    q = inst.quiver
    lo = [1] * inst.num_poles
    hi = [1] * inst.num_poles
    for i in sorted(inst.i_irr):
        supported = [j for j in range(1, inst.m(i) + 1) if beta[q.index((i, j))]]
        if not supported:
            raise ValueError("beta has no supported block at pole %d" % i)
        lo[i] = min(supported)
        hi[i] = max(supported)
    return tuple(lo), tuple(hi)


def irr_count(inst: QuiverInstance, beta) -> int:
    """Number of irregular poles where beta touches at least two blocks."""
    q = inst.quiver
    count = 0
    for i in sorted(inst.i_irr):
        touched = sum(1 for j in range(1, inst.m(i) + 1)
                      if beta[q.index((i, j))])
        if touched >= 2:
            count += 1
    return count


_TREE_TAGS = {7: "E6-like", 8: "E7-like", 9: "E8-like"}


def classify_tame(inst: QuiverInstance, beta) -> str:
    """Identify the lifted support diagram of a quasi-fundamental vector.

    Returns "wild" when the Tits form is negative; otherwise one of the
    affine diagram tags.  Raises if beta is not quasi-fundamental.
    """
    if not quasi_fundamental_test(inst, beta):
        raise ValueError("classify_tame requires a quasi-fundamental vector")
    qv, _ = tits(inst.quiver, beta)
    if qv < 0:
        return "wild"
    if qv > 0:
        raise AssertionError("quasi-fundamental vector with positive Tits form")
    if irr_count(inst, beta) == 2:
        return "quadrangle-double-edge"
    lift = lift_xi(inst, beta)
    supp = lift.support()
    nvert = len(supp)
    edges = {}
    for a in range(nvert):
        for b in range(a + 1, nvert):
            m = -generator_pairing(inst, supp[a], supp[b])
            if m:
                edges[(a, b)] = m
    degree = [0] * nvert
    for (a, b), m in edges.items():
        degree[a] += m
        degree[b] += m
    single = all(m == 1 for m in edges.values())
    if nvert == 2 and edges.get((0, 1)) == 2:
        return "double-edge"
    if nvert == 3 and single and len(edges) == 3:
        return "triangle"
    if nvert == 4 and single and len(edges) == 4 and all(d == 2 for d in degree):
        return "A3-cycle"
    if nvert == 5 and single and len(edges) == 4 and sorted(degree) == [1, 1, 1, 1, 4]:
        return "D4-like"
    if nvert in _TREE_TAGS and single and len(edges) == nvert - 1 \
            and sorted(degree)[-1] == 3:
        return _TREE_TAGS[nvert]
    raise AssertionError("unrecognized tame support diagram (bug)")


def composite_is_real_root(inst: QuiverInstance, mi) -> bool:
    """Sanity helper: composite roots have symmetric square 2."""
    from .quiver import composite_eps
    eps = composite_eps(inst, mi)
    return sym_form(inst.quiver, eps, eps) == 2
