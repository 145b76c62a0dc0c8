"""Decision core: orthogonal-root decomposition tests and reflection reduction.

Solvability is decided by membership of alpha in the set of positive roots
orthogonal to lambda admitting no decomposition into two or more orthogonal
positive roots whose p-values sum to at least p(alpha).  The plain variant
allows arbitrary positive-root parts; the lattice variant restricts parts to
the level-sum lattice, which is the solvability criterion for the matrix
problem.  Both produce replayable certificates.

Every condition on a part beta besides being a root is an integer linear
equality: beta . lambda == 0 is two integer dot products (the real and the
imaginary numerators of lambda over one denominator), and the lattice asks
for equal level sums.  So the candidate parts are the positive roots among
the integer points of {0 <= beta <= alpha, C beta = 0}.  When C has a row
they are found by streaming those points and root-testing each; with no row
every box point would pass, so the box's roots are closed instead.  Either
way the work, not the box's volume, is bounded: by roots.DEFAULT_WORK_CAP
units for the enumeration, and by the caller's node_cap for the search.  The
candidates of the last (quiver, alpha, lambda, lattice rows) are kept with
the outcome of their decomposition search, so that both memberships of a
Fuchsian instance share one scan and one search.

The search branches each remainder on the candidates that fit it among those
whose first nonzero coordinate is the remainder's.  It reads them off a
bitset index, one mask per (coordinate, value) of such a group, taken lowest
bit first, so it visits the children, and counts the nodes, in the order a
test of each candidate in turn would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, lt, sub

from .builder import QuiverInstance, lattice_member, lattice_rows
from .numeric import GaussRat
from .quiver import (
    Quiver,
    composite_lambda,
    composite_pair,
    dot,
    kernel_test,
    orthogonality_rows,
    pair_with_unit,
    reflect_pair_composite,
    reflect_pair_leg,
    tits,
)
from .roots import (
    SearchCapExceeded,
    box_points,
    is_root,
    positive_roots_in_box,
    quasi_fundamental_test,
)

DEFAULT_NODE_CAP = 10_000_000


class ReductionError(RuntimeError):
    """Reduction got stuck; cannot happen for genuinely solvable input."""


@dataclass(frozen=True)
class ViolatingDecomposition:
    parts: tuple
    p_values: tuple
    p_alpha: int


@dataclass(frozen=True)
class ExhaustiveWitness:
    roots_considered: int
    decompositions_checked: int


@dataclass(frozen=True)
class Verdict:
    solvable: bool
    reasons: tuple
    certificate: object = None

    @property
    def moduli_nonempty(self) -> bool:
        # The moduli space of stable connections is non-empty exactly when
        # the matrix problem is solvable.
        return self.solvable


# The last (quiver, alpha, lambda, lattice rows) decided, its candidates and
# the outcome (best, parts, nodes) of their decomposition search: (key,
# candidates, outcome), or None.  _membership alone writes it, whole, once
# the scan and the search returned.  Both memberships of a Fuchsian instance
# share the entry, since the lattice adds no row there.
_last_candidates = None


def _decomposition_candidates(q: Quiver, alpha, lam, lattice):
    """The proper candidate parts of alpha: the positive roots beta < alpha
    with beta . lam == 0 that satisfy the `lattice` rows.  A dict from each
    part to its p-value, ordered by decreasing p-value, then
    lexicographically: the first optimal decomposition found is canonical.

    Both conditions are integer rows (`lattice` and `orthogonality_rows`).
    With at least one row, the box points that pass the rows stream from
    box_points and each one is root-tested.  With none, every box point
    would pass, most of them no root, so the box's roots are closed instead.
    The path depends only on whether a row exists, and the sort makes the
    candidates independent of it.
    """
    rows = lattice + orthogonality_rows(lam)
    if rows:
        picked = [beta for beta in box_points(alpha, rows, ())
                  if any(beta) and beta != alpha
                  and is_root(q, beta).kind != "not_root"]
    else:
        picked = [beta for beta in positive_roots_in_box(q, alpha) if beta != alpha]
    keyed = sorted((-tits(q, beta)[1], beta) for beta in picked)
    return {beta: -neg_p for neg_p, beta in keyed}


def _best_decomposition(alpha, p_of, node_cap):
    """Maximize the p-value sum over multiset decompositions of alpha into
    the candidates, the keys of `p_of`, which maps each one to its p-value.

    Returns (best sum, parts tuple, nodes visited); best is None when alpha
    has no decomposition into candidates at all.

    Every decomposition of a remainder has a part that is nonzero at the
    remainder's first nonzero coordinate, and a part that fits is zero
    before it, so each remainder branches only on the candidates whose
    first nonzero coordinate is that one: its lead group.  The members that
    fit are read off a bitset index instead of being tested one by one.
    Bit b of the mask (lead, k, v) is set when member b of the lead group
    has c[k] <= v, so the AND of the masks at the remainder's coordinates
    holds exactly the members that fit.  Only the coordinates where the
    remainder is below the group's largest entry can exclude a member, the
    root excludes none, and each mask is built on the first node that needs
    it, so a small search builds few.  The set bits are taken lowest first
    (the binary digits of the AND, read from the right), which is the order of
    the group and of `p_of`: the children, the nodes visited and the first
    optimum kept are those of testing each member in turn.  The search runs
    on an explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    alpha = tuple(alpha)
    groups = [[] for _ in alpha]
    # a vector's first nonzero value occurs first at its lead coordinate
    for c in p_of:
        groups[c.index(next(filter(None, c)))].append(c)
    coords = range(len(alpha))
    tops = [None] * len(alpha)   # lead -> the group's largest entry per coordinate
    masks = {}                   # (lead, k, v) -> fit mask
    zero = (0,) * len(alpha)
    memo = {zero: (0, None)}   # remainder -> (best sum, first part)
    nodes = 0
    stack = [(alpha, None)]
    while stack:
        rem, children = stack.pop()
        if children is None:
            if rem in memo:
                continue
            nodes += 1
            if nodes > node_cap:
                raise SearchCapExceeded("decomposition search node cap exceeded")
            lead = rem.index(next(filter(None, rem)))
            group = groups[lead]
            fit = -1   # every member; at the root, alpha, every candidate fits
            if group and rem is not alpha:
                top = tops[lead]
                if top is None:
                    top = tops[lead] = tuple(map(max, zip(*group)))
                for k in compress(coords, map(lt, rem, top)):
                    v = rem[k]
                    mask = masks.get((lead, k, v))
                    if mask is None:
                        # the base-2 digits, member 0 last: "1" where c[k] <= v
                        column = map(itemgetter(k), reversed(group))
                        mask = masks[lead, k, v] = int(
                            bytes(map(b"01".__getitem__, map(v.__ge__, column))), 2)
                    fit &= mask
            if fit == -1:
                children = [(c, tuple(map(sub, rem, c))) for c in group]
            else:
                children = []
                bits = bin(fit)[:1:-1]   # bits[b] is bit b
                b = bits.find("1")
                while b >= 0:
                    c = group[b]
                    children.append((c, tuple(map(sub, rem, c))))
                    b = bits.find("1", b + 1)
            stack.append((rem, children))
            for _, child in children:
                if child not in memo:
                    stack.append((child, None))
            continue
        best = first = None
        for c, child in children:
            value = memo[child][0]
            if value is not None and (best is None or p_of[c] + value > best):
                best, first = p_of[c] + value, c
        memo[rem] = (best, first)
    value = memo[alpha][0]
    parts = []
    rem = alpha
    while value is not None and rem != zero:
        c = memo[rem][1]
        parts.append(c)
        rem = tuple(map(sub, rem, c))
    return value, tuple(parts), nodes


def _membership(q: Quiver, alpha, lam, lattice, node_cap):
    """`lattice` is None for plain membership, else the lattice rows
    (builder.lattice_rows) that alpha and every part must satisfy.

    The candidates and their search depend on the key (quiver, alpha,
    lambda, lattice rows) alone, so a later membership with the same key
    takes both from the memo, unless its node_cap is below the nodes the
    stored search visited: then it scans and searches again, and raises as a
    first membership under that cap would.  The entry is stored whole once
    both returned, so one that raises leaves the previous entry, and the
    witness reports the node count of the search that found the outcome.
    """
    global _last_candidates
    alpha = tuple(alpha)
    lattice_label = "" if lattice is None else " lattice"
    reasons = []
    nonneg = all(a >= 0 for a in alpha) and any(alpha)
    kind = is_root(q, alpha).kind if nonneg else "not_root"
    if kind == "not_root":
        reasons.append("FAIL: alpha is not a positive root")
        return Verdict(False, tuple(reasons))
    reasons.append("pass: alpha is a positive %s root" % kind)
    if lattice is not None and not kernel_test(lattice)(alpha):
        reasons.append("FAIL: alpha is not in the level-sum lattice")
        return Verdict(False, tuple(reasons))
    support = [(a, l) for a, l in zip(alpha, lam) if a and l]
    if sum(a * l.re for a, l in support) or sum(a * l.im for a, l in support):
        reasons.append("FAIL: alpha . lambda != 0")
        return Verdict(False, tuple(reasons))
    reasons.append("pass: alpha . lambda = 0")
    p_alpha = tits(q, alpha)[1]
    key, memo = (q, alpha, tuple(lam), lattice or ()), _last_candidates
    if memo is not None and memo[0] == key and memo[2][2] <= node_cap:
        candidates, (best, parts, nodes) = memo[1:]
    else:
        candidates = _decomposition_candidates(*key)
        best, parts, nodes = _best_decomposition(alpha, candidates, node_cap)
        _last_candidates = (key, candidates, (best, parts, nodes))
    if best is not None and best >= p_alpha:
        reasons.append(
            "FAIL: decomposition into %d orthogonal%s roots has p-sum %d >= p(alpha) = %d"
            % (len(parts), lattice_label, best, p_alpha))
        cert = ViolatingDecomposition(parts,
                                      tuple(candidates[c] for c in parts),
                                      p_alpha)
        return Verdict(False, tuple(reasons), cert)
    reasons.append("pass: every proper orthogonal%s decomposition has p-sum < p(alpha) = %d"
                   % (lattice_label, p_alpha))
    return Verdict(True, tuple(reasons),
                   ExhaustiveWitness(len(candidates), nodes))


def sigma_member(q: Quiver, alpha, lam, node_cap=DEFAULT_NODE_CAP) -> Verdict:
    """Plain membership: decomposition parts range over all positive
    roots orthogonal to lambda, with no lattice restriction."""
    return _membership(q, alpha, lam, None, node_cap)


def sigma_tilde_member(inst: QuiverInstance, node_cap=DEFAULT_NODE_CAP) -> Verdict:
    """Lattice-restricted membership; this is the solvability criterion."""
    return _membership(inst.quiver, inst.alpha, inst.lam, lattice_rows(inst),
                       node_cap)


def validate_decomposition(inst: QuiverInstance,
                           cert: ViolatingDecomposition) -> bool:
    """Re-check a violating decomposition certificate from scratch."""
    q = inst.quiver
    total = [0] * len(q.vertices)
    p_sum = 0
    for part, p_val in zip(cert.parts, cert.p_values):
        if is_root(q, part).kind == "not_root":
            return False
        if any(x < 0 for x in part) or not any(part):
            return False
        if not lattice_member(inst, part):
            return False
        if dot(part, inst.lam):
            return False
        if tits(q, part)[1] != p_val:
            return False
        total = [t + x for t, x in zip(total, part)]
        p_sum += p_val
    return (tuple(total) == tuple(inst.alpha)
            and len(cert.parts) >= 2
            and tits(q, inst.alpha)[1] == cert.p_alpha
            and p_sum >= cert.p_alpha)


# ---------------------------------------------------------------------------
# reflection reduction


@dataclass(frozen=True)
class ReductionStep:
    kind: str     # "reflect_composite" | "reflect_leg"
    at: tuple     # multi-index or leg vertex
    value: GaussRat  # the lambda value legalizing a reflection step
    before: tuple  # (alpha, lambda)
    after: tuple


@dataclass(frozen=True)
class ReductionTrace:
    applicable: bool
    steps: tuple
    terminal_kind: str = ""   # "unit-composite" | "unit-leg" | "quasi-fundamental" | ""
    terminal_at: tuple = ()
    terminal: tuple = ()      # final (alpha, lambda)


def _unit_composite(inst, alpha):
    """The multi-index mi with alpha == eps_mi, or None."""
    q = inst.quiver
    for v in inst.leg_vertices():
        if alpha[q.index(v)]:
            return None
    mi = [1] * inst.num_poles
    for i in sorted(inst.i_irr):
        ones = [j for j in range(1, inst.m(i) + 1) if alpha[q.index((i, j))] == 1]
        zeros = [j for j in range(1, inst.m(i) + 1) if alpha[q.index((i, j))] == 0]
        if len(ones) != 1 or len(ones) + len(zeros) != inst.m(i):
            return None
        mi[i] = ones[0]
    return tuple(mi)


def _unit_leg(inst, alpha):
    q = inst.quiver
    if sum(alpha) != 1:
        return None
    idx = alpha.index(1)
    v = q.vertices[idx]
    return v if len(v) == 3 else None


def reduce_pair(inst: QuiverInstance, verdict: Verdict) -> ReductionTrace:
    """Reduce (alpha, lambda) by legal reflections to a unit root or a
    quasi-fundamental vector.

    `verdict` is the instance's `sigma_tilde_member` verdict; an unsolvable
    one gives an inapplicable trace.  Only reflections at composite roots
    and leg vertices with nonvanishing lambda value are legal; each one
    strictly lowers the coordinate sum.  Additive shifts cannot change any
    legality value (composite and leg lambda values are shift invariants),
    so a stuck state means the input was not solvable-reducible and is
    reported as an error.
    """
    if not verdict.solvable:
        return ReductionTrace(False, ())

    q = inst.quiver
    alpha = tuple(inst.alpha)
    lam = tuple(inst.lam)
    steps = []
    cap = 10 * sum(alpha) + 20
    for _ in range(cap):
        mi = _unit_composite(inst, alpha)
        if mi is not None:
            return ReductionTrace(True, tuple(steps), "unit-composite", mi,
                                  (alpha, lam))
        leg = _unit_leg(inst, alpha)
        if leg is not None:
            return ReductionTrace(True, tuple(steps), "unit-leg", leg,
                                  (alpha, lam))
        if quasi_fundamental_test(inst, alpha):
            return ReductionTrace(True, tuple(steps), "quasi-fundamental", (),
                                  (alpha, lam))
        step = _find_reflection(inst, alpha, lam)
        if step is None:
            raise ReductionError("no legal reflection available (stuck)")
        kind, at, value = step
        before = (alpha, lam)
        if kind == "reflect_composite":
            alpha, lam = reflect_pair_composite(inst, at, alpha, lam)
        else:
            alpha, lam = reflect_pair_leg(inst, at, alpha, lam)
        steps.append(ReductionStep(kind, at, value, before, (alpha, lam)))
    raise AssertionError("reduction did not terminate (bug guard)")


def _find_reflection(inst, alpha, lam):
    for mi in inst.multi_indices():
        if composite_pair(inst, mi, alpha) > 0:
            value = composite_lambda(inst, mi, lam)
            if value:
                return ("reflect_composite", tuple(mi), value)
    q = inst.quiver
    for v in inst.leg_vertices():
        if pair_with_unit(q, alpha, q.index(v)) > 0:
            value = lam[q.index(v)]
            if value:
                return ("reflect_leg", v, value)
    return None


def replay_trace(inst: QuiverInstance, trace: ReductionTrace):
    """Run the trace backwards from its terminal pair; returns (alpha, lambda).

    Reflection steps are involutions, so a faithful trace replays to the
    instance's original pair.
    """
    if not trace.applicable:
        raise ValueError("trace is not applicable")
    alpha, lam = trace.terminal
    for step in reversed(trace.steps):
        if step.kind == "reflect_composite":
            alpha, lam = reflect_pair_composite(inst, step.at, alpha, lam)
        elif step.kind == "reflect_leg":
            alpha, lam = reflect_pair_leg(inst, step.at, alpha, lam)
        else:
            raise ValueError("unknown step kind %r" % step.kind)
    return alpha, lam
