"""Decision core: orthogonal-root decomposition tests and reflection reduction.

Solvability is decided by membership of alpha in the set of positive roots
orthogonal to lambda admitting no decomposition into two or more orthogonal
positive roots whose p-values sum to at least p(alpha).  The plain variant
allows arbitrary positive-root parts; the lattice variant restricts parts to
the level-sum lattice, which is the solvability criterion for the matrix
problem.  Both produce replayable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, sub

from .builder import QuiverInstance, lattice_member, lattice_test
from .numeric import GaussRat
from .quiver import (
    Quiver,
    composite_lambda,
    composite_pair,
    dot,
    orthogonality_test,
    pair_with_unit,
    reflect_pair_composite,
    reflect_pair_leg,
    tits,
)
from .roots import (
    SearchCapExceeded,
    box_volume,
    DEFAULT_BOX_VOLUME_CAP,
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


# The root table of the last (quiver, alpha) enumerated: ((quiver, alpha),
# table), or None.  Both memberships of one instance share it; only one
# table is kept alive.  Every build runs under the same fixed work cap, so a
# stored table is exactly what a fresh build would return.
_last_table = None


def _root_table(q: Quiver, alpha):
    """positive_roots_in_box(q, alpha), reused while (q, alpha) matches.

    A build that raises stores nothing.  Callers must not modify the table.
    """
    global _last_table
    key, memo = (q, alpha), _last_table
    if memo is not None and memo[0] == key:
        return memo[1]
    _last_table = None
    table = positive_roots_in_box(q, alpha)
    _last_table = (key, table)
    return table


def _decomposition_candidates(q: Quiver, alpha, lam, lattice_filter):
    """The proper orthogonal candidate parts of alpha, as a dict from each
    part to its p-value, ordered by decreasing p-value, then
    lexicographically: the first optimal decomposition found is canonical."""
    if box_volume(alpha) > DEFAULT_BOX_VOLUME_CAP:
        raise SearchCapExceeded("decomposition box volume above configured limit")
    alpha = tuple(alpha)
    roots = _root_table(q, alpha)
    picked = [beta for beta in roots if beta != alpha]
    if lattice_filter is not None:
        picked = list(filter(lattice_filter, picked))
    if picked:
        picked = list(filter(orthogonality_test(lam), picked))
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
    first nonzero coordinate is that one.  Candidates keep their given
    order inside each group, and the first optimum found is kept.  The
    search runs on an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    alpha = tuple(alpha)
    groups = [[] for _ in alpha]
    for c in p_of:
        groups[next(i for i, x in enumerate(c) if x)].append(c)
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
            lead = next(i for i, r in enumerate(rem) if r)
            children = [(c, tuple(map(sub, rem, c)))
                        for c in groups[lead] if all(map(le, c, rem))]
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


def _membership(q: Quiver, alpha, lam, lattice_filter, node_cap):
    lattice_label = "" if lattice_filter is None else " lattice"
    reasons = []
    nonneg = all(a >= 0 for a in alpha) and any(alpha)
    kind = is_root(q, alpha).kind if nonneg else "not_root"
    if kind == "not_root":
        reasons.append("FAIL: alpha is not a positive root")
        return Verdict(False, tuple(reasons))
    reasons.append("pass: alpha is a positive %s root" % kind)
    if lattice_filter is not None and not lattice_filter(alpha):
        reasons.append("FAIL: alpha is not in the level-sum lattice")
        return Verdict(False, tuple(reasons))
    support = [(a, l) for a, l in zip(alpha, lam) if a and l]
    if sum(a * l.re for a, l in support) or sum(a * l.im for a, l in support):
        reasons.append("FAIL: alpha . lambda != 0")
        return Verdict(False, tuple(reasons))
    reasons.append("pass: alpha . lambda = 0")
    candidates = _decomposition_candidates(q, alpha, lam, lattice_filter)
    p_alpha = tits(q, alpha)[1]
    best, parts, nodes = _best_decomposition(alpha, candidates, node_cap)
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
    return _membership(inst.quiver, inst.alpha, inst.lam, lattice_test(inst),
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
