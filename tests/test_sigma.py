import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from operator import le, sub

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from gadsp.builder import add_shift, build_instance, lattice_rows, perm_xi
from gadsp.cli import main as cli_main
from gadsp.gensamples import POOL, random_fuchsian_data, random_instance_data
from gadsp.numeric import GaussRat
from gadsp.quiver import Quiver, dot, kernel_test, orthogonality_rows, tits
from gadsp import roots, sigma
from gadsp.roots import (
    SearchCapExceeded,
    box_points,
    fundamental_in_box,
    positive_roots_in_box,
)
from gadsp.serialize import dumps, parse_spectral, spectral_to_document
from gadsp.sigma import (
    ExhaustiveWitness,
    ReductionError,
    ReductionStep,
    ReductionTrace,
    ViolatingDecomposition,
    _best_decomposition,
    reduce_pair,
    replay_trace,
    sigma_member,
    sigma_tilde_member,
    validate_decomposition,
)
from gadsp.spectral import normalize


SAMPLES = pathlib.Path(__file__).resolve().parents[1] / "samples"


def box_volume(bound):
    return math.prod(b + 1 for b in bound)


def _sample_instance(name):
    doc = json.loads((SAMPLES / name).read_text())
    return build_instance(normalize(parse_spectral(doc))[0])


def d4_star():
    vs = ("c", "l1", "l2", "l3", "l4")
    return Quiver(vs, tuple(("l%d" % i, "c") for i in range(1, 5)))


def test_unit_root_solvable():
    q = Quiver(("a", "b"), (("a", "b"),))
    lam = (GaussRat(0), GaussRat(3))
    v = sigma_member(q, q.unit("a"), lam)
    assert v.solvable
    assert isinstance(v.certificate, ExhaustiveWitness)


def test_two_delta_not_member():
    # p(2 delta) = 1 and delta + delta gives p-sum 2, so 2 delta fails.
    q = d4_star()
    delta = (2, 1, 1, 1, 1)
    two_delta = tuple(2 * x for x in delta)
    lam = tuple(GaussRat(0) for _ in q.vertices)
    assert tits(q, two_delta) == (0, 1)
    v = sigma_member(q, two_delta, lam)
    assert not v.solvable
    assert isinstance(v.certificate, ViolatingDecomposition)
    assert sum(v.certificate.p_values) >= v.certificate.p_alpha
    # delta itself is fine
    assert sigma_member(q, delta, lam).solvable


def test_orthogonality_failure():
    q = d4_star()
    lam = (GaussRat(1),) + tuple(GaussRat(0) for _ in range(4))
    v = sigma_member(q, (2, 1, 1, 1, 1), lam)
    assert not v.solvable
    assert any("lambda" in r for r in v.reasons if r.startswith("FAIL"))


def test_alpha_lambda_rejection():
    # alpha . lambda is summed over Q(i): the real and the imaginary sums
    # must both vanish, and lambda values off alpha's support never count.
    inst = nonresonant_hypergeometric()
    assert inst.alpha == (2, 1, 1, 1)

    def g(re, im):
        return GaussRat(Fraction(re), Fraction(im))

    def verdicts(alpha, lam):
        case = replace(inst, alpha=alpha, lam=lam)
        return (sigma_member(case.quiver, alpha, lam), sigma_tilde_member(case))

    rejected = (
        # real parts cancel on alpha (2/6 - 1/3), imaginary ones do not
        (g("1/6", "1/4"), g("-1/3", "1/5"), g(0, 0), g(0, 0)),
        # imaginary parts cancel on alpha (2/4 - 1/2), real ones do not
        (g("1/6", "1/4"), g("1/7", "-1/2"), g(0, 0), g(0, 0)),
    )
    for lam in rejected:
        for v in verdicts(inst.alpha, lam):
            assert not v.solvable and v.certificate is None
            assert v.reasons[-1] == "FAIL: alpha . lambda != 0"
    accepted = (
        # both sums cancel, over mixed denominators
        ((2, 1, 1, 1),
         (g("1/6", "1/4"), g("-1/3", "-1/2"), g("-2/15", "3/7"), g("2/15", "-3/7"))),
        # lambda is zero on the support of the root (1, 1, 0, 0)
        ((1, 1, 0, 0), (g(0, 0), g(0, 0), g("1/3", "1/2"), g("-1/5", "2/7"))),
    )
    for alpha, lam in accepted:
        for v in verdicts(alpha, lam):
            assert "pass: alpha . lambda = 0" in v.reasons
            assert not any(r.startswith("FAIL: alpha . lambda") for r in v.reasons)


def test_non_root_alpha():
    q = d4_star()
    lam = tuple(GaussRat(0) for _ in q.vertices)
    v = sigma_member(q, (0, 1, 0, 0, 1), lam)  # disconnected support
    assert not v.solvable
    assert v.reasons[0].startswith("FAIL")


def nonresonant_hypergeometric():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "-1/3", "blocks": [1]},
                    {"value": "-1/5", "blocks": [1]}]}}]},
            {"point": "a1", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]},
                    {"value": "1/4", "blocks": [1]}]}}]},
            {"point": "a2", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]},
                    {"value": "17/60", "blocks": [1]}]}}]},
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    return build_instance(data)


def resonant_hypergeometric():
    # One eigenvalue selection sums to zero across the poles, which yields a
    # violating decomposition of the dimension vector.
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "-1/4", "blocks": [1]},
                    {"value": "-1/2", "blocks": [1]}]}}]},
            {"point": "a1", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]},
                    {"value": "1/4", "blocks": [1]}]}}]},
            {"point": "a2", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]},
                    {"value": "1/2", "blocks": [1]}]}}]},
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    return build_instance(data)


def test_generic_fuchsian_solvable():
    inst = nonresonant_hypergeometric()
    v = sigma_tilde_member(inst)
    assert v.solvable
    assert isinstance(v.certificate, ExhaustiveWitness)


def test_resonant_fuchsian_unsolvable_with_certificate():
    inst = resonant_hypergeometric()
    v = sigma_tilde_member(inst)
    assert not v.solvable
    cert = v.certificate
    assert isinstance(cert, ViolatingDecomposition)
    assert validate_decomposition(inst, cert)


def test_validate_decomposition_rejects_each_broken_certificate():
    # The resonant sample's quiver is the star with centre (0,1) and legs
    # (0,1,1), (1,1,1), (2,1,1); lambda = (1/4, 1/4, -1/4, -1/2).  Each case
    # changes the valid certificate in one place.
    inst = _sample_instance("fuchsian_resonant.json")
    cert = sigma_tilde_member(inst).certificate
    assert cert == ViolatingDecomposition(((1, 0, 1, 0), (1, 1, 0, 1)), (0, 0), 0)
    assert validate_decomposition(inst, cert)
    for broken in (
            replace(cert, parts=((0, 1, 1, 0), (1, 1, 0, 1))),    # two legs: no root
            replace(cert, parts=((-1, 0, -1, 0), (1, 1, 0, 1))),  # a negative root
            replace(cert, parts=((1, 1, 0, 0), (1, 1, 0, 1))),    # lambda . part = 1/2
            replace(cert, p_values=(1, 0)),                       # p((1,0,1,0)) = 0
            replace(cert, parts=((2, 1, 1, 1),), p_values=(0,)),  # one part alone
            replace(cert, parts=((1, 0, 1, 0), (1, 0, 1, 0))),    # sums to (2,0,2,0)
            replace(cert, p_alpha=-1)):                           # p(alpha) = 0
        assert not validate_decomposition(inst, broken), broken
    # The pair sample's lattice is level(pole 1) = level(pole 0), and
    # p(alpha) = 2.  Under lambda = 0, (1,0,1,0) + (0,1,0,1) passes every
    # check on its parts but has p-sum 0; (0,0,1,1) is a real root of
    # levels 0 and 2, off the lattice.
    pair = _sample_instance("pair_instance.json")
    zero = replace(pair, lam=(GaussRat(0),) * len(pair.alpha))
    below = ViolatingDecomposition(((1, 0, 1, 0), (0, 1, 0, 1)), (0, 0), 2)
    assert not validate_decomposition(zero, below)
    assert not validate_decomposition(zero, replace(below, parts=((0, 0, 1, 1), (0, 1, 0, 1))))


def test_alpha_off_the_lattice_fails_only_the_lattice_membership():
    # A built instance's alpha is in its lattice, so this alpha is put in by
    # hand: the simple root at the pair sample's block vertex (1, 1) has
    # level 1 at pole 1 and 0 at pole 0.
    pair = _sample_instance("pair_instance.json")
    assert lattice_rows(pair)
    unit = pair.quiver.unit((1, 1))
    tilde = sigma_tilde_member(replace(pair, alpha=unit))
    assert tilde == sigma.Verdict(False, ("pass: alpha is a positive real root",
                                          "FAIL: alpha is not in the level-sum lattice"))
    # the plain membership has no lattice stage; lambda at (1, 1) is not 0
    assert sigma_member(pair.quiver, unit, pair.lam) == sigma.Verdict(
        False, ("pass: alpha is a positive real root", "FAIL: alpha . lambda != 0"))


def test_fuchsian_verdicts_coincide_with_plain_membership():
    rng = random.Random(21)
    for _ in range(30):
        data = random_fuchsian_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        a = sigma_tilde_member(inst)
        b = sigma_member(inst.quiver, inst.alpha, inst.lam)
        assert a.solvable == b.solvable


def test_node_cap_is_a_distinct_outcome():
    inst = resonant_hypergeometric()
    with pytest.raises(SearchCapExceeded):
        sigma_tilde_member(inst, node_cap=1)


def test_reduce_pair_trace_replays():
    inst = nonresonant_hypergeometric()
    trace = reduce_pair(inst, sigma_tilde_member(inst))
    assert trace.applicable
    assert trace.terminal_kind in ("unit-composite", "unit-leg",
                                   "quasi-fundamental")
    assert replay_trace(inst, trace) == (inst.alpha, inst.lam)
    assert all(s.value for s in trace.steps if s.kind.startswith("reflect"))
    total = sum(inst.alpha)
    for step in trace.steps:
        if step.kind.startswith("reflect"):
            assert sum(step.after[0]) < sum(step.before[0])


def test_reduce_pair_stuck_exit(monkeypatch):
    # The hypergeometric pair needs reflections before it is terminal; with
    # none available the reduction stops with ReductionError.
    inst = nonresonant_hypergeometric()
    verdict = sigma_tilde_member(inst)
    assert reduce_pair(inst, verdict).steps
    monkeypatch.setattr(sigma, "_find_reflection", lambda inst, alpha, lam: None)
    with pytest.raises(ReductionError, match="stuck"):
        reduce_pair(inst, verdict)


def test_reduce_pair_inapplicable_for_unsolvable():
    inst = resonant_hypergeometric()
    trace = reduce_pair(inst, sigma_tilde_member(inst))
    assert not trace.applicable
    assert trace.steps == ()


def test_replay_trace_rejects_what_it_cannot_replay():
    inst = resonant_hypergeometric()
    with pytest.raises(ValueError, match="trace is not applicable"):
        replay_trace(inst, reduce_pair(inst, sigma_tilde_member(inst)))
    pair = (inst.alpha, inst.lam)
    unknown = ReductionTrace(True, (ReductionStep("reflect_elsewhere", (), GaussRat(1),
                                                  pair, pair),),
                             "quasi-fundamental", (), pair)
    with pytest.raises(ValueError, match="unknown step kind 'reflect_elsewhere'"):
        replay_trace(inst, unknown)


def test_reduce_pair_terminal_unit_when_already_unit():
    rng = random.Random(22)
    while True:
        data = random_instance_data(rng, n=1, p=1)
        data, _ = normalize(data)
        inst = build_instance(data)
        v = sigma_tilde_member(inst)
        if v.solvable:
            break
    trace = reduce_pair(inst, v)
    if sum(inst.alpha) == len(inst.i_irr):
        assert trace.steps == ()
        assert trace.terminal_kind == "unit-composite"


def test_verdict_invariance_under_perm_and_shift():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        base = sigma_tilde_member(inst).solvable
        spots = [(v, k) for v in inst.block_vertices()
                 for k in range(1, inst.e(*v))]
        if spots:
            vertex, s = spots[rng.randrange(len(spots))]
            assert sigma_tilde_member(perm_xi(inst, vertex, s)).solvable == base
        gamma = GaussRat(Fraction(1, rng.randint(1, 5)), rng.randint(0, 1))
        i0 = rng.randint(1, inst.num_poles - 1)
        assert sigma_tilde_member(add_shift(inst, i0, gamma)).solvable == base
        checked += 1


def test_reduction_step_invariance():
    # one legal reduction step does not change the solvable flag
    inst = nonresonant_hypergeometric()
    trace = reduce_pair(inst, sigma_tilde_member(inst))
    assert trace.applicable and trace.steps
    first = trace.steps[0]
    # replay the first step on a fresh membership call at the pair level
    from gadsp.sigma import _membership
    alpha2, lam2 = first.after
    v2 = _membership(inst.quiver, alpha2, lam2, lattice_rows(inst), 10_000_000)
    assert v2.solvable


def reference_best_decomposition(q, alpha, candidates):
    """Exhaustive reference: every candidate is tried at every remainder."""
    p_of = {c: tits(q, c)[1] for c in candidates}
    memo = {}
    zero = tuple(0 for _ in alpha)

    def best(rem):
        if rem == zero:
            return 0
        if rem not in memo:
            result = None
            for c in candidates:
                if all(x <= r for x, r in zip(c, rem)):
                    sub = best(tuple(r - x for r, x in zip(rem, c)))
                    if sub is not None and (result is None
                                            or p_of[c] + sub > result):
                        result = p_of[c] + sub
            memo[rem] = result
        return memo[rem]

    return best(tuple(alpha))


def test_best_decomposition_deep_remainder():
    # 1200 parts, deeper than the interpreter's default recursion limit;
    # each simple root has p-value 0.
    q = Quiver(("a", "b"), (("a", "b"),) * 2)
    assert tits(q, (1, 0))[1] == tits(q, (0, 1))[1] == 0
    best, parts, nodes = _best_decomposition((600, 600), {(1, 0): 0, (0, 1): 0},
                                             10**7)
    assert best == 0
    assert sorted(parts) == [(0, 1)] * 600 + [(1, 0)] * 600
    assert nodes == 1200


def reference_search(alpha, p_of, node_cap):
    """_best_decomposition as it was before the bitset index: each node tests
    every member of its lead group for fit, in the group's order."""
    alpha = tuple(alpha)
    groups = [[] for _ in alpha]
    for c in p_of:
        groups[next(i for i, x in enumerate(c) if x)].append(c)
    zero = (0,) * len(alpha)
    memo = {zero: (0, None)}
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


@st.composite
def decomposition_problems(draw):
    n = draw(st.integers(1, 4))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    q = Quiver(tuple(range(n)), tuple(arrows))
    alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if not any(alpha):
        alpha = (1,) + alpha[1:]
    box = [beta for beta in itertools.product(*(range(a + 1) for a in alpha))
           if any(beta)]
    candidates = draw(st.lists(st.sampled_from(box), unique=True, max_size=12))
    candidates.sort(key=lambda c: (-tits(q, c)[1], c))
    return q, alpha, candidates


@settings(max_examples=300, deadline=None)
@given(decomposition_problems())
def test_best_decomposition_matches_reference(problem):
    q, alpha, candidates = problem
    p_of = {c: tits(q, c)[1] for c in candidates}
    best, parts, _ = _best_decomposition(alpha, p_of, 10**7)
    assert best == reference_best_decomposition(q, alpha, candidates)
    if best is None:
        assert parts == ()
    else:
        assert all(c in candidates for c in parts)
        assert tuple(map(sum, zip(*parts))) == alpha
        assert sum(tits(q, c)[1] for c in parts) == best


@settings(max_examples=300, deadline=None)
@given(decomposition_problems())
def test_indexed_search_matches_reference_search(problem):
    # The bitset index picks the same children in the same order, so the
    # outcome and the node count are those of testing each member in turn.
    q, alpha, candidates = problem
    p_of = {c: tits(q, c)[1] for c in candidates}
    for order in (p_of, dict(reversed(p_of.items()))):
        want = reference_search(alpha, order, 10**7)
        assert _best_decomposition(alpha, order, 10**7) == want
        assert _best_decomposition(alpha, order, want[2]) == want
        for search in (reference_search, _best_decomposition):
            with pytest.raises(SearchCapExceeded) as info:
                search(alpha, order, want[2] - 1)
            assert str(info.value) == "decomposition search node cap exceeded"


# ---------------------------------------------------------------------------
# the candidate memo


def _count_builds(monkeypatch):
    """Start from an empty memo and record each candidate scan and each box
    closure made through sigma."""
    monkeypatch.setattr(sigma, "_last_candidates", None)
    builds = []

    def scan(bound, rows, at_most, budget=None):
        builds.append(("scan", tuple(bound), rows))
        return box_points(bound, rows, at_most, budget)

    def closure(q, bound, budget=None):
        builds.append(("closure", q, tuple(bound)))
        return positive_roots_in_box(q, bound, budget)
    monkeypatch.setattr(sigma, "box_points", scan)
    monkeypatch.setattr(sigma, "positive_roots_in_box", closure)
    return builds


def _work(run):
    budget = [10**9]
    run(budget)
    return 10**9 - budget[0]


def test_both_memberships_share_one_scan(monkeypatch):
    builds = _count_builds(monkeypatch)
    inst = nonresonant_hypergeometric()
    a = sigma_tilde_member(inst)
    b = sigma_member(inst.quiver, inst.alpha, inst.lam)
    # the lattice adds no row on a Fuchsian instance
    assert lattice_rows(inst) == ()
    assert builds == [("scan", inst.alpha, orthogonality_rows(inst.lam))]
    key, candidates, outcome = sigma._last_candidates
    assert key == (inst.quiver, inst.alpha, inst.lam, ())
    # the same verdicts as with no memo kept between the calls
    monkeypatch.setattr(sigma, "_last_candidates", None)
    assert sigma_tilde_member(inst) == a
    monkeypatch.setattr(sigma, "_last_candidates", None)
    assert sigma_member(inst.quiver, inst.alpha, inst.lam) == b
    assert sigma._last_candidates == (key, candidates, outcome)


def test_capped_scan_raises_its_own_message_and_stores_nothing(monkeypatch):
    inst = resonant_hypergeometric()
    q, alpha, lam = inst.quiver, inst.alpha, inst.lam
    rows = orthogonality_rows(lam)
    expected = sigma_member(q, alpha, lam)
    candidates = sigma._last_candidates[1]
    assert candidates
    work = _work(lambda b: list(box_points(alpha, rows, (), b)))
    assert work > 0
    monkeypatch.setattr(roots, "DEFAULT_WORK_CAP", work - 1)
    monkeypatch.setattr(sigma, "_last_candidates", None)
    with pytest.raises(SearchCapExceeded) as info:
        sigma_member(q, alpha, lam)
    assert str(info.value) == "candidate scan budget exhausted"
    assert sigma._last_candidates is None     # a failed scan stores nothing
    # a cap equal to one scan's work suffices, and the candidates are stored
    monkeypatch.setattr(roots, "DEFAULT_WORK_CAP", work)
    assert sigma_member(q, alpha, lam) == expected
    assert sigma._last_candidates[:2] == ((q, alpha, lam, ()), candidates)


def test_capped_closure_raises_as_a_fresh_build(monkeypatch):
    # lambda = 0 gives no row, so the candidates come from the closed box
    inst = nonresonant_hypergeometric()
    q, alpha = inst.quiver, inst.alpha
    lam = (GaussRat(0),) * len(alpha)
    monkeypatch.setattr(sigma, "_last_candidates", None)
    expected = sigma_member(q, alpha, lam)
    work = _work(lambda b: positive_roots_in_box(q, alpha, b))
    scan_work = _work(lambda b: fundamental_in_box(q, alpha, b))
    assert 0 < scan_work < work
    messages = set()
    for cap in (work - 1, scan_work - 1):
        with pytest.raises(SearchCapExceeded) as info:
            positive_roots_in_box(q, alpha, [cap])
        message = str(info.value)
        monkeypatch.setattr(roots, "DEFAULT_WORK_CAP", cap)
        monkeypatch.setattr(sigma, "_last_candidates", None)
        with pytest.raises(SearchCapExceeded) as info:
            sigma_member(q, alpha, lam)
        assert str(info.value) == message
        assert sigma._last_candidates is None
        messages.add(message)
    assert messages == {"root closure budget exhausted",
                        "fundamental-set scan budget exhausted"}
    monkeypatch.setattr(roots, "DEFAULT_WORK_CAP", work)
    assert sigma_member(q, alpha, lam) == expected
    assert sigma._last_candidates[0] == (q, alpha, lam, ())


def test_other_quivers_or_rows_never_share_candidates(monkeypatch):
    builds = _count_builds(monkeypatch)
    zero = (GaussRat(0), GaussRat(0))
    a2 = Quiver(("a", "b"), (("a", "b"),))
    kronecker = Quiver(("a", "b"), (("a", "b"),) * 2)
    triple = Quiver(("a", "b"), (("a", "b"),) * 3)
    alpha = (1, 1)
    verdicts = [sigma_member(q, alpha, zero) for q in (a2, kronecker, triple)]
    # (1, 1) is real for A2 and imaginary for two or more arrows; the
    # simple roots decompose it with p-sum 0, at least p(alpha) only for A2
    assert [v.solvable for v in verdicts] == [False, True, True]
    assert builds == [("closure", q, alpha) for q in (a2, kronecker, triple)]
    # the same alpha on one quiver with other rows builds again; an equal
    # lambda shares the entry
    i = GaussRat(0, 1)
    lams = [(GaussRat(1), GaussRat(-1)), (GaussRat(1), GaussRat(-1)),
            (GaussRat(2), GaussRat(-2)), (i, -i), (1 + i, -1 - i), zero]
    for lam, last in zip(lams, [None] + lams):
        del builds[:]
        assert sigma_member(kronecker, alpha, lam).solvable
        rows = orthogonality_rows(lam)
        assert builds == ([] if lam == last else
                          [("scan", alpha, rows)] if rows else
                          [("closure", kronecker, alpha)])
        kept = sigma._last_candidates
        assert kept[:2] == ((kronecker, alpha, lam, ()),
                            sigma._decomposition_candidates(kronecker, alpha, lam, ()))
        assert sigma._last_candidates is kept   # a scan alone stores nothing
        # lambda is orthogonal to neither simple root unless it is zero
        assert kept[1] == ({} if rows else {(1, 0): 0, (0, 1): 0})
    # an irregular instance: the lattice rows part the two memberships
    rng = random.Random(11)
    differ = 0
    for _ in range(10):
        inst = build_instance(normalize(random_instance_data(
            rng, n=rng.randint(2, 3), p=2))[0])
        if not lattice_rows(inst):
            continue
        monkeypatch.setattr(sigma, "_last_candidates", None)
        plain = sigma_member(inst.quiver, inst.alpha, inst.lam)
        tilde = sigma_tilde_member(inst)
        del builds[:]
        assert sigma_member(inst.quiver, inst.alpha, inst.lam) == plain
        # a verdict carries a certificate once it got to the candidates
        assert len(builds) == (plain.certificate is not None)
        differ += plain.solvable != tilde.solvable
    assert differ


def _count_searches(monkeypatch):
    """Start from an empty memo and record the alpha of each decomposition
    search made through sigma."""
    monkeypatch.setattr(sigma, "_last_candidates", None)
    searches = []

    def search(alpha, p_of, node_cap):
        searches.append(tuple(alpha))
        return _best_decomposition(alpha, p_of, node_cap)
    monkeypatch.setattr(sigma, "_best_decomposition", search)
    return searches


def test_both_memberships_of_a_fuchsian_instance_run_one_search(monkeypatch):
    searches = _count_searches(monkeypatch)
    rng = random.Random(21)
    instances = [nonresonant_hypergeometric(), resonant_hypergeometric()]
    instances += [build_instance(normalize(random_fuchsian_data(
        rng, n=rng.randint(2, 3), p=rng.randint(1, 2)))[0]) for _ in range(10)]
    shared = 0
    for inst in instances:
        assert lattice_rows(inst) == ()
        monkeypatch.setattr(sigma, "_last_candidates", None)
        del searches[:]
        tilde = sigma_tilde_member(inst)
        plain = sigma_member(inst.quiver, inst.alpha, inst.lam)
        # a verdict carries a certificate once it got to the search
        assert searches == ([inst.alpha] if tilde.certificate is not None else [])
        if not searches:
            continue
        shared += 1
        key, candidates, outcome = sigma._last_candidates
        assert outcome == _best_decomposition(inst.alpha, candidates, 10**7)
        if isinstance(plain.certificate, ExhaustiveWitness):
            # the shared outcome reports the node count of its search
            assert plain.certificate == ExhaustiveWitness(len(candidates), outcome[2])
        # the same verdicts as with no memo kept between the calls
        monkeypatch.setattr(sigma, "_last_candidates", None)
        assert sigma_member(inst.quiver, inst.alpha, inst.lam) == plain
    assert shared >= 5


def test_lattice_rows_part_the_searches(monkeypatch):
    searches = _count_searches(monkeypatch)
    rng = random.Random(11)
    both = 0
    for _ in range(10):
        inst = build_instance(normalize(random_instance_data(
            rng, n=rng.randint(2, 3), p=2))[0])
        if not lattice_rows(inst):
            continue
        monkeypatch.setattr(sigma, "_last_candidates", None)
        del searches[:]
        tilde = sigma_tilde_member(inst)
        plain = sigma_member(inst.quiver, inst.alpha, inst.lam)
        if tilde.certificate is not None and plain.certificate is not None:
            assert searches == [inst.alpha, inst.alpha]
            both += 1
    assert both >= 3


def test_a_lower_node_cap_searches_again_and_raises(monkeypatch):
    builds = _count_builds(monkeypatch)
    searches = _count_searches(monkeypatch)
    inst = resonant_hypergeometric()
    q, alpha, lam = inst.quiver, inst.alpha, inst.lam
    verdict = sigma_tilde_member(inst)
    key, candidates, outcome = sigma._last_candidates
    nodes = outcome[2]
    assert nodes > 1 and searches == [alpha]
    # a fresh search under that cap raises this message
    with pytest.raises(SearchCapExceeded) as fresh:
        _best_decomposition(alpha, candidates, nodes - 1)
    with pytest.raises(SearchCapExceeded) as info:
        sigma_member(q, alpha, lam, node_cap=nodes - 1)
    assert str(info.value) == str(fresh.value)
    # it scans again too: the memo holds the candidates with their outcome
    assert searches == [alpha, alpha] and len(builds) == 2
    # the raising search stored nothing: the outcome kept is the first one
    assert sigma._last_candidates == (key, candidates, outcome)
    # a cap of exactly the stored node count shares it
    assert sigma_tilde_member(inst, node_cap=nodes) == verdict
    assert searches == [alpha, alpha]
    assert sigma_member(q, alpha, lam, node_cap=nodes).certificate == verdict.certificate
    assert searches == [alpha, alpha] and len(builds) == 2


# ---------------------------------------------------------------------------
# the scan and the box closure check each other


def reference_candidates(q, alpha, lam, lattice):
    """The candidates by the filtered closure: every positive root of the box
    but alpha that passes the lattice and orthogonality rows, as (part,
    p-value) pairs sorted by decreasing p-value, then lexicographically."""
    in_rows = kernel_test(lattice + orthogonality_rows(lam))
    keyed = sorted((-tits(q, beta)[1], beta) for beta in positive_roots_in_box(q, alpha)
                   if beta != alpha and in_rows(beta))
    return [(beta, -neg_p) for neg_p, beta in keyed]


def _candidates_both_ways(q, alpha, lam, lattice):
    """_decomposition_candidates, then the filtered closure's reference
    candidates."""
    return (list(sigma._decomposition_candidates(q, alpha, lam, lattice).items()),
            reference_candidates(q, alpha, lam, lattice))


@st.composite
def candidate_problems(draw):
    """A quiver, alpha, and lambda orthogonal to alpha with mixed
    denominators: zero, real, imaginary or complex; sometimes with extra
    integer rows that alpha satisfies, as lattice rows are."""
    n = draw(st.integers(1, 5))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=7)) if pairs else []
    q = Quiver(tuple(range(n)), tuple(arrows))
    alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if not any(alpha):
        alpha = (1,) + alpha[1:]
    kind = draw(st.sampled_from(("zero", "real", "imaginary", "complex")))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    lam = []
    for _ in alpha:
        re = draw(part) if kind in ("real", "complex") else 0
        im = draw(part) if kind in ("imaginary", "complex") else 0
        lam.append(GaussRat(re, im))
    v = next(i for i, a in enumerate(alpha) if a)
    off = GaussRat(0)
    for a, l in zip(alpha, lam):
        off = off + a * l
    lam[v] = lam[v] - off * GaussRat(Fraction(1, alpha[v]))
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        row[v] -= sum(r * a for r, a in zip(row, alpha)) // alpha[v]
        if not sum(r * a for r, a in zip(row, alpha)):
            rows.append(tuple(row))
    return q, alpha, tuple(lam), tuple(rows)


@settings(max_examples=200, deadline=None)
@given(candidate_problems())
def test_scan_and_closure_give_the_same_candidates(problem):
    q, alpha, lam, lattice = problem
    assert not dot(alpha, lam)
    scanned, closed = _candidates_both_ways(q, alpha, lam, lattice)
    assert scanned == closed


def test_scan_and_closure_agree_on_generated_instances():
    rng = random.Random(5)
    compared = 0
    for _ in range(60):
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 3))
        inst = build_instance(normalize(data)[0])
        q, alpha, lam = inst.quiver, inst.alpha, inst.lam
        if dot(alpha, lam) or box_volume(alpha) > 20_000:
            continue
        lattice = lattice_rows(inst)
        for rows in (lattice, ()):
            scanned, closed = _candidates_both_ways(q, alpha, lam, rows)
            assert scanned == closed
            compared += bool(rows) and bool(scanned)
    assert compared >= 5     # lattice rows that leave candidates occur


def _memberships_by_closure(monkeypatch, inst):
    """Both memberships of `inst` with every candidate set taken from the
    filtered closure's reference in place of _decomposition_candidates."""
    with monkeypatch.context() as mp:
        mp.setattr(sigma, "_decomposition_candidates",
                   lambda q, alpha, lam, lattice:
                   dict(reference_candidates(q, alpha, lam, lattice)))
        return (sigma_tilde_member(inst),
                sigma_member(inst.quiver, inst.alpha, inst.lam))


def test_forced_fallback_keeps_the_verdict(monkeypatch):
    # Forcing the filtered closure onto memberships that scan gives the same
    # verdicts and certificates.
    builds = _count_builds(monkeypatch)
    rng = random.Random(11)
    instances = [nonresonant_hypergeometric(), resonant_hypergeometric()]
    instances += [build_instance(normalize(random_instance_data(
        rng, n=rng.randint(2, 3), p=2))[0]) for _ in range(10)]
    for inst in instances:
        monkeypatch.setattr(sigma, "_last_candidates", None)
        want = (sigma_tilde_member(inst),
                sigma_member(inst.quiver, inst.alpha, inst.lam))
        assert _memberships_by_closure(monkeypatch, inst) == want
    assert any(kind == "scan" for kind, *_ in builds)   # the scan did run


def test_wide_scan_sample_scans_and_matches_the_closure(monkeypatch):
    # samples/fuchsian_wide_scan.json: a Fuchsian draw (rank 5, three poles)
    # whose box holds 3,456,000 points, 12,000 of them orthogonal to lambda.
    # However many points pass, a membership with a row scans them.
    path = pathlib.Path(__file__).resolve().parents[1] / "samples" / "fuchsian_wide_scan.json"
    inst = build_instance(normalize(parse_spectral(json.loads(path.read_text())))[0])
    q, alpha, lam = inst.quiver, inst.alpha, inst.lam
    rows = orthogonality_rows(lam)
    assert lattice_rows(inst) == () and rows
    assert box_volume(alpha) == 3_456_000
    assert sum(1 for _ in box_points(alpha, rows, ())) == 12_000
    builds = _count_builds(monkeypatch)
    got = (sigma_tilde_member(inst), sigma_member(q, alpha, lam))
    assert builds == [("scan", alpha, rows)]
    assert list(sigma._last_candidates[1].items()) == \
        reference_candidates(q, alpha, lam, ())
    assert _memberships_by_closure(monkeypatch, inst) == got


def test_deep_search_sample_keeps_its_verdicts():
    # samples/mixed_deep_search.json: a mixed draw (three poles, 15 vertices)
    # whose plain search has 5,228 candidates and visits 5,220 nodes; testing
    # every member of a lead group at each node took about 25.8 million fit
    # tests there.  The verdicts and witnesses are those of that search.
    path = pathlib.Path(__file__).resolve().parents[1] / "samples" / "mixed_deep_search.json"
    inst = build_instance(normalize(parse_spectral(json.loads(path.read_text())))[0])
    q, alpha, lam = inst.quiver, inst.alpha, inst.lam
    assert box_volume(alpha) == 4_644_864 and len(lattice_rows(inst)) == 2
    tilde = sigma_tilde_member(inst)
    plain = sigma_member(q, alpha, lam)
    assert tilde.solvable and plain.solvable
    assert tilde.certificate == ExhaustiveWitness(961, 956)
    assert plain.certificate == ExhaustiveWitness(5228, 5220)
    assert tilde.reasons[-1] == ("pass: every proper orthogonal lattice decomposition"
                                 " has p-sum < p(alpha) = 53")
    assert plain.reasons[-1] == ("pass: every proper orthogonal decomposition"
                                 " has p-sum < p(alpha) = 53")


def test_samples_past_the_old_box_gate_keep_their_verdicts(monkeypatch):
    # Two draws whose boxes are above the 5,000,000 points that once refused
    # them: samples/fuchsian_large_box.json (no lattice row) and
    # samples/mixed_large_box.json (one lattice row).  The verdicts and
    # witnesses are those of their first decisions.
    fuchsian = _sample_instance("fuchsian_large_box.json")
    mixed = _sample_instance("mixed_large_box.json")
    assert box_volume(fuchsian.alpha) == 7_776_000 and lattice_rows(fuchsian) == ()
    assert box_volume(mixed.alpha) == 29_859_840 and len(lattice_rows(mixed)) == 1
    for inst, witnesses in ((fuchsian, (ExhaustiveWitness(1540, 1535),) * 2),
                            (mixed, (ExhaustiveWitness(539, 532),
                                     ExhaustiveWitness(7389, 7380)))):
        monkeypatch.setattr(sigma, "_last_candidates", None)
        tilde = sigma_tilde_member(inst)
        plain = sigma_member(inst.quiver, inst.alpha, inst.lam)
        assert tilde.solvable and plain.solvable
        assert (tilde.certificate, plain.certificate) == witnesses
    # the scanned candidates of the Fuchsian draw are the filtered closure's
    q, alpha, lam = fuchsian.quiver, fuchsian.alpha, fuchsian.lam
    scanned, closed = _candidates_both_ways(q, alpha, lam, ())
    assert scanned == closed and len(scanned) == 1540


@st.composite
def generated_instances(draw):
    """(normalized data, instance) of one gensamples draw, Fuchsian or mixed,
    whose box holds at most 20,000 points."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        data = random_fuchsian_data(rng, n=rng.randint(1, 5), p=rng.randint(1, 3))
    else:
        data = random_instance_data(rng, n=rng.randint(1, 4), p=rng.randint(1, 3))
    data = normalize(data)[0]
    inst = build_instance(data)
    assume(box_volume(inst.alpha) <= 20_000)
    return data, inst


@settings(max_examples=100, deadline=None)
@given(generated_instances())
def test_violating_certificates_validate(drawn):
    # With lambda = 0 every root is orthogonal to it, so a draw's alpha
    # decomposes far more often than under its own lambda.
    _, inst = drawn
    for lam in (inst.lam, (GaussRat(0),) * len(inst.alpha)):
        case = replace(inst, lam=lam)
        verdict = sigma_tilde_member(case)
        if isinstance(verdict.certificate, ViolatingDecomposition):
            assert validate_decomposition(case, verdict.certificate)


@settings(max_examples=100, deadline=None)
@given(generated_instances())
def test_solvable_verdicts_reduce_and_replay(drawn):
    _, inst = drawn
    verdict = sigma_tilde_member(inst)
    trace = reduce_pair(inst, verdict)
    assert trace.applicable == verdict.solvable
    if trace.applicable:
        assert replay_trace(inst, trace) == (tuple(inst.alpha), tuple(inst.lam))


@settings(max_examples=100, deadline=None)
@given(generated_instances())
def test_normalized_data_round_trips_through_its_document(drawn):
    data, _ = drawn
    document = json.loads(dumps(spectral_to_document(data)))
    assert parse_spectral(document) == data


def _benchmark_instances():
    """The fuchsian-agree and irregular-check instances of perfbench/inputs,
    read only."""
    inputs = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
    docs = [entry["instance"] for entry in
            json.loads((inputs / "fuchsian-agree.json").read_text())["entries"]]
    for entry in json.loads((inputs / "irregular-check.json").read_text())["entries"]:
        path = inputs / "irregular-check" / (entry["name"] + ".json")
        docs.append(json.loads(path.read_text()))
    return [build_instance(normalize(parse_spectral(doc))[0]) for doc in docs]


def test_benchmark_candidates_match_the_filtered_closure(monkeypatch):
    # The scan root-tests each point that passes the rows; the closure never
    # calls is_root.  Both give the same candidates in the same order, for
    # plain and lattice membership alike.
    tested = []
    monkeypatch.setattr(sigma, "is_root",
                        lambda q, beta: tested.append(beta) or roots.is_root(q, beta))
    memberships = 0
    for inst in _benchmark_instances():
        q, alpha, lam = inst.quiver, inst.alpha, inst.lam
        for lattice in ((), lattice_rows(inst)):
            candidates = sigma._decomposition_candidates(q, alpha, lam, lattice)
            assert list(candidates.items()) == \
                reference_candidates(q, alpha, lam, lattice)
            memberships += 1
    assert memberships == 164
    # most memberships scan: 7,704 points are root-tested
    assert len(tested) > 7000


# ---------------------------------------------------------------------------
# The Sigma-tilde verdict depends on the conjugacy classes alone: not on the
# order of the blocks in a document, nor on an additive twist compensated at
# infinity.  `gadsp check` exits with a documented code whatever it is fed.


@settings(max_examples=50, deadline=None)
@given(generated_instances(), st.randoms(use_true_random=False))
def test_tilde_verdict_ignores_block_order_in_the_document(drawn, rnd):
    data, inst = drawn
    document = json.loads(dumps(spectral_to_document(data)))
    for pole in document["poles"]:
        rnd.shuffle(pole["blocks"])
    shuffled = build_instance(normalize(parse_spectral(document))[0])
    assert shuffled.alpha == inst.alpha and shuffled.lam == inst.lam
    verdict = sigma_tilde_member(inst)
    sigma._last_candidates = None   # decide the shuffled instance afresh
    assert sigma_tilde_member(shuffled) == verdict


@settings(max_examples=50, deadline=None)
@given(generated_instances(), st.data())
def test_tilde_verdict_is_unchanged_by_add_shift(drawn, data):
    _, inst = drawn
    assume(inst.data.p >= 1)
    i0 = data.draw(st.integers(1, inst.data.p))
    gamma = data.draw(st.sampled_from(POOL[1:]))
    shifted = add_shift(inst, i0, gamma)
    assert shifted.alpha == inst.alpha
    assert sigma_tilde_member(shifted).solvable == sigma_tilde_member(inst).solvable


def _value_paths(doc, path=()):
    """The key paths to every value inside a JSON document, outermost first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _value_paths(value, path + (key,))


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 9),
                        st.sampled_from(["", "x", "1/0", "1+i", "infinity", "-1/2"]),
                        st.just([]), st.just({}), st.just(["1"]))


@settings(max_examples=60, deadline=None)
@given(generated_instances(), st.data())
def test_check_exits_with_a_documented_code(drawn, data):
    normalized, inst = drawn
    document = json.loads(dumps(spectral_to_document(normalized)))
    mutated = data.draw(st.booleans())
    if mutated:
        path = data.draw(st.sampled_from(list(_value_paths(document))[1:]))
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(JSON_VALUES)
    flags = data.draw(st.sampled_from([[], ["--reduce"], ["--max-nodes", "1"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["check", path] + flags)
    event("exit %d" % code)
    assert code in (0, 1, 2, 3, 4)
    assert (out.getvalue() == "") == (code >= 2)
    if not mutated and flags != ["--max-nodes", "1"]:
        sigma._last_candidates = None
        assert code == (0 if sigma_tilde_member(inst).solvable else 1)
