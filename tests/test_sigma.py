import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.builder import add_shift, build_instance, perm_xi
from gadsp.gensamples import random_fuchsian_data, random_instance_data
from gadsp.numeric import GaussRat
from gadsp.quiver import Quiver, tits
from gadsp import sigma
from gadsp.roots import SearchCapExceeded, fundamental_in_box, positive_roots_in_box
from gadsp.serialize import parse_spectral
from gadsp.sigma import (
    ExhaustiveWitness,
    ViolatingDecomposition,
    _best_decomposition,
    reduce_pair,
    replay_trace,
    sigma_member,
    sigma_tilde_member,
    validate_decomposition,
)
from gadsp.spectral import normalize


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


def test_reduce_pair_inapplicable_for_unsolvable():
    inst = resonant_hypergeometric()
    trace = reduce_pair(inst, sigma_tilde_member(inst))
    assert not trace.applicable
    assert trace.steps == ()


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
    from gadsp.builder import lattice_member
    alpha2, lam2 = first.after
    v2 = _membership(inst.quiver, alpha2, lam2,
                     lambda b: lattice_member(inst, b),
                     10_000_000, 5_000_000, 10_000_000)
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


# ---------------------------------------------------------------------------
# the shared root table


def _count_builds(monkeypatch):
    """Start from an empty table and count the builds made through sigma."""
    monkeypatch.setattr(sigma, "_last_table", None)
    builds = []

    def counting(q, bound, budget=None):
        builds.append((q, tuple(bound)))
        return positive_roots_in_box(q, bound, budget)
    monkeypatch.setattr(sigma, "positive_roots_in_box", counting)
    return builds


def _cap_message(q, alpha, work_cap):
    with pytest.raises(SearchCapExceeded) as info:
        positive_roots_in_box(q, alpha, [work_cap])
    return str(info.value)


def test_both_memberships_share_one_table(monkeypatch):
    builds = _count_builds(monkeypatch)
    inst = nonresonant_hypergeometric()
    a = sigma_tilde_member(inst)
    b = sigma_member(inst.quiver, inst.alpha, inst.lam)
    assert builds == [(inst.quiver, inst.alpha)]
    # the same verdicts as with no table kept between the calls
    monkeypatch.setattr(sigma, "_last_table", None)
    assert sigma_tilde_member(inst) == a
    monkeypatch.setattr(sigma, "_last_table", None)
    assert sigma_member(inst.quiver, inst.alpha, inst.lam) == b


def test_table_hit_below_recorded_work_raises_as_fresh_build(monkeypatch):
    builds = _count_builds(monkeypatch)
    inst = nonresonant_hypergeometric()
    q, alpha, lam = inst.quiver, inst.alpha, inst.lam
    expected = sigma_member(q, alpha, lam)
    work = sigma._last_table[2]
    scan = [10**9]
    fundamental_in_box(q, alpha, scan)
    scan_work = 10**9 - scan[0]
    assert 0 < scan_work < work
    for cap in (work - 1, scan_work - 1):
        message = _cap_message(q, alpha, cap)
        sigma_member(q, alpha, lam)          # the table is stored again
        with pytest.raises(SearchCapExceeded) as info:
            sigma_member(q, alpha, lam, work_cap=cap)
        assert str(info.value) == message
        assert sigma._last_table is None     # a failed build stores nothing
    assert {_cap_message(q, alpha, work - 1),
            _cap_message(q, alpha, scan_work - 1)} == {
        "root closure budget exhausted", "fundamental-set scan budget exhausted"}
    # a cap equal to the recorded work is a hit
    sigma_member(q, alpha, lam)
    count = len(builds)
    assert sigma_member(q, alpha, lam, work_cap=work) == expected
    assert len(builds) == count


def test_quivers_with_equal_alpha_never_share_a_table(monkeypatch):
    builds = _count_builds(monkeypatch)
    lam = (GaussRat(0), GaussRat(0))
    a2 = Quiver(("a", "b"), (("a", "b"),))
    kronecker = Quiver(("a", "b"), (("a", "b"),) * 2)
    triple = Quiver(("a", "b"), (("a", "b"),) * 3)
    alpha = (1, 1)
    verdicts = [sigma_member(q, alpha, lam) for q in (a2, kronecker, triple)]
    assert [q for q, _ in builds] == [a2, kronecker, triple]
    for q in (a2, kronecker, triple):
        table = sigma._root_table(q, alpha, 10**6)
        assert table == positive_roots_in_box(q, alpha)
    # (1, 1) is real for A2 and imaginary for two or more arrows; the
    # simple roots decompose it with p-sum 0, at least p(alpha) only for A2
    assert [v.solvable for v in verdicts] == [False, True, True]
