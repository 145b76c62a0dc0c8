import itertools
import json
import math
import pathlib
import random
import tracemalloc
from collections import deque
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.builder import build_instance, lattice_member
from gadsp.cli import main
from gadsp.gensamples import (
    random_instance_data,
    random_lattice_vector,
    random_multi_index,
)
from gadsp.quiver import (
    Quiver,
    composite_eps,
    kernel_test,
    orthogonality_rows,
    pair_with_unit,
    reflect_dim,
    sym_form,
    tits,
)
from gadsp.roots import (
    RootClass,
    SearchCapExceeded,
    box_points,
    classify_tame,
    composite_is_real_root,
    fundamental_in_box,
    generator_pairing,
    is_root,
    lift_pairing,
    lift_xi,
    positive_roots_in_box,
    quasi_fundamental_test,
    replay_witness,
    xi_image,
)
from gadsp import roots, sigma
from gadsp.serialize import parse_spectral
from gadsp.sigma import sigma_member
from gadsp.spectral import normalize


SAMPLES = pathlib.Path(__file__).resolve().parents[1] / "samples"


def d4_star():
    vs = ("c", "l1", "l2", "l3", "l4")
    return Quiver(vs, tuple(("l%d" % i, "c") for i in range(1, 5)))


def test_simple_roots_are_real():
    q = d4_star()
    for v in q.vertices:
        rc = is_root(q, q.unit(v))
        assert rc.kind == "real"
        assert replay_witness(q, rc) == q.unit(v)


def test_d4_delta_is_imaginary():
    q = d4_star()
    delta = (2, 1, 1, 1, 1)
    rc = is_root(q, delta)
    assert rc.kind == "imaginary"
    assert rc.terminal == delta  # already in the fundamental set
    assert is_root(q, tuple(-x for x in delta)).kind == "imaginary"


def test_disconnected_support_is_not_root():
    q = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert is_root(q, (1, 0, 1)).kind == "not_root"


def test_mixed_sign_is_not_root():
    q = d4_star()
    assert is_root(q, (1, -1, 0, 0, 0)).kind == "not_root"


def test_real_root_witness_replays():
    q = d4_star()
    beta = (2, 1, 1, 1, 0)  # s_c applied to the unit at c, etc.
    rc = is_root(q, beta)
    assert rc.kind == "real"
    assert replay_witness(q, rc) == beta


def test_enumeration_matches_pointwise_decision():
    rng = random.Random(9)
    for _ in range(6):
        data = random_instance_data(rng, n=rng.randint(1, 2), p=1)
        data, _ = normalize(data)
        q = build_instance(data).quiver
        if len(q.vertices) > 5:
            continue
        bound = tuple(3 for _ in q.vertices)
        table = positive_roots_in_box(q, bound)
        for beta in itertools.product(*(range(4) for _ in q.vertices)):
            rc = is_root(q, beta)
            assert (rc.kind != "not_root") == (beta in table)
            if beta in table:
                assert rc.kind == table[beta]


def test_fundamental_in_box_d4():
    q = d4_star()
    found = fundamental_in_box(q, (4, 2, 2, 2, 2))
    deltas = [(2 * m, m, m, m, m) for m in (1, 2)]
    for d in deltas:
        assert d in found
    for beta in found:
        assert all(2 * beta[i] - sum(beta[w] for w in q.nbrs[i]) <= 0
                   for i in range(5))


def _sample_instance(name):
    doc = json.loads((SAMPLES / name).read_text())
    return build_instance(normalize(parse_spectral(doc))[0])


def test_enum_box_cap():
    # No limit reads the box's volume: samples/fuchsian_large_box.json holds
    # 7,776,000 points, above the 5,000,000 that once refused every larger
    # box, and its rows leave 44,280 points to scan, for 48,730 units of work.
    inst = _sample_instance("fuchsian_large_box.json")
    assert math.prod(a + 1 for a in inst.alpha) == 7_776_000
    budget = [48_730]
    assert sum(1 for _ in box_points(inst.alpha, orthogonality_rows(inst.lam), (),
                                     budget)) == 44_280
    assert budget == [0]
    assert sigma_member(inst.quiver, inst.alpha, inst.lam).solvable


def _d4_like_instance():
    # Fuchsian rank 2 with all residues two distinct eigenvalues: the
    # quiver is the 4-leg star once there are three finite poles.
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}, {"value": "1", "blocks": [1]}]}}]},
        ] + [
            {"point": "a%d" % i, "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}, {"value": "1", "blocks": [1]}]}}]}
            for i in (1, 2, 3)
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    return build_instance(data)


def test_quasi_fundamental_examples():
    inst = _d4_like_instance()
    q = inst.quiver
    delta = tuple(2 if len(v) == 2 else 1 for v in q.vertices)
    assert quasi_fundamental_test(inst, delta)
    assert is_root(q, delta).kind == "imaginary"
    mi = tuple(1 for _ in range(inst.num_poles))
    assert not quasi_fundamental_test(inst, composite_eps(inst, mi))
    assert classify_tame(inst, delta) == "D4-like"


def test_quasi_fundamental_needs_lattice():
    rng = random.Random(11)
    while True:
        data = random_instance_data(rng, n=2, p=1, max_order=2)
        data, _ = normalize(data)
        inst = build_instance(data)
        if len(inst.i_irr) > 1:
            break
    i = sorted(inst.i_irr - {0})[0]
    assert not quasi_fundamental_test(inst, inst.quiver.unit((i, 1)))


def test_quasi_fundamental_rejects_vectors_off_the_lattice():
    # order5_instance has irregular poles 0 and 1; a unit vector at pole 0
    # has level sums 1 there and 0 at pole 1
    inst = _sample_instance("order5_instance.json")
    beta = inst.quiver.unit((0, 1))
    assert not lattice_member(inst, beta)
    assert not quasi_fundamental_test(inst, beta)


def test_lift_of_composite_is_single_generator():
    rng = random.Random(12)
    for _ in range(10):
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        mi = random_multi_index(rng, inst)
        lift = lift_xi(inst, composite_eps(inst, mi))
        assert lift.coeffs == ((("J", mi), 1),)
        assert composite_is_real_root(inst, mi)


def test_lift_isometry_on_random_pairs():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        beta = random_lattice_vector(rng, inst)
        gamma = random_lattice_vector(rng, inst)
        if not any(beta) or not any(gamma):
            continue
        lb, lg = lift_xi(inst, beta), lift_xi(inst, gamma)
        assert xi_image(inst, lb) == beta
        assert lift_pairing(inst, lb, lg) == sym_form(inst.quiver, beta, gamma)
        assert lift_pairing(inst, lb, lb) == sym_form(inst.quiver, beta, beta)
        checked += 1


def test_lift_positive_at_extremes():
    rng = random.Random(14)
    checked = 0
    while checked < 60:
        data = random_instance_data(rng, n=rng.randint(2, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        beta = random_lattice_vector(rng, inst)
        q = inst.quiver
        level = sum(beta[q.index((0, j))] for j in range(1, inst.m(0) + 1))
        if level == 0:
            continue
        from gadsp.roots import extremal_multi_indices
        lo, hi = extremal_multi_indices(inst, beta)
        lift = lift_xi(inst, beta).as_dict()
        assert lift.get(("J", lo), 0) > 0
        assert lift.get(("J", hi), 0) > 0
        checked += 1


def _quadrangle_instance():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 2, "blocks": [
                {"size": 1, "q": ["0"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}}]},
            {"point": "a1", "order": 2, "blocks": [
                {"size": 1, "q": ["0"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}}]},
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    return build_instance(data)


def test_classify_quadrangle_double_edge():
    inst = _quadrangle_instance()
    beta = (1, 1, 1, 1)
    assert quasi_fundamental_test(inst, beta)
    assert tits(inst.quiver, beta) == (0, 1)
    assert classify_tame(inst, beta) == "quadrangle-double-edge"
    # the generator pairings realize the crossed double-edge pattern
    mis = sorted(set(mi for mi in inst.multi_indices()))
    gram = {(a, b): generator_pairing(inst, ("J", a), ("J", b))
            for a in mis for b in mis}
    assert gram[((1, 1), (2, 2))] == -2
    assert gram[((1, 2), (2, 1))] == -2
    assert gram[((1, 1), (1, 2))] == 0


def test_classify_wild_guard():
    inst = _quadrangle_instance()
    beta = (2, 2, 2, 2)
    if quasi_fundamental_test(inst, beta):
        qv, _ = tits(inst.quiver, beta)
        if qv < 0:
            assert classify_tame(inst, beta) == "wild"


def test_classify_rejects_non_fundamental():
    inst = _d4_like_instance()
    with pytest.raises(ValueError):
        classify_tame(inst, composite_eps(inst, tuple(1 for _ in range(4))))


def test_quasi_fundamental_members_are_imaginary_boxed():
    # every boxed quasi-fundamental member classifies imaginary
    rng = random.Random(15)
    for _ in range(6):
        data = random_instance_data(rng, n=rng.randint(1, 2), p=1)
        data, _ = normalize(data)
        inst = build_instance(data)
        q = inst.quiver
        if len(q.vertices) > 6:
            continue
        bound = tuple(min(3 * a, 6) for a in inst.alpha)
        for beta in itertools.product(*(range(b + 1) for b in bound)):
            if any(beta) and quasi_fundamental_test(inst, beta):
                assert is_root(q, beta).kind == "imaginary"


def _star_instance(rank, eigen_plans):
    """Fuchsian instance with prescribed leg profiles.

    eigen_plans: per pole, a list of (value, jordan blocks) pairs; the xi
    order follows the listed order.
    """
    poles = []
    for idx, plan in enumerate(eigen_plans):
        point = "infinity" if idx == 0 else "a%d" % idx
        poles.append({"point": point, "order": 1, "blocks": [
            {"size": rank, "q": [], "residue": {"jordan": [
                {"value": v, "blocks": list(b)} for v, b in plan]}}]})
    data, _ = normalize(parse_spectral({"rank": rank, "poles": poles}))
    return build_instance(data)


def _irr_instance(rank, q_tops, finite_plans, order):
    """Pole at infinity with size-1 blocks carrying distinct leading
    coefficients; finite regular poles with prescribed Jordan plans."""
    blocks = [{"size": 1, "q": ["0"] * (order - 2) + [c],
               "residue": {"jordan": [{"value": "0", "blocks": [1]}]}}
              for c in q_tops]
    poles = [{"point": "infinity", "order": order, "blocks": blocks}]
    for idx, plan in enumerate(finite_plans, start=1):
        poles.append({"point": "a%d" % idx, "order": 1, "blocks": [
            {"size": rank, "q": [], "residue": {"jordan": [
                {"value": v, "blocks": list(b)} for v, b in plan]}}]})
    data, _ = normalize(parse_spectral({"rank": rank, "poles": poles}))
    return build_instance(data)


def test_classify_all_affine_tags():
    # E6-like: rank-3 star, three legs of length 2
    plan3 = [("0", (1,)), ("1", (1,)), ("2", (1,))]
    inst = _star_instance(3, [plan3, plan3, plan3])
    beta_dict = {(0, 1): 3}
    for i in range(3):
        beta_dict[(i, 1, 1)] = 2
        beta_dict[(i, 1, 2)] = 1
    beta = tuple(beta_dict.get(v, 0) for v in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "E6-like"

    # E7-like: rank-4 star, legs (3, 3, 1)
    plan4 = [("0", (1,)), ("1", (1,)), ("2", (1,)), ("-1", (1,))]
    plan_half = [("0", (1, 1)), ("1", (1, 1))]
    inst = _star_instance(4, [plan4, plan4, plan_half])
    beta_dict = {(0, 1): 4}
    for i in (0, 1):
        for k, val in enumerate((3, 2, 1), start=1):
            beta_dict[(i, 1, k)] = val
    beta_dict[(2, 1, 1)] = 2
    beta = tuple(beta_dict.get(v, 0) for v in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "E7-like"

    # E8-like: rank-6 star, legs (5, 2, 1)
    plan6 = [("0", (1,)), ("1", (1,)), ("2", (1,)),
             ("-1", (1,)), ("1/2", (1,)), ("1i", (1,))]
    plan_c = [("0", (1, 1)), ("1", (1, 1)), ("2", (1, 1))]
    plan_d = [("0", (1, 1, 1)), ("1", (1, 1, 1))]
    inst = _star_instance(6, [plan6, plan_c, plan_d])
    beta_dict = {(0, 1): 6}
    for k, val in enumerate((5, 4, 3, 2, 1), start=1):
        beta_dict[(0, 1, k)] = val
    beta_dict[(1, 1, 1)] = 4
    beta_dict[(1, 1, 2)] = 2
    beta_dict[(2, 1, 1)] = 3
    beta = tuple(beta_dict.get(v, 0) for v in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "E8-like"

    # double-edge: order-4 infinity, two blocks with a degree-4 gap
    inst = _irr_instance(2, ["1", "2"], [], 4)
    beta = tuple(1 if len(v) == 2 else 0 for v in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "double-edge"

    # triangle: order-3 infinity (gap degree 3) plus one two-eigenvalue
    # regular pole
    inst = _irr_instance(2, ["1", "2"],
                         [[("0", (1,)), ("1", (1,))]], 3)
    beta = tuple(1 for _ in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "triangle"

    # A3-cycle: order-2 infinity (gap degree 2, no intra arrows) plus two
    # two-eigenvalue regular poles
    inst = _irr_instance(2, ["1", "2"],
                         [[("0", (1,)), ("1", (1,))],
                          [("0", (1,)), ("2", (1,))]], 2)
    beta = tuple(1 for _ in inst.quiver.vertices)
    assert classify_tame(inst, beta) == "A3-cycle"


def test_witness_replays_for_all_boxed_roots():
    rng = random.Random(31)
    for _ in range(4):
        data = random_instance_data(rng, n=rng.randint(1, 2), p=1)
        data, _ = normalize(data)
        q = build_instance(data).quiver
        bound = tuple(4 for _ in q.vertices)
        for beta, kind in positive_roots_in_box(q, bound).items():
            rc = is_root(q, beta)
            assert rc.kind == kind
            assert replay_witness(q, rc) == beta


def reference_positive_roots_in_box(q, bound, budget):
    """The closure as first written: every pairing recomputed from its
    neighbors, one unit of work per vertex tried."""
    nv = len(q.vertices)
    found = {}
    queue = deque()
    for i in range(nv):
        if bound[i] >= 1:
            unit = tuple(1 if k == i else 0 for k in range(nv))
            found[unit] = "real"
            queue.append(unit)
    for beta in fundamental_in_box(q, bound, budget):
        if beta not in found:
            found[beta] = "imaginary"
            queue.append(beta)
    while queue:
        beta = queue.popleft()
        kind = found[beta]
        for idx in range(nv):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchCapExceeded("root closure budget exhausted")
            c = pair_with_unit(q, beta, idx)
            if c == 0:
                continue
            nb = beta[idx] - c
            if nb < 0 or nb > bound[idx]:
                continue
            new = beta[:idx] + (nb,) + beta[idx + 1:]
            if new not in found:
                found[new] = kind
                queue.append(new)
    return found


def _closure_outcome(closure, q, bound, cap):
    budget = [cap]
    try:
        table = closure(q, bound, budget)
    except SearchCapExceeded as exc:
        return "raised", str(exc)
    return list(table.items()), budget[0]


@st.composite
def boxed_quivers(draw):
    n = draw(st.integers(1, 5))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=7)) if pairs else []
    # parallel arrows: repeat some of the drawn ones
    arrows += draw(st.lists(st.sampled_from(arrows), max_size=3)) if arrows else []
    bound = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return Quiver(tuple(range(n)), tuple(arrows)), bound


@settings(max_examples=300, deadline=None)
@given(boxed_quivers(), st.integers(0, 4000))
def test_closure_matches_reference(problem, cap):
    q, bound = problem
    # the same roots in the same order, the same work, and the same cap trips
    full = _closure_outcome(positive_roots_in_box, q, bound, 10**7)
    assert full == _closure_outcome(reference_positive_roots_in_box, q, bound,
                                    10**7)
    assert (_closure_outcome(positive_roots_in_box, q, bound, cap)
            == _closure_outcome(reference_positive_roots_in_box, q, bound, cap))


def reference_support_connected(q, beta):
    """Whether the vertices where beta is nonzero span a connected
    subquiver: a breadth-first search over the arrows, which shares nothing
    with Quiver.support_connected."""
    supp = {i for i, b in enumerate(beta) if b}
    if not supp:
        return False
    start = min(supp)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for s, t in q.arrow_indices():
            w = t if s == v else s if t == v else None
            if w in supp and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == supp


# The root test as first written: the support checked and every pairing
# recomputed on every step, under an iteration cap.
def reference_is_root(q: Quiver, beta) -> RootClass:
    """Decide real root / imaginary root / not a root.

    Nonzero vectors of mixed sign are never roots.  Non-negative vectors are
    reflected downward at any vertex pairing positively until a simple root
    (real), a fundamental-set member (imaginary), or an exit from the
    positive cone (not a root) is reached.
    """
    if len(beta) != len(q.vertices):
        raise ValueError("vector/vertex index mismatch")
    if all(b == 0 for b in beta):
        return RootClass("not_root")
    has_pos = any(b > 0 for b in beta)
    has_neg = any(b < 0 for b in beta)
    if has_pos and has_neg:
        return RootClass("not_root")
    negated = has_neg
    cur = tuple(-b for b in beta) if negated else tuple(beta)
    used = []
    cap = 10 * sum(cur) + 10
    for _ in range(cap):
        if not reference_support_connected(q, cur):
            return RootClass("not_root")
        if sum(cur) == 1:
            return RootClass("real", negated, tuple(used), cur)
        pivot = None
        for idx in range(len(cur)):
            if cur[idx] and pair_with_unit(q, cur, idx) > 0:
                pivot = idx
                break
        if pivot is None:
            # (cur, eps_a) <= 0 at every supported vertex, hence everywhere.
            return RootClass("imaginary", negated, tuple(used), cur)
        v = q.vertices[pivot]
        cur = reflect_dim(q, v, cur)
        used.append(v)
        if cur[pivot] < 0:
            return RootClass("not_root")
    raise AssertionError("root decision did not terminate (bug guard)")


def _split_support(q, beta, side):
    """beta with each vertex of side False that an arrow joins to side True
    set to zero: no arrow joins the two sides' supports."""
    out = list(beta)
    for s, t in q.arrow_indices():
        if side[s] != side[t]:
            out[t if side[s] else s] = 0
    return tuple(out)


@st.composite
def root_test_vectors(draw, q, bound):
    """A vector over the box `bound` of one of five shapes: zero, positive,
    all-negative, mixed-sign, or positive on two sides that no arrow joins
    (disconnected support whenever both sides keep a nonzero entry)."""
    n = len(bound)
    shape = draw(st.sampled_from(
        ("zero", "positive", "negative", "mixed", "disconnected")))
    if shape == "zero":
        return (0,) * n
    if shape == "mixed":
        return tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    beta = tuple(draw(st.integers(0, max(b, 1))) for b in bound)
    if shape == "negative":
        return tuple(-b for b in beta)
    if shape == "disconnected":
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return _split_support(q, beta, side)
    return beta


@settings(max_examples=500, deadline=None)
@given(boxed_quivers(), st.data())
def test_is_root_matches_reference(problem, data):
    q, bound = problem
    beta = data.draw(root_test_vectors(q, bound))
    rc = is_root(q, beta)
    # the whole outcome: kind, sign, reflections and terminal
    assert rc == reference_is_root(q, beta)
    if rc.kind != "not_root":
        assert replay_witness(q, rc) == beta


@settings(max_examples=500, deadline=None)
@given(boxed_quivers(), st.data())
def test_support_connected_matches_search(problem, data):
    # parallel arrows, isolated vertices, signs and the zero vector
    q, bound = problem
    beta = data.draw(root_test_vectors(q, bound))
    assert q.support_connected(beta) == reference_support_connected(q, beta)


def test_is_root_chains_that_split_their_support():
    # A3: s_b (1, 2, 1) = (1, 0, 1), then s_a leaves the cone.
    a3 = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c")))
    # Two Kronecker pairs joined through m: s_m (1, 1, 2, 1, 1) =
    # (1, 1, 0, 1, 1), which pairs <= 0 everywhere but is disconnected.
    twin = Quiver(("a", "b", "m", "c", "d"),
                  (("a", "b"), ("a", "b"), ("b", "m"), ("m", "c"),
                   ("c", "d"), ("c", "d")))
    for q, beta, pivot, split in ((a3, (1, 2, 1), "b", (1, 0, 1)),
                                  (twin, (1, 1, 2, 1, 1), "m", (1, 1, 0, 1, 1))):
        assert reflect_dim(q, pivot, beta) == split
        assert not reference_support_connected(q, split)
        for sign in (1, -1):
            vec = tuple(sign * b for b in beta)
            assert (is_root(q, vec) == reference_is_root(q, vec)
                    == RootClass("not_root"))


def test_is_root_shares_one_not_root_outcome():
    q = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c")))
    outcomes = [is_root(q, beta) for beta in
                ((0, 0, 0), (1, -1, 0), (1, 0, 1), (1, 2, 1), (-1, -2, -1))]
    assert all(rc is outcomes[0] for rc in outcomes)
    assert outcomes[0] == RootClass("not_root")


def test_closure_reaches_imaginary_and_zero_bounds():
    # Kronecker quiver with a third vertex bounded by zero: the imaginary
    # roots (m, m) appear and nothing leaves the zero coordinate.
    q = Quiver(("a", "b", "c"), (("a", "b"), ("a", "b"), ("b", "c")))
    bound = (3, 3, 0)
    table = positive_roots_in_box(q, bound)
    assert table == reference_positive_roots_in_box(q, bound, [10**7])
    assert table[(1, 1, 0)] == table[(2, 2, 0)] == "imaginary"
    assert table[(2, 1, 0)] == "real"
    assert all(beta[2] == 0 for beta in table)


def reference_fundamental_in_box(q, bound):
    """The fundamental-set scan as first written: depth first in
    breadth-first order, every assigned vertex rechecked at every search
    node."""
    nv = len(q.vertices)
    if nv == 0:
        return []
    start = max(range(nv), key=lambda i: (len(q.nbrs[i]), -i))
    order = []
    seen = {start}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        order.append(v)
        for w in q.nbrs[v]:
            if w not in seen:
                seen.add(w)
                dq.append(w)
    for v in range(nv):
        if v not in seen:
            seen.add(v)
            order.append(v)
    pos_of = {v: t for t, v in enumerate(order)}
    last_nbr_pos = [max([pos_of[w] for w in q.nbrs[v]] + [pos_of[v]])
                    for v in range(nv)]
    out = []
    values = [0] * nv

    def feasible(t):
        for v in range(nv):
            if pos_of[v] > t:
                continue
            assigned_sum = 0
            slack = 0
            for w in q.nbrs[v]:
                if pos_of[w] <= t:
                    assigned_sum += values[w]
                else:
                    slack += bound[w]
            lhs = 2 * values[v] - assigned_sum
            if last_nbr_pos[v] <= t:
                if lhs > 0:
                    return False
            elif lhs > slack:
                return False
        return True

    def descend(t):
        if t == nv:
            beta = tuple(values[v] for v in range(nv))
            if reference_support_connected(q, beta):
                out.append(beta)
            return
        v = order[t]
        for val in range(bound[v] + 1):
            values[v] = val
            if feasible(t):
                descend(t + 1)
        values[v] = 0

    descend(0)
    out.sort()
    return out


@settings(max_examples=300, deadline=None)
@given(boxed_quivers())
def test_fundamental_scan_matches_reference(problem):
    q, bound = problem
    # the same members in the same order
    budget = [10**7]
    members = fundamental_in_box(q, bound, budget)
    assert members == reference_fundamental_in_box(q, bound)
    # a cap equal to the scan's own work passes, and one less raises
    work = 10**7 - budget[0]
    assert fundamental_in_box(q, bound, [work]) == members
    if work:
        with pytest.raises(SearchCapExceeded,
                           match="^fundamental-set scan budget exhausted$"):
            fundamental_in_box(q, bound, [work - 1])


def test_box_points_work_on_tiny_boxes():
    # One unit per kept partial point, counted by hand.
    kronecker = Quiver(("a", "b"), (("a", "b"),) * 2)
    cases = [
        # b = a: three values of a, then one b each
        (lambda budget: box_points((2, 2), [(1, -1)], (), budget),
         {(0, 0), (1, 1), (2, 2)}, 3 + 3),
        # a <= b: three values of a, then 3 + 2 + 1 values of b
        (lambda budget: box_points((2, 2), (), [(1, -1)], budget),
         {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}, 3 + 6),
        # a free third vertex is not scanned, but each of the three full
        # points is charged the two points it spans before they are yielded
        (lambda budget: box_points((2, 2, 1), [(1, -1, 0)], (), budget),
         {(a, a, c) for a in range(3) for c in range(2)}, 3 + 3 + 3 * 2),
        # Kronecker: 2a - 2b <= 0 and 2b - 2a <= 0 keep b = a
        (lambda budget: fundamental_in_box(kronecker, (2, 2), budget),
         {(1, 1), (2, 2)}, 3 + 3),
    ]
    for scan, points, work in cases:
        budget = [100]
        assert set(scan(budget)) == points
        assert 100 - budget[0] == work


def test_box_points_stream_free_vertices():
    # Bound (1, 4, ..., 4) on ten vertices with one row on vertex 0: the nine
    # free vertices span 5^9 = 1,953,125 points, and listing them would take
    # about 240 MB.  The scan streams them, so taking the first 10,001 keeps
    # no more than the stack and one point.
    bound, rows = (1,) + (4,) * 9, [(1,) + (0,) * 9]
    budget = [1 + 5 ** 9 + 10]
    tracemalloc.start()
    try:
        first = 0
        for beta in itertools.islice(box_points(bound, rows, (), budget), 10_001):
            assert beta[0] == 0 and max(beta) <= 4
            first += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == 10_001 and peak < 1_000_000
    # vertex 0 is the one tied vertex, with the one value 0, and its one full
    # point is charged all 5^9 points of the free tail before the first
    assert budget == [10]
    # a free box is streamed whole, each point once
    small = (1, 4, 4)
    assert sorted(box_points(small, [(1, 0, 0)], ())) == \
        [(0, b, c) for b in range(5) for c in range(5)]


def test_free_tail_beyond_the_budget_raises_before_any_point(monkeypatch, capsys):
    # samples/fuchsian_wide_scan.json: six vertices that no lambda row
    # touches span 6,000 points under each full point of the others.
    inst = _sample_instance("fuchsian_wide_scan.json")
    rows = orthogonality_rows(inst.lam)
    budget = [10 ** 7]
    next(box_points(inst.alpha, rows, (), budget))
    first = 10 ** 7 - budget[0]     # the tied path to the first full point and its tail
    assert first > 6000
    budget = [first - 1]            # enough for the path, not for its tail
    with pytest.raises(SearchCapExceeded, match="^candidate scan budget exhausted$"):
        next(box_points(inst.alpha, rows, (), budget))
    monkeypatch.setattr(roots, "DEFAULT_WORK_CAP", first - 1)
    monkeypatch.setattr(sigma, "_last_candidates", None)
    assert main(["check", str(SAMPLES / "fuchsian_wide_scan.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search cap exceeded: candidate scan budget exhausted\n"


@settings(max_examples=300, deadline=None)
@given(boxed_quivers(), st.data())
def test_kernel_points_match_brute_force(problem, data):
    q, bound = problem
    n = len(bound)

    def draw_rows():
        return tuple(tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                              max_size=n)))
                     for _ in range(data.draw(st.integers(0, 3))))
    rows, at_most = draw_rows(), draw_rows()
    in_rows = kernel_test(rows)

    def passes(beta):
        return in_rows(beta) and all(sum(map(mul, row, beta)) <= 0
                                     for row in at_most)
    whole = list(itertools.product(*(range(b + 1) for b in bound)))
    box = [beta for beta in whole if passes(beta)]
    points = list(box_points(bound, rows, at_most))
    assert sorted(points) == box     # every point once, and no other
    # the roots among them are the closed box's roots that pass the rows
    roots_found = {beta for beta in points if is_root(q, beta).kind != "not_root"}
    assert roots_found == set(filter(passes, positive_roots_in_box(q, bound)))
    # the fundamental set is the box points that pair <= 0 with every simple
    # root, nonzero and with connected support
    units = [q.unit(v) for v in q.vertices]
    fundamental = [beta for beta in whole if reference_support_connected(q, beta)
                   and all(sym_form(q, beta, eps) <= 0 for eps in units)]
    assert fundamental_in_box(q, bound) == fundamental
