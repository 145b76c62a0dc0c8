import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.builder import build_instance
from gadsp.gensamples import (
    random_instance_data,
    random_lattice_vector,
    random_multi_index,
)
from gadsp.numeric import GaussRat
from gadsp.quiver import (
    Quiver,
    composite_eps,
    composite_lambda,
    dot,
    euler_form,
    kernel_test,
    orthogonality_rows,
    reflect_composite,
    reflect_dim,
    reflect_param,
    sym_form,
    tits,
)
from gadsp.spectral import normalize


def two_vertex(arrows):
    return Quiver(("a", "b"), arrows)


def test_euler_form_single_arrow():
    q = two_vertex((("a", "b"),))
    assert euler_form(q, q.unit("a"), q.unit("b")) == -1
    assert euler_form(q, q.unit("b"), q.unit("a")) == 0
    assert euler_form(q, q.unit("a"), q.unit("a")) == 1


def test_sym_form_units_and_multiplicity():
    q1 = two_vertex((("a", "b"),))
    assert sym_form(q1, q1.unit("a"), q1.unit("a")) == 2
    assert sym_form(q1, q1.unit("a"), q1.unit("b")) == -1
    q2 = two_vertex((("a", "b"), ("a", "b")))
    assert sym_form(q2, q2.unit("a"), q2.unit("b")) == -2


def d4_star():
    vs = ("c", "l1", "l2", "l3", "l4")
    return Quiver(vs, tuple(("l%d" % i, "c") for i in range(1, 5)))


def test_tits_examples():
    q = d4_star()
    assert tits(q, q.unit("c")) == (1, 0)
    delta = (2, 1, 1, 1, 1)
    # By hand: q(delta) = 4 + 4*1 - 4*(2*1) = 0.
    assert tits(q, delta) == (0, 1)
    assert tits(q, (0,) * 5) == (0, 1)


def test_loops_rejected():
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "a"),))


def test_reflect_dim_examples():
    q = two_vertex((("a", "b"),))
    ea, eb = q.unit("a"), q.unit("b")
    assert reflect_dim(q, "a", ea) == (-1, 0)
    assert reflect_dim(q, "a", eb) == (1, 1)
    rng = random.Random(0)
    for _ in range(30):
        beta = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert reflect_dim(q, "a", reflect_dim(q, "a", beta)) == beta


def test_reflect_param_examples():
    q = two_vertex((("a", "b"),))
    lam = (GaussRat(3), GaussRat(0, 1))
    out = reflect_param(q, "a", lam)
    assert out[0] == -lam[0]
    zero = (GaussRat(0), GaussRat(0))
    assert reflect_param(q, "a", zero) == zero


def test_paired_reflection_preserves_dot():
    q = d4_star()
    rng = random.Random(1)
    for _ in range(50):
        beta = tuple(rng.randint(-3, 3) for _ in range(5))
        lam = tuple(GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in range(5))
        v = q.vertices[rng.randrange(5)]
        assert dot(reflect_dim(q, v, beta), reflect_param(q, v, lam)) \
            == dot(beta, lam)


def test_sym_form_weyl_invariant():
    q = d4_star()
    rng = random.Random(2)
    for _ in range(50):
        beta = tuple(rng.randint(-3, 3) for _ in range(5))
        gamma = tuple(rng.randint(-3, 3) for _ in range(5))
        v = q.vertices[rng.randrange(5)]
        assert sym_form(q, reflect_dim(q, v, beta), reflect_dim(q, v, gamma)) \
            == sym_form(q, beta, gamma)


def test_tits_matches_bilinear_definition():
    q = d4_star()
    rng = random.Random(3)
    for _ in range(30):
        beta = tuple(rng.randint(-3, 3) for _ in range(5))
        qv, pv = tits(q, beta)
        assert 2 * qv == sym_form(q, beta, beta)
        assert pv == 1 - qv


def _instances(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        data = random_instance_data(rng, n=rng.randint(1, 3),
                                    p=rng.randint(1, 2), **kw)
        data, _ = normalize(data)
        out.append((rng, build_instance(data)))
    return out


def test_composite_eps_shape_and_square():
    for rng, inst in _instances(4, 20):
        mi = random_multi_index(rng, inst)
        eps = composite_eps(inst, mi)
        assert sum(eps) == len(inst.i_irr)
        assert sym_form(inst.quiver, eps, eps) == 2


def test_composite_fuchsian_is_unit():
    rng = random.Random(5)
    data = random_instance_data(rng, n=2, p=1, max_order=1)
    data, _ = normalize(data)
    inst = build_instance(data)
    mi = tuple(1 for _ in range(inst.num_poles))
    assert composite_eps(inst, mi) == inst.quiver.unit((0, 1))


def test_reflect_composite_matches_sandwich_product():
    for rng, inst in _instances(6, 40):
        mi = random_multi_index(rng, inst)
        beta = random_lattice_vector(rng, inst)
        lhs = reflect_composite(inst, mi, beta)
        cur = beta
        outer = sorted(inst.i_irr - {0})
        for i in outer:
            cur = reflect_dim(inst.quiver, (i, mi[i]), cur)
        cur = reflect_dim(inst.quiver, (0, mi[0]), cur)
        for i in outer:
            cur = reflect_dim(inst.quiver, (i, mi[i]), cur)
        assert lhs == cur


def test_reflect_composite_fixes_orthogonal_and_negates_eps():
    for rng, inst in _instances(7, 15):
        mi = random_multi_index(rng, inst)
        eps = composite_eps(inst, mi)
        assert reflect_composite(inst, mi, eps) == tuple(-x for x in eps)


def _n_shift_formula(inst, mi):
    # The explicit block-count form of minus the composite pairing.
    q = inst.quiver
    alpha = inst.alpha
    n = inst.n
    total = -2 * n
    for i in sorted(inst.i_irr):
        for j in range(1, inst.m(i) + 1):
            total += (inst.d(i, j, mi[i]) + 1) * alpha[q.index((i, j))]
        total += n - alpha[q.index((i, mi[i]))]
        leg = (i, mi[i], 1)
        if leg in q._index:
            total += alpha[q.index(leg)]
    for i in sorted(inst.i_reg):
        leg = (i, 1, 1)
        if leg in q._index:
            total += alpha[q.index(leg)]
    return total


def test_composite_pairing_matches_block_count_formula():
    from gadsp.quiver import composite_pair
    for rng, inst in _instances(8, 30):
        mi = random_multi_index(rng, inst)
        assert -composite_pair(inst, mi, inst.alpha) == _n_shift_formula(inst, mi)


def test_composite_pair_reflection_preserves_dot_on_lattice():
    from gadsp.quiver import composite_lambda, reflect_pair_composite
    from gadsp.builder import lattice_member
    checked = 0
    for rng, inst in _instances(9, 60):
        mi = random_multi_index(rng, inst)
        if not composite_lambda(inst, mi, inst.lam):
            continue
        beta = random_lattice_vector(rng, inst)
        alpha2, lam2 = reflect_pair_composite(inst, mi, inst.alpha, inst.lam)
        beta2 = reflect_composite(inst, mi, beta)
        assert dot(alpha2, lam2) == dot(inst.alpha, inst.lam)
        assert dot(beta2, lam2) == dot(beta, inst.lam)
        assert lattice_member(inst, alpha2) == lattice_member(inst, inst.alpha)
        # involution at the pair level
        back = reflect_pair_composite(inst, mi, alpha2, lam2)
        assert back == (inst.alpha, inst.lam)
        checked += 1
    assert checked >= 30


fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
gauss = st.builds(GaussRat, fractions, fractions)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orthogonality_test_matches_dot(data):
    n = data.draw(st.integers(1, 6))
    beta = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    lam = data.draw(st.lists(st.one_of(st.just(GaussRat(0)), gauss),
                             min_size=n, max_size=n))
    support = [k for k in range(n) if beta[k]]
    if support and data.draw(st.booleans()):
        # move one coordinate so that beta . lam = 0
        k = data.draw(st.sampled_from(support))
        lam[k] = lam[k] - dot(beta, lam) / GaussRat(beta[k])
    assert kernel_test(orthogonality_rows(lam))(beta) == (not dot(beta, lam))


def test_orthogonality_test_mixed_denominators():
    lam = (GaussRat(Fraction(1, 6), Fraction(-1, 4)), GaussRat(0),
           GaussRat(Fraction(-1, 3), Fraction(1, 2)), GaussRat(7))
    orthogonal = kernel_test(orthogonality_rows(lam))
    assert orthogonal((2, 5, 1, 0))
    assert not orthogonal((2, 5, 1, 1))
    assert not orthogonal((1, 0, 1, 0))
    assert kernel_test(orthogonality_rows(()))(())
