import json
import pathlib
import random
from fractions import Fraction

from gadsp.builder import (
    add_shift,
    alpha_dot_lambda,
    build_instance,
    lattice_member,
    lattice_rows,
    perm_xi,
    predict_perm_xi,
    shift_vector,
)
from gadsp.gensamples import (
    random_instance_data,
    random_lattice_vector,
    random_multi_index,
)
from gadsp.numeric import GaussRat
from gadsp.quiver import composite_eps, dot, kernel_test
from gadsp.serialize import parse_spectral
from gadsp.spectral import normalize


def fuchsian_three_point():
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


def test_fuchsian_star_shape():
    inst = fuchsian_three_point()
    assert inst.quiver.vertices == ((0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1))
    assert set(inst.quiver.arrows) == {
        ((0, 1, 1), (0, 1)), ((1, 1, 1), (0, 1)), ((2, 1, 1), (0, 1))}
    assert inst.alpha == (2, 1, 1, 1)
    # lambda at the hub sums the leading eigenvalues with a sign.
    assert inst.lam[0] == GaussRat(Fraction(1, 3))
    assert alpha_dot_lambda(inst) == GaussRat(0)


def test_order_two_bipartite_shape():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 2, "blocks": [
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["2"], "residue": {"jordan": [
                    {"value": "1", "blocks": [1]}]}}]},
            {"point": "a1", "order": 2, "blocks": [
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["2"], "residue": {"jordan": [
                    {"value": "-1", "blocks": [1]}]}}]},
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    inst = build_instance(data)
    assert inst.quiver.vertices == ((0, 1), (0, 2), (1, 1), (1, 2))
    # Four crossing arrows, no intra-pole arrows since d = 0 at order 2.
    assert len(inst.quiver.arrows) == 4
    assert all(s[0] == 0 and t[0] == 1 for s, t in inst.quiver.arrows)
    assert inst.alpha == (1, 1, 1, 1)


def _instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        out.append((rng, build_instance(data)))
    return out


def test_alpha_in_lattice_and_connected():
    for rng, inst in _instances(0, 30):
        assert lattice_member(inst, inst.alpha)
        assert inst.quiver.support_connected(
            tuple(1 for _ in inst.quiver.vertices))
        assert alpha_dot_lambda(inst) == GaussRat(0)


def test_lattice_test_matches_lattice_member():
    several = 0
    for rng, inst in _instances(5, 30):
        in_lattice = kernel_test(lattice_rows(inst))
        several += len(inst.i_irr) > 1
        vectors = [inst.alpha] + [inst.quiver.unit(v) for v in inst.quiver.vertices]
        vectors += [tuple(rng.randint(0, 3) for _ in inst.quiver.vertices)
                    for _ in range(20)]
        vectors += [random_lattice_vector(rng, inst) for _ in range(5)]
        for beta in vectors:
            assert in_lattice(beta) == lattice_member(inst, beta)
        if len(inst.i_irr) == 1:
            assert all(in_lattice(beta) for beta in vectors)
    assert several


def test_lattice_member_examples():
    for rng, inst in _instances(1, 10):
        mi = random_multi_index(rng, inst)
        assert lattice_member(inst, composite_eps(inst, mi))
        if len(inst.i_irr) > 1:
            i = sorted(inst.i_irr - {0})[0]
            assert not lattice_member(inst, inst.quiver.unit((i, 1)))
        for v in inst.leg_vertices():
            assert lattice_member(inst, inst.quiver.unit(v))


def test_perm_xi_matches_reflection_prediction():
    for rng, inst in _instances(2, 40):
        spots = [(v, k) for v in inst.block_vertices()
                 for k in range(1, inst.e(*v))]
        legs = [((i, 1), k) for i in sorted(inst.i_reg)
                for k in range(1, inst.e(i, 1))]
        spots += legs
        if not spots:
            continue
        (vertex, s) = spots[rng.randrange(len(spots))]
        if vertex[0] in inst.i_reg:
            continue  # swap target must be a block vertex
        out = perm_xi(inst, vertex, s)
        assert (out.alpha, out.lam) == predict_perm_xi(inst, vertex, s)
        back = perm_xi(out, vertex, s)
        assert (back.alpha, back.lam) == (inst.alpha, inst.lam)
        assert back.data == inst.data


def test_perm_xi_equal_values_identity():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 1, "blocks": [
                {"size": 2, "q": [],
                 "residue": {"jordan": [{"value": "0", "blocks": [1, 1]}]},
                 "xi": ["0", "0"]}]},
            {"point": "a1", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [2]}]}}]},
        ],
    }
    data, _ = normalize(parse_spectral(doc))
    inst = build_instance(data)
    out = perm_xi(inst, (0, 1), 1)
    assert (out.alpha, out.lam) == (inst.alpha, inst.lam)


def test_add_shift_identities():
    # the pair sample's residues at infinity are explicit matrices, and
    # every shift moves pole 0
    doc = json.loads((pathlib.Path(__file__).resolve().parents[1] / "samples"
                      / "pair_instance.json").read_text(encoding="utf-8"))
    pair = build_instance(normalize(parse_spectral(doc))[0])
    assert all(blk.residue.explicit is not None for blk in pair.data.poles[0].blocks)
    for rng, inst in _instances(3, 25) + [(random.Random(3), pair)]:
        gamma = GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
        i0 = rng.randint(1, inst.num_poles - 1)
        out = add_shift(inst, i0, gamma)
        assert out.alpha == inst.alpha
        z = shift_vector(inst, i0)
        assert out.lam == tuple(l + gamma * zv for l, zv in zip(inst.lam, z))
        # alpha . lambda is preserved, and so is beta . lambda on the lattice
        assert alpha_dot_lambda(out) == alpha_dot_lambda(inst)
        beta = random_lattice_vector(rng, inst)
        assert dot(beta, out.lam) == dot(beta, inst.lam)
        assert dot(beta, z) == GaussRat(0)
        back = add_shift(out, i0, -gamma)
        assert (back.alpha, back.lam) == (inst.alpha, inst.lam)
        same = add_shift(inst, i0, GaussRat(0))
        assert (same.alpha, same.lam) == (inst.alpha, inst.lam)
