"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; "tolerance" is equality.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion output.
"""

import itertools
import random
import time

from gadsp.builder import add_shift, build_instance, lattice_member, perm_xi
from gadsp.gensamples import (
    POOL,
    random_fuchsian_data,
    random_gauge,
    random_htl_form,
    random_instance_data,
    random_lattice_vector,
    random_multi_index,
    random_orbit_tuple,
)
from gadsp.matrixops import (
    HtlBlock,
    HtlForm,
    OrbitMismatchError,
    core_class_value,
    gauge_conjugate,
    htl_reduce,
    irreducible_test,
    middle_convolution,
    moment_map,
    orbit_member,
    residue_identity_holds,
    sizeof_w_from_forms,
    to_quiver_rep,
)
from gadsp.numeric import ExactMatrix, GaussRat, ZERO, mat_rank, qi_eigenvalues
from gadsp.quiver import (
    reflect_composite,
    reflect_dim,
    sym_form,
)
from gadsp.roots import (
    LiftElement,
    generator_pairing,
    is_root,
    lift_pairing,
    lift_xi,
    positive_roots_in_box,
    quasi_fundamental_test,
    xi_image,
)
from gadsp.sigma import reduce_pair, sigma_member, sigma_tilde_member, _membership
from gadsp.spectral import normalize


def _report(num, text):
    print("ACCEPTANCE %d: PASS - %s" % (num, text))


def test_acceptance_1_fuchsian_agreement():
    """Lattice-restricted and plain membership agree on Fuchsian instances."""
    rng = random.Random(20240801)
    t0 = time.time()
    agree = 0
    total = 100
    for _ in range(total):
        data = random_fuchsian_data(rng, n=rng.randint(1, 4),
                                    p=rng.randint(1, 3), pool=POOL)
        data, _ = normalize(data)
        inst = build_instance(data)
        a = sigma_tilde_member(inst)
        b = sigma_member(inst.quiver, inst.alpha, inst.lam)
        if a.solvable == b.solvable:
            agree += 1
    elapsed = time.time() - t0
    assert agree == total
    assert elapsed < 60.0
    _report(1, "fuchsian agreement %d/%d in %.1fs" % (agree, total, elapsed))


def test_acceptance_2_root_engine_oracle():
    """Pointwise root decisions match brute-force orbit/box enumeration."""
    rng = random.Random(7)
    instances = []
    while len(instances) < 20:
        # alternate small and larger ranks so the quivers span 1..6 vertices
        n = rng.randint(2, 3) if len(instances) % 2 else rng.randint(1, 2)
        data = random_instance_data(rng, n=n, p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        if len(inst.quiver.vertices) <= 6:
            instances.append(inst)
    points = 0
    for inst in instances:
        q = inst.quiver
        bound = tuple(6 for _ in q.vertices)
        table = positive_roots_in_box(q, bound)
        for beta in itertools.product(*(range(7) for _ in q.vertices)):
            points += 1
            rc = is_root(q, beta)
            assert (rc.kind != "not_root") == (beta in table)
            if beta in table:
                assert rc.kind == table[beta]
        # negative and mixed-sign spot checks
        for beta in list(table)[:50]:
            assert is_root(q, tuple(-x for x in beta)).kind == table[beta]
        mixed = (1,) + (-1,) + (0,) * (len(q.vertices) - 2)
        if len(q.vertices) >= 2:
            assert is_root(q, mixed).kind == "not_root"
    _report(2, "root decisions agree on %d lattice points over 20 quivers"
            % points)


def test_acceptance_3_reflection_identities():
    """Composite reflections, lift equivariance and the lift isometry."""
    rng = random.Random(9)
    checked = 0
    while checked < 1000:
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        for _ in range(5):
            beta = random_lattice_vector(rng, inst)
            gamma = random_lattice_vector(rng, inst)
            if not any(beta) or not any(gamma):
                continue
            mi = random_multi_index(rng, inst)
            # composite reflection equals the sandwich product
            lhs = reflect_composite(inst, mi, beta)
            cur = beta
            outer = sorted(inst.i_irr - {0})
            for i in outer:
                cur = reflect_dim(inst.quiver, (i, mi[i]), cur)
            cur = reflect_dim(inst.quiver, (0, mi[0]), cur)
            for i in outer:
                cur = reflect_dim(inst.quiver, (i, mi[i]), cur)
            assert lhs == cur
            # lift isometry
            lb = lift_xi(inst, beta)
            lg = lift_xi(inst, gamma)
            assert lift_pairing(inst, lb, lg) == sym_form(inst.quiver, beta, gamma)
            # equivariance of the projection with the generator reflection
            key = ("J", mi)
            d = lb.as_dict()
            pair_val = sum(v * generator_pairing(inst, k, key)
                           for k, v in d.items())
            d[key] = d.get(key, 0) - pair_val
            assert xi_image(inst, LiftElement.from_dict(d)) == lhs
            # equivariance also at a leg generator, when one exists
            legs = inst.leg_vertices()
            if legs:
                leg = legs[rng.randrange(len(legs))]
                lkey = ("L", leg)
                d2 = lb.as_dict()
                pair_val = sum(v * generator_pairing(inst, k, lkey)
                               for k, v in d2.items())
                d2[lkey] = d2.get(lkey, 0) - pair_val
                assert xi_image(inst, LiftElement.from_dict(d2)) \
                    == reflect_dim(inst.quiver, leg, beta)
            # reflection preserves the lattice
            assert lattice_member(inst, lhs)
            checked += 1
    _report(3, "reflection/lift identities on %d random triples" % checked)


def _shifted_forms(data, mi):
    forms = []
    for i, pole in enumerate(data.poles):
        picked = data.block(i, mi[i])
        q_ref = picked.q_padded(pole.order)
        xi_head = picked.xi[0]
        blocks = []
        for blk in pole.blocks:
            q = tuple(c - d for c, d in zip(blk.q_padded(pole.order), q_ref))
            blocks.append(HtlBlock(q, blk.size,
                                   blk.residue.as_matrix().add_scalar(-xi_head)))
        forms.append(HtlForm(pole.order, tuple(blocks)))
    return forms


def test_acceptance_4_middle_convolution_consistency():
    """Rank law, reflection law, orbit predictions, irreducibility."""
    rng = random.Random(31)
    done = 0
    irreducible_cases = 0
    while done < 25:
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3),
                                     p=rng.randint(1, 2), max_order=3)
        inst = build_instance(data)
        mi = random_multi_index(rng, inst)
        xi_mi = ZERO
        for i in range(inst.num_poles):
            xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
        if not xi_mi:
            continue
        try:
            res = middle_convolution(t, data, mi)
        except OrbitMismatchError:
            continue  # rank collapse; not a valid sample for the criterion
        # (a) rank = dim W - n, dim W per the kernel-intersection formula
        assert res.output.n == res.dim_w - t.n
        assert res.dim_w == sizeof_w_from_forms(_shifted_forms(data, mi))
        # (b) alpha' = s_mi(alpha) on block vertices
        alpha2 = reflect_composite(inst, mi, inst.alpha)
        q = inst.quiver
        for i in sorted(inst.i_irr):
            for j in range(1, inst.m(i) + 1):
                want = data.block(i, j).size + (res.n_shift if j == mi[i] else 0)
                assert alpha2[q.index((i, j))] == want
        # (c) output lies in the predicted orbits
        for i, spec in enumerate(res.predicted):
            assert orbit_member(list(res.output.parts[i]), spec)
        # (d) irreducibility is preserved
        if irreducible_test(t):
            irreducible_cases += 1
            assert irreducible_test(res.output)
        done += 1
    assert irreducible_cases >= 5
    _report(4, "middle convolution consistent on %d tuples (%d irreducible)"
            % (done, irreducible_cases))


def test_acceptance_5_splitting_roundtrip():
    """Gauge reduction recovers the normal form it was conjugated from."""
    rng = random.Random(41)

    def key(b):
        return (tuple(c.sort_key() for c in b.q_coeffs), b.size)

    def rank_profiles(block, size):
        out = []
        for value, _ in qi_eigenvalues(block):
            shifted = block.add_scalar(-value)
            prof = []
            power = shifted
            for _ in range(size):
                prof.append(mat_rank(power))
                power = power * shifted
            out.append((value.sort_key(), tuple(prof)))
        return sorted(out)

    for trial in range(50):
        n = rng.randint(1, 4)
        order = rng.randint(1, 4)
        form = random_htl_form(rng, n, order)
        gauge = random_gauge(rng, n, order)
        part = gauge_conjugate(gauge, form.part_matrices(), order)
        red, out_gauge = htl_reduce(part, order)
        assert sorted(map(key, red.blocks)) == sorted(map(key, form.blocks))
        for fb in form.blocks:
            rb = next(b for b in red.blocks if b.q_coeffs == fb.q_coeffs)
            assert rank_profiles(fb.residue, fb.size) \
                == rank_profiles(rb.residue, rb.size)
        assert gauge_conjugate(out_gauge, part, order) == red.part_matrices()
    _report(5, "splitting round-trip exact on 50 random (form, gauge) pairs")


def test_acceptance_6_moment_map_and_residue_identities():
    """Moment values realize the residue classes; traces telescope to zero."""
    rng = random.Random(51)
    done = 0
    while done < 25:
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3),
                                     p=rng.randint(1, 2), max_order=3)
        inst = build_instance(data)
        rep, facts = to_quiver_rep(t, data, inst)
        mu = moment_map(inst, rep)
        trace = ZERO
        for value, m in zip(inst.lam, mu):
            assert m == ExactMatrix.scalar(m.rows, value)
            trace = trace + m.trace()
        assert not trace
        core = moment_map(inst, rep, core_only=True)
        for i in sorted(inst.i_irr):
            for j in range(1, inst.m(i) + 1):
                blk = data.block(i, j)
                value = core_class_value(inst, data, core, i, j)
                prod = ExactMatrix.identity(blk.size)
                for xi_l, r_l in zip(blk.xi, blk.ranks):
                    prod = prod * value.add_scalar(-xi_l)
                    assert mat_rank(prod) == r_l
            assert residue_identity_holds(facts[i])
        done += 1
    _report(6, "moment-map and residue identities exact on %d representations"
            % done)


def test_acceptance_7_quasi_fundamental_is_imaginary():
    """Boxed quasi-fundamental members classify as imaginary roots."""
    rng = random.Random(61)
    instances = []
    # two handcrafted instances with rich quasi-fundamental sets: the 4-leg
    # star (imaginary multiples of its null vector) and the double-edge pair
    from gadsp.serialize import parse_spectral
    star_doc = {"rank": 2, "poles": [
        {"point": "infinity", "order": 1, "blocks": [
            {"size": 2, "q": [], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}, {"value": "1", "blocks": [1]}]}}]}]
        + [{"point": "a%d" % i, "order": 1, "blocks": [
            {"size": 2, "q": [], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}, {"value": "1", "blocks": [1]}]}}]}
           for i in (1, 2, 3)]}
    pair_doc = {"rank": 2, "poles": [
        {"point": "infinity", "order": 2, "blocks": [
            {"size": 1, "q": ["0"], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}]}},
            {"size": 1, "q": ["1"], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}]}}]},
        {"point": "a1", "order": 2, "blocks": [
            {"size": 1, "q": ["0"], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}]}},
            {"size": 1, "q": ["1"], "residue": {"jordan": [
                {"value": "0", "blocks": [1]}]}}]}]}
    for doc in (star_doc, pair_doc):
        data, _ = normalize(parse_spectral(doc))
        inst = build_instance(data)
        instances.append((inst, tuple(3 * a for a in inst.alpha)))
    while len(instances) < 10:
        data = random_instance_data(rng, n=rng.randint(1, 2), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        bound = tuple(3 * a for a in inst.alpha)
        volume = 1
        for b in bound:
            volume *= b + 1
        if volume <= 400_000:
            instances.append((inst, bound))
    members = 0
    for inst, bound in instances:
        q = inst.quiver
        for beta in itertools.product(*(range(b + 1) for b in bound)):
            if any(beta) and quasi_fundamental_test(inst, beta):
                members += 1
                assert is_root(q, beta).kind == "imaginary"
    assert members >= 10
    _report(7, "all %d boxed quasi-fundamental members are imaginary roots"
            % members)


def test_acceptance_8_verdict_invariance():
    """Solvability is stable under xi swaps, shifts and one reduction step."""
    rng = random.Random(71)
    done = 0
    reduced_checked = 0
    while done < 50:
        data = random_instance_data(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        data, _ = normalize(data)
        inst = build_instance(data)
        verdict = sigma_tilde_member(inst)
        base = verdict.solvable
        spots = [(v, k) for v in inst.block_vertices()
                 for k in range(1, inst.e(*v))]
        if spots:
            vertex, s = spots[rng.randrange(len(spots))]
            assert sigma_tilde_member(perm_xi(inst, vertex, s)).solvable == base
        gamma = GaussRat(rng.randint(-2, 2), rng.randint(0, 1))
        i0 = rng.randint(1, inst.num_poles - 1)
        assert sigma_tilde_member(add_shift(inst, i0, gamma)).solvable == base
        if base:
            trace = reduce_pair(inst, verdict)
            if trace.steps:
                alpha2, lam2 = trace.steps[0].after
                after = _membership(inst.quiver, alpha2, lam2,
                                    lambda b: lattice_member(inst, b),
                                    10_000_000)
                assert after.solvable
                reduced_checked += 1
        done += 1
    _report(8, "verdict invariance on %d instances (%d with a reduction step)"
            % (done, reduced_checked))



