import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.builder import build_instance
from gadsp.gensamples import (
    random_gauge,
    random_htl_form,
    random_invertible,
    random_multi_index,
    random_orbit_tuple,
)
from gadsp.matrixops import (
    MatrixTuple,
    _irreducible_exact,
    _irreducible_modp,
    core_class_value,
    OrbitMismatchError,
    ResidueSumError,
    addition_op,
    canonical_datum,
    crossing_determinants_nonzero,
    gauge_conjugate,
    generated_subrep_dims,
    htl_reduce,
    irreducible_test,
    middle_convolution,
    moment_map,
    orbit_member,
    orbit_spec_from_data,
    poly_inverse,
    poly_mul,
    quasi_irreducible,
    residue_identity_holds,
    sizeof_w_from_forms,
    to_quiver_rep,
)
from gadsp.numeric import ExactMatrix, GaussRat, ZERO, invert, mat_rank, qi_eigenvalues
from gadsp.quiver import reflect_composite
from gadsp.spectral import IrregularBlock, PoleData, ResidueSpec, make_spectral_data


def test_poly_inverse_roundtrip():
    rng = random.Random(0)
    for _ in range(10):
        n, order = rng.randint(1, 3), rng.randint(1, 4)
        g = random_gauge(rng, n, order)
        gi = poly_inverse(g, order)
        prod = poly_mul(g, gi, order)
        assert prod[0] == ExactMatrix.identity(n)
        assert all(m.is_zero() for m in prod[1:])


def test_htl_reduce_fixes_normal_forms():
    rng = random.Random(1)
    for _ in range(8):
        n, order = rng.randint(1, 3), rng.randint(1, 3)
        form = random_htl_form(rng, n, order)
        red, gauge = htl_reduce(form.part_matrices(), order)
        assert [(b.q_coeffs, b.size) for b in red.blocks] \
            == [(b.q_coeffs, b.size) for b in form.blocks]
        # residues agree blockwise up to conjugacy; at identity gauge exactly
        assert red.part_matrices() == gauge_conjugate(gauge, form.part_matrices(),
                                                      order)


def _rank_profiles(block, size):
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


def test_htl_reduce_roundtrip_random_gauges():
    rng = random.Random(2)
    for _ in range(10):
        n, order = rng.randint(1, 4), rng.randint(1, 4)
        form = random_htl_form(rng, n, order)
        g = random_gauge(rng, n, order)
        part = gauge_conjugate(g, form.part_matrices(), order)
        red, gauge = htl_reduce(part, order)
        assert sorted((tuple(c.sort_key() for c in b.q_coeffs), b.size)
                      for b in red.blocks) \
            == sorted((tuple(c.sort_key() for c in b.q_coeffs), b.size)
                      for b in form.blocks)
        for fb in form.blocks:
            rb = next(b for b in red.blocks if b.q_coeffs == fb.q_coeffs)
            assert _rank_profiles(fb.residue, fb.size) \
                == _rank_profiles(rb.residue, rb.size)
        assert gauge_conjugate(gauge, part, order) == red.part_matrices()


def test_orbit_member_accepts_and_rejects():
    rng = random.Random(3)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    for i in range(len(data.poles)):
        assert orbit_member(list(t.parts[i]), orbit_spec_from_data(data, i))
    # perturb one residue eigenvalue: the rank sequence changes
    part = [m for m in t.parts[0]]
    part[0] = part[0].add_scalar(GaussRat(7))
    assert not orbit_member(part, orbit_spec_from_data(data, 0))


def test_orbit_member_constant_conjugation():
    rng = random.Random(4)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    g = random_invertible(rng, 2)
    gi = invert(g)
    part = [g * m * gi for m in t.parts[1]]
    assert orbit_member(part, orbit_spec_from_data(data, 1))


def test_irreducible_examples():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    t = MatrixTuple(2, (1, 1, 1), ((-(e12 + e21),), (e12,), (e21,)))
    assert irreducible_test(t)
    diag = ExactMatrix.from_rows([[1, 0], [0, 2]])
    t2 = MatrixTuple(2, (1, 1), ((diag,), (-diag,)))
    assert not irreducible_test(t2)
    one = MatrixTuple(1, (1,), ((ExactMatrix.zeros(1),),))
    assert irreducible_test(one)


def reference_closure_spans(gens, n):
    """The Burnside closure in GaussRat arithmetic, the reference for the
    exact closure over Z[i]."""
    basis = {}

    def reduce_and_add(vec):
        vec = list(vec)
        for piv in sorted(basis):
            if vec[piv]:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, basis[piv])]
        for idx, x in enumerate(vec):
            if x:
                inv = x.inverse()
                basis[idx] = tuple(inv * y for y in vec)
                return True
        return False

    frontier = [ExactMatrix.identity(n)]
    reduce_and_add(frontier[0].entries)
    while frontier and len(basis) < n * n:
        new_frontier = []
        for g in gens:
            for b in frontier:
                cand = g * b
                if reduce_and_add(cand.entries):
                    new_frontier.append(cand)
        frontier = new_frontier
    return len(basis) == n * n


closure_entries = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1)),
    st.builds(GaussRat, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 2 ** 40)),
              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))),
)


@st.composite
def generator_sets(draw):
    """(gens, n): a few n x n matrices, sharing an invariant subspace when
    `split` is set."""
    n = draw(st.integers(1, 4))
    split = draw(st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.lists(closure_entries, min_size=n * n, max_size=n * n))
        if split:
            e = [ZERO if i >= split > j else e[i * n + j] for i in range(n) for j in range(n)]
        gens.append(ExactMatrix(n, n, e))
    return gens, n


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_exact_closure_matches_reference(case):
    gens, n = case
    gens = [g for g in gens if not g.is_zero()]
    expected = reference_closure_spans(gens, n)
    assert _irreducible_exact(gens, n) == expected
    assert irreducible_test(MatrixTuple(n, (len(gens),), (tuple(gens),))) == expected


def test_irreducible_exact_path_reducible_block_triangular():
    # Blocks 3 + 2: every generator maps span(e1, e2, e3) into itself, so the
    # modular closure cannot span and the exact closure must answer False.
    rng = random.Random(7)
    dens = (1, 2, 3, 7, 2 ** 40)

    def entry():
        return GaussRat(Fraction(rng.randint(-5, 5), rng.choice(dens)),
                        Fraction(rng.randint(-5, 5), rng.choice(dens)))

    gens = [ExactMatrix.from_rows([[entry() if i < 3 or j >= 3 else 0 for j in range(5)]
                                   for i in range(5)]) for _ in range(3)]
    assert len({x.re.denominator for g in gens for x in g.entries}) > 2
    t = MatrixTuple(5, (2, 1), ((gens[0], gens[1]), (gens[2],)))
    assert _irreducible_modp(gens, 5) is None
    assert irreducible_test(t) is False


def test_irreducible_exact_path_when_modp_gives_up():
    # 1/(2p) has no image mod p = 1000000009, so only the exact closure can
    # answer; e12 and e21 alone already generate all 2 x 2 matrices.
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    odd = ExactMatrix.from_rows([[GaussRat(Fraction(1, 2 * 1000000009), 1), 0], [0, 3]])
    t = MatrixTuple(2, (1, 2), ((odd,), (e12, e21)))
    assert _irreducible_modp([odd, e12, e21], 2) is None
    assert irreducible_test(t) is True


def test_addition_identity_and_compensation():
    rng = random.Random(5)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    same = addition_op(t, 1, [ZERO] * t.orders[1])
    assert same.parts == t.parts
    gamma = GaussRat(3)
    moved = addition_op(t, 1, [gamma], compensate=True)
    moved.check_residue_sum()
    assert moved.parts[1][0] == t.parts[1][0].add_scalar(-gamma)
    assert moved.parts[0][0] == t.parts[0][0].add_scalar(gamma)
    with pytest.raises(ResidueSumError):
        addition_op(t, 1, [gamma])


def test_addition_shifts_the_orbit():
    rng = random.Random(6)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    spec = orbit_spec_from_data(data, 1)
    gamma = GaussRat(0, 1)
    moved = addition_op(t, 1, [gamma], compensate=True)
    shifted_blocks = tuple(
        type(b)(b.q_coeffs, b.size, tuple(x - gamma for x in b.xi), b.ranks)
        for b in spec.blocks)
    shifted_spec = type(spec)(spec.order, shifted_blocks)
    assert orbit_member(list(moved.parts[1]), shifted_spec)


def _fuchsian_rank1_tuple():
    # three poles, rank 2, each residue of rank 1
    a1 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    a2 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    a0 = -(a1 + a2)
    return MatrixTuple(2, (1, 1, 1), ((a0,), (a1,), (a2,)))


def test_canonical_datum_dimension_examples():
    t = _fuchsian_rank1_tuple()
    cd = canonical_datum(t)
    # a rank-1 residue contributes 1 at a first-order pole
    assert cd.dims_w[1] == 1 and cd.dims_w[2] == 1
    assert cd.dims_w[0] == mat_rank(t.parts[0][0])
    zero_pole = MatrixTuple(2, (1, 1), ((ExactMatrix.zeros(2),),
                                        (ExactMatrix.zeros(2),)))
    assert canonical_datum(zero_pole).dim_w == 0
    inv_pole = MatrixTuple(2, (1, 1), ((ExactMatrix.identity(2),),
                                       (-ExactMatrix.identity(2),)))
    assert canonical_datum(inv_pole).dims_w == (2, 2)


def test_sizeof_w_matches_canonical_datum():
    rng = random.Random(7)
    for _ in range(8):
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        forms = []
        for i in range(len(data.poles)):
            form, _ = htl_reduce(list(t.parts[i]), t.orders[i])
            forms.append(form)
        assert canonical_datum(t).dim_w == sizeof_w_from_forms(forms)


def _mc_ready(rng, **kw):
    while True:
        data, t = random_orbit_tuple(rng, **kw)
        inst = build_instance(data)
        mi = random_multi_index(rng, inst)
        xi_mi = ZERO
        for i in range(inst.num_poles):
            xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
        if not xi_mi:
            continue
        return data, t, inst, mi


def test_middle_convolution_rejects_zero_xi():
    rng = random.Random(8)
    while True:
        data, t = random_orbit_tuple(rng, n=2, p=1)
        inst = build_instance(data)
        found = None
        for mi in inst.multi_indices():
            xi_mi = ZERO
            for i in range(inst.num_poles):
                xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
            if not xi_mi:
                found = mi
                break
        if found:
            with pytest.raises(ValueError, match="xi_mi = 0"):
                middle_convolution(t, data, found)
            break


def test_middle_convolution_consistency():
    rng = random.Random(9)
    for _ in range(6):
        data, t, inst, mi = _mc_ready(rng, n=rng.randint(2, 3), p=rng.randint(1, 2))
        try:
            res = middle_convolution(t, data, mi)
        except OrbitMismatchError:
            continue
        assert res.output.n == res.dim_w - t.n
        # alpha' = s_mi(alpha) on the block coordinates
        alpha2 = reflect_composite(inst, mi, inst.alpha)
        q = inst.quiver
        for i in sorted(inst.i_irr):
            for j in range(1, inst.m(i) + 1):
                want = data.block(i, j).size + (res.n_shift if j == mi[i] else 0)
                assert alpha2[q.index((i, j))] == want
        for i, spec in enumerate(res.predicted):
            assert orbit_member(list(res.output.parts[i]), spec)
        if irreducible_test(t):
            assert irreducible_test(res.output)


def test_rank1_middle_convolution_of_hypergeometric():
    # Genuine irreducible hypergeometric tuple: finite residues of rank 1
    # with eigenvalues {0, 1/2} and {0, 1/3}, infinity with {1/6, -1}; no
    # eigenvalue selection sums to zero, so no common eigenvector exists.
    h = Fraction(1, 2)
    a1 = ExactMatrix.from_rows([[0, 1], [0, GaussRat(h)]])
    a2 = ExactMatrix.from_rows([[0, 0], [GaussRat(Fraction(1, 6)), GaussRat(Fraction(1, 3))]])
    a0 = -(a1 + a2)
    t = MatrixTuple(2, (1, 1, 1), ((a0,), (a1,), (a2,)))
    poles = (
        PoleData("infinity", 1, (IrregularBlock(
            (), 2, ResidueSpec(explicit=a0)),)),
        PoleData("a1", 1, (IrregularBlock(
            (), 2, ResidueSpec(jordan=((GaussRat(0), (1,)),
                                       (GaussRat(h), (1,))))),)),
        PoleData("a2", 1, (IrregularBlock(
            (), 2, ResidueSpec(jordan=((GaussRat(0), (1,)),
                                       (GaussRat(Fraction(1, 3)), (1,))))),)),
    )
    data = make_spectral_data(2, poles)
    assert data.block(0, 1).xi[0] == GaussRat(-1)
    mi = (1, 1, 1)
    res = middle_convolution(t, data, mi)
    # after the scalar shift all three residues have rank 1: dim W = 3
    assert res.dim_w == 3
    assert res.output.n == 1
    for i, spec in enumerate(res.predicted):
        assert orbit_member(list(res.output.parts[i]), spec)
    assert irreducible_test(t) and irreducible_test(res.output)


def test_to_quiver_rep_moment_map_is_lambda():
    rng = random.Random(10)
    for _ in range(6):
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        inst = build_instance(data)
        rep, facts = to_quiver_rep(t, data, inst)
        assert rep.dims == inst.alpha
        mu = moment_map(inst, rep)
        for value, m in zip(inst.lam, mu):
            assert m == ExactMatrix.scalar(m.rows, value)
        trace = ZERO
        for m in mu:
            trace = trace + m.trace()
        assert not trace
        assert crossing_determinants_nonzero(inst, rep)
        for i in sorted(inst.i_irr):
            assert residue_identity_holds(facts[i])


def test_core_moment_values_realize_residue_classes():
    rng = random.Random(11)
    for _ in range(6):
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        inst = build_instance(data)
        rep, facts = to_quiver_rep(t, data, inst)
        core = moment_map(inst, rep, core_only=True)
        for i in sorted(inst.i_irr):
            for j in range(1, inst.m(i) + 1):
                blk = data.block(i, j)
                value = core_class_value(inst, data, core, i, j)
                prod = ExactMatrix.identity(blk.size)
                for xi_l, r_l in zip(blk.xi, blk.ranks):
                    prod = prod * value.add_scalar(-xi_l)
                    assert mat_rank(prod) == r_l


def test_orbit_mismatch_detected():
    rng = random.Random(12)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    inst = build_instance(data)
    parts = [list(p) for p in t.parts]
    parts[0][0] = parts[0][0].add_scalar(GaussRat(1))
    parts[1][0] = parts[1][0].add_scalar(GaussRat(-1))
    bad = MatrixTuple(t.n, t.orders, tuple(tuple(p) for p in parts))
    bad.check_residue_sum()
    with pytest.raises(OrbitMismatchError):
        to_quiver_rep(bad, data, inst)


def test_quasi_irreducibility_via_matrix_side():
    rng = random.Random(13)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    assert quasi_irreducible(t) == irreducible_test(t)
    if irreducible_test(t):
        inst = build_instance(data)
        rep, _ = to_quiver_rep(t, data, inst)
        # debug oracle: any unit vector at a block vertex generates a
        # subrepresentation whose level sums are full (quasi-irreducibility
        # forbids proper lattice subreps)
        v = (0, 1)
        seed = ExactMatrix(rep.dims[inst.quiver.index(v)], 1,
                           [GaussRat(1)] + [ZERO] * (rep.dims[inst.quiver.index(v)] - 1))
        dims = generated_subrep_dims(inst, rep, v, seed)
        level0 = sum(dims[inst.quiver.index((0, j))]
                     for j in range(1, inst.m(0) + 1))
        assert level0 > 0


def _order2_direct_member(part, spec):
    """Independent order-2 criterion: some constant G diagonalizes the top
    coefficient into the prescribed scalar blocks and the diagonal blocks of
    the conjugated residue realize the prescribed classes."""
    from gadsp.numeric import eigenspace_basis, hstack, invert
    a2, a1 = part[1], part[0]
    try:
        eigs = qi_eigenvalues(a2)
    except Exception:
        return False
    # group spec blocks by leading coefficient (all sizes must match)
    want = {}
    for blk in spec.blocks:
        want.setdefault(blk.q_coeffs[0], []).append(blk)
    if set(want) != {v for v, _ in eigs}:
        return False
    bases = []
    layout = []
    for value, _ in eigs:
        basis = eigenspace_basis(a2, value)
        blocks = want[value]
        if basis.cols != sum(b.size for b in blocks):
            return False
        bases.append(basis)
        layout.extend(blocks)
    g = hstack(bases)
    if mat_rank(g) != g.rows:
        return False
    conj = invert(g) * a1 * g
    start = 0
    for blk in layout:
        diag = conj.block(start, start + blk.size, start, start + blk.size)
        prod = ExactMatrix.identity(blk.size)
        for xi_l, r_l in zip(blk.xi, blk.ranks):
            prod = prod * diag.add_scalar(-xi_l)
            if mat_rank(prod) != r_l:
                return False
        start += blk.size
    return True


def test_order2_orbit_agrees_with_direct_criterion():
    rng = random.Random(77)
    agree = 0
    for _ in range(15):
        n = rng.randint(1, 3)
        form = random_htl_form(rng, n, 2)
        g = random_gauge(rng, n, 2)
        part = gauge_conjugate(g, form.part_matrices(), 2)
        spec_blocks = []
        from gadsp.matrixops import OrbitBlockSpec, OrbitSpec
        from gadsp.spectral import ResidueSpec, select_xi
        single_eig = {}
        ok_spec = True
        for b in form.blocks:
            res = ResidueSpec(explicit=b.residue)
            xi, ranks = select_xi(res)
            spec_blocks.append(OrbitBlockSpec(b.q_coeffs, b.size, xi, ranks))
            # the direct checker groups by the single order-2 coefficient
            single_eig.setdefault(b.q_coeffs[0], 0)
        spec = OrbitSpec(2, tuple(spec_blocks))
        lhs = orbit_member(part, spec)
        rhs = _order2_direct_member(part, spec)
        assert lhs == rhs
        assert lhs  # built as a conjugate, so membership must hold
        agree += 1
        # perturbing the residue must break membership both ways
        bad = [part[0].add_scalar(GaussRat(5)), part[1]]
        assert orbit_member(bad, spec) == _order2_direct_member(bad, spec)
    assert agree == 15


def test_moment_map_trivial_examples():
    from gadsp.builder import build_instance
    from gadsp.gensamples import rng_from_seed
    from gadsp.matrixops import QuiverRep
    rng = rng_from_seed(3)
    data, t = random_orbit_tuple(rng, n=2, p=1)
    inst = build_instance(data)
    q = inst.quiver
    # the zero representation has zero moment values
    zero = QuiverRep(tuple(0 for _ in q.vertices),
                     tuple(ExactMatrix.zeros(0, 0) for _ in q.arrows),
                     tuple(ExactMatrix.zeros(0, 0) for _ in q.arrows))
    assert all(m.is_zero() for m in moment_map(inst, zero))
    # a single scalar arrow contributes +psi psi* at the target and
    # -psi* psi at the source
    from gadsp.quiver import Quiver
    q1 = Quiver(("a", "b"), (("a", "b"),))

    class _Inst:  # minimal shim exposing what moment_map needs
        quiver = q1

    psi = ExactMatrix.from_rows([[GaussRat(2)]])
    psi_star = ExactMatrix.from_rows([[GaussRat(3)]])
    rep = QuiverRep((1, 1), (psi,), (psi_star,))
    mu = moment_map(_Inst, rep)
    assert mu[q1.index("b")] == ExactMatrix.from_rows([[6]])
    assert mu[q1.index("a")] == ExactMatrix.from_rows([[-6]])
