import json
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gadsp import matrixops, numeric
from gadsp.builder import build_instance
from gadsp.gensamples import (
    _distinct_q,
    pick,
    random_gauge,
    random_htl_form,
    random_invertible,
    random_jordan,
    random_multi_index,
    random_orbit_tuple,
)
from gadsp.matrixops import (
    CanonicalDatum,
    HtlBlock,
    HtlForm,
    MatrixTuple,
    _cokernel_section,
    _irreducible_exact,
    _invariant_span_holds,
    _irreducible_modp,
    _modp_charpoly,
    _modp_gens,
    _modp_roots,
    _modp_sqrt,
    _norton_modp,
    _ranges,
    _scalar_shift_tuple,
    _scalar_value,
    _spin,
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
    poly_identity,
    poly_inverse,
    poly_mul,
    poly_times_part,
    residue_identity_holds,
    sizeof_w_from_forms,
    to_quiver_rep,
    tuple_from_data,
    unipotent_conjugate,
)
from gadsp.numeric import (
    ExactMatrix,
    _Echelon,
    _reduced,
    _zmatmul,
    _zmul,
    GaussRat,
    NonSplitError,
    ZERO,
    block_diag,
    complete_basis,
    eigenspace_basis,
    hstack,
    invert,
    mat_kernel,
    mat_rank,
    qi_eigenvalues,
    rref_matrix,
    submatrix,
    vstack,
)
from gadsp.quiver import reflect_composite
from gadsp.serialize import parse_spectral, parse_tuple
from gadsp.spectral import (
    IrregularBlock,
    PoleData,
    ResidueSpec,
    make_spectral_data,
    shifted_products,
)


def test_poly_inverse_roundtrip():
    rng = random.Random(0)
    for _ in range(10):
        n, order = rng.randint(1, 3), rng.randint(1, 4)
        g = random_gauge(rng, n, order)
        h0 = invert(g[0])
        u = [m * h0 for m in g]  # g g_0^{-1}: unipotent
        ui = poly_inverse(u, order)
        for prod in (poly_mul(u, ui, order), poly_mul(ui, u, order)):
            assert prod[0] == ExactMatrix.identity(n)
            assert all(m.is_zero() for m in prod[1:])
        if g[0] != ExactMatrix.identity(n):
            with pytest.raises(AssertionError, match="unipotent"):
                poly_inverse(g, order)
    with pytest.raises(AssertionError, match="unipotent"):
        poly_inverse([ExactMatrix.scalar(2, GaussRat(2)), ExactMatrix.zeros(2)], 2)


def _series_inverse(g, order):
    """g^{-1} modulo x^order for any gauge with invertible g[0]."""
    h0 = invert(g[0])
    out = [h0]
    for s in range(1, order):
        acc = ExactMatrix.zeros(g[0].rows)
        for t in range(1, min(s, len(g) - 1) + 1):
            acc = acc + g[t] * out[s - t]
        out.append(-(h0 * acc))
    return out


def _conjugate_by_definition(g, part, order):
    """g A g^{-1} on the x^-1..x^-order window: the sum of the products
    g_a A_b (g^{-1})_c x^{a - b + c} over a + c < b."""
    ginv = _series_inverse(g, order)
    out = [ExactMatrix.zeros(part[0].rows) for _ in range(order)]
    for b in range(1, order + 1):
        for a in range(min(b, len(g))):
            for c in range(b - a):
                out[b - a - c - 1] = out[b - a - c - 1] + g[a] * part[b - 1] * ginv[c]
    return out


def _part_times_gauge(part, g, order):
    """One-sided product B . g, truncated to the x^-1..x^-order window."""
    out = []
    for j in range(1, order + 1):
        acc = ExactMatrix.zeros(part[0].rows)
        for a in range(min(order - j + 1, len(g))):
            acc = acc + part[j + a - 1] * g[a]
        out.append(acc)
    return out


def _poly_mul_by_definition(a, b, order):
    """The coefficients sum_{i+j=s} a_i b_j, s < order, every product formed."""
    out = [ExactMatrix.zeros(a[0].rows) for _ in range(order)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < order:
                out[i + j] = out[i + j] + ai * bj
    return out


def _with_zeros(rng, g):
    """g with some coefficients past the constant term set to zero."""
    return [m if k == 0 or rng.random() < 0.6 else ExactMatrix.zeros(m.rows)
            for k, m in enumerate(g)]


def _random_matrix(rng, n):
    return ExactMatrix.from_rows([[pick(rng) for _ in range(n)] for _ in range(n)])


def _form_keys(form):
    """The block keys htl_reduce splits by, read off a normal form."""
    return frozenset(b.q_coeffs for b in form.blocks)


def _spec_keys(spec):
    """The block keys of an orbit spec, as _orbit_reduction builds them."""
    return frozenset(b.q_coeffs for b in spec.blocks if b.size > 0)


def test_gauge_conjugation_matches_its_definition():
    rng = random.Random(20)
    for _ in range(80):
        n, order = rng.randint(1, 4), rng.randint(1, 4)
        # zero middle coefficients, of the gauge and of the pole part
        g = _with_zeros(rng, random_gauge(rng, n, rng.randint(1, order)))
        part = [_random_matrix(rng, n) if rng.random() < 0.8 else ExactMatrix.zeros(n)
                for _ in range(order)]
        conj = gauge_conjugate(g, part, order)
        assert conj == _conjugate_by_definition(g, part, order)
        assert _part_times_gauge(conj, g, order) == poly_times_part(g, part, order)
        h0 = invert(g[0])
        u = [m * h0 for m in g]
        assert unipotent_conjugate(u, part, order) \
            == _conjugate_by_definition(u, part, order)
        h = _with_zeros(rng, random_gauge(rng, n, rng.randint(1, order)))
        assert poly_mul(g, h, order) == _poly_mul_by_definition(g, h, order)


def test_htl_reduce_fixes_normal_forms():
    rng = random.Random(1)
    for _ in range(8):
        n, order = rng.randint(1, 3), rng.randint(1, 3)
        form = random_htl_form(rng, n, order)
        red, gauge = htl_reduce(form.part_matrices(), order, _form_keys(form))
        assert [(b.q_coeffs, b.size) for b in red.blocks] \
            == [(b.q_coeffs, b.size) for b in form.blocks]
        # residues agree blockwise up to conjugacy; at identity gauge exactly
        assert red.part_matrices() == gauge_conjugate(gauge, form.part_matrices(),
                                                      order)


def reference_htl_reduce(part, order):
    """htl_reduce as it was before it built its gauge from the unipotent
    steps and skipped identity products: every product is formed.

    Reduce a pole part to block-diagonal local normal form.

    Returns (HtlForm, gauge) with gauge[A]=form; blocks come out sorted by
    their polynomial coefficient tuples from top degree down, so the order
    is canonical.  Raises NonSplitError when a leading coefficient fails to
    be semisimple with Q(i) eigenvalues (ramified or non-split input).
    """
    n = part[0].rows
    if order == 1:
        return HtlForm(1, (HtlBlock((), n, part[0]),)), poly_identity(n, 1)

    top = part[order - 1]
    scalar = _scalar_value(top)
    if scalar is not None:
        sub_form, sub_gauge = reference_htl_reduce(part[:order - 1], order - 1)
        blocks = tuple(HtlBlock(b.q_coeffs + (scalar,), b.size, b.residue)
                       for b in sub_form.blocks)
        gauge = sub_gauge + [ExactMatrix.zeros(n)]
        return HtlForm(order, blocks), gauge

    eigs = qi_eigenvalues(top)
    bases = []
    sizes = []
    values = []
    for value, _ in eigs:
        basis = eigenspace_basis(top, value)
        if basis.cols == 0:
            raise NonSplitError("leading coefficient has a defective eigenvalue")
        bases.append(basis)
        sizes.append(basis.cols)
        values.append(value)
    if sum(sizes) != n:
        raise NonSplitError(
            "leading coefficient is not semisimple (ramified or non-split)")

    pmat = hstack(bases)
    g0 = invert(pmat)
    total = [g0] + [ExactMatrix.zeros(n)] * (order - 1)
    cur = [g0 * m * pmat for m in part]

    # Each gauge step solves u_rc = target_rc / (v_i - v_j) on the blocks
    # (i, j), i != j: the entrywise product with one matrix of the inverses.
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    inverses = {(i, j): (values[i] - values[j]).inverse()
                for i in range(len(values)) for j in range(len(values)) if i != j}
    gaps = ExactMatrix.from_rows([[inverses.get((i, j), ZERO) for j in block_of]
                                  for i in block_of])

    for s in range(1, order):
        target = cur[order - s - 1]
        u = [_zmul(x, y) for x, y in zip(target.z, gaps.z)]
        if u.count((0, 0)) == len(u):
            continue
        g = poly_identity(n, order)
        g[s] = _reduced(n, n, target.d * gaps.d, u)
        cur = unipotent_conjugate(g, cur, order)
        total = poly_mul(g, total, order)

    blocks = []
    gauges = []
    for b, (r0, r1) in enumerate(_ranges(sizes)):
        sub_part = [cur[j].block(r0, r1, r0, r1) for j in range(order - 1)]
        sub_form, sub_gauge = reference_htl_reduce(sub_part, order - 1)
        for blk in sub_form.blocks:
            blocks.append(HtlBlock(blk.q_coeffs + (values[b],), blk.size,
                                   blk.residue))
        gauges.append(sub_gauge + [ExactMatrix.zeros(r1 - r0)])
    assembled = [block_diag([g[s] for g in gauges]) for s in range(order)]
    total = poly_mul(assembled, total, order)
    return HtlForm(order, tuple(blocks)), total


def _nested_split_form(rng):
    """A normal form of order 3 or 4 whose blocks but one share their top
    coefficient: they split only one level down, so the sub-gauges of the
    reduction are not the identity."""
    order = rng.randint(3, 4)
    sizes = [rng.randint(1, 2) for _ in range(rng.randint(3, 4))]
    tops = [GaussRat(1)] * (len(sizes) - 1) + [GaussRat(-1)]
    lower = _distinct_q(rng, len(sizes), order - 1)
    blocks = sorted((HtlBlock(q + (top,), size, random_jordan(rng, size).as_matrix())
                     for q, top, size in zip(lower, tops, sizes)),
                    key=lambda b: tuple(c.sort_key() for c in reversed(b.q_coeffs)))
    return HtlForm(order, tuple(blocks))


def test_htl_reduce_matches_reference():
    rng = random.Random(16)
    parts = []
    for _ in range(12):
        form = _nested_split_form(rng)
        parts.append(form.part_matrices())
        parts.append(gauge_conjugate(random_gauge(rng, form.n, form.order),
                                     form.part_matrices(), form.order))
        n, order = rng.randint(1, 4), rng.randint(1, 4)
        parts.append(gauge_conjugate(random_gauge(rng, n, order),
                                     random_htl_form(rng, n, order).part_matrices(), order))
        parts.extend(list(p) for p in random_orbit_tuple(rng)[1].parts)
    for part in parts:
        order = len(part)
        ref = reference_htl_reduce(part, order)
        red, gauge = htl_reduce(part, order, _form_keys(ref[0]))
        assert (red, gauge) == ref
        assert gauge_conjugate(gauge, part, order) == red.part_matrices()


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
        red, gauge = htl_reduce(part, order, _form_keys(form))
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


def _no_exact_closure(gens, n):
    raise AssertionError("the exact closure must not run")


def test_irreducible_probe_path_reducible_block_triangular(monkeypatch):
    # Blocks 3 + 2: every generator maps span(e1, e2, e3) into itself, so the
    # modular closure cannot span and the spin of some e_j proves False.
    rng = random.Random(7)
    dens = (1, 2, 3, 7, 2 ** 40)

    def entry():
        return GaussRat(Fraction(rng.randint(-5, 5), rng.choice(dens)),
                        Fraction(rng.randint(-5, 5), rng.choice(dens)))

    gens = [ExactMatrix.from_rows([[entry() if i < 3 or j >= 3 else 0 for j in range(5)]
                                   for i in range(5)]) for _ in range(3)]
    assert len({x.re.denominator for g in gens for x in g.entries}) > 2
    t = MatrixTuple(5, (2, 1), ((gens[0], gens[1]), (gens[2],)))
    assert not _irreducible_modp(_modp_gens(gens), 5)
    monkeypatch.setattr(matrixops, "_irreducible_exact", _no_exact_closure)
    assert irreducible_test(t) is False


@st.composite
def conjugated_generator_sets(draw):
    """generator_sets, half of them conjugated by an invertible matrix of
    closure_entries, which moves the invariant subspace off the e_j."""
    gens, n = draw(generator_sets())
    if draw(st.booleans()):
        c = ExactMatrix(n, n, draw(st.lists(closure_entries, min_size=n * n, max_size=n * n)))
        assume(mat_rank(c) == n)
        c_inv = invert(c)
        gens = [c * g * c_inv for g in gens]
    return [g for g in gens if not g.is_zero()], n


@settings(max_examples=80, deadline=None)
@given(conjugated_generator_sets())
def test_irreducible_test_matches_exact_closure(case):
    gens, n = case
    t = MatrixTuple(n, (len(gens),), (tuple(gens),))
    assert irreducible_test(t) == _irreducible_exact(gens, n)


def test_irreducible_dual_probe_finds_the_invariant_plane(monkeypatch):
    # span(e1 + e2) is the only invariant line, so every e_j spins to all of
    # Q(i)^3; only the transposes keep a plane (e1 - e2, e3) spun from e3.
    a = ExactMatrix.from_rows([[-1, 1, 0], [-1, 1, 1], [0, 0, 0]])
    b = ExactMatrix.from_rows([[0, 0, 0], [0, 0, 0], [-1, 1, 0]])
    n = 3
    for j in range(n):
        e_j = [(int(i == j), 0) for i in range(n)]
        spun = _spin(e_j, [a.z, b.z], n, lambda g, v: _zmatmul(g, v, n, n, 1), _Echelon().add)
        assert len(spun) == n
    monkeypatch.setattr(matrixops, "_irreducible_exact", _no_exact_closure)
    assert irreducible_test(MatrixTuple(n, (1, 1), ((a,), (b,)))) is False


def test_irreducible_fallback_for_subspaces_over_a_larger_field(monkeypatch):
    # Every generator lies in Q(i)[J] with J^2 = 2: the algebra has dimension
    # 2 < 4, but its invariant lines are the eigenlines of J, defined only
    # over Q(i, sqrt 2), so no probe finds a certificate.
    j = ExactMatrix.from_rows([[0, 2], [1, 0]])
    gens = (j, j.add_scalar(GaussRat(1, 1)), j.scale(GaussRat(Fraction(1, 3), 2)))
    calls = []

    def counted(g, n):
        calls.append(n)
        return _irreducible_exact(g, n)

    monkeypatch.setattr(matrixops, "_irreducible_exact", counted)
    assert irreducible_test(MatrixTuple(2, (2, 1), (gens[:2], gens[2:]))) is False
    assert calls == [2]


def test_invariant_span_check():
    # a fixes e1 and maps e3 to 7 e1 + 6 e3, but e2 to 2 e1 + 3 e2 + 5 e3
    a = ExactMatrix.from_rows([[1, 2, 7], [0, 3, 0], [0, 5, 6]])
    one, zero = (1, 0), (0, 0)
    e1, e2, e3 = [one, zero, zero], [zero, one, zero], [zero, zero, (0, 1)]
    assert _invariant_span_holds([e1], [a.z], 3)
    assert _invariant_span_holds([e1, e3], [a.z], 3)
    assert not _invariant_span_holds([e1, e2], [a.z], 3)
    assert not _invariant_span_holds([e2], [a.z], 3)
    # the whole space and the zero space are invariant but not proper
    assert not _invariant_span_holds([e1, e2, e3], [a.z], 3)
    assert not _invariant_span_holds([[zero, zero, zero]], [a.z], 3)


def test_failed_certificate_check_raises(monkeypatch):
    e11 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    monkeypatch.setattr(matrixops, "_invariant_span_holds", lambda basis, gens, n: False)
    with pytest.raises(AssertionError, match=r"\(bug\)"):
        irreducible_test(MatrixTuple(2, (1,), ((e11,),)))


def _matrix_mc_tuples():
    doc = json.loads((pathlib.Path(__file__).resolve().parents[1]
                      / "perfbench" / "inputs" / "matrix-mc.json").read_text())
    for entry in doc["entries"]:
        data = parse_spectral(entry["instance"])
        t = parse_tuple(entry["tuple"], data)
        yield entry["name"] + "/in", t
        mc = middle_convolution(t, data, tuple(entry["multi_index"]))
        yield entry["name"] + "/out", mc.output


def test_matrix_mc_inputs_never_reach_the_exact_closure(monkeypatch):
    monkeypatch.setattr(matrixops, "_irreducible_exact", _no_exact_closure)
    verdicts = {name: irreducible_test(t) for name, t in _matrix_mc_tuples()}
    assert len(verdicts) == 12
    assert {name for name, ok in verdicts.items() if not ok} == {"m004/in", "m004/out"}


def test_irreducible_exact_path_when_modp_gives_up():
    # 1/(2p) has no image mod p = 1000000009, so only the exact closure can
    # answer; e12 and e21 alone already generate all 2 x 2 matrices.
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    odd = ExactMatrix.from_rows([[GaussRat(Fraction(1, 2 * 1000000009), 1), 0], [0, 3]])
    t = MatrixTuple(2, (1, 2), ((odd,), (e12, e21)))
    assert _modp_gens([odd, e12, e21]) is None
    assert irreducible_test(t) is True


def test_exact_spin_proves_reducible_where_modp_gives_up(monkeypatch):
    # 1/(2p) has no image mod p = 1000000009, so neither modular stage runs;
    # every generator maps e3 to a multiple of itself, and the exact spin of
    # e3 proves False without the exact closure.
    a = ExactMatrix.from_rows([[GaussRat(Fraction(1, 2 * 1000000009), 1), 1, 0],
                               [1, 0, 0], [2, 3, 5]])
    b = ExactMatrix.from_rows([[0, 1, 0], [1, 1, 0], [0, 1, 2]])
    assert _modp_gens([a, b]) is None
    monkeypatch.setattr(matrixops, "_irreducible_exact", _no_exact_closure)
    outcomes = _traced(monkeypatch, STAGES)
    assert irreducible_test(MatrixTuple(3, (1, 1), ((a,), (b,)))) is False
    assert outcomes == [("_reducible_by_spin", True)]


P = 1000000009  # the prime of the modular stages


def _modp_det(a, n):
    """det of the flat n x n list a mod P by elimination."""
    rows, det = [a[i * n:(i + 1) * n] for i in range(n)], 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % P), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv], det = rows[piv], rows[c], -det
        det = det * rows[c][c] % P
        inv = pow(rows[c][c], -1, P)
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[c])]
    return det % P


def test_modp_charpoly_matches_determinants():
    # det(x0 - a) at a few points x0, by elimination, against the
    # polynomial; the zero rows and columns force the Hessenberg pivot
    # search past a zero and through a row swap.
    rng = random.Random(8)
    for n in range(1, 8):
        for _ in range(6):
            a = [rng.randrange(P) if rng.random() < 0.7 else 0 for _ in range(n * n)]
            poly = _modp_charpoly(a, n)
            assert len(poly) == n + 1 and poly[-1] == 1
            for x0 in (0, 1, rng.randrange(P)):
                shifted = [(x0 * (i % (n + 1) == 0) - x) % P for i, x in enumerate(a)]
                assert sum(c * pow(x0, k, P) for k, c in enumerate(poly)) % P \
                    == _modp_det(shifted, n)


def _times_linear(f, r):
    """f (x - r), coefficients from x^0 up."""
    return [(y - r * x) % P for x, y in zip(f + [0], [0] + f)]


def test_modp_roots_and_square_roots():
    rng = random.Random(9)
    assert _modp_sqrt(0) == 0 and _modp_sqrt(11) is None
    for _ in range(50):
        a = rng.randrange(1, P)
        assert _modp_sqrt(a * a % P) in (a, P - a)
    # x^2 - 11 has no root mod P, so each factor is distinct linear times it
    for k in range(6):
        roots = sorted({rng.randrange(P) for _ in range(k)})
        f = [P - 11, 0, 1]
        for r in roots:
            f = _times_linear(f, r)
        assert sorted(_modp_roots(f)) == roots
        # a repeated root is found once
        twice = _times_linear(_times_linear(f, 5), 5)
        assert sorted(_modp_roots(twice)) == sorted(set(roots) | {5})


def _traced(monkeypatch, names):
    """Record (name, result) of each call of the named matrixops functions."""
    outcomes = []

    def wrap(name):
        original = getattr(matrixops, name)

        def call(*args):
            outcomes.append((name, original(*args)))
            return outcomes[-1][1]
        monkeypatch.setattr(matrixops, name, call)

    for name in names:
        wrap(name)
    return outcomes


STAGES = ("_norton_modp", "_irreducible_modp", "_reducible_by_spin", "_irreducible_exact")


def test_norton_without_a_kernel_line_falls_back_to_the_closure(monkeypatch):
    # c is the companion matrix of x^4 - 11, which has no root mod P, and
    # the algebra mod P is F_P[c].  An element g(c) has an eigenvalue r in
    # F_P only where g takes the value r at a root of x^4 - 11 and at its
    # conjugates, so its kernel is at least a plane: Norton's test cannot
    # decide.  The closure mod P stops at 4, no exact probe is proper (the
    # quartic is irreducible over Q(i)), and the exact closure answers.
    assert _modp_roots([P - 11, 0, 0, 0, 1]) == []
    c = ExactMatrix.from_rows([[0, 0, 0, 11], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    gens = (c, c.add_scalar(GaussRat(3, 1)))
    outcomes = _traced(monkeypatch, STAGES)
    assert irreducible_test(MatrixTuple(4, (2,), (gens,))) is False
    assert outcomes == [("_norton_modp", None), ("_irreducible_modp", False),
                        ("_reducible_by_spin", False), ("_irreducible_exact", False)]


def test_norton_skips_roots_whose_kernel_is_not_a_line(monkeypatch):
    # Each element of the sequence of diag(1, 1, 2, 2) is diagonal with two
    # doubled eigenvalues, so the kernel at each root is a plane: Norton's
    # test skips every root and cannot decide.  The closure mod P stops
    # short of 16, and a probe's spin finds the invariant subspace.
    rows = [[int(i == j) * (1 + i // 2) for j in range(4)] for i in range(4)]
    d = ExactMatrix.from_rows(rows)
    assert _norton_modp(_modp_gens([d]), 4) is None
    outcomes = _traced(monkeypatch, STAGES + ("_modp_null_vector",))
    minus = ExactMatrix.from_rows([[-x for x in row] for row in rows])
    assert irreducible_test(MatrixTuple(4, (1, 1), ((d,), (minus,)))) is False
    kernels = [out for name, out in outcomes if name == "_modp_null_vector"]
    assert kernels and kernels == [None] * len(kernels)
    assert outcomes[len(kernels):] == [
        ("_norton_modp", None), ("_irreducible_modp", False), ("_reducible_by_spin", True)]


def test_reduction_can_drop_a_dimension_that_the_exact_closure_restores(monkeypatch):
    # a has distinct eigenvalues, so an invariant subspace is spanned by
    # coordinate vectors, and the entries P of b move e1 off each of them
    # over Q(i).  Mod P, b maps e1 to itself, so Norton's spin stops at that
    # line; the probe's exact spin of e1 is full, and the exact closure
    # answers.
    a = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    b = ExactMatrix.from_rows([[1, 1, 1, 1], [P, 1, 1, 1], [P, 1, 1, 1], [P, 1, 1, 1]])
    outcomes = _traced(monkeypatch, STAGES)
    assert irreducible_test(MatrixTuple(4, (1, 1), ((a,), (b,)))) is True
    assert outcomes == [("_norton_modp", False), ("_reducible_by_spin", False),
                        ("_irreducible_exact", True)]


def test_closure_alone_decides_up_to_rank_three(monkeypatch):
    # e12, e23 and e31 generate all 3 x 3 matrices
    rows = [[[int((i, j) == pos) for j in range(3)] for i in range(3)]
            for pos in ((0, 1), (1, 2), (2, 0))]
    gens = tuple(ExactMatrix.from_rows(r) for r in rows)
    outcomes = _traced(monkeypatch, STAGES)
    assert irreducible_test(MatrixTuple(3, (3,), (gens,))) is True
    assert outcomes == [("_irreducible_modp", True)]


def _assert_norton_is_sound(gens, n):
    red = _modp_gens(gens)
    assume(red is not None)
    verdict = _norton_modp(red, n)
    if verdict is not None:
        assert _irreducible_modp(red, n) is verdict


@settings(max_examples=80, deadline=None)
@given(conjugated_generator_sets())
def test_norton_agrees_with_the_closure_mod_p(case):
    _assert_norton_is_sound(*case)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_norton_agrees_with_the_closure_on_orbit_tuples(seed, n, poles):
    _, t = random_orbit_tuple(random.Random(seed), n=n, p=poles)
    _assert_norton_is_sound([m for m in t.all_coefficients() if not m.is_zero()], t.n)


def _sample(name):
    """(data, tuple) of samples/<name>_instance.json and <name>_tuple.json."""
    def load(kind):
        return json.loads((pathlib.Path(__file__).resolve().parents[1] / "samples"
                           / ("%s_%s.json" % (name, kind))).read_text())
    data = parse_spectral(load("instance"))
    return data, parse_tuple(load("tuple"), data)


@pytest.mark.parametrize("edit", [
    # the same q-coefficients, but a block one larger than the reduced one
    lambda blk: replace(blk, size=blk.size + 1),
    # every rank matches, (S - xi - 1) has rank 1, but the sequence stops
    # before the product that vanishes
    lambda blk: replace(blk, xi=(blk.xi[0] + 1,), ranks=(1,)),
], ids=["block-size", "nonzero-final-product"])
def test_orbit_reduction_rejects_an_edited_block(edit):
    data, t = _sample("order5")
    spec = orbit_spec_from_data(data, 0)
    part = list(t.parts[0])
    assert orbit_member(part, spec)
    blocks = (edit(spec.blocks[0]),) + spec.blocks[1:]
    assert not orbit_member(part, replace(spec, blocks=blocks))


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


def reference_canonical_datum(t):
    """canonical_datum as first written: a kernel basis K of each pole's
    block-Toeplitz matrix, its completion E by standard vectors, and the
    projection onto E as the last rows of the inverse of [K | E]."""
    n = t.n
    dims, t_blocks, q_blocks, p_blocks = [], [], [], []
    for k, part in zip(t.orders, t.parts):
        nk = n * k
        zero, one = ExactMatrix.zeros(n), ExactMatrix.identity(n)
        a_hat = vstack([hstack([part[k - 1 - s + r] if s >= r else zero for s in range(k)])
                        for r in range(k)])
        n_hat = vstack([hstack([one if s == r + 1 else zero for s in range(k)])
                        for r in range(k)])
        q_hat = hstack([part[k - 1 - s] for s in range(k)])
        k_mat = mat_kernel(a_hat)
        comp = complete_basis(k_mat)
        dim_w = comp.cols
        proj = invert(hstack([k_mat, comp])).block(nk - dim_w, nk, 0, nk)
        t_blocks.append(proj * n_hat * comp)
        q_blocks.append(q_hat * comp)
        p_blocks.append(proj.block(0, dim_w, nk - n, nk))
        dims.append(dim_w)
    return CanonicalDatum(n, tuple(dims), tuple(t_blocks), tuple(q_blocks),
                          tuple(p_blocks))


def reference_section(p_map, q_map):
    """The section as first written: the last rows of the inverse of
    [P | kernel basis of Q]."""
    comp = mat_kernel(q_map)
    n, dim_w = p_map.cols, p_map.rows
    return invert(hstack([p_map, comp])).block(n, dim_w, 0, dim_w), comp


def product_shift_maps(t):
    """Each pole's shift map as columns P of the product R N, with N the
    block shift of V^k, as canonical_datum formed it before it copied
    columns of R."""
    n, maps = t.n, []
    for k, part in zip(t.orders, t.parts):
        zero, one = ExactMatrix.zeros(n), ExactMatrix.identity(n)
        a_hat = vstack([hstack([part[k - 1 - s + r] if s >= r else zero for s in range(k)])
                        for r in range(k)])
        n_hat = vstack([hstack([one if s == r + 1 else zero for s in range(k)])
                        for r in range(k)])
        pivots, proj = rref_matrix(a_hat)
        maps.append(submatrix(proj * n_hat, range(len(pivots)), pivots))
    return tuple(maps)


def _scalar_shifts(data, t):
    """(the tuple shifted as middle_convolution shifts it, xi_mi) at every
    multi-index of data whose leading-xi sum xi_mi is not zero."""
    for mi in build_instance(data).multi_indices():
        xi_mi = ZERO
        for i in range(len(data.poles)):
            xi_mi = xi_mi + data.block(i, mi[i]).xi[0]
        if xi_mi:
            yield _scalar_shift_tuple(t, data, mi, -1), xi_mi


def _assert_datum_and_section_match_the_references(data, t):
    """Compare both on t and its scalar shifts; the number of sections
    compared (those with Q P = -xi_mi I and dim W > n, as the convolution
    needs)."""
    assert canonical_datum(t) == reference_canonical_datum(t)
    assert canonical_datum(t).t_blocks == product_shift_maps(t)
    sections = 0
    for shifted, xi_mi in _scalar_shifts(data, t):
        cd = canonical_datum(shifted)
        assert cd == reference_canonical_datum(shifted)
        assert cd.t_blocks == product_shift_maps(shifted)
        p_map, q_map = cd.p_map(), cd.q_map()
        if q_map * p_map != ExactMatrix.scalar(t.n, -xi_mi) or cd.dim_w <= t.n:
            continue
        assert _cokernel_section(p_map, q_map, xi_mi) == reference_section(p_map, q_map)
        sections += 1
    return sections


# The reference section inverts a dim W x dim W basis, which took up to a
# minute per draw at rank 4 with three finite poles (dim W up to 33), so the
# draws stop at rank 3 and two finite poles.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 2))
def test_canonical_datum_and_section_match_the_inverse_rows(seed, n, poles):
    data, t = random_orbit_tuple(random.Random(seed), n=n, p=poles)
    _assert_datum_and_section_match_the_references(data, t)


def test_canonical_datum_and_section_match_the_inverse_rows_on_the_samples():
    sections = [_assert_datum_and_section_match_the_references(data, t)
                for data, t in (_sample("pair"), _sample("order5"))]
    assert sections == [4, 9]


def test_middle_convolution_inverts_no_basis(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("basis inverted or completed")

    for module in (numeric, matrixops):
        monkeypatch.setattr(module, "invert", boom, raising=False)
        monkeypatch.setattr(module, "complete_basis", boom, raising=False)
    data, t = _sample("pair")
    res = middle_convolution(t, data, (1, 1))
    assert res.dim_w == canonical_datum(_scalar_shift_tuple(t, data, (1, 1), -1)).dim_w
    assert res.output.n == res.dim_w - t.n > 0


def test_sizeof_w_matches_canonical_datum():
    rng = random.Random(7)
    for _ in range(8):
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        forms = []
        for i in range(len(data.poles)):
            form, _ = htl_reduce(list(t.parts[i]), t.orders[i],
                                 _spec_keys(orbit_spec_from_data(data, i)))
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


def _with_entry_moved(m, r, c):
    rows = [m.row_list(i) for i in range(m.rows)]
    rows[r][c] = rows[r][c] + GaussRat(1)
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("name", ["pair", "order5"])
def test_verify_checks_reject_broken_representations(name):
    samples = pathlib.Path(__file__).resolve().parents[1] / "samples"
    data = parse_spectral(json.loads((samples / ("%s_instance.json" % name)).read_text()))
    inst = build_instance(data)
    t = parse_tuple(json.loads((samples / ("%s_tuple.json" % name)).read_text()), data)
    rep, facts = to_quiver_rep(t, data, inst)
    fact = facts[1]
    assert crossing_determinants_nonzero(inst, rep) and residue_identity_holds(fact)
    # Pole 1's first P coefficient moved in the off-diagonal block (1, 2)
    # breaks the identity at block 1.  Its diagonal entries meet no Q block,
    # so moving one of them keeps the identity.
    p0 = fact.p_coeffs[0]
    for (r, c), holds in (((0, 1), False), ((0, 0), True)):
        moved = replace(fact, p_coeffs=(_with_entry_moved(p0, r, c),) + fact.p_coeffs[1:])
        assert residue_identity_holds(moved) is holds
    # With every crossing map into pole 1 zero, its crossing matrix is singular.
    into_pole_1 = [a for a, (src, tgt) in enumerate(inst.quiver.arrows)
                   if len(src) == len(tgt) == 2 and src[0] == 0 and tgt[0] == 1]
    assert into_pole_1
    psi = list(rep.psi)
    for a in into_pole_1:
        psi[a] = ExactMatrix.zeros(psi[a].rows, psi[a].cols)
    assert not crossing_determinants_nonzero(inst, replace(rep, psi=tuple(psi)))


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


def _two_irregular_poles():
    """Rank 2, two order-2 poles with blocks q = 1 and q = -1 of size 1, and
    residues (1, 2) at infinity and (-1, -2) at a1, so the normal-form
    tuple has residue sum zero."""
    def pole(label, sign):
        return PoleData(label, 2, tuple(
            IrregularBlock((GaussRat(q),), 1,
                           ResidueSpec(jordan=((GaussRat(sign * r), (1,)),)))
            for q, r in ((1, 1), (-1, 2))))
    data = make_spectral_data(2, (pole("infinity", 1), pole("a1", -1)))
    return data, tuple_from_data(data)


@pytest.mark.parametrize("top", [[[0, 1], [0, 0]],    # defective eigenvalue 0
                                 [[0, 2], [1, 0]]])   # eigenvalues +-sqrt(2)
@pytest.mark.parametrize("pole", [0, 1])
def test_orbit_check_rejects_non_split_leading_coefficient(top, pole):
    data, t = _two_irregular_poles()
    inst = build_instance(data)
    for i in range(2):
        assert orbit_member(list(t.parts[i]), orbit_spec_from_data(data, i))
    to_quiver_rep(t, data, inst)
    part = [t.parts[pole][0], ExactMatrix.from_rows(top)]
    with pytest.raises(NonSplitError):
        htl_reduce(part, 2, _spec_keys(orbit_spec_from_data(data, pole)))
    assert not orbit_member(part, orbit_spec_from_data(data, pole))
    parts = list(t.parts)
    parts[pole] = tuple(part)
    bad = MatrixTuple(t.n, t.orders, tuple(parts))
    with pytest.raises(OrbitMismatchError, match="pole %d is not in its prescribed orbit"
                       % pole):
        to_quiver_rep(bad, data, inst)


def _xi_shifted(spec):
    """spec with every xi moved by 1, as the matrix-mc benchmark checks it."""
    return replace(spec, blocks=tuple(replace(b, xi=tuple(x + 1 for x in b.xi))
                                      for b in spec.blocks))


def _counting_htl_reduce(monkeypatch):
    """Count the calls of htl_reduce, recursive ones included, on an empty
    reduction memo."""
    calls = []
    real = matrixops.htl_reduce

    def counted(part, order, keys):
        calls.append(order)
        return real(part, order, keys)

    monkeypatch.setattr(matrixops, "htl_reduce", counted)
    monkeypatch.setattr(matrixops, "_last_reduction", None)
    return calls


def test_orbit_member_same_answer_with_a_primed_memo(monkeypatch):
    rng = random.Random(14)
    checked = 0
    for _ in range(12):
        data, t = random_orbit_tuple(rng, n=rng.randint(1, 3), p=rng.randint(1, 2))
        specs = [orbit_spec_from_data(data, i) for i in range(len(data.poles))]
        for i, part in enumerate(t.parts):
            others = [s for s in specs if s.order == specs[i].order]
            for spec in others + [_xi_shifted(s) for s in others]:
                monkeypatch.setattr(matrixops, "_last_reduction", None)
                fresh = orbit_member(list(part), spec)
                for primer in others:
                    orbit_member(list(part), primer)
                    assert matrixops._last_reduction[0] \
                        == (part, primer.order, _spec_keys(primer))
                    assert orbit_member(list(part), spec) == fresh
                checked += 1
            assert orbit_member(list(part), specs[i])
    assert checked > 50


def test_reduction_memo_is_not_changed_by_callers(monkeypatch):
    rng = random.Random(15)
    data, t = random_orbit_tuple(rng, n=3, p=2)
    inst = build_instance(data)
    returned = []
    real = matrixops.htl_reduce

    def recorded(part, order, keys):
        red = real(part, order, keys)
        returned.append(red[1])
        return red

    monkeypatch.setattr(matrixops, "htl_reduce", recorded)
    rep, facts = to_quiver_rep(t, data, inst)
    (part, order, keys), (form, gauge) = matrixops._last_reduction
    last = len(t.parts) - 1
    spec = orbit_spec_from_data(data, last)
    assert (order, keys) == (spec.order, _spec_keys(spec))
    with pytest.raises(TypeError):
        gauge[0] = ExactMatrix.zeros(t.n)
    for g in returned:  # every list htl_reduce handed out
        g[:] = [ExactMatrix.zeros(g[0].rows)] * len(g)
    assert matrixops._orbit_reduction(list(part), spec) == (form, gauge)
    assert to_quiver_rep(t, data, inst) == (rep, facts)
    monkeypatch.setattr(matrixops, "htl_reduce", real)
    monkeypatch.setattr(matrixops, "_last_reduction", None)
    assert matrixops._orbit_reduction(list(part), spec) == (form, gauge)
    assert to_quiver_rep(t, data, inst) == (rep, facts)


def test_non_split_part_is_rejected_twice(monkeypatch):
    data, t = _two_irregular_poles()
    spec = orbit_spec_from_data(data, 0)
    part = [t.parts[0][0], ExactMatrix.from_rows([[0, 2], [1, 0]])]
    calls = _counting_htl_reduce(monkeypatch)
    assert not orbit_member(part, spec)
    assert matrixops._last_reduction == ((tuple(part), 2, _spec_keys(spec)), None)
    assert not orbit_member(part, spec)
    assert calls == [2]


def test_a_raising_reduction_leaves_the_previous_entry(monkeypatch):
    data, t = _two_irregular_poles()
    spec = orbit_spec_from_data(data, 0)
    part = list(t.parts[0])
    assert orbit_member(part, spec)
    kept = matrixops._last_reduction

    def broken(part, order, keys):
        raise RuntimeError("reduction failed")

    monkeypatch.setattr(matrixops, "htl_reduce", broken)
    with pytest.raises(RuntimeError):
        orbit_member([part[0], ExactMatrix.from_rows([[0, 2], [1, 0]])], spec)
    assert matrixops._last_reduction is kept
    assert orbit_member(part, spec)     # from the entry, with no reduction


def test_predicted_and_shifted_checks_reduce_once(monkeypatch):
    doc = json.loads((pathlib.Path(__file__).resolve().parents[1]
                      / "perfbench" / "inputs" / "matrix-mc.json").read_text())
    entry = doc["entries"][0]
    data = parse_spectral(entry["instance"])
    res = middle_convolution(parse_tuple(entry["tuple"], data), data,
                             tuple(entry["multi_index"]))
    calls = _counting_htl_reduce(monkeypatch)
    parts = [list(p) for p in res.output.parts]
    assert orbit_member(parts[0], res.predicted[0])
    once = len(calls)
    assert once >= 1
    assert not orbit_member(parts[0], _xi_shifted(res.predicted[0]))
    assert len(calls) == once
    assert orbit_member(parts[1], res.predicted[1])
    assert len(calls) > once


def reference_orbit_reduction(part, spec):
    """_orbit_reduction as it was before the reduction took the orbit's keys,
    with no memo: reference_htl_reduce, whose leading values come from
    qi_eigenvalues, then the comparison of block keys, sizes and residue
    rank sequences."""
    try:
        form, gauge = reference_htl_reduce(part, spec.order)
    except NonSplitError:
        return None
    want = {blk.q_coeffs: blk for blk in spec.blocks if blk.size > 0}
    have = {b.q_coeffs: b for b in form.blocks if b.size > 0}
    if set(want) != set(have):
        return None
    for key, blk in want.items():
        red = have[key]
        if red.size != blk.size:
            return None
        prod = None
        for l, (prod, r_l) in enumerate(
                zip(shifted_products(red.residue, blk.xi), blk.ranks), start=1):
            if l == 1 and blk.head_free:
                continue
            if mat_rank(prod) != r_l:
                return None
        if prod is None or not prod.is_zero():
            return None
    return form, tuple(gauge)


def _top_moved(spec, b):
    """spec with block b's top q-coefficient moved by 1."""
    blocks = list(spec.blocks)
    q = blocks[b].q_coeffs
    blocks[b] = replace(blocks[b], q_coeffs=q[:-1] + (q[-1] + 1,))
    return replace(spec, blocks=tuple(blocks))


def _specs_of_order(data, order):
    """Every pole's spec of the given order, each also with its xi moved by
    1 and with one block's top value moved by 1."""
    own = [orbit_spec_from_data(data, i) for i in range(len(data.poles))
           if data.poles[i].order == order]
    moved = [_top_moved(s, b) for s in own for b in range(len(s.blocks)) if order > 1]
    return own + [_xi_shifted(s) for s in own] + moved


def _assert_orbit_reduction_matches_the_reference(part, spec):
    red = matrixops._orbit_reduction(part, spec)
    assert red == reference_orbit_reduction(part, spec)
    return red is not None


def _assert_orbit_reductions_match_the_reference(data, t):
    """Compare every part of t against every spec of its order; the number
    of comparisons that found the part in the orbit."""
    members = 0
    for i, part in enumerate(t.parts):
        for spec in _specs_of_order(data, t.orders[i]):
            members += _assert_orbit_reduction_matches_the_reference(list(part), spec)
        assert orbit_member(list(part), orbit_spec_from_data(data, i))
    return members


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_orbit_reduction_matches_the_reference(seed, n, poles):
    data, t = random_orbit_tuple(random.Random(seed), n=n, p=poles)
    assert _assert_orbit_reductions_match_the_reference(data, t) >= len(t.parts)


@pytest.mark.parametrize("name", ["pair", "order5"])
def test_orbit_reduction_matches_the_reference_on_the_samples(name, monkeypatch):
    monkeypatch.setattr(matrixops, "_last_reduction", None)
    data, t = _sample(name)
    assert _assert_orbit_reductions_match_the_reference(data, t) >= len(t.parts)


def _spec_with_tops(tops, size=1):
    """An order-2 spec with one block of the given size per top value, each
    with residue 0 (xi = (0,), ranks = (0,))."""
    return matrixops.OrbitSpec(2, tuple(
        matrixops.OrbitBlockSpec((GaussRat(top),), size, (ZERO,), (0,)) for top in tops))


@pytest.mark.parametrize("top, tops, member", [
    ([[0, 2], [1, 0]], (1, -1), False),   # eigenvalues +-sqrt(2): no split over Q(i)
    ([[0, 1], [0, 0]], (0,), False),      # 0 is defective
    ([[1, 0], [0, -1]], (1, -1), True),
    ([[1, 0], [0, -1]], (1, -1, 3), False),   # 3 is named, with no eigenvector
    ([[1, 0], [0, -1]], (1, 3), False),       # -1 is not named
    ([[5, 0], [0, 5]], (1, -1), False),       # a scalar top no key names
    ([[1, 0], [0, 1]], (1, -1), False),       # a scalar top and a value it lacks
    ([[1, 0], [0, 1]], (1,), True),
], ids=["non-split", "defective", "split", "named-value-missing", "unnamed-value",
        "unnamed-scalar", "scalar-and-missing-value", "scalar"])
def test_orbit_reduction_matches_the_reference_on_chosen_tops(top, tops, member,
                                                               monkeypatch):
    monkeypatch.setattr(matrixops, "_last_reduction", None)
    part = [ExactMatrix.zeros(2), ExactMatrix.from_rows(top)]
    spec = _spec_with_tops(tops, size=2 if len(tops) == 1 else 1)
    assert _assert_orbit_reduction_matches_the_reference(part, spec) is member
    if not member:
        with pytest.raises(NonSplitError):
            htl_reduce(part, 2, _spec_keys(spec))


def test_matrix_mc_group_finds_no_eigenvalues(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("eigenvalues searched for")

    doc = json.loads((pathlib.Path(__file__).resolve().parents[1]
                      / "perfbench" / "inputs" / "matrix-mc.json").read_text())
    entry = doc["entries"][0]
    data = parse_spectral(entry["instance"])
    t = parse_tuple(entry["tuple"], data)
    monkeypatch.setattr(matrixops, "qi_eigenvalues", boom)
    monkeypatch.setattr(matrixops, "_last_reduction", None)
    res = middle_convolution(t, data, tuple(entry["multi_index"]))
    verdicts = [orbit_member(list(part), check(spec))
                for part, spec in zip(res.output.parts, res.predicted)
                for check in (lambda s: s, _xi_shifted)]
    assert verdicts == [True, False] * len(res.output.parts)
    inst = build_instance(data)
    rep, _ = to_quiver_rep(t, data, inst)
    for value, m in zip(inst.lam, moment_map(inst, rep)):
        assert m == ExactMatrix.scalar(m.rows, value)


def test_quasi_irreducibility_via_matrix_side():
    rng = random.Random(13)
    data, t = random_orbit_tuple(rng, n=2, p=1)
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
