import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gadsp.numeric import ExactMatrix, GaussRat
from gadsp.serialize import parse_spectral
from gadsp.spectral import (
    IrregularBlock,
    PoleData,
    ResidueSpec,
    SpectralDataError,
    d_value,
    make_spectral_data,
    normalize,
    rank_sequence,
    select_xi,
    shift_pole,
    swap_xi,
)
from gadsp.builder import build_instance
from gadsp.gensamples import (
    random_fuchsian_data,
    random_instance_data,
    random_jordan,
    random_orbit_tuple,
    rng_from_seed,
)


def fuchsian_doc():
    return {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}, {"value": "-1", "blocks": [1]}]}}]},
            {"point": "a1", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}, {"value": "1/2", "blocks": [1]}]}}]},
            {"point": "a2", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}, {"value": "1/2", "blocks": [1]}]}}]},
        ],
    }


def test_parse_fuchsian_document():
    data = parse_spectral(fuchsian_doc())
    assert all(p.order == 1 for p in data.poles)
    assert data.i_irr == frozenset({0})
    assert data.i_reg == frozenset({1, 2})
    assert data.e(0, 1) == 2


def test_parse_two_distinct_blocks():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 2, "blocks": [
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["2"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}}]},
            {"point": "a1", "order": 1, "blocks": [
                {"size": 2, "q": [], "residue": {"jordan": [
                    {"value": "0", "blocks": [2]}]}}]},
        ],
    }
    data = parse_spectral(doc)
    assert data.m(0) == 2
    assert data.i_irr == frozenset({0})


def test_parse_rejects_identical_q():
    doc = {
        "rank": 2,
        "poles": [
            {"point": "infinity", "order": 2, "blocks": [
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "0", "blocks": [1]}]}},
                {"size": 1, "q": ["1"], "residue": {"jordan": [
                    {"value": "3", "blocks": [1]}]}}]},
        ],
    }
    with pytest.raises(SpectralDataError, match="not distinct"):
        parse_spectral(doc)


def test_parse_rejects_rank_mismatch():
    doc = fuchsian_doc()
    doc["poles"][1]["blocks"][0]["size"] = 1
    with pytest.raises(SpectralDataError):
        parse_spectral(doc)


def test_parse_rejects_bad_xi():
    doc = fuchsian_doc()
    doc["poles"][0]["blocks"][0]["xi"] = ["5"]
    with pytest.raises(SpectralDataError, match="annihilate"):
        parse_spectral(doc)


def test_normalize_strips_single_block_finite_pole():
    blocks = (IrregularBlock((GaussRat(3),), 2,
                             ResidueSpec(jordan=((GaussRat(0), (2,)),))),)
    poles = (PoleData("infinity", 1,
                      (IrregularBlock((), 2, ResidueSpec(jordan=((GaussRat(1), (1, 1)),))),)),
             PoleData("a1", 2, blocks))
    data = make_spectral_data(2, poles)
    normed, log = normalize(data)
    assert normed.poles[1].order == 1
    assert normed.poles[1].blocks[0].q_coeffs == ()
    assert log == [("a1", (GaussRat(3),))]
    again, log2 = normalize(normed)
    assert again == normed and log2 == []


def test_normalize_keeps_infinity():
    poles = (PoleData("infinity", 2,
                      (IrregularBlock((GaussRat(1),), 1,
                                      ResidueSpec(jordan=((GaussRat(0), (1,)),))),)),)
    data = make_spectral_data(1, poles)
    normed, log = normalize(data)
    assert normed == data and log == []


def test_select_xi_jordan_nilpotent():
    res = ResidueSpec(jordan=((GaussRat(0), (2, 1)),))
    xi, ranks = select_xi(res)
    assert xi == (GaussRat(0), GaussRat(0))
    assert ranks == (1, 0)


def test_select_xi_two_eigenvalues():
    res = ResidueSpec(jordan=((GaussRat(1), (1,)), (GaussRat(2), (1,))))
    xi, ranks = select_xi(res)
    assert xi == (GaussRat(1), GaussRat(2))
    assert ranks == (1, 0)


def test_select_xi_explicit_scalar():
    res = ResidueSpec(explicit=ExactMatrix.from_rows([[5]]))
    xi, ranks = select_xi(res)
    assert xi == (GaussRat(5),)
    assert ranks == (0,)


def test_select_xi_annihilates_explicit_form():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        res = random_jordan(rng, n)
        xi, ranks = select_xi(res)
        m = res.as_matrix()
        prod = ExactMatrix.identity(n)
        for x in xi:
            prod = prod * m.add_scalar(-x)
        assert prod.is_zero()
        assert ranks[0] < n
        assert all(a > b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == 0


def test_rank_sequence_explicit_matches_jordan():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        res = random_jordan(rng, n)
        xi, ranks = select_xi(res)
        explicit = ResidueSpec(explicit=res.as_matrix())
        assert rank_sequence(explicit, xi) == ranks


def _jordan_ranks_by_recount(res, xi):
    """rank_sequence's Jordan ranks by the definition, as first written: for
    each k, the hits of every eigenvalue in xi[:k] are counted anew."""
    ranks = []
    for k in range(1, len(xi) + 1):
        head = xi[:k]
        total = 0
        for value, blocks in res.jordan:
            hits = sum(1 for x in head if x == value)
            total += sum(max(b - hits, 0) for b in blocks)
        ranks.append(total)
    return ranks


VALUES = (GaussRat(0), GaussRat(1), GaussRat(Fraction(-1, 2)), GaussRat(0, 1),
          GaussRat(2, -3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jordan_rank_sequence_matches_the_recount(data):
    # eigenvalues are a subset of VALUES, so xi also holds non-eigenvalues;
    # xi repeats eigenvalues, and a prefix of a permutation may not annihilate
    values = data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3,
                                unique=True))
    res = ResidueSpec(jordan=tuple(
        (v, tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
        for v in values))
    need = [v for v, blocks in res.jordan for _ in range(max(blocks))]
    xi = data.draw(st.permutations(need + data.draw(st.lists(st.sampled_from(VALUES),
                                                              max_size=4))))
    xi = tuple(xi[:data.draw(st.integers(0, len(xi)))])
    want = _jordan_ranks_by_recount(res, xi)
    if want and want[-1] == 0:
        assert rank_sequence(res, xi) == tuple(want)
    else:
        with pytest.raises(SpectralDataError):
            rank_sequence(res, xi)


def test_the_pole_order_does_not_size_the_load():
    # Two blocks whose q's differ at degree 2 on a pole of order 10^7: keys
    # padded to the pole order grow with it (a run at order 10^6 peaked above
    # 300 MB that way); the longest q is all the comparison needs.
    doc = fuchsian_doc()
    doc["poles"][0] = {"point": "infinity", "order": 10 ** 7, "blocks": [
        {"size": 1, "q": [q], "residue": {"jordan": [{"value": v, "blocks": [1]}]}}
        for q, v in (("2", "-1"), ("1", "0"))]}
    tracemalloc.start()
    try:
        data = parse_spectral(doc)
        d = data.d(0, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert data.poles[0].order == 10 ** 7
    assert [b.q_coeffs for b in data.poles[0].blocks] == [(GaussRat(1),), (GaussRat(2),)]
    assert d == 0


def _block(q):
    return IrregularBlock(tuple(GaussRat(c) for c in q), 1,
                          ResidueSpec(jordan=((GaussRat(0), (1,)),)))


def test_d_value_degree_three():
    assert d_value(_block([0, 1]), _block([0, 2])) == 1


def test_d_value_degree_two():
    assert d_value(_block([1]), _block([2])) == 0


def test_d_value_same_block():
    blk = _block([1, 1])
    assert d_value(blk, blk) == -1


def test_swap_and_shift_preserve_validity():
    data = parse_spectral(fuchsian_doc())
    swapped = swap_xi(data, 0, 1, 1)
    blk = swapped.block(0, 1)
    assert blk.xi == (GaussRat(-1), GaussRat(0))
    shifted = shift_pole(data, 1, GaussRat(2))
    assert shifted.block(1, 1).xi[0] == data.block(1, 1).xi[0] - 2
    assert shifted.block(0, 1).xi[0] == data.block(0, 1).xi[0] + 2
    assert shifted.block(0, 1).ranks == data.block(0, 1).ranks


def test_direct_construction_rejects_what_the_parser_checks_first():
    # the parser rejects these before they reach the constructors
    def pole(order):
        return PoleData("infinity", order, (IrregularBlock((), 1, ResidueSpec(
            jordan=((GaussRat(0), (1,)),))),))
    assert make_spectral_data(1, (pole(1),)).poles[0].order == 1
    with pytest.raises(SpectralDataError, match="^pole order must be >= 1$"):
        make_spectral_data(1, (pole(0),))
    one = ExactMatrix.from_rows([[1]])
    jordan = ((GaussRat(1), (1,)),)
    for kwargs in ({}, {"jordan": jordan, "explicit": one}):
        with pytest.raises(SpectralDataError, match="^residue needs exactly one of"):
            ResidueSpec(**kwargs)
    with pytest.raises(SpectralDataError, match="^jordan block sizes must be positive$"):
        ResidueSpec(jordan=((GaussRat(1), (1, 0)),))
    with pytest.raises(SpectralDataError, match="^repeated eigenvalue in jordan data$"):
        ResidueSpec(jordan=jordan * 2)
    with pytest.raises(SpectralDataError, match="^explicit residue must be square$"):
        ResidueSpec(explicit=ExactMatrix.from_rows([[1, 0]]))


def test_swap_and_shift_reject_positions_out_of_range():
    data = parse_spectral(fuchsian_doc())
    assert data.block(0, 1).e == 2 and data.p == 2
    for s in (0, 2):
        with pytest.raises(SpectralDataError, match="^swap position out of range$"):
            swap_xi(data, 0, 1, s)
    for i0 in (0, 3):
        with pytest.raises(SpectralDataError, match="^shift pole index out of range$"):
            shift_pole(data, i0, GaussRat(1))


class _LowestDraws:
    """An rng whose randint returns its lower bound: every share of
    random_jordan is 1, so the pool's seven values run out before n >= 8."""

    def randint(self, a, b):
        return a

    def shuffle(self, values):
        pass


@pytest.mark.parametrize("n", [1, 7, 8, 9, 10])
def test_random_jordan_fills_its_size_when_the_pool_runs_out(n):
    res = random_jordan(_LowestDraws(), n)
    assert res.size == n
    assert len(res.jordan) == min(n, 7)
    assert res.jordan[-1][1] == (1,) + ((n - 7,) if n > 7 else ())


@pytest.mark.parametrize("seed", range(4))
def test_generators_return_data_of_the_rank_asked(seed):
    rng = random.Random(seed)
    for n in range(1, 11):
        for p in (1, 2, 3):
            assert random_fuchsian_data(rng, n=n, p=p).rank == n
            assert random_instance_data(rng, n=n, p=p).rank == n
            data, t = random_orbit_tuple(rng, n=n, p=p)
            assert data.rank == t.n == n


def test_the_walk_draw_that_came_out_short_builds():
    # rng_from_seed(5), draw k = 141 of the walk draws: every residue share of
    # one rank-8 pole was 1, and the draw raised "residue size mismatch".
    rng = rng_from_seed(5)
    for k in range(142):
        if k % 2 == 0:
            data = random_instance_data(rng, n=rng.randint(3, 6), p=rng.randint(1, 3))
        else:
            data = random_fuchsian_data(rng, n=rng.randint(3, 8), p=rng.randint(1, 4))
    assert data.rank == 8
    inst = build_instance(normalize(data)[0])
    assert inst.alpha[0] == 8
