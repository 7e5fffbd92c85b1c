"""Reduced cochain complexes and cohomology dimensions."""

import gc
import inspect
import random
import sys
import textwrap
import threading
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import srbetti.betti
import srbetti.cohomology
import srbetti.linalg
from srbetti.betti import betti_number, betti_table
from srbetti.cohomology import (
    CochainComplex,
    assemble,
    coboundary_map,
    cohomology_dims,
    reduced_cochain_complex,
    reduced_cohomology_dims,
    sweep_order,
)
from srbetti.complexes import (
    boundary_simplex,
    empty_complex,
    from_facets,
    full_simplex,
    full_subcomplex,
    join,
    mask_of,
)
from srbetti.bounds import check_colored_binomial
from srbetti.coloring import greedy_coloring
from srbetti.corpus import cycle_complex, random_complex, rp2_complex
from srbetti.errors import NotAComplex
from srbetti.linalg import GF2, GF3, QQ, SparseMap, rank
from test_complexes import complexes, moore_space_mod_3, relabel_complex


def test_empty_complex_chain():
    C = reduced_cochain_complex(empty_complex())
    assert (C.lo, C.hi) == (-1, -1)
    assert C.size(-1) == 1
    assert reduced_cohomology_dims(empty_complex(), QQ) == {-1: 1}


def test_two_points():
    K = from_facets(2, [1, 2])
    C = reduced_cochain_complex(K)
    assert {q: C.size(q) for q in (-1, 0)} == {-1: 1, 0: 2}
    assert C.differential(-1).data == [[(0, 1)], [(0, 1)]]
    assert reduced_cohomology_dims(K, QQ) == {0: 1}


def test_four_cycle_ranks_and_dims():
    K = cycle_complex(4)
    C = reduced_cochain_complex(K)
    assert {q: C.size(q) for q in (-1, 0, 1)} == {-1: 1, 0: 4, 1: 4}
    assert rank(C.differential(-1), QQ) == 1
    assert rank(C.differential(0), QQ) == 3
    assert reduced_cohomology_dims(K, QQ) == {1: 1}


def test_rp2_field_dependence():
    K = rp2_complex()
    assert reduced_cohomology_dims(K, GF2) == {1: 1, 2: 1}
    assert reduced_cohomology_dims(K, QQ) == {}
    assert reduced_cohomology_dims(K, GF3) == {}


def test_simplex_contractible():
    assert reduced_cohomology_dims(full_simplex(2), QQ) == {}


def test_not_a_complex_raises():
    one = SparseMap(1, 1, [[(0, 1)]])
    bad = CochainComplex(0, 1, {0: 1, 1: 1}, {0: one, 1: one})
    # need a degree-2 slot for the composite to be testable
    bad.sizes[2] = 1
    bad.hi = 2
    with pytest.raises(NotAComplex) as err:
        cohomology_dims(bad, QQ)
    assert err.value.q == 0


def test_shape_mismatch_raises():
    bad = CochainComplex(0, 1, {0: 2, 1: 1}, {0: SparseMap(1, 1, [[(0, 1)]])})
    with pytest.raises(NotAComplex):
        cohomology_dims(bad, QQ)


def euler_characteristic_reduced(K) -> int:
    """Alternating sum of face counts, the empty face counted in degree -1."""
    return sum((-1) ** (f.bit_count() + 1) for f in K.faces)


@settings(max_examples=50, deadline=None)
@given(complexes(), st.sampled_from([QQ, GF2, GF3]))
def test_euler_poincare(K, f):
    dims = reduced_cohomology_dims(K, f)
    alt = sum((-1) ** q * d for q, d in dims.items())
    assert alt == euler_characteristic_reduced(K)


@settings(max_examples=50, deadline=None)
@given(complexes())
def test_h_minus_one_iff_void(K):
    dims = reduced_cohomology_dims(K, QQ)
    assert dims.get(-1, 0) == (1 if K.faces == frozenset({0}) else 0)


@settings(max_examples=30, deadline=None)
@given(complexes(), st.randoms(use_true_random=False), st.sampled_from([QQ, GF2]))
def test_relabeling_leaves_dims_unchanged(K, rng, f):
    new = list(range(1, K.m + 1))
    rng.shuffle(new)
    perm = {old: new[old - 1] for old in range(1, K.m + 1)}
    assert reduced_cohomology_dims(relabel_complex(K, perm), f) == reduced_cohomology_dims(K, f)


@settings(max_examples=60, deadline=None)
@given(complexes(max_m=6), st.data(), st.sampled_from([QQ, GF2, GF3]))
def test_subcomplex_dims_read_off_k_match_a_rebuilt_subcomplex(K, data, f):
    # the route through K's own complex against re-indexing K|ω and building
    # its complex from scratch
    omega = data.draw(st.integers(0, K.full_mask))
    rebuilt = cohomology_dims(reduced_cochain_complex(full_subcomplex(K, omega)), f)
    assert reduced_cohomology_dims(K, f, omega) == rebuilt


def rebuilt_dims(K, omega, f):
    """H̃(K|ω) from re-indexing K|ω and building its complex from scratch."""
    return cohomology_dims(reduced_cochain_complex(full_subcomplex(K, omega)), f)


@settings(max_examples=60, deadline=None)
@given(complexes(max_m=7), st.data(), st.sampled_from([QQ, GF2, GF3]))
def test_walker_answers_queries_in_any_order(K, data, f):
    # queries in arbitrary order make the walker pop to every kind of prefix
    # and push from it; a fresh walker and result cache keep each example
    # reproducible
    omegas = data.draw(st.lists(st.integers(0, K.full_mask), min_size=1, max_size=12))
    srbetti.cohomology._walker.cache_clear()
    reduced_cohomology_dims.cache_clear()
    for omega in omegas:
        assert reduced_cohomology_dims(K, f, omega) == rebuilt_dims(K, omega, f)


def test_a_push_that_shares_its_parents_pivots_is_caught(monkeypatch):
    # mutation check: a push that reduces into its parent's pivot state
    # instead of a copy leaves the child's pivots behind when it is popped
    source = textwrap.dedent(inspect.getsource(srbetti.cohomology._Walker._push))
    assert source.count("pivots[k].copy()") == 1
    mutant: dict = {}
    exec(source.replace("pivots[k].copy()", "pivots[k]"), vars(srbetti.cohomology), mutant)
    monkeypatch.setattr(srbetti.cohomology._Walker, "_push", mutant["_push"])
    try:
        with pytest.raises(AssertionError):
            test_walker_answers_queries_in_any_order()
    finally:
        srbetti.cohomology._walker.cache_clear()
        reduced_cohomology_dims.cache_clear()  # holds the mutant's answers


SWEPT = [
    rp2_complex(),
    *(random_complex(7, d, s) for d in (0.5, 0.9) for s in (0, 1)),
    moore_space_mod_3(),
    random_complex(9, 0.5, 0),  # the walker's order moves vertex 9 out of its mask's second byte
]


def sweep(K, f):
    """A fresh walker for K and its answers to every ω over f, asked in the
    package's sweep order from empty caches, which are emptied again after
    (``srbetti.cohomology.reduced_cohomology_dims``, which a test may patch)."""
    reduced_cohomology_dims.cache_clear()
    try:
        dims = srbetti.cohomology.reduced_cohomology_dims
        answers = {omega: dims(K, f, omega) for omega in sweep_order(K)}
        return srbetti.cohomology._walker(K), answers
    finally:
        reduced_cohomology_dims.cache_clear()


def test_walker_answers_a_descending_full_sweep():
    # the betti_table order: every ω is pushed once, onto ω minus its least
    # vertex under the walker's order, so every row that clearing skips is
    # skipped here, which scattered queries miss
    for K in SWEPT:
        for f in (QQ, GF2, GF3):
            for omega, dims in sweep(K, f)[1].items():
                assert dims == rebuilt_dims(K, omega, f), (K, f, omega)


@pytest.mark.parametrize(
    "code, mutant",
    [
        ("keys[g] not in cleared", "keys[g] + 1 not in cleared"),
        ("keys[g] not in cleared", "keys[g] - 1 not in cleared"),
        ("levels[k - 1], pivots[k + 1]", "levels[k - 1], pivots[k]"),
        ("levels[k - 1], pivots[k + 1]", "levels[k - 1], pivots[k + 2]"),
        ("len(rows), cols[k - 1], rows,", "len(rows) - 1, cols[k - 1], rows[:-1],"),
    ],
)
def test_a_push_that_clears_the_wrong_rows_is_caught(monkeypatch, code, mutant):
    # mutation check: clearing by a neighbouring key, by the state of the
    # wrong size, or reducing one row too few fails the descending sweep
    source = textwrap.dedent(inspect.getsource(srbetti.cohomology._Walker._push))
    assert source.count(code) == 1
    namespace: dict = {}
    exec(source.replace(code, mutant), vars(srbetti.cohomology), namespace)
    monkeypatch.setattr(srbetti.cohomology._Walker, "_push", namespace["_push"])
    with pytest.raises((AssertionError, IndexError)):
        test_walker_answers_a_descending_full_sweep()


def busy_last(K):
    """The walker's vertex order as 0-based vertex -> 0-based place: ascending
    by the number of faces through the vertex, ties broken by label."""
    through = [sum(g >> v & 1 for g in K.faces) for v in range(K.m)]
    return {v: i for i, v in enumerate(sorted(range(K.m), key=lambda v: (through[v], v)))}


def test_a_sweep_clears_rows_and_reduces_the_rest():
    # every face a push adds, one through the least vertex of ω under the
    # walker's order, is either reduced or cleared, and clearing does
    # happen: a push that reduced bottom-up would clear nothing and still
    # answer every query right
    K = SWEPT[3]
    place = busy_last(K)
    assert place != {v: v for v in range(K.m)}
    walker, _ = sweep(K, QQ)
    added = 0
    for omega in range(1, K.full_mask + 1):
        least = min((v for v in range(K.m) if omega >> v & 1), key=place.get)
        added += sum(1 for g in K.faces if g >> least & 1 and not g & ~omega)
    assert walker.rows_cleared > 0
    assert walker.rows_reduced + walker.rows_cleared == added


def pushed_rows(K, place):
    """Σ 2^(m − min σ − |σ| + 1) over the faces σ ≠ ∅ of K, min σ the least
    1-based place of a vertex of σ: the ω through σ whose least vertex is
    σ's, one push of σ's row each."""
    return sum(
        2 ** (K.m - 1 - min(place[v] for v in range(K.m) if g >> v & 1) - g.bit_count() + 1)
        for g in K.faces
        if g
    )


def test_a_sweep_pushes_each_face_once_per_omega_it_leads_and_busy_vertices_last():
    # the sweep order lists every ω once, descending in the walker's labels;
    # the rows it pushes are those of the formula under that order, and no
    # more than under K's own labels
    for K in SWEPT:
        place = busy_last(K)
        relabeled = [sum(1 << place[v] for v in range(K.m) if om >> v & 1) for om in sweep_order(K)]
        assert relabeled == list(range(K.full_mask, -1, -1))
        walker, _ = sweep(K, QQ)
        pushed = walker.rows_reduced + walker.rows_cleared
        assert pushed == pushed_rows(K, place), K
        assert pushed <= pushed_rows(K, {v: v for v in range(K.m)}), K


def double_suspension_of_rp2():
    two_points = from_facets(2, [0b01, 0b10])
    return join(two_points, join(two_points, rp2_complex()))


def test_a_sweep_counts_the_rows_it_sets_aside():
    # RP²'s ℤ/2 leaves one row with lead 2; a complex without torsion leaves
    # none; on ΣΣRP², later unit pivots take two more rows out of the
    # residual than pushes set aside
    assert sweep(rp2_complex(), QQ)[0].rows_residual == 1
    assert sweep(random_complex(7, 0.5, 0), QQ)[0].rows_residual == 0
    assert sweep(double_suspension_of_rp2(), QQ)[0].rows_residual == -2


def test_a_sweep_clears_by_unit_pivots_only():
    # ΣΣRP² has a residual row one size up whose lead is the key of a face a
    # push adds: clearing by it too would clear that face and still answer
    # every ω right, so only the counts tell
    walker, _ = sweep(double_suspension_of_rp2(), QQ)
    assert (walker.rows_reduced, walker.rows_cleared) == (8066, 7734)


def test_a_push_that_clears_by_a_residual_key_is_caught(monkeypatch):
    # mutation check: a residual row is no cycle with a unit lead
    source = textwrap.dedent(inspect.getsource(srbetti.cohomology._Walker._push))
    code = "cleared = levels[k - 1], pivots[k + 1]"
    mutant = "cleared = levels[k - 1], pivots[k + 1].keys() | {max(r)[0] for r in residual[k + 1]}"
    assert source.count(code) == 1
    namespace: dict = {}
    exec(source.replace(code, mutant), vars(srbetti.cohomology), namespace)
    monkeypatch.setattr(srbetti.cohomology._Walker, "_push", namespace["_push"])
    with pytest.raises(AssertionError):
        test_a_sweep_clears_by_unit_pivots_only()


def check_residual_sweeps(fields):
    """Descending sweeps of complexes whose residual is not empty, through
    the result cache, over the fields in the given order: the first field's
    sweep walks, the others read its per-ω results."""
    dims = srbetti.cohomology.reduced_cohomology_dims
    for K in (rp2_complex(), moore_space_mod_3()):
        reduced_cohomology_dims.cache_clear()
        for f in fields:
            for omega in range(K.full_mask, -1, -1):
                assert dims(K, f, omega) == rebuilt_dims(K, omega, f), (K, f, omega)
        assert srbetti.cohomology._walker(K).rows_residual > 0


@pytest.mark.parametrize("fields", [(QQ, GF2, GF3), (GF2, QQ, GF3)])
def test_the_residual_decides_the_field(fields):
    # RP² differs over GF(2) and the Moore space over GF(3) from ℚ: only the
    # ranks of their residual rows tell the fields apart
    check_residual_sweeps(fields)
    assert reduced_cohomology_dims(rp2_complex(), GF2) == {1: 1, 2: 1}
    assert reduced_cohomology_dims(moore_space_mod_3(), GF3) == {1: 1, 2: 1}
    assert reduced_cohomology_dims(moore_space_mod_3(), QQ) == {}


def test_a_walker_that_takes_the_residual_for_zero_is_caught(monkeypatch):
    # mutation check: ranking every residual as 0, in the helper that turns
    # the walker's unit dims into a field's, fails the residual sweeps in
    # both field orders and the walker's descending sweep
    source = textwrap.dedent(inspect.getsource(srbetti.cohomology.field_dims))
    code = "rank(rows, f)"
    assert source.count(code) == 1
    namespace: dict = {}
    exec(source.replace(code, "0"), vars(srbetti.cohomology), namespace)
    monkeypatch.setattr(srbetti.cohomology, "field_dims", namespace["field_dims"])
    try:
        for check in (
            lambda: check_residual_sweeps((QQ, GF2, GF3)),
            lambda: check_residual_sweeps((GF2, QQ, GF3)),
            test_walker_answers_a_descending_full_sweep,
        ):
            with pytest.raises(AssertionError):
                check()
    finally:
        reduced_cohomology_dims.cache_clear()  # holds the mutant's answers


def test_cache_clear_discards_every_rank_derived_state(monkeypatch):
    # answers found with a wrong rank must not outlive cache_clear, in the
    # walker's chain or in the per-ω results, even for a single query
    K, omega = rp2_complex(), 0b011111  # a Möbius band
    rank = srbetti.cohomology.rank
    reduced_cohomology_dims.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(srbetti.cohomology, "rank", lambda M, f: rank(M, f) + 1)
        assert reduced_cohomology_dims(K, QQ, omega) != {1: 1}
    reduced_cohomology_dims.cache_clear()
    assert reduced_cohomology_dims(K, QQ, omega) == rebuilt_dims(K, omega, QQ) == {1: 1}


@pytest.mark.parametrize("fields", [(QQ, GF2), (GF2, QQ)])
def test_a_wrong_rank_reaches_the_tables_of_every_field(monkeypatch, fields):
    # every elimination goes through linalg.rank: a two-argument stand-in,
    # bound wherever the package binds rank, changes the table of the field
    # that walks and of the one that reads its per-ω results
    K = random_complex(7, 0.5, 0)
    right = {f: betti_table(K, f).entries for f in fields}
    rank = srbetti.linalg.rank

    def off_by_one(M, f):
        return rank(M, f) + 1 if M.rows and M.cols else rank(M, f)

    for name, module in list(sys.modules.items()):
        if name == "srbetti" or name.startswith("srbetti."):
            for key, value in list(vars(module).items()):
                if value is rank:
                    monkeypatch.setattr(module, key, off_by_one)
    reduced_cohomology_dims.cache_clear()
    try:
        for f in fields:
            assert betti_table(K, f).entries != right[f], f
    finally:
        reduced_cohomology_dims.cache_clear()  # holds wrong answers now


def test_one_walker_and_one_reduced_complex_per_complex(monkeypatch):
    # two equal K objects swept over three fields share one walker, which
    # builds and checks K's reduced complex once; K itself holds no complex
    builds = []

    def counting(K):
        builds.append(K)
        return reduced_cochain_complex(K)

    monkeypatch.setattr(srbetti.cohomology, "reduced_cochain_complex", counting)
    srbetti.cohomology._walker.cache_clear()
    reduced_cohomology_dims.cache_clear()
    K1, K2 = rp2_complex(), rp2_complex()
    assert K1 == K2 and K1 is not K2
    for K, f in ((K1, QQ), (K2, GF2), (K1, GF3), (K2, QQ)):
        betti_table(K, f)
    assert len(builds) == 1
    assert srbetti.cohomology._walker.cache_info().currsize == 1
    assert not hasattr(K1, "cochains")


def test_one_walker_keeps_the_fields_apart():
    # RP² differs over GF(2) and ℚ: queries that alternate between fields in
    # random order must each read their own field's chain
    K = rp2_complex()
    srbetti.cohomology._walker.cache_clear()
    reduced_cohomology_dims.cache_clear()
    queries = [(omega, f) for omega in range(K.full_mask + 1) for f in (QQ, GF2, GF3)]
    random.Random(3).shuffle(queries)
    for omega, f in queries:
        assert reduced_cohomology_dims(K, f, omega) == rebuilt_dims(K, omega, f), (omega, f)


@pytest.mark.parametrize("f", [QQ, GF2])
def test_a_failed_push_leaves_no_half_built_level(monkeypatch, f):
    # rank raises on its k-th call inside betti_table; the walker keeps its
    # chain, and the next queries, starting with the ω that failed, are right:
    # the caches are cleared and the walker kept, so each query reaches it
    K = rp2_complex()
    reference = {omega: rebuilt_dims(K, omega, f) for omega in range(K.full_mask + 1)}
    rank, sweep = srbetti.cohomology.rank, srbetti.betti.subcomplex_cohomology
    for k in (1, 2, 5, 17, 40, 90):
        calls, asked = [], []

        def failing(M, field):
            calls.append(None)
            if len(calls) == k:
                raise RuntimeError("injected")
            return rank(M, field)

        def recording(K, omega, field):
            asked.append(omega)
            return sweep(K, omega, field)

        reduced_cohomology_dims.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(srbetti.cohomology, "rank", failing)
            patch.setattr(srbetti.betti, "subcomplex_cohomology", recording)
            with pytest.raises(RuntimeError, match="injected"):
                betti_table(K, f)
        walker = srbetti.cohomology._walker(K)
        walker.blocks.clear()  # forget the ω it stored, so that every query walks
        reduced_cohomology_dims.cache_clear()
        rest = [omega for omega in reference if omega != asked[-1]]
        random.Random(k).shuffle(rest)
        with monkeypatch.context() as patch:
            patch.setattr(srbetti.cohomology, "_walker", lambda K: walker)
            for omega in [asked[-1], *rest]:
                assert reduced_cohomology_dims(K, f, omega) == reference[omega], (k, omega)


def test_three_tables_walk_each_omega_once_and_read_it_back_twice():
    # cache_info counts the walkers' stores as lru_cache counts: a miss is an
    # ω walked, a hit an ω read back, and currsize the ω stored
    K = moore_space_mod_3()
    reduced_cohomology_dims.cache_clear()
    gc.collect()  # walkers kept alive by an earlier traceback count as live
    tables = {f: betti_table(K, f).entries for f in (QQ, GF2, GF3)}
    n = 1 << K.m
    info = reduced_cohomology_dims.cache_info()
    assert (info.misses, info.hits, info.currsize) == (n, 2 * n, n)
    assert tables[QQ] == tables[GF2] != tables[GF3]
    reduced_cohomology_dims.cache_clear()
    assert reduced_cohomology_dims.cache_info().currsize == 0


def test_a_single_query_on_a_large_complex_allocates_one_block():
    # the store's bytes come in blocks of 2^10 ω, allocated when first
    # written, so one ω of a 30-vertex complex does not cost 2^30 bytes; the
    # walk's own rows and states take about 38 KiB of the peak
    m = 30
    with pytest.warns(UserWarning, match="2\\^30 subset"):
        K = from_facets(m, [mask_of((v, v % m + 1)) for v in range(1, m + 1)], max_vertices=m)
    reduced_cohomology_dims.cache_clear()
    walker = srbetti.cohomology._walker(K)
    tracemalloc.start()
    try:
        assert betti_number(K, m - 2, K.full_mask, QQ) == 1  # the m-cycle's H̃^1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        reduced_cohomology_dims.cache_clear()
    assert [len(block) for block in walker.blocks.values()] == [1 << 10]
    assert peak < 1 << 16


def test_a_colored_query_above_the_vertex_cap_stores_about_1_kib_per_omega():
    # each ω_L of a coloring falls in a block of its own: at m = 40 and r = 7
    # the colored bound asks 128 ω, and the store must not grow by 64 KiB each
    m, rng = 40, random.Random(1)
    triangles = [mask_of(rng.sample(range(1, m + 1), 3)) for _ in range(80)]
    with pytest.warns(UserWarning, match="2\\^40 subset"):
        K = from_facets(m, triangles + [1 << v for v in range(m)], max_vertices=m)
    alpha = greedy_coloring(K)
    assert alpha.r == 7
    reduced_cohomology_dims.cache_clear()
    try:
        check_colored_binomial(K, alpha, QQ)
        blocks = list(srbetti.cohomology._walker(K).blocks.values())
    finally:
        reduced_cohomology_dims.cache_clear()
    stored = sum(len(block) - block.count(0) for block in blocks)
    assert stored == 1 << alpha.r
    assert sum(map(len, blocks)) <= stored << 10  # 64 KiB per ω in blocks of 2^16


@pytest.mark.parametrize(
    "K", SWEPT[:3] + SWEPT[-2:], ids=["rp2", "r7-0.5-0", "r7-0.5-1", "moore3", "r9-0.5-0"]
)
def test_a_walker_with_a_full_value_table_stores_every_result_apart(K):
    # once 254 distinct results fill the value table, each new ω's result
    # goes to the per-ω dict behind byte 255; the fillers are wrong answers
    # that no ω may read
    reduced_cohomology_dims.cache_clear()
    fresh = {f: betti_table(K, f).entries for f in (QQ, GF2, GF3)}
    reduced_cohomology_dims.cache_clear()
    walker = srbetti.cohomology._walker(K)
    walker.values += [(MappingProxyType({7: 1}), None)] * 254
    try:
        assert {f: betti_table(K, f).entries for f in (QQ, GF2, GF3)} == fresh
        assert len(walker.rare) == 1 << K.m
        assert set(b for block in walker.blocks.values() for b in block) == {255}
    finally:
        reduced_cohomology_dims.cache_clear()


def test_rp2s_residual_reaches_every_field_through_byte_255():
    # RP²'s ℤ/2 leaves a row set aside on the ω through it: those results
    # sit behind byte 255 with their rows, which GF(2) and GF(3) rank apart
    K = rp2_complex()
    reduced_cohomology_dims.cache_clear()
    walker = srbetti.cohomology._walker(K)
    assert reduced_cohomology_dims(K, QQ) == {}
    assert walker.blocks[0][K.full_mask] == 255
    assert walker.rare[K.full_mask][1]  # the residual rows
    assert reduced_cohomology_dims(K, GF2) == {1: 1, 2: 1}
    assert reduced_cohomology_dims(K, GF3) == {}
    for omega in range(K.full_mask + 1):
        for f in (GF2, GF3):
            assert reduced_cohomology_dims(K, f, omega) == rebuilt_dims(K, omega, f), (f, omega)
    assert list(walker.rare) == [K.full_mask]  # the only ω with a residual


def ask_in_threads(K, reference, seeds):
    """Each seed's thread asks every (ω, f) of ``reference`` in its own order,
    the threads starting together and switching often; the queries answered
    wrong, and the seeds of the threads that finished."""
    wrong, done, start = [], [], threading.Barrier(len(seeds))

    def ask(seed):
        queries = list(reference)
        random.Random(seed).shuffle(queries)
        start.wait(timeout=60)
        wrong.extend(q for q in queries if reduced_cohomology_dims(K, q[1], q[0]) != reference[q])
        done.append(seed)  # not reached if a query raised

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return wrong, sorted(done)


def test_threads_sharing_one_walker_get_right_answers():
    # the store's byte is read without the lock and written under it: four
    # threads on one walker must get right answers and store every ω; three
    # rounds, as a race shows only at times
    K = SWEPT[-1]
    reference = {(omega, f): rebuilt_dims(K, omega, f) for omega in range(1 << K.m) for f in (QQ, GF2)}
    for round in range(3):
        reduced_cohomology_dims.cache_clear()
        gc.collect()  # walkers kept alive by an earlier traceback count as live
        seeds = [4 * round + k for k in range(4)]
        assert ask_in_threads(K, reference, seeds) == ([], seeds)
        assert reduced_cohomology_dims.cache_info().misses == 1 << K.m
    reduced_cohomology_dims.cache_clear()


def test_dd_zero_checked_on_every_reduced_complex():
    for K in (cycle_complex(5), rp2_complex(), full_simplex(3)):
        reduced_cochain_complex(K).check_dd_zero()


def test_cohomology_dims_checks_a_complex_edited_after_it_was_built():
    # assemble checked d∘d on the maps it built; one sign flipped since then,
    # in the row of the first edge in d_0, breaks d_0 ∘ d_{-1} at that edge
    C = reduced_cochain_complex(rp2_complex())
    (j, a), *rest = C.d[0].data[0]
    C.d[0].data[0] = [(j, -a), *rest]
    with pytest.raises(NotAComplex) as err:
        cohomology_dims(C, QQ)
    assert (err.value.q, err.value.label) == (-1, C.labels[1][0])


def test_cached_dims_cannot_be_corrupted_by_a_caller():
    K = boundary_simplex(2)
    d = reduced_cohomology_dims(K, QQ)
    with pytest.raises(TypeError):
        d[1] = 99
    assert reduced_cohomology_dims(K, QQ) == {1: 1}


def flip_a_sign_in_d1(monkeypatch):
    """Make the builder flip the first entry of the first row of d_1 (edges -> triangles)."""
    build = srbetti.cohomology.coboundary_map

    def flipped(rule, lower, upper, q):
        M = build(rule, lower, upper, q)
        if upper and upper[0].bit_count() == 3:
            (j, a), *rest = M.data[0]
            M.data[0] = [(j, -a), *rest]
        return M

    monkeypatch.setattr(srbetti.cohomology, "coboundary_map", flipped)


def test_flipped_sign_in_the_reduced_builder_is_caught(monkeypatch):
    # mutation check: one wrong sign in d_1 (edges -> triangles) of the
    # 2-sphere must make the fused d∘d check fail on d_1 ∘ d_0, that is from
    # degree 0, at a triangle
    flip_a_sign_in_d1(monkeypatch)
    K = boundary_simplex(3)
    with pytest.raises(NotAComplex) as err:
        reduced_cochain_complex(K)
    assert err.value.q == 0
    assert "from degree 0" in str(err.value)
    assert err.value.label == K.faces_by_card[3][0]


def test_a_flipped_sign_is_named_in_the_complexs_own_labels(monkeypatch):
    # the walker sweeps the cone over the 4-cycle with its apex, vertex 1,
    # last; the same flipped sign as above must name the first triangle of K
    # itself, {1, 2, 3}, and not its image {1, 2, 5} under that order
    K = join(from_facets(1, [0b1]), cycle_complex(4))
    assert busy_last(K)[0] == K.m - 1
    flip_a_sign_in_d1(monkeypatch)
    reduced_cohomology_dims.cache_clear()
    try:
        with pytest.raises(NotAComplex) as err:
            reduced_cohomology_dims(K, QQ)
    finally:
        reduced_cohomology_dims.cache_clear()
    assert err.value.q == 0
    assert err.value.label == mask_of((1, 2, 3)) == K.faces_by_card[3][0]


def test_assemble_sorts_each_basis_and_fills_a_degree_gap():
    # degree 1 is missing and the bases arrive unsorted; d_{-1} sends
    # 10 to 1 + 2 and 20 to -2
    rule = {10: [(1, 1), (1, 2)], 20: [(-1, 2)]}.get
    C = assemble({2: [7], -1: [20, 10], 0: [2, 1]}, lambda x: rule(x, []))
    assert (C.lo, C.hi) == (-1, 2)
    assert C.labels == {-1: [10, 20], 0: [1, 2], 1: [], 2: [7]}
    assert C.sizes == {-1: 2, 0: 2, 1: 0, 2: 1}
    assert C.differential(-1).data == [[(0, 1)], [(0, 1), (1, -1)]]
    assert cohomology_dims(C, QQ) == {2: 1}


@pytest.mark.parametrize("signs, row", [((1, 1), [(0, 2)]), ((1, -1), []), ((1, 1, -1), [(0, 1)])])
def test_coboundary_map_merges_a_repeated_target(signs, row):
    # terms on one target add up; a sum of 0 leaves no entry in the sparse row
    def rule(x):
        return [(c, "t") for c in signs] if x == "x" else [(1, "t")]

    d = coboundary_map(rule, ["x", "y"], ["t"], 0)
    assert d.data == [row + [(1, 1)]]


def test_assemble_with_no_basis_is_the_zero_complex():
    C = assemble({}, lambda x: [])
    assert (C.lo, C.hi, C.sizes, C.d, C.labels) == (0, 0, {0: 0}, {}, {0: []})
    assert cohomology_dims(C, QQ) == {}
