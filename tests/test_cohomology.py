"""Reduced cochain complexes and cohomology dimensions."""

import gc
import inspect
import random
import sys
import textwrap
import threading
import tracemalloc
from functools import lru_cache
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import srbetti.betti
import srbetti.cohomology
import srbetti.linalg
from srbetti.betti import betti_number, betti_table, zk_cohomology_dims
from srbetti.cohomology import (
    CochainComplex,
    assemble,
    coboundary_map,
    cohomology_dims,
    field_dims,
    reduced_cochain_complex,
    reduced_cohomology_dims,
    sweep_order,
)
from srbetti.complexes import (
    SimplicialComplex,
    boundary_simplex,
    empty_complex,
    from_facets,
    full_simplex,
    full_subcomplex,
    join,
    mask_of,
    submasks,
)
from srbetti.bounds import check_colored_binomial
from srbetti.coloring import greedy_coloring
from srbetti.corpus import cycle_complex, random_complex, rp2_complex
from srbetti.errors import NotAComplex
from srbetti.linalg import GF2, GF3, QQ, SparseMap, rank
from test_complexes import complexes, moore_space_mod_3, relabel_complex
from test_linalg import dense


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
    # queries in arbitrary order, each stepped from ∅ unless an earlier one
    # stored its ω; a fresh walker and result cache keep each example
    # reproducible
    omegas = data.draw(st.lists(st.integers(0, K.full_mask), min_size=1, max_size=12))
    srbetti.cohomology._walker.cache_clear()
    reduced_cohomology_dims.cache_clear()
    for omega in omegas:
        assert reduced_cohomology_dims(K, f, omega) == rebuilt_dims(K, omega, f)


SWEPT = [
    rp2_complex(),
    *(random_complex(7, d, s) for d in (0.5, 0.9) for s in (0, 1)),
    moore_space_mod_3(),
    random_complex(9, 0.5, 0),  # the walker's order moves vertex 9 from the top to place 5
]


def sweep(K, f):
    """A fresh walker for K and its answers to every ω over f, read off the
    full sweep of ``betti_table`` from empty caches, emptied again after."""
    reduced_cohomology_dims.cache_clear()
    try:
        answers = {omega: {} for omega in range(K.full_mask + 1)}
        for (i, omega), b in betti_table(K, f).entries.items():
            answers[omega][omega.bit_count() - i - 1] = b
        return srbetti.cohomology._walker(K), answers
    finally:
        reduced_cohomology_dims.cache_clear()


def shuffled(K, f, seed=0):
    """A fresh walker for K and its answers to every ω over f, each asked
    alone, in a shuffled order, from empty caches, emptied again after: each
    query steps from ∅ through every vertex of its ω."""
    omegas = list(range(K.full_mask + 1))
    random.Random(seed).shuffle(omegas)
    reduced_cohomology_dims.cache_clear()
    try:
        answers = {omega: reduced_cohomology_dims(K, f, omega) for omega in omegas}
        return srbetti.cohomology._walker(K), answers
    finally:
        reduced_cohomology_dims.cache_clear()


@lru_cache(maxsize=None)
def reference_dims(K, omega, f):
    return rebuilt_dims(K, omega, f)


def check_answers(ask):
    for K in SWEPT:
        for f in (QQ, GF2, GF3):
            for omega, dims in ask(K, f)[1].items():
                assert dims == reference_dims(K, omega, f), (K, f, omega)


def test_walker_answers_a_descending_full_sweep():
    # the betti_table order: one depth-first walk steps every ω once, from
    # ω minus its least vertex under the walker's order, so every row that
    # clearing skips is skipped here, which scattered queries miss
    check_answers(sweep)


def test_walker_answers_every_omega_asked_alone_in_a_shuffled_order():
    # the single-query route: each ω is stepped from ∅, its vertices added
    # largest first, and never read off a parent the walk stored
    check_answers(shuffled)


def mutate_step(monkeypatch, code, mutant, method="_step"):
    """Patch the walker's ``method``, by default its one push step, with
    ``code`` in its source replaced by ``mutant``."""
    source = textwrap.dedent(inspect.getsource(getattr(srbetti.cohomology._Walker, method)))
    assert source.count(code) == 1
    namespace: dict = {}
    exec(source.replace(code, mutant), vars(srbetti.cohomology), namespace)
    monkeypatch.setattr(srbetti.cohomology._Walker, method, namespace[method])


def fails_through_sweeps_and_queries(*errors):
    """Both routes into the patched step give a wrong answer or raise one of ``errors``."""
    try:
        for check in (
            test_walker_answers_a_descending_full_sweep,
            test_walker_answers_every_omega_asked_alone_in_a_shuffled_order,
        ):
            with pytest.raises((AssertionError, *errors)):
                check()
    finally:
        srbetti.cohomology._walker.cache_clear()
        reduced_cohomology_dims.cache_clear()  # holds the mutant's answers


def test_a_push_that_shares_its_parents_pivots_is_caught(monkeypatch):
    # mutation check: a step that reduces into its parent's pivot state
    # instead of a copy leaves the child's pivots behind, in the state its
    # siblings extend (the walk) or in the empty level every query starts from
    mutate_step(monkeypatch, "pivots[k].copy()", "pivots[k]")
    fails_through_sweeps_and_queries()


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
    # wrong size, or reducing one row too few fails the sweep and the queries
    mutate_step(monkeypatch, code, mutant)
    fails_through_sweeps_and_queries(IndexError)


def busy_last(K):
    """The walker's vertex order as 0-based vertex -> 0-based place: ascending
    by the number of faces through the vertex, ties broken by label."""
    through = [sum(g >> v & 1 for g in K.faces) for v in range(K.m)]
    return {v: i for i, v in enumerate(sorted(range(K.m), key=lambda v: (through[v], v)))}


def test_a_sweep_clears_rows_and_reduces_the_rest(monkeypatch):
    # every face a push adds, one through the least vertex of ω under the
    # walker's order, is either reduced or cleared, and clearing does
    # happen: a push that reduced bottom-up would clear nothing and still
    # answer every query right; a decided leaf pushes nothing
    K = SWEPT[3]
    place = busy_last(K)
    assert place != {v: v for v in range(K.m)}
    walker, decided = decided_leaves(K, monkeypatch)
    added = 0
    for omega in set(range(1, K.full_mask + 1)) - set(decided):
        least = min((v for v in range(K.m) if omega >> v & 1), key=place.get)
        added += sum(1 for g in K.faces if g >> least & 1 and not g & ~omega)
    assert walker.rows_cleared > 0
    assert walker.rows_reduced + walker.rows_cleared == added


def decided_leaves(K, monkeypatch):
    """A fresh walker for K after its full sweep, and the leaves ω ∪ {v}, v its
    first vertex, that the sweep stored without a step, in K's labels."""
    reduced_cohomology_dims.cache_clear()
    walker, stepped, byte = srbetti.cohomology._walker(K), set(), srbetti.cohomology._Walker._byte

    def recording(self, omega, state):
        if self is walker:
            stepped.add(omega)
        return byte(self, omega, state)

    with monkeypatch.context() as patch:
        patch.setattr(srbetti.cohomology._Walker, "_byte", recording)
        walker.fill()
    first = walker.bits[0]
    decided = [omega for omega in range(K.full_mask + 1) if omega & first and omega not in stepped]
    assert len(decided) == walker.omega_by_link
    return walker, decided


def pushed_rows(K, place):
    """Σ 2^(m − min σ − |σ| + 1) over the faces σ ≠ ∅ of K, min σ the least
    1-based place of a vertex of σ: the ω through σ whose least vertex is
    σ's, one push of σ's row each."""
    return sum(
        2 ** (K.m - 1 - min(place[v] for v in range(K.m) if g >> v & 1) - g.bit_count() + 1)
        for g in K.faces
        if g
    )


def diagonal_entries(rows):
    """The nonzero entries of a diagonal form of an integer matrix given as
    dense rows, by unimodular row and column steps on an entry of least
    absolute value: their product is that of its invariant factors."""
    A, out = [row[:] for row in rows], []
    while any(map(any, A)):
        i, j = min(((i, j) for i, row in enumerate(A) for j, a in enumerate(row) if a), key=lambda ij: abs(A[ij[0]][ij[1]]))
        p = A[i][j]
        for k, row in enumerate(A):
            if k != i:
                A[k] = [a - row[j] // p * b for a, b in zip(row, A[i])]
        quotients = [a // p for a in A[i]]
        for row in A:
            row[:] = [a if l == j else a - quotients[l] * row[j] for l, a in enumerate(row)]
        if not any(A[i][:j] + A[i][j + 1:]) and not any(row[j] for row in A[:i] + A[i + 1:]):
            out.append(p)
            del A[i]
            for row in A:
                del row[j]
    return out


def integral_cohomology(X):
    """H̃^*(X; ℤ) as its free ranks by degree and whether it has torsion, read
    off the diagonal forms of X's coboundaries; {∅} has H̃^{-1} = ℤ."""
    C = reduced_cochain_complex(X)
    diagonals = {q: diagonal_entries(dense(C.differential(q))) for q in range(C.lo, C.hi + 1)}
    ranks = {q: C.size(q) - len(diagonals[q]) - len(diagonals.get(q - 1, ())) for q in range(C.lo, C.hi + 1)}
    return {q: h for q, h in ranks.items() if h}, any(abs(a) != 1 for entries in diagonals.values() for a in entries)


def decided_rows(K, place):
    """The rows a sweep does not push, v the first vertex under ``place``: the
    faces {v} ∪ σ, σ ∈ lk(v)|s, of each leaf ω ∪ {v}, s = ω ∩ V(lk(v)), for
    which neither K|ω nor lk|s has torsion and no degree has free rank in
    both (Mayer–Vietoris decides those leaves)."""
    v = min(range(K.m), key=place.get)
    link = [g ^ 1 << v for g in K.faces if g >> v & 1]
    rows = 0
    for omega in submasks(K.full_mask & ~(1 << v)):
        part = [g for g in link if not g & ~omega]
        (a, torsion), (b, link_torsion) = (
            integral_cohomology(SimplicialComplex(K.m, frozenset(faces)))
            for faces in ([g for g in K.faces if not g & ~omega], part)
        )
        if not (torsion or link_torsion or a.keys() & b.keys()):
            rows += len(part)
    return rows


def test_a_sweep_pushes_each_face_once_per_omega_it_leads_and_busy_vertices_last():
    # the sweep order lists every ω once; the rows the walk pushes are those
    # of the formula under the walker's vertex order, less the rows of the
    # leaves it decides through the link of its first vertex, and no more
    # than under K's own labels
    for K in SWEPT + [torsion_link()]:
        place = busy_last(K)
        assert sorted(sweep_order(K)) == list(range(K.full_mask + 1))
        walker, _ = sweep(K, QQ)
        pushed, decided = walker.rows_reduced + walker.rows_cleared, decided_rows(K, place)
        assert 0 < decided and pushed == pushed_rows(K, place) - decided, K
        assert pushed <= pushed_rows(K, {v: v for v in range(K.m)}), K


def torsion_link():
    """RP² on 1..6 coned from 7, and the facets {i, 8, 9, 10, 11}, i = 1..6:
    vertex 7, in 32 faces, goes first, and its link, RP² on d = 6 of m = 11
    vertices, is acyclic over ℚ but not over ℤ."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    cone = [mask_of((*t, 7)) for t in triangles]
    return from_facets(11, cone + [mask_of((i, 8, 9, 10, 11)) for i in range(1, 7)])


def wrong_answers(K, f):
    """The ω of K whose answer over f, read off a full sweep, is wrong."""
    return [omega for omega, dims in sweep(K, f)[1].items() if dims != reference_dims(K, omega, f)]


@pytest.mark.parametrize(
    "K, first, decided", [(moore_space_mod_3(), 8, 119), (torsion_link(), 7, 511)], ids=["moore3", "torsion-link"]
)
def test_a_sweep_resolves_leaves_through_the_link_of_its_first_vertex(K, first, decided):
    # a leaf ω ∪ {v} whose K|ω and link part lk(v)|ω have no rows set aside
    # and no degree of unit dimension in common takes ω's result plus the
    # link part's one degree up, by Mayer–Vietoris; the answers stay right
    # over every field
    assert busy_last(K)[first - 1] == 0
    for f in (QQ, GF2, GF3):
        assert wrong_answers(K, f) == [], f
    assert sweep(K, QQ)[0].omega_by_link == decided


def mutate(monkeypatch, *mutants):
    """Patch the walker with each (method, code, mutant) as :func:`mutate_step` does."""
    for method, code, mutant in mutants:
        mutate_step(monkeypatch, code, mutant, method)


def test_a_link_judged_acyclic_over_q_alone_is_caught(monkeypatch):
    # mutation check: a link part with rows set aside, judged by its ℚ
    # dimensions, decides the leaves of ΣΣRP² whose link part is RP² or ΣRP²
    # (ℚ-acyclic) and whose ω adds the other suspension vertex, a cone:
    # those leaves would read no cohomology over GF(2)
    mutate(
        monkeypatch,
        ("_join", "b == 255 or bl == 255", "b == 255"),
        ("_walk", "lk.result(s)[0]", "field_dims(*lk.result(s), QQ)"),
    )
    try:
        assert wrong_answers(double_suspension_of_rp2(), QQ) == []
        assert len(wrong_answers(double_suspension_of_rp2(), GF2)) == 2
    finally:
        reduced_cohomology_dims.cache_clear()


def test_a_link_part_equal_to_the_empty_face_is_stepped(monkeypatch):
    # mutation check: lk(v)|ω = {∅} has H̃^{-1} ≠ 0, and so has K|ω for ω = ∅,
    # so the restriction between them is not zero: the leaf {v} alone would
    # read H̃^{-1} = H̃^0 = 1 if degree -1 did not count
    mutate(monkeypatch, ("_join", "a.keys() & l.keys()", "a.keys() & l.keys() - {-1}"))
    try:
        for K in (SWEPT[2], moore_space_mod_3(), torsion_link()):
            assert wrong_answers(K, QQ), K
    finally:
        reduced_cohomology_dims.cache_clear()


def test_a_leaf_past_the_254th_value_is_stepped(monkeypatch):
    # with room for one value left in the table, the leaves whose result
    # would be a new value are stepped and stored behind byte 255 with their
    # rare entry; a leaf that took byte 255 unstepped, its ω's byte not 255,
    # has nothing to read (mutation check)
    K = moore_space_mod_3()
    fresh = {f: betti_table(K, f).entries for f in (QQ, GF2, GF3)}
    for mutant in ((), (("_walk", "if b == 255:", "if b == 255 == key[0]:"),)):
        reduced_cohomology_dims.cache_clear()
        srbetti.cohomology._walker(K).values += [(MappingProxyType({7: 1}), None)] * 253
        try:
            with monkeypatch.context() as patch:
                mutate(patch, *mutant)
                if mutant:
                    with pytest.raises(KeyError):
                        betti_table(K, QQ)
                else:
                    assert {f: betti_table(K, f).entries for f in (QQ, GF2, GF3)} == fresh
                    assert 0 < srbetti.cohomology._walker(K).omega_by_link < 1 << K.m - 1
        finally:
            reduced_cohomology_dims.cache_clear()


def double_suspension_of_rp2():
    two_points = from_facets(2, [0b01, 0b10])
    return join(two_points, join(two_points, rp2_complex()))


TORSION = [rp2_complex(), moore_space_mod_3(), torsion_link(), double_suspension_of_rp2()]


def wrong_decided_leaves(K, monkeypatch):
    """The (f, ω) of the leaves ω that K's full sweep decided without a step
    whose answer over f differs from ω's stepped alone from the root of a
    fresh walker, and the number of those leaves."""
    walker, decided = decided_leaves(K, monkeypatch)
    swept = {(f, omega): field_dims(*walker.result(omega), f) for f in (QQ, GF2, GF3) for omega in decided}
    reduced_cohomology_dims.cache_clear()
    try:
        return [key for key, dims in swept.items() if reduced_cohomology_dims(K, *key) != dims], len(decided)
    finally:
        reduced_cohomology_dims.cache_clear()


@pytest.mark.parametrize("K", TORSION, ids=["rp2", "moore3", "torsion-link", "susp2-rp2"])
def test_every_decided_leaf_matches_its_stepped_result(K, monkeypatch):
    # the Mayer–Vietoris rule against the push step, over ℚ, GF(2) and GF(3),
    # on complexes whose cohomology depends on the field
    wrong, decided = wrong_decided_leaves(K, monkeypatch)
    assert decided and wrong == []


@pytest.mark.parametrize(
    "mutants",
    [
        [("_join", "l.get(k - 2, 0)", "l.get(k - 1, 0)")],
        [("_join", "b == 255 or bl == 255", "b == 255")],
        [("_join", "b == 255 or bl == 255", "b == 255"), ("_walk", "lk.result(s)[0]", "field_dims(*lk.result(s), QQ)")],
    ],
    ids=["no-degree-shift", "link-part-set-aside", "support-over-q"],
)
def test_a_wrong_leaf_rule_is_caught(monkeypatch, mutants):
    # mutation check: the link part's result not shifted up a degree; a link
    # part with rows set aside decided by its unit dimensions; or by its ℚ
    # dimensions (with none set aside, unit and ℚ dimensions agree)
    with monkeypatch.context() as patch:
        mutate(patch, *mutants)
        assert any(wrong_decided_leaves(K, patch)[0] for K in TORSION)


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
    # every ω right, so only the counts tell; 444 of its 512 leaves are
    # decided unstepped
    walker, _ = sweep(double_suspension_of_rp2(), QQ)
    assert (walker.rows_reduced, walker.rows_cleared, walker.omega_by_link) == (4338, 4070, 444)


def test_queries_asked_alone_clear_by_unit_pivots_only():
    # the same complex asked ω by ω in a shuffled order: each query steps
    # from ∅ through every vertex of ω, so the row of each face σ ≠ ∅ is
    # pushed once per ω ⊇ σ, 2^(m − |σ|) times in all, whatever the order,
    # and again only the split tells a step that clears by a residual row's lead
    K = double_suspension_of_rp2()
    walker, _ = shuffled(K, QQ)
    pushed = sum(2 ** (K.m - g.bit_count()) for g in K.faces if g)
    assert walker.rows_reduced + walker.rows_cleared == pushed == 35840
    assert (walker.rows_reduced, walker.rows_cleared) == (19112, 16728)


def test_a_push_that_clears_by_a_residual_key_is_caught(monkeypatch):
    # mutation check: a residual row is no cycle with a unit lead
    code = "cleared = levels[k - 1], pivots[k + 1]"
    mutate_step(monkeypatch, code, f"{code}.keys() | {{max(r)[0] for r in residual[k + 1]}}")
    for check in (
        test_a_sweep_clears_by_unit_pivots_only,
        test_queries_asked_alone_clear_by_unit_pivots_only,
    ):
        with pytest.raises(AssertionError):
            check()


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
    # both field orders and the walker's full sweep
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
    # answers found with a wrong rank must not outlive cache_clear in the
    # walker's per-ω results, even for a single query
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
    # that walks and of the one that reads its per-ω results, and the answers
    # of both to ω asked alone in a shuffled order, each stepped from ∅
    K = random_complex(7, 0.5, 0)
    right = {f: betti_table(K, f).entries for f in fields}
    alone = {f: shuffled(K, f)[1] for f in fields}
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
        reduced_cohomology_dims.cache_clear()
        omegas = list(alone[fields[0]])
        for f in fields:
            assert {omega: reduced_cohomology_dims(K, f, omega) for omega in omegas} != alone[f], f
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
    # K's, then, once, those of the links its sweep walks: its first vertex's
    # (a 5-cycle), that one's (two points) and theirs ({∅})
    assert [(X.m, len(X.faces)) for X in builds] == [(6, 32), (5, 11), (2, 3), (0, 1)]
    assert builds[0] is K1
    assert srbetti.cohomology._walker.cache_info().currsize == 1
    assert not hasattr(K1, "cochains")


def test_one_walker_keeps_the_fields_apart():
    # RP² differs over GF(2) and ℚ: queries that alternate between fields in
    # random order must each read their own field's dims
    K = rp2_complex()
    srbetti.cohomology._walker.cache_clear()
    reduced_cohomology_dims.cache_clear()
    queries = [(omega, f) for omega in range(K.full_mask + 1) for f in (QQ, GF2, GF3)]
    random.Random(3).shuffle(queries)
    for omega, f in queries:
        assert reduced_cohomology_dims(K, f, omega) == rebuilt_dims(K, omega, f), (omega, f)


def stored(walker):
    """ω ↦ its byte, for every ω the walker has stored."""
    size = srbetti.cohomology._BLOCK
    return {hi * size + lo: b for hi, block in walker.blocks.items() for lo, b in enumerate(block) if b}


def entries(dims_by_omega):
    """The Betti table entries of per-ω dims."""
    return {
        (omega.bit_count() - q - 1, omega): d
        for omega, dims in dims_by_omega.items()
        for q, d in dims.items()
    }


@pytest.mark.parametrize("f", [QQ, GF2])
def test_a_failed_push_leaves_no_half_built_level(monkeypatch, f):
    # rank raises on its k-th call in a step of K's walker to an ω without
    # its first vertex (an interior ω of the sweep, whose leaves are mostly
    # decided unstepped), in a sweep's walk or in a step for an ω asked
    # alone: every ω stored so far reads back right, and on the same walker
    # the next sweep, or the next queries, starting with the ω that failed,
    # are right
    K = rp2_complex()
    reference = {omega: rebuilt_dims(K, omega, f) for omega in range(K.full_mask + 1)}
    rank, step, interior = srbetti.cohomology.rank, srbetti.cohomology._Walker._step, []

    def marking(self, state, v):
        interior.append(self is walker and v != 1)
        try:
            return step(self, state, v)
        finally:
            interior.pop()

    for k in (1, 2, 5, 17, 40):
        calls, asked = [], []

        def failing(M, field):
            if interior and interior[-1]:
                calls.append(None)
                if len(calls) == k:
                    raise RuntimeError("injected")
            return rank(M, field)

        for route in ("walk", "alone"):
            calls.clear()
            reduced_cohomology_dims.cache_clear()
            walker = srbetti.cohomology._walker(K)
            omegas = list(reference)
            random.Random(k).shuffle(omegas)
            with monkeypatch.context() as patch:
                patch.setattr(srbetti.cohomology, "rank", failing)
                patch.setattr(srbetti.cohomology._Walker, "_step", marking)
                with pytest.raises(RuntimeError, match="injected"):
                    if route == "walk":
                        betti_table(K, f)
                    for omega in omegas:
                        asked.append(omega)
                        reduced_cohomology_dims(K, f, omega)
            assert not walker.full
            for omega in stored(walker):
                assert reduced_cohomology_dims(K, f, omega) == reference[omega], (k, route, omega)
            if route == "walk":
                assert betti_table(K, f).entries == entries(reference), k
            else:
                rest = omegas[omegas.index(asked[-1]):]
                for omega in rest:
                    assert reduced_cohomology_dims(K, f, omega) == reference[omega], (k, omega)


def test_a_sweep_after_single_queries_keeps_their_bytes():
    # ω asked alone are stepped from ∅ and stored first; the walk then steps
    # every ω again and leaves each stored byte as it was, every byte right
    K = SWEPT[-1]
    reduced_cohomology_dims.cache_clear()
    walker = srbetti.cohomology._walker(K)
    try:
        for omega in random.Random(5).sample(range(K.full_mask + 1), 40):
            assert reduced_cohomology_dims(K, GF2, omega) == reference_dims(K, omega, GF2)
        before = stored(walker)
        assert len(before) == 40
        table = betti_table(K, QQ).entries
        after = stored(walker)
        assert walker.full and len(after) == 1 << K.m
        assert {omega: after[omega] for omega in before} == before
        assert table == entries({omega: reference_dims(K, omega, QQ) for omega in after})
    finally:
        reduced_cohomology_dims.cache_clear()


def test_three_tables_walk_each_omega_once_and_read_it_back_three_times():
    # cache_info counts the walkers' stores as lru_cache counts: a miss is an
    # ω walked, a hit an ω read back, and currsize the ω stored; the first
    # sweep walks every ω before it reads one, so every read is a hit, and
    # the later fields' sweeps walk nothing
    K = moore_space_mod_3()
    reduced_cohomology_dims.cache_clear()
    gc.collect()  # walkers kept alive by an earlier traceback count as live

    def walked():
        walker = srbetti.cohomology._walker(K)
        return walker.rows_reduced, walker.rows_cleared

    tables = {QQ: betti_table(K, QQ).entries}
    first = walked()
    tables.update({f: betti_table(K, f).entries for f in (GF2, GF3)})
    assert walked() == first
    n = 1 << K.m
    info = reduced_cohomology_dims.cache_info()
    assert (info.misses, info.hits, info.currsize) == (n, 3 * n, n)
    assert tables[QQ] == tables[GF2] != tables[GF3]
    reduced_cohomology_dims.cache_clear()
    assert reduced_cohomology_dims.cache_info().currsize == 0


def test_zks_second_sweep_walks_nothing():
    # zk sweeps twice, the direct route and the Betti table's: the first
    # fills the store, the second only reads it
    K = random_complex(8, 0.5, 3)
    reduced_cohomology_dims.cache_clear()
    gc.collect()
    try:
        zk_cohomology_dims(K, GF2)
        n = 1 << K.m
        info = reduced_cohomology_dims.cache_info()
        assert (info.misses, info.hits, info.currsize) == (n, 2 * n, n)
    finally:
        reduced_cohomology_dims.cache_clear()


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


def ask_in_threads(K, reference, seeds, sweeping=()):
    """Each seed's thread asks every (ω, f) of ``reference`` in its own order,
    or, for a seed in ``sweeping``, sweeps the Betti table of each field of
    ``reference``, the threads starting together and switching often; the
    queries and tables answered wrong, and the seeds of the threads that finished."""
    wrong, done, start = [], [], threading.Barrier(len(seeds))

    def ask(seed):
        queries = list(reference)
        random.Random(seed).shuffle(queries)
        start.wait(timeout=60)
        if seed in sweeping:
            for f in {f for _, f in queries}:
                right = entries({omega: dims for (omega, g), dims in reference.items() if g == f})
                if betti_table(K, f).entries != right:
                    wrong.append(f)
        else:
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


def test_threads_sweeping_and_asking_one_walker_get_right_answers():
    # two threads sweep, so one walks every ω under the lock while the other
    # waits for it, and two ask ω alone meanwhile: every table and every
    # answer is right, and every ω is stored once
    K = SWEPT[-1]
    reference = {(omega, f): reference_dims(K, omega, f) for omega in range(1 << K.m) for f in (QQ, GF2)}
    for round in range(3):
        reduced_cohomology_dims.cache_clear()
        gc.collect()  # walkers kept alive by an earlier traceback count as live
        seeds = [4 * round + k for k in range(4)]
        assert ask_in_threads(K, reference, seeds, sweeping=seeds[:2]) == ([], seeds)
        assert reduced_cohomology_dims.cache_info().currsize == 1 << K.m
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
