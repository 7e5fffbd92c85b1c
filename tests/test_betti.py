"""Hochster-formula Betti numbers and moment-angle cohomology dimensions."""

import pytest
from hypothesis import given, settings, strategies as st

import srbetti.cohomology
from srbetti.betti import betti_number, betti_table, subcomplex_cohomology, zk_cohomology_dims
from srbetti.cli import main
from srbetti.cohomology import reduced_cohomology_dims
from srbetti.complexes import (
    boundary_simplex,
    full_simplex,
    mask_of,
)
from srbetti.corpus import cycle_complex, rp2_complex
from srbetti.errors import NotAComplex, VertexOutOfRange
from srbetti.linalg import GF2, GF3, QQ
from test_complexes import complexes, relabel_complex


def test_betti_number_base_cases():
    K = cycle_complex(4)
    assert betti_number(K, 0, 0, QQ) == 1  # H̃^{-1} of the void subcomplex
    assert betti_number(K, 2, K.full_mask, QQ) == 1
    assert betti_number(K, 1, mask_of((1, 3)), QQ) == 1
    assert betti_number(K, 1, mask_of((1, 2)), QQ) == 0
    with pytest.raises(VertexOutOfRange):
        betti_number(K, 0, mask_of((5,)), QQ)
    with pytest.raises(ValueError, match="^homological index must be nonnegative, got -1$"):
        betti_number(K, -1, K.full_mask, QQ)


def test_subcomplex_cohomology_rejects_omega_outside_m():
    K = cycle_complex(4)
    for omega in (mask_of((5,)), mask_of((1, 2, 6))):
        with pytest.raises(VertexOutOfRange):
            subcomplex_cohomology(K, omega, QQ)
        with pytest.raises(VertexOutOfRange):
            reduced_cohomology_dims(K, QQ, omega)


def test_flipped_sign_in_the_builder_is_caught_by_the_sweep(monkeypatch):
    # mutation check: one wrong sign in d_1 (edges -> triangles) of the
    # 2-sphere must stop betti_table at K's own d∘d check, from degree 0, at
    # a triangle named in K's coordinates
    build = srbetti.cohomology.coboundary_map

    def flipped(rule, lower, upper, q):
        M = build(rule, lower, upper, q)
        if upper and upper[0].bit_count() == 3:
            (j, a), *rest = M.data[0]
            M.data[0] = [(j, -a), *rest]
        return M

    monkeypatch.setattr(srbetti.cohomology, "coboundary_map", flipped)
    reduced_cohomology_dims.cache_clear()  # an equal K may be cached already
    K = boundary_simplex(3)
    with pytest.raises(NotAComplex) as err:
        betti_table(K, GF2)
    assert err.value.q == 0
    assert err.value.label == mask_of((1, 2, 3)) == K.faces_by_card[3][0]


def test_only_the_dims_cache_holds_rank_results(monkeypatch):
    # a table computed with a wrong rank must not survive clearing the one
    # cache: K's own complex, kept with K, holds maps and no ranks
    rank = srbetti.cohomology.rank

    def off_by_one(M, f):
        return rank(M, f) + 1 if M.rows and M.cols else rank(M, f)

    K = rp2_complex()
    reduced_cohomology_dims.cache_clear()
    good = dict(betti_table(K, QQ).entries)
    reduced_cohomology_dims.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(srbetti.cohomology, "rank", off_by_one)
        assert betti_table(K, QQ).entries != good
    reduced_cohomology_dims.cache_clear()
    assert betti_table(K, QQ).entries == good


def test_betti_table_boundary_1_simplex():
    table = betti_table(boundary_simplex(1), QQ)
    assert table.entries == {(0, 0): 1, (1, 0b11): 1}
    assert table.total() == 2


def test_betti_table_four_cycle():
    table = betti_table(cycle_complex(4), QQ)
    assert table.entries == {
        (0, 0): 1,
        (1, mask_of((1, 3))): 1,
        (1, mask_of((2, 4))): 1,
        (2, mask_of((1, 2, 3, 4))): 1,
    }
    assert table.total() == 4


def test_betti_table_full_simplex():
    assert betti_table(full_simplex(2), QQ).entries == {(0, 0): 1}


def test_betti_table_emission_order():
    rows = betti_table(cycle_complex(4), QQ).to_json()
    keys = [(len(r["omega"]), r["omega"], r["i"]) for r in rows]
    assert keys == sorted(keys)
    assert rows[0] == {"i": 0, "omega": [], "beta": 1}


def test_zk_dims_examples():
    assert zk_cohomology_dims(boundary_simplex(1), QQ) == {0: 1, 3: 1}
    assert zk_cohomology_dims(cycle_complex(4), QQ) == {0: 1, 3: 2, 6: 1}
    assert zk_cohomology_dims(full_simplex(2), QQ) == {0: 1}


def test_zk_budget(capsys):
    # the one vertex cap is the construction's, and --max-m sets it
    pentagon = ["zk", "--facets", "1 2, 2 3, 3 4, 4 5, 1 5"]
    assert main([*pentagon, "--max-m", "4"]) == 2
    assert "error: VertexBudgetExceeded: " in capsys.readouterr().err
    assert main([*pentagon, "--max-m", "5"]) == 0


@settings(max_examples=30, deadline=None)
@given(complexes(), st.sampled_from([QQ, GF2, GF3]))
def test_hochster_index_out_of_range_zero(K, f):
    table = betti_table(K, f)
    for (i, om), b in table.entries.items():
        assert b >= 1
        assert 0 <= i <= om.bit_count()


@settings(max_examples=40, deadline=None)
@given(complexes(max_m=7), st.randoms(use_true_random=False), st.sampled_from([QQ, GF2, GF3]))
def test_relabeling_permutes_table(K, rng, f):
    # the walker breaks ties in its vertex order by label, so K and its
    # relabeling may be swept in orders that the relabeling does not match
    new = list(range(1, K.m + 1))
    rng.shuffle(new)
    perm = {old: new[old - 1] for old in range(1, K.m + 1)}
    t1 = betti_table(K, f)
    t2 = betti_table(relabel_complex(K, perm), f)
    assert sorted(t1.entries.values()) == sorted(t2.entries.values())
    assert t1.total() == t2.total()
    remapped = {
        (i, mask_of(perm[v] for v in range(1, K.m + 1) if om >> (v - 1) & 1)): b
        for (i, om), b in t1.entries.items()
    }
    assert remapped == t2.entries
    assert zk_cohomology_dims(relabel_complex(K, perm), f) == zk_cohomology_dims(K, f)


@settings(max_examples=25, deadline=None)
@given(complexes(), st.sampled_from([QQ, GF2]))
def test_two_routes_agree(K, f):
    from srbetti.betti import zk_cohomology_dims_two_routes

    direct, via_betti = zk_cohomology_dims_two_routes(K, f)
    assert direct == via_betti


def test_rp2_gf2_table_has_top_class():
    t = betti_table(rp2_complex(), GF2)
    assert t.get(3, (1 << 6) - 1) == 1
    assert betti_table(rp2_complex(), QQ).get(3, (1 << 6) - 1) == 0
