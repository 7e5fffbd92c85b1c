"""Reduced cochain complexes and cohomology dimensions."""

import pytest
from hypothesis import given, settings, strategies as st

import srbetti.cohomology
from srbetti.cohomology import (
    CochainComplex,
    cohomology_dims,
    euler_characteristic_reduced,
    reduced_cochain_complex,
    reduced_cohomology_dims,
)
from srbetti.complexes import (
    boundary_simplex,
    empty_complex,
    from_facets,
    full_simplex,
    full_subcomplex,
    relabel_complex,
)
from srbetti.corpus import cycle_complex, rp2_complex
from srbetti.errors import NotAComplex
from srbetti.linalg import GF2, GF3, QQ, SparseMap, rank


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


@st.composite
def complexes(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    facets = [draw(st.integers(1, (1 << m) - 1)) for _ in range(draw(st.integers(1, 6)))]
    return from_facets(m, facets, allow_isolated=True)


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


def test_dd_zero_checked_on_every_reduced_complex():
    for K in (cycle_complex(5), rp2_complex(), full_simplex(3)):
        reduced_cochain_complex(K).check_dd_zero()


def test_cached_dims_cannot_be_corrupted_by_a_caller():
    K = boundary_simplex(2)
    d = reduced_cohomology_dims(K, QQ)
    with pytest.raises(TypeError):
        d[1] = 99
    assert reduced_cohomology_dims(K, QQ) == {1: 1}


def test_flipped_sign_in_the_reduced_builder_is_caught(monkeypatch):
    # mutation check: one wrong sign in d_1 (edges -> triangles) of the
    # 2-sphere must make the fused d∘d check fail on d_1 ∘ d_0, that is from
    # degree 0, at a triangle
    build = srbetti.cohomology.boundary_map

    def flipped(lower, upper):
        M = build(lower, upper)
        if upper and upper[0].bit_count() == 3:
            (j, a), *rest = M.data[0]
            M.data[0] = [(j, -a), *rest]
        return M

    monkeypatch.setattr(srbetti.cohomology, "boundary_map", flipped)
    K = boundary_simplex(3)
    with pytest.raises(NotAComplex) as err:
        reduced_cochain_complex(K)
    assert err.value.q == 0
    assert "from degree 0" in str(err.value)
    assert err.value.label == K.faces_by_card[3][0]
