"""Partitions, nondegeneracy, coloring search, and the sign gadget kappa."""

import pytest
from hypothesis import given, settings, strategies as st

from srbetti.coloring import (
    Partition,
    colors_of,
    format_blocks,
    greedy_coloring,
    is_nondegenerate,
    kappa,
    minimum_coloring,
    omega_L,
    parse_blocks,
    partition_from_json,
    partition_to_json,
    trivial_partition,
)
from srbetti.complexes import boundary_simplex, from_facets, full_simplex, mask_of, vertices_of
from srbetti.corpus import cycle_complex
from srbetti.errors import (
    ColorOutOfRange,
    NotAMember,
    PartitionMismatch,
    VertexBudgetExceeded,
)


def test_partition_validation():
    Partition(4, (mask_of((1, 3)), mask_of((2, 4))))
    with pytest.raises(PartitionMismatch):
        Partition(4, (mask_of((1, 3)), mask_of((2,))))  # 4 uncovered
    with pytest.raises(PartitionMismatch):
        Partition(4, (mask_of((1, 2, 3)), mask_of((3, 4))))  # overlap
    with pytest.raises(PartitionMismatch):
        Partition(2, (0, mask_of((1, 2))))  # empty block


def test_is_nondegenerate_cases():
    K = cycle_complex(4)
    assert is_nondegenerate(K, parse_blocks("1 3 | 2 4", 4))
    assert not is_nondegenerate(K, parse_blocks("1 2 | 3 4", 4))
    assert is_nondegenerate(K, trivial_partition(4))
    with pytest.raises(PartitionMismatch):
        is_nondegenerate(K, trivial_partition(3))


def test_trivial_partition_always_nondegenerate():
    for K in (cycle_complex(5), boundary_simplex(3), full_simplex(2)):
        assert is_nondegenerate(K, trivial_partition(K.m))


def test_greedy_four_cycle():
    assert greedy_coloring(cycle_complex(4)).blocks == (mask_of((1, 3)), mask_of((2, 4)))


def test_greedy_simplex_is_trivial():
    assert greedy_coloring(full_simplex(2)) == trivial_partition(3)


def test_greedy_two_disjoint_edges():
    K = from_facets(4, [mask_of((1, 2)), mask_of((3, 4))])
    assert greedy_coloring(K).blocks == (mask_of((1, 3)), mask_of((2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_greedy_always_nondegenerate(m, data):
    facets = [
        data.draw(st.integers(1, (1 << m) - 1))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    K = from_facets(m, facets, allow_isolated=True)
    alpha = greedy_coloring(K)
    assert is_nondegenerate(K, alpha)
    max_deg = max(
        (sum(1 for e in K.edges if e >> (v - 1) & 1) for v in range(1, m + 1)),
        default=0,
    )
    assert alpha.r <= 1 + max_deg


def test_minimum_coloring_examples():
    assert minimum_coloring(cycle_complex(4)).r == 2
    assert minimum_coloring(boundary_simplex(3)).r == 4  # K4 skeleton
    assert minimum_coloring(cycle_complex(5)).r == 3
    with pytest.raises(VertexBudgetExceeded):
        minimum_coloring(from_facets(17, [(1 << 17) - 1], max_vertices=24))


def test_minimum_coloring_lex_smallest():
    # 4-cycle: lexicographically smallest proper 2-coloring is 1,2,1,2
    alpha = minimum_coloring(cycle_complex(4))
    assert alpha.blocks == (mask_of((1, 3)), mask_of((2, 4)))
    # 5-cycle: smallest 3-coloring vector is 1,2,1,2,3
    alpha5 = minimum_coloring(cycle_complex(5))
    assert alpha5.blocks == (mask_of((1, 3)), mask_of((2, 4)), mask_of((5,)))


def test_minimum_is_nondegenerate_and_minimal():
    for K in (cycle_complex(4), cycle_complex(5), boundary_simplex(2)):
        alpha = minimum_coloring(K)
        assert is_nondegenerate(K, alpha)
        assert alpha.r <= greedy_coloring(K).r


def test_omega_L():
    alpha = parse_blocks("1 | 2 4 | 3 5", 5)
    assert omega_L(alpha, mask_of((2, 3))) == mask_of((2, 3, 4, 5))
    assert omega_L(alpha, 0) == 0
    assert omega_L(alpha, 0b111) == mask_of((1, 2, 3, 4, 5))
    with pytest.raises(ColorOutOfRange):
        omega_L(alpha, mask_of((4,)))


def test_a_negative_color_set_is_out_of_range():
    # a negative mask is a color set out of range, not a vertex mask
    alpha = parse_blocks("1 | 2 4 | 3 5", 5)
    with pytest.raises(ColorOutOfRange, match="color mask -1 is negative"):
        omega_L(alpha, -1)
    with pytest.raises(ColorOutOfRange, match="color mask -1 is negative"):
        kappa(1, -1)


def test_a_color_below_one_is_out_of_range():
    # a color 0 is a color out of range, not a vertex, in a list and in kappa's i
    K = cycle_complex(4)
    alpha = greedy_coloring(K)
    with pytest.raises(ColorOutOfRange, match="color 0 is not positive"):
        omega_L(alpha, [0])
    with pytest.raises(ColorOutOfRange, match="color 0 is not positive"):
        kappa(1, [0, 1])
    for i in (0, -1):
        with pytest.raises(ColorOutOfRange, match=f"color {i} is not positive"):
            kappa(i, [1, 2])


def test_colors_of():
    alpha = parse_blocks("1 | 2 4 | 3 5", 5)
    assert colors_of(alpha, mask_of((2, 5))) == mask_of((2, 3))
    assert colors_of(alpha, 0) == 0
    degenerate = parse_blocks("1 2 | 3", 3)
    assert colors_of(degenerate, mask_of((1, 2))) == mask_of((1,))


def test_kappa_values():
    assert kappa(1, mask_of((1, 2))) == 1
    assert kappa(2, mask_of((1, 2))) == -1
    assert kappa(3, mask_of((1, 2, 3))) == 1
    with pytest.raises(NotAMember):
        kappa(3, mask_of((1, 2)))


def test_kappa_multiplicative_exhaustive_r8():
    r = 8
    for L in range(1 << r):
        rest = ((1 << r) - 1) & ~L
        Lp = rest
        while True:
            union = L | Lp
            for i in vertices_of(L):
                # kappa(i, L' ∪ {i}) counts the members of L' below i
                assert kappa(i, union) == kappa(i, L) * kappa(i, Lp | (1 << (i - 1)))
            if Lp == 0:
                break
            Lp = (Lp - 1) & rest


def test_omega_monotone_and_colors_bounded():
    alpha = parse_blocks("1 | 2 4 | 3 5", 5)
    for L in range(1 << 3):
        for Lp in range(1 << 3):
            if L & ~Lp == 0:
                assert omega_L(alpha, L) & ~omega_L(alpha, Lp) == 0
    K = cycle_complex(5)
    for f in K.faces:
        assert colors_of(trivial_partition(5), f).bit_count() == f.bit_count()


def test_nondegenerate_iff_colors_match_cardinality():
    K = cycle_complex(4)
    good = parse_blocks("1 3 | 2 4", 4)
    for f in K.faces:
        assert colors_of(good, f).bit_count() == f.bit_count()
    bad = parse_blocks("1 2 | 3 4", 4)
    assert any(colors_of(bad, f).bit_count() < f.bit_count() for f in K.faces)


def test_blocks_roundtrip():
    alpha = parse_blocks("blocks 1 | 2 4 | 3 5", 5)
    assert format_blocks(alpha) == "blocks 1 | 2 4 | 3 5"
    assert partition_from_json(partition_to_json(alpha), 5) == alpha
