"""Exact linear algebra backend tests.

Expected values for the projective-plane boundary matrices were frozen from
an independent sympy DomainMatrix computation; the suite re-derives them with
sympy at run time as a second opinion.  ``rank`` eliminates over ℤ once for
every field and counts a diagonal form of the rows it sets aside; the plain
Fraction elimination and the GF(p) elimination below are its independent
oracles over ℚ and over the prime fields.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from srbetti.corpus import rp2_complex
from srbetti.linalg import GF2, GF3, QQ, FieldSpec, SparseMap, _diagonal, rank


def sparse(rows_list) -> SparseMap:
    """SparseMap of a dense list of integer rows (test-local)."""
    ncols = len(rows_list[0]) if rows_list else 0
    data = [[(j, a) for j, a in enumerate(row) if a] for row in rows_list]
    return SparseMap(len(rows_list), ncols, data)


def dense(M: SparseMap) -> list[list[int]]:
    out = [[0] * M.cols for _ in range(M.rows)]
    for i, row in enumerate(M.data):
        for j, a in row:
            out[i][j] = a
    return out


def transpose(M: SparseMap) -> SparseMap:
    data = [[] for _ in range(M.cols)]
    for i, row in enumerate(M.data):
        for j, a in row:
            data[j].append((i, a))
    return SparseMap(M.cols, M.rows, data)


def identity(n: int) -> SparseMap:
    return SparseMap(n, n, [[(i, 1)] for i in range(n)])


def rank_naive_rationals(rows_list) -> int:
    """Rank over the rationals by plain Fraction-based Gaussian elimination.

    Independent of the sparse integer kernel; kept as a cross-check oracle.
    """
    rows = [[Fraction(x) for x in row] for row in rows_list]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pr = 0
    for col in range(ncols):
        piv = None
        for r in range(pr, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        prow = rows[pr]
        pivval = prow[col]
        for r in range(pr + 1, nrows):
            f = rows[r][col]
            if f:
                factor = f / pivval
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        pr += 1
        if pr == nrows:
            break
    return pr


def rank_mod_p(M: SparseMap, p: int) -> int:
    """Rank over GF(p) by elimination of sparse dict rows, each pivot row
    normalised to a unit pivot (test-local oracle, independent of the ℤ elimination)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in M.data:
        r = {c: a % p for c, a in row if a % p}
        while r:
            col = max(r)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(r[col], -1, p)
                pivots[col] = {c: a * inv % p for c, a in r.items()}
                break
            t = r[col]
            for c, a in pivot.items():
                x = (r.get(c, 0) - t * a) % p
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


def boundary_matrix(K, card):
    """∂ from card-faces to (card-1)-faces with alternating signs (test-local)."""
    from srbetti.complexes import vertices_of

    higher = K.faces_by_card[card]
    lower = K.faces_by_card[card - 1]
    idx = {f: i for i, f in enumerate(lower)}
    columns = [
        [(idx[f & ~(1 << (v - 1))], (-1) ** k) for k, v in enumerate(vertices_of(f))]
        for f in higher
    ]
    return transpose(SparseMap(len(higher), len(lower), columns))


def test_field_spec_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("f2") == GF2
    assert FieldSpec.parse("fp:101") == FieldSpec(101)
    assert str(GF3) == "f3"
    with pytest.raises(ValueError):
        FieldSpec.parse("f4")  # not prime
    with pytest.raises(ValueError):
        FieldSpec(1 << 17)


def test_identity_rank():
    assert rank(identity(2), QQ) == 2
    assert rank(identity(2), GF2) == 2


def test_characteristic_matters():
    m = sparse([[2]])
    assert rank(m, GF2) == 0
    assert rank(m, QQ) == 1


def test_rp2_boundary_ranks():
    K = rp2_complex()
    d2 = boundary_matrix(K, 3)  # 15 edges x 10 triangles
    d1 = boundary_matrix(K, 2)  # 6 vertices x 15 edges
    assert (d2.rows, d2.cols) == (15, 10)
    assert rank(d2, QQ) == 10
    # the sum of all ten triangles is a mod-2 cycle, so the GF(2) rank drops
    assert rank(d2, GF2) == 9
    assert rank(d1, QQ) == 5
    assert rank(d1, GF2) == 5


def test_rp2_ranks_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = rp2_complex()
    d2 = boundary_matrix(K, 3)
    for f, dom in ((QQ, sympy.QQ), (GF2, sympy.GF(2)), (GF3, sympy.GF(3))):
        dm = DomainMatrix.from_list(
            [[dom.convert(x) for x in row] for row in dense(d2)], dom
        )
        assert rank(d2, f) == dm.rank()


def test_matrix_utilities():
    # the sparse rows of a map and the test-local dense/transpose helpers
    m = sparse([[1, 0, 3], [0, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.data == [[(0, 1), (2, 3)], [(1, 5), (2, 6)]]
    assert dense(m) == [[1, 0, 3], [0, 5, 6]]
    assert dense(transpose(m)) == [[1, 0], [0, 5], [3, 6]]
    empty = SparseMap(3, 0, [[], [], []])
    assert rank(empty, QQ) == rank(transpose(empty), GF2) == 0


def test_kernel_image_basics():
    z = SparseMap(3, 4, [[], [], []])
    assert z.cols - rank(z, QQ) == 4
    assert rank(z, QQ) == 0
    assert identity(5).cols - rank(identity(5), GF3) == 0


def test_rank_nullity_random_gf3():
    import random

    rng = random.Random(42)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(8)] for _ in range(8)]
        m = sparse(rows)
        nullity = 8 - rank(m, GF3)
        # the kernel dimension read off the transpose's rank agrees
        mt = sparse([list(c) for c in zip(*rows)])
        assert nullity + rank(mt, GF3) == 8


def test_fraction_entries():
    # clearing denominators row by row preserves the rank over the rationals
    def cleared(rows_list):
        out = []
        for row in rows_list:
            scale = lcm(*(x.denominator for x in row))
            out.append([int(x * scale) for x in row])
        return sparse(out)

    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 1)]]
    assert rank(cleared(m), QQ) == rank_naive_rationals(m) == 2
    m2 = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 3)]]
    assert rank(cleared(m2), QQ) == rank_naive_rationals(m2) == 1


small_int_matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(small_int_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation(rows, rng):
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    cols = list(zip(*shuffled_rows))
    rng.shuffle(cols)
    rows2 = [list(r) for r in zip(*cols)]
    for f in (QQ, GF2, GF3):
        assert rank(sparse(rows), f) == rank(sparse(rows2), f)
        # and under transposition
        assert rank(sparse(rows), f) == rank(sparse([list(c) for c in cols]), f)


# ``rank``'s ℤ elimination replaced a dense Bareiss elimination; the test
# names are kept, the oracle is the Fraction elimination above.
@settings(max_examples=80, deadline=None)
@given(small_int_matrices)
def test_bareiss_agrees_with_naive_rational(rows):
    assert rank(sparse(rows), QQ) == rank_naive_rationals(rows)


def test_bareiss_agrees_with_naive_on_30x30():
    import random

    rng = random.Random(7)
    rows = [[rng.randrange(-5, 6) for _ in range(30)] for _ in range(30)]
    assert rank(sparse(rows), QQ) == rank_naive_rationals(rows)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices, st.sampled_from([2, 3, 5, 7]))
def test_rational_rank_dominates_prime_rank(rows, p):
    m = sparse(rows)
    assert rank(m, QQ) >= rank(m, FieldSpec(p))


# Entries up to ±9 with many zeros: leads are mostly not ±1, so most rows are
# set aside and ranked through their diagonal form.
sparse_int_matrices = st.integers(1, 9).flatmap(
    lambda r: st.integers(1, 9).flatmap(
        lambda c: st.lists(
            st.lists(
                st.one_of(st.just(0), st.integers(-9, 9)), min_size=c, max_size=c
            ),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices)
def test_sparse_kernel_matches_sympy_domain_matrix(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    m = sparse(rows)
    for f, dom in ((QQ, sympy.QQ), (GF2, sympy.GF(2)), (GF3, sympy.GF(3))):
        dm = DomainMatrix.from_list([[dom.convert(x) for x in row] for row in rows], dom)
        assert rank(m, f) == dm.rank(), (str(f), rows)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices, st.sampled_from([2, 3, 5, 65521]))
def test_rank_matches_the_elimination_over_each_prime_field(rows, p):
    m = sparse(rows)
    assert rank(m, FieldSpec(p)) == rank_mod_p(m, p), (p, rows)
    assert rank(m, QQ) == rank_naive_rationals(rows), rows


def test_the_rows_set_aside_need_column_operations():
    # [[2, 1], [0, 2]] is in echelon form with both leads 2, yet has rank 1
    # over GF(2): column operations reach the diagonal form (1, 4) up to units
    d = _diagonal([[(0, 2), (1, 1)], [(1, 2)]])
    assert sorted(map(abs, d)) == [1, 4]
    # the same matrix with its columns reversed: keyed by its largest column,
    # each row has lead 2, so rank sets both aside
    m = sparse([[1, 2], [2, 0]])
    assert (rank(m, GF2), rank(m, QQ), rank(m, GF3)) == (1, 2, 2)
    assert rank_mod_p(m, 2) == 1
    # a least entry that does not divide its row: (3, 2) is set aside, and its
    # diagonal form is (1), not (2), by one column operation
    assert [rank(sparse([[3, 2]]), f) for f in (QQ, GF2, GF3)] == [1, 1, 1]


def test_a_diagonal_entry_6_is_dropped_over_gf2_and_gf3():
    # (2, 6) is reduced at the unit pivot (1, 0) to (0, 6) and set aside
    m = sparse([[1, 0], [2, 6]])
    assert [rank(m, f) for f in (QQ, GF2, GF3, FieldSpec(5))] == [2, 1, 1, 2]


def test_rational_branch_scales_non_unit_pivots():
    # every lead is 2 or 3; the rank over ℚ is full although GF(2) and GF(3)
    # each lose one row
    rows = [[2, 4, 6], [3, 3, 0], [2, 1, 1]]
    assert rank(sparse(rows), QQ) == rank_naive_rationals(rows) == 3
    assert rank(sparse(rows), GF2) == rank(sparse(rows), GF3) == 2
    assert rank(sparse([[2, 4], [4, 8]]), QQ) == 1
    assert rank(sparse([[6, 10, 4], [9, 15, 7]]), QQ) == 2


def test_a_copied_state_is_extended_without_touching_the_original():
    # the parent sets the row (1, 2) aside, its lead 2 being no unit; a copy
    # of its state meets the unit row (3, 1) on that column, which becomes a
    # unit pivot, and the set-aside row must be reduced again as a copy:
    # (1, 2) - 2·(3, 1) = (-5, 0), set aside again, as -5 is no unit either
    parent, aside = {}, []
    assert rank(SparseMap(1, 2, [[(0, 1), (1, 2)]], parent, aside), QQ) == 0
    assert (parent, aside) == ({}, [[(0, 1), (1, 2)]])
    child, child_aside = dict(parent), aside[:]
    assert rank(SparseMap(1, 2, [[(0, 3), (1, 1)]], child, child_aside), QQ) == 1
    assert (parent, aside) == ({}, [[(0, 1), (1, 2)]])
    assert (child, child_aside) == ({1: {0: 3, 1: 1}}, [[(0, -5)]])
    # the residual decides the field: the two rows have rank 1 + 1 over ℚ
    # and 1 + 0 over GF(5)
    residual = SparseMap(1, 2, [[(0, -5)]])
    assert (rank(residual, QQ), rank(residual, FieldSpec(5))) == (1, 0)
    rows = sparse([[1, 2], [3, 1]])
    assert (rank(rows, QQ), rank(rows, FieldSpec(5))) == (2, 1)


def test_a_state_without_a_residual_list_is_refused():
    # a state is its pivots and its rows set aside: half of one would drop
    # the rows whose lead is not ±1, or rank them against nothing
    for state in (({}, None), (None, [])):
        with pytest.raises(ValueError, match="both pivots and a residual list"):
            rank(SparseMap(1, 1, [[(0, 2)]], *state), QQ)


@pytest.mark.parametrize("f", [QQ, GF2, GF3])
def test_every_field_keys_a_pivot_by_its_largest_column(f):
    # one key convention for every field: a state's keys are column indices
    state, aside = {}, []
    assert rank(SparseMap(1, 3, [[(0, 1), (2, 1)]], state, aside), f) == 1
    assert (list(state), aside) == ([2], [])
