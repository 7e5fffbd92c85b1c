"""Colored cochain complexes, Koszul weight pieces, and Tor verification."""

import itertools
import re
import warnings

import pytest

import srbetti.tor
from hypothesis import given, settings, strategies as st

from srbetti.betti import betti_table, zk_cohomology_dims
from srbetti.cohomology import cohomology_dims
from srbetti.coloring import (
    omega_L,
    parse_blocks,
    trivial_partition,
)
from srbetti.complexes import (
    boundary_simplex,
    from_facets,
    full_simplex,
    mask_of,
    submasks,
)
from srbetti.corpus import cycle_complex, random_complex, rp2_complex
from srbetti.errors import (
    ColorOutOfRange,
    DegeneratePartition,
    NotAComplex,
    StabilizationNotReached,
)
from srbetti.linalg import GF2, GF3, QQ
from srbetti.tor import (
    _context,
    color_weight,
    generator_multidegree,
    iota_star,
    koszul_coboundary,
    koszul_piece,
    psi_iota_checks,
    quotient_cochain_complex,
    quotient_cohomology_dims,
    tor_dims,
    verify_tor_threeway,
    x_cell_dim,
    x_coboundary,
)


def square_with_coloring():
    K = cycle_complex(4)
    return K, parse_blocks("1 3 | 2 4", 4)


# --- quotient cell complexes ------------------------------------------------

def test_quotient_complex_empty_L():
    K, alpha = square_with_coloring()
    C = quotient_cochain_complex(K, alpha, 0)
    assert (C.lo, C.hi) == (0, 0)
    assert C.size(0) == 1
    assert cohomology_dims(C, QQ) == {0: 1}


def test_quotient_complex_single_color():
    K, alpha = square_with_coloring()
    C = quotient_cochain_complex(K, alpha, mask_of([1]))
    assert {q: C.size(q) for q in range(C.lo, C.hi + 1)} == {1: 1, 2: 2}
    # d sends the (∅,{1}) cell to the sum of the two vertex cells
    assert C.differential(1).data == [[(0, 1)], [(0, 1)]]
    assert cohomology_dims(C, QQ) == {2: 1}


def test_quotient_complex_both_colors():
    K, alpha = square_with_coloring()
    C = quotient_cochain_complex(K, alpha, 0b11)
    assert sum(C.size(q) for q in range(C.lo, C.hi + 1)) == 9
    assert {q: C.size(q) for q in (2, 3, 4)} == {2: 1, 3: 4, 4: 4}
    C.check_dd_zero()
    assert cohomology_dims(C, QQ) == {4: 1}


def test_quotient_complex_rejects_degenerate():
    K = cycle_complex(4)
    with pytest.raises(DegeneratePartition):
        quotient_cochain_complex(K, parse_blocks("1 2 | 3 4", 4), 0b11)


def test_quotient_dims_four_cycle():
    K, alpha = square_with_coloring()
    assert quotient_cohomology_dims(K, alpha, QQ) == {0: 1, 2: 2, 4: 1}


def test_quotient_dims_trivial_partition_equals_zk():
    K = boundary_simplex(1)
    dims = quotient_cohomology_dims(K, trivial_partition(2), QQ)
    assert dims == zk_cohomology_dims(K, QQ) == {0: 1, 3: 1}


def test_quotient_dims_q0_always_one():
    for K in (cycle_complex(4), full_simplex(2), boundary_simplex(2)):
        from srbetti.coloring import greedy_coloring

        dims = quotient_cohomology_dims(K, greedy_coloring(K), QQ)
        assert dims[0] == 1


# --- Koszul weight pieces -----------------------------------------------------

def test_koszul_piece_zero_weight():
    K, alpha = square_with_coloring()
    C = koszul_piece(K, alpha, (0, 0))
    assert (C.lo, C.hi) == (0, 0)
    assert C.size(0) == 1
    assert C.labels[0] == [(0, (0, 0, 0, 0), 0)]
    assert cohomology_dims(C, QQ) == {0: 1}


def test_koszul_piece_w10():
    K, alpha = square_with_coloring()
    C = koszul_piece(K, alpha, (1, 0))
    # generators: t_1 in degree -1; v_1, v_3 in degree 0
    assert {q: C.size(q) for q in (-1, 0)} == {-1: 1, 0: 2}
    assert C.differential(-1).data == [[(0, 1)], [(0, 1)]]
    assert cohomology_dims(C, QQ) == {0: 1}


def test_koszul_piece_w11_nine_generators():
    K, alpha = square_with_coloring()
    C = koszul_piece(K, alpha, (1, 1))
    assert sum(C.size(q) for q in range(C.lo, C.hi + 1)) == 9
    assert {q: C.size(q) for q in (-2, -1, 0)} == {-2: 1, -1: 4, 0: 4}
    C.check_dd_zero()
    assert cohomology_dims(C, QQ) == {0: 1}


def test_koszul_piece_names_weight_and_generator_when_leaving_the_piece(monkeypatch):
    K, alpha = square_with_coloring()
    good = srbetti.tor.koszul_coboundary

    def leaky(ctx, gen):
        # bump the weight of every target once more: it leaves the piece
        out = []
        for coeff, (sigma, h, imask) in good(ctx, gen):
            out.append((coeff, (sigma, tuple(x + 1 if x else 0 for x in h), imask)))
        return out

    monkeypatch.setattr(srbetti.tor, "koszul_coboundary", leaky)
    with pytest.raises(NotAComplex) as err:
        koszul_piece(K, alpha, (1, 0))
    assert err.value.weight == (1, 0)
    assert err.value.label == (0, (0, 0, 0, 0), 1)
    assert err.value.q == -1
    assert "w=(1, 0)" in str(err.value)


def test_quotient_complex_rejects_colors_outside_r():
    K, alpha = square_with_coloring()
    with pytest.raises(ColorOutOfRange):
        quotient_cochain_complex(K, alpha, 0b100)
    with pytest.raises(ColorOutOfRange):
        quotient_cochain_complex(K, alpha, [1, 3])


def test_koszul_piece_differential_structure():
    K, alpha = square_with_coloring()
    ctx = _context(K, alpha)
    for w in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        C = koszul_piece(K, alpha, w)
        for q in range(C.lo, C.hi + 1):
            for gen in C.labels[q]:
                assert color_weight(ctx, gen) == w
                assert -gen[2].bit_count() == q
                for _, target in koszul_coboundary(ctx, gen):
                    assert color_weight(ctx, target) == w
                    assert target[2].bit_count() == gen[2].bit_count() - 1
                    # the L-component of the multidegree is preserved
                    assert (
                        generator_multidegree(ctx, target)[1]
                        == generator_multidegree(ctx, gen)[1]
                    )


def test_koszul_piece_euler_characteristic_field_independent():
    K, alpha = square_with_coloring()
    for w in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        C = koszul_piece(K, alpha, w)
        basis_alt = sum((-1) ** q * C.size(q) for q in range(C.lo, C.hi + 1))
        for f in (QQ, GF2, GF3):
            dims = cohomology_dims(C, f)
            assert sum((-1) ** q * d for q, d in dims.items()) == basis_alt


def test_pumping_a_high_coordinate_is_iso():
    """Pieces with w_i >= 2 are isomorphic to the piece with w_i + 1."""
    K, alpha = square_with_coloring()
    for w in [(2, 0), (2, 1), (2, 2), (3, 1)]:
        for i in range(2):
            if w[i] >= 2:
                up = list(w)
                up[i] += 1
                a = koszul_piece(K, alpha, tuple(w))
                b = koszul_piece(K, alpha, tuple(up))
                assert {q: a.size(q) for q in range(a.lo, a.hi + 1)} == {
                    q: b.size(q) for q in range(b.lo, b.hi + 1)
                }
                for f in (QQ, GF2):
                    assert cohomology_dims(a, f) == cohomology_dims(b, f)


# --- Tor tables ---------------------------------------------------------------

def literal_tor_entries(K, alpha, f, bound):
    """Brute-force reference: sum piece homology over every weight vector."""
    entries = {}
    for w in itertools.product(range(bound + 1), repeat=alpha.r):
        supp = sum(1 << i for i, x in enumerate(w) if x)
        dims = cohomology_dims(koszul_piece(K, alpha, w), f)
        for deg, v in dims.items():
            key = (-deg, supp)
            entries[key] = entries.get(key, 0) + v
    return {k: v for k, v in entries.items() if v}


def test_tor_dims_full_simplex_trivial():
    K = full_simplex(2)
    table = tor_dims(K, trivial_partition(3), QQ)
    assert table.entries == {(0, 0): 1}
    assert table.all_stabilized()
    # the value is already complete at weight bound 1, though not certified
    with pytest.warns(StabilizationNotReached):
        assert tor_dims(K, trivial_partition(3), QQ, 1).entries == {(0, 0): 1}


def test_tor_dims_four_cycle_colored():
    K, alpha = square_with_coloring()
    table = tor_dims(K, alpha, QQ)
    assert table.entries == {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 0b11): 1}
    assert table.all_stabilized()


def test_tor_dims_four_cycle_trivial_matches_betti():
    K = cycle_complex(4)
    alpha = trivial_partition(4)
    table = tor_dims(K, alpha, QQ)
    assert {q: table.total_for_q(q) for q in range(3)} == {0: 1, 1: 2, 2: 1}
    # entry-by-entry: Tor_{q,L} = beta_{q, omega_L} under the block bijection
    bt = betti_table(K, QQ)
    for lmask in submasks((1 << 4) - 1):
        om = omega_L(alpha, lmask)
        for q in range(5):
            assert table.get(q, lmask) == bt.get(q, om)


@pytest.mark.filterwarnings("ignore::srbetti.errors.StabilizationNotReached")
def test_tor_dims_matches_literal_weight_enumeration():
    cases = [
        square_with_coloring(),
        (full_simplex(2), trivial_partition(3)),
        (boundary_simplex(2), trivial_partition(3)),
        (from_facets(4, [mask_of((1, 2)), mask_of((3, 4))]), parse_blocks("1 3 | 2 4", 4)),
    ]
    for K, alpha in cases:
        for f in (QQ, GF2):
            for bound in (1, 2, 4):
                table = tor_dims(K, alpha, f, bound)
                assert table.entries == literal_tor_entries(K, alpha, f, bound), (
                    K,
                    alpha,
                    f,
                    bound,
                )


def test_tor_dims_stabilization_flag_low_bound():
    K, alpha = square_with_coloring()
    listed = re.escape("bound 1 for L in [[], [1], [2], [1, 2]]")
    with pytest.warns(StabilizationNotReached, match=listed) as rec:
        assert not tor_dims(K, alpha, QQ, 1).all_stabilized()
    assert rec[0].message.colors == [[], [1], [2], [1, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stabilized table warns nothing
        assert tor_dims(K, alpha, QQ, 3).all_stabilized()


def test_tor_rejects_degenerate():
    with pytest.raises(DegeneratePartition):
        tor_dims(cycle_complex(4), parse_blocks("1 2 | 3 4", 4), QQ)


# --- structure maps ------------------------------------------------------------

def test_unit_generator_maps_to_point_cell():
    K, alpha = square_with_coloring()
    unit = (0, (0, 0, 0, 0), 0)
    assert x_cell_dim(unit) == 0
    ctx = _context(K, alpha)
    assert generator_multidegree(ctx, unit) == (0, 0)


def test_iota_star_cases():
    K, alpha = square_with_coloring()
    ctx = _context(K, alpha)
    # sigma = {1}, h = 1_sigma, I = {2}: restricts to the quotient cell
    gen = (mask_of([1]), (1, 0, 0, 0), mask_of([2]))
    assert iota_star(ctx, gen) == (mask_of([1]), mask_of([2]))
    # weight 2 on vertex 1: dies
    gen2 = (mask_of([1]), (2, 0, 0, 0), mask_of([2]))
    assert iota_star(ctx, gen2) is None
    # I meets the colors of sigma: dies
    gen3 = (mask_of([1]), (1, 0, 0, 0), mask_of([1]))
    assert iota_star(ctx, gen3) is None


def test_koszul_and_cellular_differentials_agree():
    K, alpha = square_with_coloring()
    ctx = _context(K, alpha)
    gens = [
        (0, (0, 0, 0, 0), 0b11),
        (mask_of([2]), (0, 1, 0, 0), 0b01),
        (mask_of((1, 2)), (2, 1, 0, 0), 0b10),
        (mask_of((1, 2)), (1, 1, 0, 0), 0b11),
    ]
    for gen in gens:
        a = sorted((g, c) for c, g in koszul_coboundary(ctx, gen))
        b = sorted((g, c) for c, g in x_coboundary(ctx, gen))
        assert a == b


def test_psi_iota_checks_pass():
    K, alpha = square_with_coloring()
    report = psi_iota_checks(K, alpha, QQ, weight_bound=3)
    assert report.ok
    assert report.generators_checked > 0
    report2 = psi_iota_checks(full_simplex(2), trivial_partition(3), GF2, weight_bound=2)
    assert report2.ok


def test_basis_bijection_quotient_vs_weight_one_piece():
    K, alpha = square_with_coloring()
    for lmask in submasks(0b11):
        lsize = lmask.bit_count()
        C = quotient_cochain_complex(K, alpha, lmask)
        w = tuple(1 if lmask >> i & 1 else 0 for i in range(alpha.r))
        P = koszul_piece(K, alpha, w)
        for q in range(lsize + 1):
            assert C.size(2 * lsize - q) == P.size(-q)
        # and the piece generators are exactly the indicator-weight ones
        for q in range(P.lo, P.hi + 1):
            for sigma, h, imask in P.labels[q]:
                assert all(h[v] in (0, 1) for v in range(K.m))
                assert imask & _context(K, alpha).colorset(sigma) == 0


# --- three-way verification -----------------------------------------------------

def test_verify_tor_threeway_four_cycle():
    K, alpha = square_with_coloring()
    report = verify_tor_threeway(K, alpha, QQ)
    assert report.ok and report.all_stabilized
    by_key = {(rec.colors, rec.q): rec for rec in report.records}
    rec = by_key[(0b11, 0)]
    assert (rec.tor, rec.cellular, rec.hochster) == (1, 1, 1)


def test_verify_tor_threeway_strict_mode_passes_clean():
    K, alpha = square_with_coloring()
    verify_tor_threeway(K, alpha, GF3, strict=True)


def test_verify_tor_threeway_full_simplex_greedy():
    from srbetti.coloring import greedy_coloring

    K = full_simplex(2)
    report = verify_tor_threeway(K, greedy_coloring(K), QQ)
    assert report.ok
    nonzero = [
        rec for rec in report.records if rec.tor or rec.cellular or rec.hochster
    ]
    assert len(nonzero) == 1
    assert (nonzero[0].colors, nonzero[0].q) == (0, 0)


def test_verify_tor_threeway_rp2_fields_differ_but_pass():
    K = rp2_complex()
    alpha = trivial_partition(6)
    rep2 = verify_tor_threeway(K, alpha, GF2)
    repq = verify_tor_threeway(K, alpha, QQ)
    assert rep2.ok and repq.ok
    tot2 = sum(rec.tor for rec in rep2.records)
    totq = sum(rec.tor for rec in repq.records)
    assert tot2 != totq  # characteristic-dependent tables
    assert tot2 == betti_table(K, GF2).total()
    assert totq == betti_table(K, QQ).total()


def test_verify_tor_threeway_rejects_degenerate():
    with pytest.raises(DegeneratePartition):
        verify_tor_threeway(cycle_complex(4), parse_blocks("1 2 | 3 4", 4), QQ)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 60), st.sampled_from([QQ, GF2, GF3]))
def test_verify_tor_threeway_random_with_greedy(seed, f):
    from srbetti.coloring import greedy_coloring

    K = random_complex(5, 0.5, seed)
    report = verify_tor_threeway(K, greedy_coloring(K), f)
    assert report.ok and report.all_stabilized
