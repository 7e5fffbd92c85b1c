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
    greedy_coloring,
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
from srbetti.corpus import acceptance_corpus, cycle_complex, random_complex, rp2_complex
from srbetti.errors import (
    ColorOutOfRange,
    DegeneratePartition,
    MismatchFound,
    NotAComplex,
    StabilizationNotReached,
)
from srbetti.linalg import GF2, GF3, QQ
from srbetti.tor import (
    _context,
    _pattern_weight,
    _piece_generators,
    color_weight,
    default_weight_bound,
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


def test_quotient_check_names_the_q_and_L_of_a_hochster_error(monkeypatch):
    # mutation check, unseen by d∘d and basis checks: K|ω_L gains a class in
    # degree 0 for L = {1} and loses one for L = {2}; the two errors cancel in
    # the sum over L, but the per-(q, L) check stops at L = {1}, q = 0 + 1 + 1
    K, alpha = square_with_coloring()
    good = srbetti.tor.subcomplex_cohomology
    shift = {omega_L(alpha, 0b01): 1, omega_L(alpha, 0b10): -1}

    def skewed(K, omega, f):
        dims = dict(good(K, omega, f))
        if omega in shift:
            dims[0] = dims.get(0, 0) + shift[omega]
        return dims

    monkeypatch.setattr(srbetti.tor, "subcomplex_cohomology", skewed)
    with pytest.raises(MismatchFound) as err:
        quotient_cohomology_dims(K, alpha, QQ)
    assert (err.value.q, err.value.colors) == (2, 0b01)
    assert "q=2, L=(1,)" in str(err.value)
    assert not verify_tor_threeway(K, alpha, QQ).ok


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


def test_koszul_piece_with_no_generator_is_the_zero_complex():
    # two points colored apart: weight (2, 2) needs the nonface {1, 2}
    K = from_facets(2, [mask_of([1]), mask_of([2])])
    C = koszul_piece(K, parse_blocks("1 | 2", 2), (2, 2))
    assert (C.lo, C.hi, C.sizes, C.d, C.labels) == (0, 0, {0: 0}, {}, {0: []})
    assert cohomology_dims(C, QQ) == {}


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


def test_flipped_sign_in_the_quotient_coboundary_is_caught(monkeypatch):
    # mutation check: one wrong sign in d(∅, {1, 2}) of the square's L = {1, 2}
    # block must stop the cellular route at its d∘d check, from degree 2, at
    # the cell ({1, 2}, ∅)
    K, alpha = square_with_coloring()
    good = srbetti.tor.quotient_coboundary

    def flipped(ctx, cell):
        out = good(ctx, cell)
        if cell == (0, 0b11):
            (coeff, target), *rest = out
            out = [(-coeff, target), *rest]
        return out

    monkeypatch.setattr(srbetti.tor, "quotient_coboundary", flipped)
    with pytest.raises(NotAComplex) as err:
        quotient_cochain_complex(K, alpha, [1, 2])
    assert err.value.q == 2
    assert err.value.label == (mask_of((1, 2)), 0)
    assert "from degree 2" in str(err.value)


def test_quotient_complex_rejects_colors_outside_r():
    K, alpha = square_with_coloring()
    with pytest.raises(ColorOutOfRange):
        quotient_cochain_complex(K, alpha, 0b100)
    with pytest.raises(ColorOutOfRange):
        quotient_cochain_complex(K, alpha, [1, 3])
    with pytest.raises(ColorOutOfRange, match="color mask -1 is negative"):
        quotient_cochain_complex(K, alpha, -1)


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


def _piece_dims_by_pattern(K, alpha, f):
    """L -> e -> the cohomology dims of the piece of the clamped pattern
    (L, e), built and ranked for every e, certificate or not."""
    ctx = _context(K, alpha)
    colorsets = sorted({ctx.colorset(s) for s in K.faces})
    return {
        lmask: {
            e: cohomology_dims(koszul_piece(K, alpha, _pattern_weight(lmask, e, alpha.r)), f)
            for e in colorsets
            if e & ~lmask == 0
        }
        for lmask in submasks(alpha.full_color_mask)
    }


def shell_zero_flags(pieces, bound):
    """Reference stabilization flags: each of the two outermost weight
    shells B-1 and B is asked in turn whether it carries homology."""
    flags = {}
    for lmask, by_e in pieces.items():
        dims_by_e = {e: d for e, d in by_e.items() if not (e and bound < 2)}

        def shell_zero(s):
            if lmask == 0:
                return s != 0 or not dims_by_e.get(0)
            if s <= 0:
                return True
            if s == 1:
                return not dims_by_e.get(0)
            return all(not d for e, d in dims_by_e.items() if e)

        outer_ok = shell_zero(bound - 1) and shell_zero(bound)
        if bound < 2 and any(by_e):
            outer_ok = False  # shells with a coordinate 2 were never inspected
        flags[lmask] = outer_ok
    return flags


@pytest.mark.filterwarnings("ignore::srbetti.errors.StabilizationNotReached")
def test_stabilization_flags_match_the_shell_by_shell_rule():
    cases = [
        square_with_coloring(),
        (full_simplex(2), trivial_partition(3)),
        (boundary_simplex(2), trivial_partition(3)),
        (from_facets(4, [mask_of((1, 2)), mask_of((3, 4))]), parse_blocks("1 3 | 2 4", 4)),
    ]
    runs = [(K, alpha, f, (1, 2, 3, 4)) for K, alpha in cases for f in (QQ, GF2)]
    for _name, K in acceptance_corpus()[:20]:
        for alpha in (greedy_coloring(K), trivial_partition(K.m)):
            runs.append((K, alpha, QQ, (1, 2, 3, default_weight_bound(K, alpha))))
    seen = set()
    for K, alpha, f, bounds in runs:
        pieces = _piece_dims_by_pattern(K, alpha, f)
        for bound in bounds:
            flags = shell_zero_flags(pieces, bound)
            assert tor_dims(K, alpha, f, bound).stabilized == flags, (K, alpha, str(f), bound)
            seen.update(flags.values())
    assert seen == {True, False}


# --- contraction certificates for pieces with a coordinate >= 2 ---------------

@pytest.fixture
def fresh_certificates():
    # the certificate count is kept on the coloring's cached context: a
    # mutation must not see, or leave behind, a count reached with the other rule
    _context.cache_clear()
    yield
    _context.cache_clear()


def _high_patterns(K, alpha):
    """The piece of every clamped pattern with a coordinate 2 that tor_dims
    certifies at a weight bound >= 2."""
    ctx = _context(K, alpha)
    colorsets = {ctx.colorset(s) for s in K.faces}
    for lmask in submasks(alpha.full_color_mask):
        for emask in sorted(colorsets):
            if emask and emask & ~lmask == 0:
                yield _pattern_weight(lmask, emask, alpha.r)


@pytest.mark.parametrize(
    "m, seed", [(3, 1), (4, 2), (5, 3), (5, 4), (6, 5), (6, 6), (7, 7), (7, 8)]
)
def test_certificate_holds_on_every_acyclic_high_piece(m, seed, fresh_certificates):
    K = random_complex(m, 0.6, seed)
    for alpha in (greedy_coloring(K), trivial_partition(m)):
        patterns = list(_high_patterns(K, alpha))
        assert patterns
        assert tor_dims(K, alpha, QQ).certified == len(patterns), (m, seed, alpha)
        for w in patterns:
            C = koszul_piece(K, alpha, w)
            for f in (QQ, GF2, GF3):
                assert cohomology_dims(C, f) == {}, (m, seed, alpha, w, str(f))


def test_tor_dims_counts_certified_patterns_without_fallback(fresh_certificates):
    K, alpha = square_with_coloring()
    # L = {1}, {2} each see e = L; L = {1, 2} sees e = {1}, {2}, {1, 2}
    for f in (QQ, GF2):
        assert tor_dims(K, alpha, f).certified == 5
    with pytest.warns(StabilizationNotReached):
        assert tor_dims(K, alpha, QQ, 1).certified == 0  # no coordinate reaches 2
    assert verify_tor_threeway(K, alpha, GF3).table.certified == 5


@pytest.mark.filterwarnings("ignore::srbetti.errors.StabilizationNotReached")
def test_the_certificate_is_checked_once_per_coloring(monkeypatch, fresh_certificates):
    # the first field's tor_dims checks every piece; later fields and bounds
    # read the count and call the homotopy no more
    K = random_complex(6, 0.6, 5)
    alpha = greedy_coloring(K)
    good = srbetti.tor._homotopy
    calls = []

    def counted(ctx, i, gen):
        calls.append(gen)
        return good(ctx, i, gen)

    monkeypatch.setattr(srbetti.tor, "_homotopy", counted)
    certified = tor_dims(K, alpha, QQ).certified
    assert certified > 0 and calls
    calls.clear()
    for f, bound in ((GF2, None), (GF3, None), (QQ, 2), (GF2, 5)):
        assert tor_dims(K, alpha, f, bound).certified == certified
    assert verify_tor_threeway(K, alpha, GF3).table.certified == certified
    assert calls == []


def _certificate_failure(monkeypatch, K, alpha, match):
    """The NotAComplex that tor_dims raises at the piece w = (2, 1), after
    checking that it names a generator of that piece with its degree
    q = -|I|, and that no piece was ranked on the way."""

    def no_rank(C, f):
        raise AssertionError("a piece was ranked before the certificate")

    monkeypatch.setattr(srbetti.tor, "cohomology_dims", no_rank)
    with pytest.raises(NotAComplex, match=match) as err:
        tor_dims(K, alpha, QQ)
    exc = err.value
    assert exc.weight == (2, 1)
    assert "w=(2, 1)" in str(exc)
    assert exc.label in set(_piece_generators(_context(K, alpha), (2, 1)))
    assert exc.q == -exc.label[2].bit_count()
    return exc


def test_flipped_sign_in_the_koszul_coboundary_is_caught(monkeypatch, fresh_certificates):
    # mutation check: one wrong sign in d({1}, (1,0,0,0), {1, 2}), a generator
    # of the piece w = (2, 1), fails its certificate, which names the piece
    K, alpha = square_with_coloring()
    good = srbetti.tor.koszul_coboundary
    bad_gen = (mask_of([1]), (1, 0, 0, 0), 0b11)

    def flipped(ctx, gen):
        out = good(ctx, gen)
        if gen == bad_gen:
            (coeff, target), *rest = out
            out = [(-coeff, target), *rest]
        return out

    monkeypatch.setattr(srbetti.tor, "koszul_coboundary", flipped)
    exc = _certificate_failure(monkeypatch, K, alpha, "contraction certificate fails")
    assert exc.label == bad_gen and exc.q == -2


def test_certificate_checks_d_squared_on_its_own(monkeypatch, fresh_certificates):
    # mutation check: d' = d + H still satisfies d'H + Hd' = id, as H∘H = 0,
    # but d'∘d' = dH + Hd = id; only the d∘d leg of the certificate sees it
    K, alpha = square_with_coloring()
    good = srbetti.tor.koszul_coboundary

    def skewed(ctx, gen):
        return good(ctx, gen) + srbetti.tor._homotopy(ctx, 1, gen)

    monkeypatch.setattr(srbetti.tor, "koszul_coboundary", skewed)
    _certificate_failure(monkeypatch, K, alpha, "d∘d != 0")


def test_a_target_outside_the_piece_fails_the_certificate(monkeypatch, fresh_certificates):
    K, alpha = square_with_coloring()
    good = srbetti.tor.koszul_coboundary

    def leaky(ctx, gen):
        # every target one unit heavier on each of its vertices
        return [
            (c, (sigma, tuple(x + 1 if x else 0 for x in h), imask))
            for c, (sigma, h, imask) in good(ctx, gen)
        ]

    monkeypatch.setattr(srbetti.tor, "koszul_coboundary", leaky)
    _certificate_failure(monkeypatch, K, alpha, "d or H leaves the piece")


def test_a_homotopy_with_a_term_dropped_is_caught(monkeypatch, fresh_certificates):
    K, alpha = square_with_coloring()
    good = srbetti.tor._homotopy
    dropped = (mask_of([1]), (2, 0, 0, 0), 0b10)  # in the piece w = (2, 1)

    def lossy(ctx, i, gen):
        return [] if gen == dropped else good(ctx, i, gen)

    monkeypatch.setattr(srbetti.tor, "_homotopy", lossy)
    _certificate_failure(monkeypatch, K, alpha, "dH \\+ Hd != id")
    with pytest.raises(NotAComplex):  # a failure is not remembered as a count
        verify_tor_threeway(K, alpha, GF2)


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
    report = psi_iota_checks(K, alpha, weight_bound=3)
    assert report.ok
    assert report.generators_checked > 0
    report2 = psi_iota_checks(full_simplex(2), trivial_partition(3), weight_bound=2)
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
