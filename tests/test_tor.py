"""Colored cochain complexes, Koszul weight pieces, and Tor verification."""

import itertools
import re
import warnings

import pytest

import srbetti.tor
from hypothesis import given, settings, strategies as st

from srbetti.betti import betti_table, zk_cohomology_dims
from srbetti.cohomology import _SLOTS, cohomology_dims, reduced_cohomology_dims
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
    vertices_of,
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
    _certify,
    _context,
    _Ctx,
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
from test_complexes import moore_space_mod_3


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


@pytest.mark.parametrize("w", [(1,), (1, 1, 0), (1, -1)])
def test_koszul_piece_refuses_a_weight_outside_n_to_the_r(w):
    K, alpha = square_with_coloring()
    with pytest.raises(ValueError, match=re.escape(f"weight vector must be in N^2, got {w}")):
        koszul_piece(K, alpha, w)


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


def test_koszul_piece_names_weight_and_generator_when_d_squared_fails(monkeypatch):
    # mutation check: one wrong sign in d(∅, 0, {1, 2}) of the e = 0 piece
    # w = (1, 1) must stop its build at the d∘d check from degree -2, at the
    # first edge it reaches, and the error must name the piece
    K, alpha = square_with_coloring()
    good = srbetti.tor.koszul_coboundary
    top = (0, (0, 0, 0, 0), 0b11)

    def flipped(ctx, gen):
        out = good(ctx, gen)
        if gen == top:
            (coeff, target), *rest = out
            out = [(-coeff, target), *rest]
        return out

    monkeypatch.setattr(srbetti.tor, "koszul_coboundary", flipped)
    with pytest.raises(NotAComplex) as err:
        koszul_piece(K, alpha, (1, 1))
    assert err.value.weight == (1, 1)
    assert err.value.label == (mask_of((1, 2)), (1, 1, 0, 0), 0)
    assert err.value.q == -2
    assert str(err.value) == "d∘d != 0 from degree -2 at (3, (1, 1, 0, 0), 0); piece w=(1, 1)"


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
    with pytest.raises(ColorOutOfRange, match="color 0 is not positive"):
        quotient_cochain_complex(K, greedy_coloring(K), [0])


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
    colorsets = sorted({ctx.colorsets[s] for s in K.faces})
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
    reduced_cohomology_dims.cache_clear()
    yield
    reduced_cohomology_dims.cache_clear()


def _high_patterns(K, alpha):
    """The piece of every clamped pattern with a coordinate 2 that tor_dims
    certifies at a weight bound >= 2."""
    ctx = _context(K, alpha)
    colorsets = {ctx.colorsets[s] for s in K.faces}
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


def _count_shapes(monkeypatch):
    """Count the shapes (σ, I) the certificate checks: one homotopy call each."""
    good = srbetti.tor._homotopy
    calls = []

    def counted(i, sigma, imask):
        calls.append((i, sigma, imask))
        return good(i, sigma, imask)

    monkeypatch.setattr(srbetti.tor, "_homotopy", counted)
    return calls


@pytest.mark.filterwarnings("ignore::srbetti.errors.StabilizationNotReached")
def test_the_certificate_is_checked_once_per_coloring(monkeypatch, fresh_certificates):
    # the first field's tor_dims checks every piece; later fields and bounds
    # read the count and call the homotopy no more
    K = random_complex(6, 0.6, 5)
    alpha = greedy_coloring(K)
    calls = _count_shapes(monkeypatch)
    certified = tor_dims(K, alpha, QQ).certified
    assert certified > 0 and calls
    calls.clear()
    for f, bound in ((GF2, None), (GF3, None), (QQ, 2), (GF2, 5)):
        assert tor_dims(K, alpha, f, bound).certified == certified
    assert verify_tor_threeway(K, alpha, GF3).table.certified == certified
    assert calls == []


@pytest.mark.parametrize(
    "K, alpha, shapes, generators",
    [
        (*square_with_coloring(), 40, 48),
        (random_complex(6, 0.6, 5), None, 1164, 1744),
    ],
)
def test_the_certificate_checks_each_shape_once_per_least_color(
    monkeypatch, fresh_certificates, K, alpha, shapes, generators
):
    # the per-color work of the certificate: H, the closure and dH + Hd = id
    # on the shapes of every Ũ(L, i), each checked once, against the
    # generators of the pieces (L, e) it stands for (d and d∘d run once per
    # shape of U(L), below).  On the square, L = {1, 2} checks 20 shapes for
    # i = 1 and 12 for i = 2, and L = {1}, {2} check 4 each; its pieces hold
    # 12 + 12 + 16 + 4 + 4
    alpha = alpha or greedy_coloring(K)
    calls = _count_shapes(monkeypatch)
    tor_dims(K, alpha, QQ)
    ctx = _context(K, alpha)
    pieces = sum(len(list(_piece_generators(ctx, w))) for w in _high_patterns(K, alpha))
    assert (len(calls), pieces) == (shapes, generators)
    assert len(set(calls)) == len(calls) < pieces


@pytest.mark.parametrize(
    "K, alpha, rules", [(*square_with_coloring(), 32), (random_complex(6, 0.6, 5), None, 800)]
)
def test_the_certificate_evaluates_the_rule_once_per_shape(monkeypatch, K, alpha, rules):
    # d is built once per color set L, on the union U(L) of its Ũ(L, i): a
    # shape (σ, I) lies in U(L) for L = I_α(σ) ∪ I only, and a face σ != ∅
    # has 2^|I_α(σ)| choices of J, so the rule runs (|K| - 1)·2^r times.  On
    # the square, U({1, 2}) holds 24 shapes and U({1}), U({2}) 4 each
    alpha = alpha or greedy_coloring(K)
    good = srbetti.tor._koszul_terms
    calls = []

    def counted(ctx, sigma, imask):
        calls.append((sigma, imask))
        return good(ctx, sigma, imask)

    monkeypatch.setattr(srbetti.tor, "_koszul_terms", counted)
    _certify(_Ctx(K, alpha))
    assert len(calls) == len(set(calls)) == (len(K.faces) - 1) << alpha.r == rules


def _certificate_failure(monkeypatch, K, alpha, match):
    """The NotAComplex that tor_dims raises at the piece w = (2, 1), after
    checking that it names a generator of that piece with its degree
    q = -|I|, and that no piece was ranked on the way."""

    def no_rank(C):
        raise AssertionError("a piece was ranked before the certificate")

    monkeypatch.setattr(srbetti.tor, "integral_elimination", no_rank)
    with pytest.raises(NotAComplex, match=match) as err:
        tor_dims(K, alpha, QQ)
    exc = err.value
    assert exc.weight == (2, 1)
    assert "w=(2, 1)" in str(exc)
    assert exc.label in set(_piece_generators(_context(K, alpha), (2, 1)))
    assert exc.q == -exc.label[2].bit_count()
    return exc


def _mutate_terms(monkeypatch, mutation):
    """Run the Koszul shape rule through ``mutation(shape, terms)``."""
    good = srbetti.tor._koszul_terms

    def mutated(ctx, sigma, imask):
        return mutation((sigma, imask), list(good(ctx, sigma, imask)))

    monkeypatch.setattr(srbetti.tor, "_koszul_terms", mutated)


def test_flipped_sign_in_the_koszul_coboundary_is_caught(monkeypatch, fresh_certificates):
    # mutation check: one wrong sign in the rule at the shape ({1}, {1, 2}),
    # whose smallest piece is w = (2, 1), fails the certificate of
    # Ũ({1, 2}, 1), which names the shape's generator in that piece
    K, alpha = square_with_coloring()
    bad = (mask_of([1]), 0b11)

    def flipped(shape, terms):
        if shape == bad:
            (coeff, *target), *rest = terms
            terms = [(-coeff, *target), *rest]
        return terms

    _mutate_terms(monkeypatch, flipped)
    exc = _certificate_failure(monkeypatch, K, alpha, "contraction certificate fails")
    assert exc.label == (mask_of([1]), (1, 0, 0, 0), 0b11) and exc.q == -2


def test_certificate_checks_d_squared_on_its_own(monkeypatch, fresh_certificates):
    # mutation check: d' = d + H still satisfies d'H + Hd' = id, as H∘H = 0,
    # but d'∘d' = dH + Hd = id; only the d∘d leg of the certificate sees it
    K, alpha = square_with_coloring()

    def skewed(shape, terms):  # the certificate reads no vertex j
        return terms + [(c, *t, None) for c, t in srbetti.tor._homotopy(1, *shape)]

    _mutate_terms(monkeypatch, skewed)
    _certificate_failure(monkeypatch, K, alpha, "d∘d != 0")


def test_a_target_outside_the_piece_fails_the_certificate(monkeypatch, fresh_certificates):
    # every target loses its face: (∅, I') lies in no Ũ(L, i)
    K, alpha = square_with_coloring()
    _mutate_terms(monkeypatch, lambda shape, terms: [(c, 0, t, j) for c, _s, t, j in terms])
    _certificate_failure(monkeypatch, K, alpha, "d or H leaves the piece")


@pytest.mark.parametrize(
    "source, target, label",
    [
        # the piece e = {1, 2} holds ({1, 2}, ∅), not ({1}, {2}): the target
        # drops the σ-vertex of the color 2 ∈ e ∖ {1}
        ((mask_of((1, 2)), 0b00), (mask_of([1]), 0b10), (mask_of((1, 2)), (2, 1, 0, 0), 0)),
        # the piece e = {1} holds ({1, 2}, {1}), not ({1, 2}, {2}): J' = {2}
        # gains a color outside J ∪ {1}
        ((mask_of((1, 2)), 0b01), (mask_of((1, 2)), 0b10), (mask_of((1, 2)), (1, 1, 0, 0), 1)),
    ],
)
def test_a_target_in_the_shape_complex_but_outside_a_piece_fails(
    monkeypatch, fresh_certificates, source, target, label
):
    # mutation checks: both targets lie in Ũ({1, 2}, 1), so only the check
    # that each target stays in every piece holding its source sees them
    K, alpha = square_with_coloring()

    def extended(shape, terms):  # the certificate reads no vertex j
        return terms + [(1, *target, None)] if shape == source else terms

    _mutate_terms(monkeypatch, extended)
    exc = _certificate_failure(monkeypatch, K, alpha, "d or H leaves the piece")
    assert exc.label == label


def test_a_homotopy_with_a_term_dropped_is_caught(monkeypatch, fresh_certificates):
    # mutation check: H drops its term at the shape ({1}, {2}), whose
    # smallest piece is w = (2, 1)
    K, alpha = square_with_coloring()
    good = srbetti.tor._homotopy

    def lossy(i, sigma, imask):
        return [] if (sigma, imask) == (mask_of([1]), 0b10) else good(i, sigma, imask)

    monkeypatch.setattr(srbetti.tor, "_homotopy", lossy)
    _certificate_failure(monkeypatch, K, alpha, "dH \\+ Hd != id")
    with pytest.raises(NotAComplex):  # a failure is not remembered as a count
        verify_tor_threeway(K, alpha, GF2)


@pytest.mark.parametrize(
    "K, blocks, dropped, label, weight",
    [
        # the square: H drops its term only for i = 2 at ({1, 2}, ∅), a shape
        # of least color 1; dH + Hd = id first fails at ({2}, {1}), whose d
        # reaches ({1, 2}, ∅)
        (cycle_complex(4), "1 3 | 2 4", (2, (1, 2), 0), (0b10, (0, 2, 0, 0), 0b01), (1, 2)),
        # the edge 12 and the triangle 234: H drops its term only for i = 3 at
        # ({2, 3, 4}, ∅), and the failure shows first at ({2, 4}, {1}), whose
        # least color 2 is below i
        (
            from_facets(4, [mask_of((1, 2)), mask_of((2, 3, 4))]),
            "1 3 | 2 | 4",
            (3, (2, 3, 4), 0),
            (0b1010, (0, 1, 0, 2), 0b001),
            (1, 1, 2),
        ),
    ],
)
def test_a_homotopy_failure_above_the_least_color_is_caught(
    monkeypatch, fresh_certificates, K, blocks, dropped, label, weight
):
    # mutation checks: d∘d is checked once per shape, at its least color, but
    # H, the closure and dH + Hd = id per color i on every shape of Ũ(L, i)
    alpha = parse_blocks(blocks, K.m)
    good = srbetti.tor._homotopy
    i, sigma, imask = dropped

    def lossy(*args):
        return [] if args == (i, mask_of(sigma), imask) else good(*args)

    monkeypatch.setattr(srbetti.tor, "_homotopy", lossy)
    with pytest.raises(NotAComplex, match="dH \\+ Hd != id") as err:
        tor_dims(K, alpha, QQ)
    exc = err.value
    assert (exc.label, exc.weight, exc.q) == (label, weight, -1)


def test_tor_dims_stabilization_flag_low_bound():
    K, alpha = square_with_coloring()
    listed = re.escape("bound 1 for L in [[], [1], [2], [1, 2]]")
    with pytest.warns(StabilizationNotReached, match=listed) as rec:
        assert not tor_dims(K, alpha, QQ, 1).all_stabilized()
    assert rec[0].message.colors == [[], [1], [2], [1, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stabilized table warns nothing
        assert tor_dims(K, alpha, QQ, 3).all_stabilized()


def test_a_weight_bound_below_one_is_refused():
    # tor_dims and the structure-map check share the one bound rule: a bound
    # that would check no piece is an error, not a pass
    K = cycle_complex(4)
    alpha = greedy_coloring(K)
    for bound in (0, -1):
        with pytest.raises(ValueError, match=f"weight bound must be >= 1, got {bound}"):
            tor_dims(K, alpha, QQ, bound)
        with pytest.raises(ValueError, match=f"weight bound must be >= 1, got {bound}"):
            psi_iota_checks(K, alpha, weight_bound=bound)


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


def brute_force_generators(ctx, bound):
    """Reference: every (σ, h, I) with h >= 1 on σ, drawn as B^|σ|·2^r
    candidates per face, kept when its maximum color weight is <= bound."""
    for sigma in sorted(ctx.K.faces):
        verts = vertices_of(sigma)
        for values in itertools.product(range(1, bound + 1), repeat=len(verts)):
            h = [0] * ctx.m
            for v, val in zip(verts, values):
                h[v - 1] = val
            for imask in range(1 << ctx.r):
                gen = (sigma, tuple(h), imask)
                if max(color_weight(ctx, gen), default=0) <= bound:
                    yield gen


@pytest.mark.parametrize(
    "K, alpha, bound",
    [
        *((cycle_complex(4), greedy_coloring(cycle_complex(4)), b) for b in (1, 2, 3, 4)),
        (full_simplex(2), trivial_partition(3), 2),
        (rp2_complex(), greedy_coloring(rp2_complex()), 2),
        (random_complex(7, 0.5, 3), greedy_coloring(random_complex(7, 0.5, 3)), 2),
    ],
)
def test_the_piece_walk_yields_every_generator_once(K, alpha, bound):
    # the structure-map check walks the weight pieces tor_dims builds: they
    # hold exactly the generators up to the bound, each in one piece only
    ctx = _context(K, alpha)
    walked = [
        gen
        for w in itertools.product(range(bound + 1), repeat=alpha.r)
        for gen in _piece_generators(ctx, w)
    ]
    reference = set(brute_force_generators(ctx, bound))
    assert len(walked) == len(set(walked))
    assert set(walked) == reference
    assert psi_iota_checks(K, alpha, weight_bound=bound).generators_checked == len(reference)


def _no_shift(ctx, gen):
    q, colors = generator_multidegree(ctx, gen)
    return q + 1, colors


def _colors_of_sigma(ctx, gen):
    q, _colors = generator_multidegree(ctx, gen)
    return q, ctx.colorsets[gen[0]]


def _doubled_bumps(ctx, gen):
    # only the terms that keep σ, whose weight h - 1_σ != 0 the quotient drops
    return [(2 * c if t[0] == gen[0] else c, t) for c, t in x_coboundary(ctx, gen)]


def _no_empty_cell(ctx, gen):
    return None if gen[0] == 0 else iota_star(ctx, gen)


@pytest.mark.parametrize(
    "name, mutant, flags, failure",
    [
        ("generator_multidegree", _no_shift, (False, True, True), "degree shift violated at"),
        ("generator_multidegree", _colors_of_sigma, (False, True, True), "multidegree support"),
        ("x_coboundary", _doubled_bumps, (True, False, True), "differentials disagree at"),
        ("iota_star", _no_empty_cell, (True, True, False), "restriction square fails at"),
    ],
    ids=["degree", "multidegree", "differential", "restriction"],
)
def test_psi_iota_checks_raise_the_one_flag_a_mutation_breaks(
    monkeypatch, name, mutant, flags, failure
):
    K, alpha = square_with_coloring()
    monkeypatch.setattr(srbetti.tor, name, mutant)
    report = psi_iota_checks(K, alpha, weight_bound=2)
    assert (report.bijection_ok, report.chain_map_ok, report.iota_chain_map_ok) == flags
    assert report.failures and all(msg.startswith(failure) for msg in report.failures)
    assert not report.ok


def test_psi_iota_checks_catch_a_piece_walk_that_ignores_J(monkeypatch):
    # mutation check: h(v) = w_i on every σ-vertex, whether or not i ∈ J, puts
    # generators of weight w + 1_J into the piece w; only the weight check sees it
    K = cycle_complex(4)
    alpha = greedy_coloring(K)
    good = srbetti.tor._piece_generators

    def j_blind(ctx, w):
        color = ctx.alpha.color_of
        for sigma, h, imask in good(ctx, w):
            yield sigma, tuple(w[color[v] - 1] if x else 0 for v, x in enumerate(h, 1)), imask

    assert psi_iota_checks(K, alpha, weight_bound=3).ok
    monkeypatch.setattr(srbetti.tor, "_piece_generators", j_blind)
    report = psi_iota_checks(K, alpha, weight_bound=3)
    assert report.generators_checked == 144
    assert not report.bijection_ok and not report.ok
    assert any(msg.startswith("color weight is not") for msg in report.failures)


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
                assert imask & _context(K, alpha).colorsets[sigma] == 0


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


# --- the e = 0 piece and the quotient block: one build, one elimination --------

@pytest.fixture
def fresh_blocks():
    # the e = 0 sweeps are kept per (K, α, route) for every field: a mutation
    # must build its own, and leave none behind
    reduced_cohomology_dims.cache_clear()
    yield
    reduced_cohomology_dims.cache_clear()


def _flip_first_term(monkeypatch, name, source):
    """Patch the rule ``name`` of srbetti.tor to flip the sign of the first
    term of d(source)."""
    good = getattr(srbetti.tor, name)

    def flipped(ctx, gen):
        out = good(ctx, gen)
        if gen == source:
            (coeff, target), *rest = out
            out = [(-coeff, target), *rest]
        return out

    monkeypatch.setattr(srbetti.tor, name, flipped)


@pytest.mark.parametrize(
    "name, source, piece, block",
    [
        ("quotient_coboundary", (0, 0b01), 1, -1),
        ("koszul_coboundary", (0, (0, 0, 0, 0), 0b01), -1, 1),
    ],
)
def test_a_flipped_sign_in_an_e0_map_is_caught_entry_by_entry(
    monkeypatch, fresh_blocks, name, source, piece, block
):
    # mutation checks: d(∅, {1}) is the only map of the square's L = {1}
    # block and of its piece w = (1, 0), so no d∘d check sees a flipped sign
    # there; verify's entry comparison names q = |I| = 1, L = {1} and the
    # entry, also when tor has eliminated the pieces without their blocks
    K, alpha = square_with_coloring()
    _flip_first_term(monkeypatch, name, source)
    tor_dims(K, alpha, GF3)
    for f in (QQ, GF2):
        with pytest.raises(MismatchFound) as err:
            verify_tor_threeway(K, alpha, f)
        assert (err.value.q, err.value.colors) == (1, 0b01)
        assert str(err.value) == (
            "e = 0 piece and quotient block differ at q=1, L=(1,): the entry of "
            f"d(0, 1) at (1, 0) is {piece} in the piece and {block} in the block"
        )


def _count_builds(monkeypatch):
    """Count the e = 0 pieces (by the support of w) and quotient blocks built,
    and the L at which the two were compared."""
    builds = {"piece": [], "block": [], "compared": []}
    piece, block = srbetti.tor.koszul_piece, srbetti.tor.quotient_cochain_complex
    compare = srbetti.tor._compare_e0

    def counted_piece(K, alpha, w):
        builds["piece"].append(sum(1 << i for i, x in enumerate(w) if x))
        return piece(K, alpha, w)

    def counted_block(K, alpha, L):
        builds["block"].append(L)
        return block(K, alpha, L)

    def counted_compare(ctx, lmask, *maps):
        builds["compared"].append(lmask)
        return compare(ctx, lmask, *maps)

    monkeypatch.setattr(srbetti.tor, "koszul_piece", counted_piece)
    monkeypatch.setattr(srbetti.tor, "quotient_cochain_complex", counted_block)
    monkeypatch.setattr(srbetti.tor, "_compare_e0", counted_compare)
    return builds


def test_verify_builds_each_kind_once_per_L_for_every_field(monkeypatch, fresh_blocks):
    # verify keeps a sweep of its own: the pieces tor eliminated first stand
    # in for no comparison, and q, f2 and f3 read one build of each per L
    K = random_complex(7, 0.5, 3)
    alpha = greedy_coloring(K)
    tor_dims(K, alpha, QQ)
    with monkeypatch.context() as patch:
        builds = _count_builds(patch)
        for f in (QQ, GF2, GF3):
            report = verify_tor_threeway(K, alpha, f)
            assert report.ok and report.all_stabilized
    every_L = sorted(submasks(alpha.full_color_mask))
    assert sorted(builds["piece"]) == sorted(builds["block"]) == every_L
    assert sorted(builds["compared"]) == every_L
    for f in (QQ, GF2, GF3):
        assert quotient_cohomology_dims(K, alpha, f) == sum_of_quotient_blocks(K, alpha, f)


def test_tor_and_quotient_alone_build_one_kind(monkeypatch, fresh_blocks):
    # a lone field costs what it cost before the blocks were shared: tor
    # builds the pieces alone, quotient the blocks alone, and a second field
    # of either builds nothing
    K = random_complex(7, 0.5, 3)
    alpha = greedy_coloring(K)
    every_L = sorted(submasks(alpha.full_color_mask))
    for run, kind in (
        (lambda f: tor_dims(K, alpha, f), "piece"),
        (lambda f: quotient_cohomology_dims(K, alpha, f), "block"),
    ):
        reduced_cohomology_dims.cache_clear()
        with monkeypatch.context() as patch:
            builds = _count_builds(patch)
            for f in (QQ, GF2):
                run(f)
        assert sorted(builds[kind]) == every_L
        assert builds["block" if kind == "piece" else "piece"] == builds["compared"] == []


def test_entry_points_in_any_order_agree_and_build_their_own_route(monkeypatch, fresh_blocks):
    # one sweep per (K, α, route): a later tor reads the first tor's, verify
    # builds and compares both kinds, quotient after verify builds its own
    # blocks; every entry point reports the same numbers over each field
    K = random_complex(7, 0.5, 3)
    alpha = greedy_coloring(K)
    n = 1 << alpha.r
    runs = {
        "tor": lambda f: tor_dims(K, alpha, f).entries,
        "verify": lambda f: verify_tor_threeway(K, alpha, f).table.entries,
        "quotient": lambda f: quotient_cohomology_dims(K, alpha, f),
    }
    builds = _count_builds(monkeypatch)
    out, counts = {}, []
    for name in ("tor", "verify", "quotient", "tor"):
        for f in (QQ, GF2):
            out.setdefault((name, f), []).append(runs[name](f))
        counts.append(tuple(len(builds[kind]) for kind in ("piece", "block", "compared")))
    assert counts == [(n, 0, 0), (2 * n, n, n), (2 * n, 2 * n, n), (2 * n, 2 * n, n)]
    for f in (QQ, GF2):
        (first, last), (verified,), (quotient,) = (out[name, f] for name in runs)
        assert first == verified == last
        by_cell_degree = {}
        for (q, L), dim in first.items():
            deg = 2 * L.bit_count() - q
            by_cell_degree[deg] = by_cell_degree.get(deg, 0) + dim
        assert quotient == by_cell_degree


def sum_of_quotient_blocks(K, alpha, f):
    """Σ_L of the quotient L-block's dims, each block built and ranked over f."""
    out = {}
    for lmask in submasks(alpha.full_color_mask):
        for q, d in cohomology_dims(quotient_cochain_complex(K, alpha, lmask), f).items():
            out[q] = out.get(q, 0) + d
    return out


def test_a_second_field_ranks_only_the_residual_rows(monkeypatch, fresh_blocks):
    # RP² under the trivial coloring: only L = [6] leaves a row that no ±1
    # pivot reduces, its ℤ/2; GF(2) reads the pieces ℚ built, ranks that row
    # as 0 and so gains Tor_{3,[6]} and Tor_{4,[6]}, H̃² and H̃¹ of RP²
    K, alpha = rp2_complex(), trivial_partition(6)
    over_q = tor_dims(K, alpha, QQ).entries

    def no_build(*args):
        raise AssertionError("a block was built again")

    monkeypatch.setattr(srbetti.tor, "koszul_piece", no_build)
    monkeypatch.setattr(srbetti.tor, "quotient_cochain_complex", no_build)
    over_2 = tor_dims(K, alpha, GF2).entries
    full = alpha.full_color_mask
    sweep = _context(K, alpha).sweeps[srbetti.tor._PIECE]  # kept by the ℚ run
    residual = {L: rows for L, _units, rows in sweep}
    assert [L for L, rows in residual.items() if rows] == [full]
    assert [M.rows for M in residual[full].values()] == [1]
    assert {k: v for k, v in over_2.items() if over_q.get(k) != v} == {(3, full): 1, (4, full): 1}
    assert set(over_q) <= set(over_2)
    for f, entries in ((QQ, over_q), (GF2, over_2)):
        table = betti_table(K, f)
        assert entries == {(q, L): table.get(q, omega_L(alpha, L)) for q, L in entries}
        assert sum(entries.values()) == table.total()


def test_the_mod_3_moore_space_reaches_gf3_through_its_e0_residual(fresh_blocks):
    # under the greedy coloring only L = [r], whose ω_L is all of [m], leaves
    # an e = 0 row that no ±1 pivot reduces, the space's ℤ/3: GF(3) reads it
    # through _e0_dims and gains Tor_{3,[r]} and Tor_{4,[r]}, as RP² over GF(2)
    K = moore_space_mod_3()
    alpha = greedy_coloring(K)
    full = alpha.full_color_mask
    report = verify_tor_threeway(K, alpha, GF3)
    assert report.ok
    sweep = _context(K, alpha).sweeps[srbetti.tor._PIECE | srbetti.tor._BLOCK]
    assert [L for L, _units, rows in sweep if rows] == [full]
    over_q, over_3 = tor_dims(K, alpha, QQ).entries, report.table.entries
    assert {k for k in over_q.keys() | over_3.keys() if over_q.get(k) != over_3.get(k)} == {
        (3, full), (4, full)
    }
    for f in (QQ, GF3):
        assert quotient_cohomology_dims(K, alpha, f) == sum_of_quotient_blocks(K, alpha, f)
    assert quotient_cohomology_dims(K, alpha, QQ) != quotient_cohomology_dims(K, alpha, GF3)


def test_cache_clear_discards_the_colored_blocks(monkeypatch, fresh_blocks):
    # a wrong rank met while the blocks of (K, α) were eliminated must not
    # outlive cache_clear, which drops each context with its kept sweeps
    K = random_complex(6, 0.5, 2024)  # no other test builds its blocks
    alpha = greedy_coloring(K)
    both = srbetti.tor._PIECE | srbetti.tor._BLOCK
    rank = srbetti.cohomology.rank
    with monkeypatch.context() as patch:
        patch.setattr(srbetti.cohomology, "rank", lambda M, f: rank(M, f) + 1)
        wrong = verify_tor_threeway(K, alpha, QQ)
    kept = _context(K, alpha)
    assert list(kept.sweeps) == [both]
    reduced_cohomology_dims.cache_clear()
    assert _context.cache_info().currsize == 0
    report = verify_tor_threeway(K, alpha, QQ)
    assert report.ok and report.table.entries != wrong.table.entries
    fresh = _context(K, alpha)
    assert fresh is not kept and list(fresh.sweeps) == [both]
    assert fresh.sweeps[both] != kept.sweeps[both]


def test_the_contexts_kept_stay_at_one_per_walker_slot(fresh_certificates):
    # each kept context holds K, its coface table and its e = 0 sweeps until
    # cache_clear: 500 distinct (K, α) once held 14.8 MiB; callers finish one
    # at a time
    complexes = {random_complex(5, 0.5, seed) for seed in range(40)}
    assert len(complexes) > 2 * _SLOTS
    for K in complexes:
        tor_dims(K, greedy_coloring(K), GF2)
    info = _context.cache_info()
    assert info.maxsize == info.currsize == _SLOTS
    assert info.misses >= len(complexes)


def test_a_piece_without_its_bottom_generator_is_caught_by_its_basis(monkeypatch, fresh_blocks):
    # mutation check: nothing maps into the bottom generator (∅, 0, L) of the
    # piece 1_L, so dropping it for L = {1, 2} leaves a complex that passes
    # every d∘d check; verify's basis comparison names q = |L| = 2 and L
    K = cycle_complex(4)
    alpha = greedy_coloring(K)
    generators = srbetti.tor._piece_generators

    def dropped(ctx, w):
        return (gen for gen in generators(ctx, w) if gen[0] or w != (1, 1))

    monkeypatch.setattr(srbetti.tor, "_piece_generators", dropped)
    with pytest.raises(MismatchFound) as err:
        verify_tor_threeway(K, alpha, QQ)
    assert (err.value.q, err.value.colors) == (2, 0b11)
    assert str(err.value) == (
        "e = 0 piece and quotient block differ at q=2, L=(1, 2): "
        "the piece's basis is not the cells [(0, 3)]"
    )
