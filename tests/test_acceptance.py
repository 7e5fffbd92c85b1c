"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All equalities are exact (integer dimensions over exact fields); the
two timed criteria assert their stated wall-clock budgets.
"""

import time
from functools import cache
from itertools import combinations_with_replacement

from srbetti.betti import betti_number, zk_cohomology_dims_two_routes
from srbetti.bounds import all_bound_checks, check_colored_binomial, check_ustinovskii
from srbetti.cohomology import cohomology_dims, reduced_cochain_complex
from srbetti.coloring import (
    greedy_coloring,
    kappa,
    minimum_coloring,
    omega_L,
    trivial_partition,
)
from srbetti.complexes import submasks, vertices_of
from srbetti.corpus import acceptance_corpus, named_corpus, rp2_complex
from srbetti.linalg import GF2, GF3, QQ
from srbetti.tor import (
    koszul_piece,
    psi_iota_checks,
    quotient_cochain_complex,
    verify_tor_threeway,
)

FIELDS = (QQ, GF2, GF3)


@cache
def corpus():
    return acceptance_corpus()


def _partitions(K):
    return (
        ("greedy", greedy_coloring(K)),
        ("minimum", minimum_coloring(K)),
        ("trivial", trivial_partition(K.m)),
    )


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_moment_angle_routes_agree():
    start = time.time()
    members = corpus()
    for name, K in members:
        for f in FIELDS:
            direct, via_betti = zk_cohomology_dims_two_routes(K, f)
            assert direct == via_betti, (name, str(f))
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 1 exceeded its budget: {elapsed:.1f}s"
    _report(
        f"[PASS] criterion 1: moment-angle routes agree exactly on "
        f"{len(members)} complexes x {len(FIELDS)} fields ({elapsed:.1f}s)"
    )


def test_criterion_2_tor_three_way_equality():
    start = time.time()
    members = corpus()
    checked = 0
    for name, K in members:
        for pname, alpha in _partitions(K):
            for f in FIELDS:
                rep = verify_tor_threeway(K, alpha, f)
                assert rep.ok, (name, pname, str(f))
                assert rep.all_stabilized, (name, pname, str(f))
                checked += len(rep.records)
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 2 exceeded its budget: {elapsed:.1f}s"
    _report(
        f"[PASS] criterion 2: Tor/cellular/Hochster agree on {checked} (q, L) "
        f"records, stabilized at the default weight bound ({elapsed:.1f}s)"
    )


def test_criterion_3_quotient_dims_equal_betti_sums():
    members = corpus()
    checked = 0
    for name, K in members:
        alpha = greedy_coloring(K)
        for f in FIELDS:
            cellular: dict[int, int] = {}
            for lmask in submasks(alpha.full_color_mask):
                C = quotient_cochain_complex(K, alpha, lmask)
                for q, d in cohomology_dims(C, f).items():
                    cellular[q] = cellular.get(q, 0) + d
            via_betti: dict[int, int] = {}
            for lmask in submasks(alpha.full_color_mask):
                om = omega_L(alpha, lmask)
                osize, lsize = om.bit_count(), lmask.bit_count()
                for q in range(osize + lsize + 1):
                    b = betti_number(K, osize + lsize - q, om, f)
                    if b:
                        via_betti[q] = via_betti.get(q, 0) + b
            assert cellular == via_betti, (name, str(f))
            checked += 1
    _report(
        f"[PASS] criterion 3: cellular quotient dims equal the Betti sums on "
        f"{checked} (complex, field) pairs"
    )


def test_criterion_4_bounds_nonnegative_and_trivial_matches():
    members = corpus()
    for name, K in members:
        for pname, alpha in _partitions(K):
            for f in FIELDS:
                checks = all_bound_checks(K, alpha, f)
                for cname, report in checks.items():
                    assert report.verdict, (name, pname, cname, str(f))
        for f in FIELDS:
            usti = {r.index: (r.lhs, r.rhs) for r in check_ustinovskii(K, f).rows}
            main = {
                r.index: (r.lhs, r.rhs)
                for r in check_colored_binomial(K, trivial_partition(K.m), f).rows
                if r.index <= K.m
            }
            assert usti == main, (name, str(f))
    _report(
        f"[PASS] criterion 4: every slack >= 0 on {len(members)} complexes x 3 "
        f"partitions x {len(FIELDS)} fields; trivial partition reproduces the "
        f"binomial-bound rows exactly"
    )


def test_criterion_5_sharpness_of_boundary_joins():
    cases = []
    for s in range(1, 5):
        for dims in combinations_with_replacement(range(1, 8), s):
            if sum(n + 1 for n in dims) <= 8:
                cases.append(list(dims))
    assert [1] in cases and [1, 1] in cases and [1, 2] in cases
    from srbetti.bounds import sharpness_suite

    specific = {}
    for dims in cases:
        for f in FIELDS:
            rep = sharpness_suite(dims, f)
            assert rep.verdict, (dims, str(f))
            assert rep.rows[0].slack == 0 and rep.rows[1].slack == 0, (dims, str(f))
            if f is QQ:
                specific[tuple(sorted(dims))] = rep.rows[0].lhs
    assert specific[(1,)] == 2
    assert specific[(1, 1)] == 4
    assert specific[(1, 2)] == 4
    _report(
        f"[PASS] criterion 5: equality (slack 0) for all {len(cases)} boundary "
        f"joins with at most 8 vertices; values 2/4/4 reproduced"
    )


def test_criterion_6_structural_properties():
    # d∘d = 0 on every flavor of constructed complex, checked exhaustively
    complexes_checked = 0
    for name, K in named_corpus():
        reduced_cochain_complex(K).check_dd_zero()
        complexes_checked += 1
        alpha = greedy_coloring(K)
        for lmask in submasks(alpha.full_color_mask):
            quotient_cochain_complex(K, alpha, lmask).check_dd_zero()
            complexes_checked += 1
            w = tuple(1 if lmask >> i & 1 else 0 for i in range(alpha.r))
            koszul_piece(K, alpha, w).check_dd_zero()
            complexes_checked += 1

    # structure maps on the named corpus (greedy and trivial colorings)
    generators = 0
    for name, K in named_corpus():
        for alpha, bound in (
            (greedy_coloring(K), 4),
            (trivial_partition(K.m), 2),
        ):
            rep = psi_iota_checks(K, alpha, weight_bound=bound)
            assert rep.ok, (name, alpha)
            generators += rep.generators_checked

    # and on a slice of the random corpus at a reduced bound
    for name, K in corpus()[7:27]:
        alpha = greedy_coloring(K)
        rep = psi_iota_checks(K, alpha, weight_bound=2)
        assert rep.ok, name
        generators += rep.generators_checked

    # kappa multiplicativity, exhaustive for r <= 8
    triples = 0
    r = 8
    for L in range(1 << r):
        rest = ((1 << r) - 1) & ~L
        Lp = rest
        while True:
            union = L | Lp
            for i in vertices_of(L):
                assert kappa(i, union) == kappa(i, L) * kappa(i, Lp | (1 << (i - 1)))
                triples += 1
            if Lp == 0:
                break
            Lp = (Lp - 1) & rest
    _report(
        f"[PASS] criterion 6: d∘d = 0 on {complexes_checked} complexes; "
        f"structure maps verified on {generators} generators; kappa "
        f"multiplicativity on {triples} exhaustive triples"
    )


def test_criterion_7_projective_plane_field_sensitivity():
    K = rp2_complex()
    full = (1 << 6) - 1
    assert betti_number(K, 3, full, GF2) == 1
    assert betti_number(K, 3, full, QQ) == 0
    for f in (GF2, QQ):
        for pname, alpha in _partitions(K):
            for cname, report in all_bound_checks(K, alpha, f).items():
                assert report.verdict, (pname, cname, str(f))
    _report(
        "[PASS] criterion 7: beta_(3,[6]) is 1 over GF(2) and 0 over Q; all "
        "bound checks pass over both fields"
    )
