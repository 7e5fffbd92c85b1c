"""Lower-bound theorem checks and sharpness witnesses."""

import pytest
import srbetti.bounds
from hypothesis import given, settings, strategies as st

from srbetti.bounds import (
    all_bound_checks,
    binomial,
    check_colored_total,
    check_caolu,
    check_colored_binomial,
    check_ustinovskii,
    krull_dimension,
    sharpness_suite,
)
from srbetti.betti import betti_number
from srbetti.coloring import greedy_coloring, omega_L, parse_blocks, trivial_partition
from srbetti.complexes import boundary_simplex, from_facets, full_simplex, mask_of, submasks
from srbetti.corpus import cycle_complex, random_complex, rp2_complex
from srbetti.errors import DegeneratePartition, InvalidDimension, VertexBudgetExceeded
from srbetti.linalg import GF2, GF3, QQ


def test_binomial_conventions():
    assert binomial(-1, 0) == 0
    assert binomial(3, 5) == 0
    assert binomial(5, 2) == 10


def test_krull_dimension():
    assert krull_dimension(cycle_complex(4)) == 2
    assert krull_dimension(full_simplex(2)) == 3
    three_points = from_facets(3, [1, 2, 4])
    assert krull_dimension(three_points) == 1


def test_colored_binomial_four_cycle():
    K = cycle_complex(4)
    alpha = parse_blocks("1 3 | 2 4", 4)
    report = check_colored_binomial(K, alpha, QQ)
    row0 = report.rows[0]
    assert (row0.lhs, row0.rhs) == (4, 1)
    assert sorted(v for v in row0.terms.values()) == [1, 1, 1, 1]
    assert report.verdict


def test_colored_binomial_four_cycle_trivial_q1_equality():
    K = cycle_complex(4)
    report = check_colored_binomial(K, trivial_partition(4), QQ)
    row1 = report.rows[1]
    assert (row1.lhs, row1.rhs, row1.slack) == (2, 2, 0)


def test_colored_binomial_simplex_trivial():
    K = full_simplex(2)
    report = check_colored_binomial(K, trivial_partition(3), QQ)
    for row in report.rows:
        assert row.lhs == row.rhs == binomial(0, row.index)
    assert report.rows[0].lhs == 1


def test_colored_binomial_rejects_degenerate():
    with pytest.raises(DegeneratePartition):
        check_colored_binomial(cycle_complex(4), parse_blocks("1 2 | 3 4", 4), QQ)


def test_colored_total_examples():
    K = cycle_complex(4)
    rep = check_colored_total(K, parse_blocks("1 3 | 2 4", 4), QQ)
    assert (rep.rows[0].lhs, rep.rows[0].rhs) == (4, 1)
    rep2 = check_colored_total(boundary_simplex(1), trivial_partition(2), QQ)
    assert (rep2.rows[0].lhs, rep2.rows[0].rhs, rep2.rows[0].slack) == (2, 2, 0)
    rep3 = check_colored_total(full_simplex(2), trivial_partition(3), QQ)
    assert (rep3.rows[0].lhs, rep3.rows[0].rhs, rep3.rows[0].slack) == (1, 1, 0)


def test_ustinovskii_four_cycle_sharp():
    report = check_ustinovskii(cycle_complex(4), QQ)
    by_i = {row.index: row for row in report.rows}
    assert (by_i[0].lhs, by_i[0].rhs) == (1, 1)
    assert (by_i[1].lhs, by_i[1].rhs) == (2, 2)
    assert (by_i[2].lhs, by_i[2].rhs) == (1, 1)
    assert report.verdict


def test_ustinovskii_rp2_gf2():
    report = check_ustinovskii(rp2_complex(), GF2)
    by_i = {row.index: row for row in report.rows}
    assert by_i[3].rhs == binomial(3, 3) == 1
    assert by_i[3].lhs >= 1
    assert report.verdict


def test_ustinovskii_three_points():
    K = from_facets(3, [1, 2, 4])
    report = check_ustinovskii(K, QQ)
    by_i = {row.index: row for row in report.rows}
    assert (by_i[1].lhs, by_i[1].rhs) == (3, 2)


def test_ustinovskii_equals_colored_binomial_under_trivial_partition():
    for K in (cycle_complex(4), cycle_complex(5), rp2_complex()):
        for f in (QQ, GF2):
            usti = check_ustinovskii(K, f)
            main = check_colored_binomial(K, trivial_partition(K.m), f)
            usti_rows = {r.index: (r.lhs, r.rhs) for r in usti.rows}
            main_rows = {r.index: (r.lhs, r.rhs) for r in main.rows if r.index <= K.m}
            assert usti_rows == main_rows


def test_caolu_examples():
    r1 = check_caolu(boundary_simplex(1), QQ)
    assert (r1.rows[0].lhs, r1.rows[0].rhs, r1.rows[0].slack) == (2, 2, 0)
    r2 = check_caolu(cycle_complex(4), QQ)
    assert (r2.rows[0].lhs, r2.rows[0].rhs, r2.rows[0].slack) == (4, 4, 0)
    r3 = check_caolu(rp2_complex(), GF2)
    assert r3.rows[0].rhs == 8
    assert r3.rows[0].lhs == 34
    assert r3.verdict


def test_sharpness_suite_examples():
    assert sharpness_suite([1], QQ).rows[0].lhs == 2
    assert sharpness_suite([1, 1], QQ).rows[0].lhs == 4
    rep = sharpness_suite([2, 1], QQ)
    assert rep.rows[0].lhs == rep.rows[0].rhs == 4
    assert rep.verdict
    with pytest.raises(InvalidDimension):
        sharpness_suite([0], QQ)
    with pytest.raises(InvalidDimension):
        sharpness_suite([], QQ)


@pytest.mark.parametrize("dims", [[24, 1], [1, 24]])
def test_sharpness_suite_applies_its_cap_to_every_simplex(dims, monkeypatch):
    # the cap given reaches each simplex and the join alike, so the order of
    # the dimensions does not matter: both orders are refused at the join's
    # m = 27 against the cap 25, before a face is built (the 24-simplex's
    # boundary alone has 2^25 faces) or a sweep starts
    def no_build(*args, **kwargs):
        raise AssertionError("a complex was built")

    for name in ("boundary_simplex", "join", "betti_table", "_caolu", "_ustinovskii"):
        monkeypatch.setattr(srbetti.bounds, name, no_build)
    with pytest.raises(VertexBudgetExceeded, match="^m=27 exceeds the vertex cap 25$"):
        sharpness_suite(dims, QQ, max_vertices=25)


def test_a_failed_ustinovskii_row_poisons_the_sharpness_report(monkeypatch):
    # the per-index rows are summed into one total row: a failing row whose
    # sum still matches must leave its own mark, the row (2, -1, 0)
    ustinovskii = srbetti.bounds._ustinovskii

    def one_row_short(K, table):
        report = ustinovskii(K, table)
        report.rows[0].rhs += 1
        return report

    assert [row.slack for row in sharpness_suite([2, 1], QQ).rows] == [0, 0]
    monkeypatch.setattr(srbetti.bounds, "_ustinovskii", one_row_short)
    report = sharpness_suite([2, 1], QQ)
    assert [(row.index, row.lhs, row.rhs) for row in report.rows[1:]] == [(1, 4, 4), (2, -1, 0)]
    assert not report.verdict


def test_merging_blocks_never_raises_rhs():
    """Coarsening: merging two blocks (keeping nondegeneracy) cannot raise
    the binomial right-hand side."""
    K = from_facets(6, [mask_of((1, 2)), mask_of((3, 4)), mask_of((5, 6))])
    fine = trivial_partition(6)
    coarse = parse_blocks("1 3 | 2 4 | 5 | 6", 6)
    rep_fine = check_colored_binomial(K, fine, QQ)
    rep_coarse = check_colored_binomial(K, coarse, QQ)
    for q in range(coarse.r + 1):
        assert rep_coarse.rows[q].rhs <= rep_fine.rows[q].rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 50), st.sampled_from([QQ, GF2, GF3]))
def test_all_bounds_hold_on_random_complexes(seed, f):
    K = random_complex(5, 0.4, seed)
    alpha = greedy_coloring(K)
    for name, report in all_bound_checks(K, alpha, f).items():
        assert report.verdict, (name, seed)


def test_the_bound_checks_build_one_betti_table_per_complex_and_field(monkeypatch):
    # the Ustinovskii bound and zk's Betti route read one table, which
    # all_bound_checks and sharpness_suite build once; their reports are
    # those of the public checks, each of which builds its own
    built = []
    build = srbetti.bounds.betti_table

    def counting(K, f):
        built.append((K, f))
        return build(K, f)

    monkeypatch.setattr(srbetti.bounds, "betti_table", counting)
    K = rp2_complex()
    checks = all_bound_checks(K, greedy_coloring(K), GF2)
    assert built == [(K, GF2)]
    assert checks["ustinovskii"] == check_ustinovskii(K, GF2)
    assert checks["caolu"] == check_caolu(K, GF2)
    built.clear()
    assert sharpness_suite([2, 1], QQ).verdict
    assert len(built) == 1


def test_report_serialization():
    rep = check_ustinovskii(cycle_complex(4), QQ)
    payload = rep.to_json()
    assert payload["verdict"] == "pass"
    assert payload["rows"][0]["slack"] == payload["rows"][0]["lhs"] - payload["rows"][0]["rhs"]
    text = rep.to_text()
    assert "index" in text and "slack" in text and "pass" in text


def _colored_binomial_by_definition(K, alpha, f):
    """(q, lhs, rhs, terms) per row, with every term read as the Betti number
    β_{q+|ω_L|-|L|, ω_L} itself."""
    rows = []
    for q in range(alpha.r + 1):
        terms = {}
        for L in submasks(alpha.full_color_mask):
            om = omega_L(alpha, L)
            terms[L] = betti_number(K, q + om.bit_count() - L.bit_count(), om, f)
        rows.append((q, sum(terms.values()), binomial(alpha.r - K.dim - 1, q), terms))
    return rows


@pytest.mark.parametrize("f", [QQ, GF2, GF3], ids=str)
def test_colored_binomial_rows_are_the_betti_numbers_of_the_definition(f):
    complexes = [cycle_complex(4), cycle_complex(5), boundary_simplex(2), rp2_complex()]
    complexes += [random_complex(m, 0.5, seed) for m, seed in ((5, 1), (6, 2), (7, 3))]
    for K in complexes:
        for alpha in (greedy_coloring(K), trivial_partition(K.m)):
            report = check_colored_binomial(K, alpha, f)
            got = [(row.index, row.lhs, row.rhs, row.terms) for row in report.rows]
            assert got == _colored_binomial_by_definition(K, alpha, f)
