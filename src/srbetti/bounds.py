"""Evaluation of every lower-bound inequality and the Krull dimension formula.

Each check evaluates both sides of one theorem-shaped inequality on a concrete
complex and reports the slack per row.  A negative slack is a build bug, not a
mathematical discovery: the theorems are proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .betti import BettiTable, betti_table, subcomplex_cohomology, zk_cohomology_dims
from .coloring import Partition, omega_L, require_nondegenerate
from .complexes import (
    SimplicialComplex, _check_cap, boundary_simplex, by_size, join, submasks, vertices_of
)
from .errors import InvalidDimension
from .linalg import FieldSpec


def binomial(n: int, k: int) -> int:
    """C(n, k), evaluating to 0 for n < 0, k < 0 or k > n (vacuous bounds)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def krull_dimension(K: SimplicialComplex) -> int:
    """Krull dimension of the face ring as a module under any nondegenerate
    coloring: dim(K) + 1 (combinatorial formula, no ring computation)."""
    return K.dim + 1


@dataclass
class BoundRow:
    index: int
    lhs: int
    rhs: int
    terms: dict[int, int] | None = None  # per-L (or per-ω) decomposition

    @property
    def slack(self) -> int:
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        out = {"index": self.index, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}
        if self.terms is not None:
            out["terms"] = [
                {"L": list(vertices_of(mask)), "value": self.terms[mask]}
                for mask in sorted(self.terms, key=by_size)
                if self.terms[mask]
            ]
        return out


@dataclass
class BoundReport:
    name: str
    rows: list[BoundRow] = field(default_factory=list)
    require_equality: bool = False

    @property
    def verdict(self) -> bool:
        if self.require_equality:
            return all(row.slack == 0 for row in self.rows)
        return all(row.slack >= 0 for row in self.rows)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rows": [row.to_json() for row in self.rows],
            "verdict": "pass" if self.verdict else "fail",
        }

    def to_text(self) -> str:
        lines = [f"{self.name}", f"{'index':>6} {'lhs':>8} {'rhs':>8} {'slack':>8}"]
        for row in self.rows:
            lines.append(f"{row.index:>6} {row.lhs:>8} {row.rhs:>8} {row.slack:>8}")
        lines.append(f"verdict: {'pass' if self.verdict else 'fail'}")
        return "\n".join(lines)


def check_colored_binomial(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec
) -> BoundReport:
    """For each q: Σ_L β_{q+|ω_L|-|L|, ω_L} >= C(r - dim K - 1, q)."""
    require_nondegenerate(K, alpha)
    r = alpha.r
    n = r - K.dim - 1
    report = BoundReport("colored-binomial-bound")
    # β_{q+|ω_L|-|L|, ω_L} = dim H̃^{|L|-q-1}(K|ω_L): one group per L serves every q
    full = alpha.full_color_mask
    cohom = {L: subcomplex_cohomology(K, omega_L(alpha, L), f) for L in submasks(full)}
    for q in range(r + 1):
        terms = {L: h.get(L.bit_count() - q - 1, 0) for L, h in cohom.items()}
        report.rows.append(BoundRow(q, sum(terms.values()), binomial(n, q), terms))
    return report


def check_colored_total(K: SimplicialComplex, alpha: Partition, f: FieldSpec) -> BoundReport:
    """Total form: Σ_q (colored-binomial lhs at q) >= 2^(r - dim K - 1).

    The q-sum includes the reduced H̃^{-1} contribution of the empty color
    set, which makes the stated power-of-two bound sharp.
    """
    return _colored_total(K, alpha, check_colored_binomial(K, alpha, f))


def _colored_total(K: SimplicialComplex, alpha: Partition, main: BoundReport) -> BoundReport:
    """The total form read off the colored-binomial report ``main``."""
    lhs = sum(row.lhs for row in main.rows)
    terms = {}
    for row in main.rows:
        for lmask, v in (row.terms or {}).items():
            terms[lmask] = terms.get(lmask, 0) + v
    rhs = 2 ** (alpha.r - K.dim - 1)
    return BoundReport("colored-total-bound", [BoundRow(0, lhs, rhs, terms)])


def check_ustinovskii(K: SimplicialComplex, f: FieldSpec) -> BoundReport:
    """For each i: Σ_ω β_{i,ω} >= C(m - dim K - 1, i)."""
    return _ustinovskii(K, betti_table(K, f))


def _ustinovskii(K: SimplicialComplex, table: BettiTable) -> BoundReport:
    n = K.m - K.dim - 1
    terms: list[dict[int, int]] = [{} for _ in range(K.m + 1)]
    for (i, om), b in table.entries.items():  # one pass: each (i, ω) occurs once
        terms[i][om] = b
    rows = [BoundRow(i, sum(t.values()), binomial(n, i), t) for i, t in enumerate(terms)]
    return BoundReport("betti-binomial", rows)


def check_caolu(K: SimplicialComplex, f: FieldSpec) -> BoundReport:
    """Σ_q dim H^q of the moment-angle complex >= 2^(m - dim K - 1)."""
    return _caolu(K, zk_cohomology_dims(K, f))


def _caolu(K: SimplicialComplex, dims: dict[int, int]) -> BoundReport:
    lhs = sum(dims.values())
    rhs = 2 ** (K.m - K.dim - 1)
    return BoundReport("moment-angle-total", [BoundRow(0, lhs, rhs)])


def sharpness_suite(dims: list[int], f: FieldSpec, *, max_vertices=None) -> BoundReport:
    """Join of simplex boundaries with the given dimensions; the total bounds
    must hold with equality (slack exactly 0)."""
    if not dims or any(n < 1 for n in dims):
        raise InvalidDimension(f"sharpness needs dimensions >= 1, got {dims}")
    _check_cap(sum(n + 1 for n in dims), max_vertices)  # the join's m, before a face is built
    K = boundary_simplex(dims[0], max_vertices=max_vertices)
    for n in dims[1:]:
        K = join(K, boundary_simplex(n, max_vertices=max_vertices), max_vertices=max_vertices)
    table = betti_table(K, f)
    caolu, usti = _caolu(K, zk_cohomology_dims(K, f, table)), _ustinovskii(K, table)
    total_row = BoundRow(0, caolu.rows[0].lhs, caolu.rows[0].rhs)
    betti_total_row = BoundRow(1, sum(r.lhs for r in usti.rows), caolu.rows[0].rhs)
    report = BoundReport("sharpness", [total_row, betti_total_row], require_equality=True)
    if not usti.verdict:
        report.rows.append(BoundRow(2, -1, 0))  # per-index bound failed; poison
    return report


def all_bound_checks(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec
) -> dict[str, BoundReport]:
    """The four theorem checks in one sweep (used by the CLI verify command)."""
    main, table = check_colored_binomial(K, alpha, f), betti_table(K, f)
    return {
        "main": main,
        "colored_total": _colored_total(K, alpha, main),
        "ustinovskii": _ustinovskii(K, table),
        "caolu": _caolu(K, zk_cohomology_dims(K, f, table)),
    }
