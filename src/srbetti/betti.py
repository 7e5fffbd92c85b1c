"""Multigraded Betti numbers via Hochster's formula, and moment-angle
cohomology dimensions.

Hochster's formula is the only Betti engine here: β_{i,ω} is the dimension of
the reduced cohomology of the full subcomplex K|ω in degree |ω|-i-1.  The
2^m sweep never re-indexes or rebuilds K|ω:
:func:`~srbetti.cohomology.reduced_cohomology_dims` reads its cochain complex
off K's own, which is built and d∘d-checked once per K and shared by every ω
and every field.  The moment-angle dimensions are computed twice, once
directly from subcomplex cohomology and once through the Betti table, and
the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .complexes import SimplicialComplex, mask_of, submasks, vertices_of
from .errors import MismatchFound, VertexOutOfRange
from .cohomology import reduced_cohomology_dims
from .linalg import FieldSpec


@dataclass
class BettiTable:
    """Sparse map (i, ω) -> β_{i,ω} > 0; zero entries are omitted."""

    m: int
    field: FieldSpec
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def get(self, i: int, omega: int) -> int:
        return self.entries.get((i, omega), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def sorted_items(self):
        """Entries ordered by (|ω|, ω, i) — the canonical emission order."""
        return sorted(
            self.entries.items(),
            key=lambda kv: (kv[0][1].bit_count(), kv[0][1], kv[0][0]),
        )

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "omega": list(vertices_of(om)), "beta": b}
            for (i, om), b in self.sorted_items()
        ]


def betti_number(K: SimplicialComplex, i: int, omega, f: FieldSpec) -> int:
    """β_{i,ω} = dim H̃^{|ω|-i-1}(K|ω; f)."""
    if i < 0:
        raise ValueError(f"homological index must be nonnegative, got {i}")
    om = omega if isinstance(omega, int) else mask_of(omega)
    if om & ~K.full_mask:
        raise VertexOutOfRange(f"omega {vertices_of(om)} not within [{K.m}]")
    deg = om.bit_count() - i - 1
    if deg < -1:
        return 0
    return reduced_cohomology_dims(K, f, om).get(deg, 0)


def subcomplex_cohomology(K: SimplicialComplex, omega: int, f: FieldSpec) -> Mapping[int, int]:
    """Reduced cohomology dimensions of K|ω (shared cached primitive)."""
    return reduced_cohomology_dims(K, f, omega)


def betti_table(K: SimplicialComplex, f: FieldSpec) -> BettiTable:
    """All nonzero β_{i,ω}; 2^m subcomplex cohomology computations."""
    table = BettiTable(K.m, f)
    for om in submasks(K.full_mask):
        card = om.bit_count()
        # the dims are nonzero and deg <= |ω| - 1, so every i = |ω| - deg - 1 is >= 0
        for deg, d in subcomplex_cohomology(K, om, f).items():
            table.entries[(card - deg - 1, om)] = d
    return table


def zk_cohomology_dims_two_routes(
    K: SimplicialComplex, f: FieldSpec
) -> tuple[dict[int, int], dict[int, int]]:
    """Moment-angle cohomology dims by both evaluation routes.

    Route one sums subcomplex cohomology directly:
    dim H^q = Σ_ω dim H̃^{q-|ω|-1}(K|ω).  Route two reads the Betti table:
    dim H^q = Σ_ω β_{2|ω|-q, ω}.
    """
    direct: dict[int, int] = {}
    for om in submasks(K.full_mask):
        shift = om.bit_count() + 1
        for deg, d in subcomplex_cohomology(K, om, f).items():
            q = deg + shift
            direct[q] = direct.get(q, 0) + d
    via_betti: dict[int, int] = {}
    for (i, om), b in betti_table(K, f).entries.items():
        q = 2 * om.bit_count() - i
        via_betti[q] = via_betti.get(q, 0) + b
    return direct, via_betti


def zk_cohomology_dims(K: SimplicialComplex, f: FieldSpec) -> dict[int, int]:
    """Moment-angle cohomology dimensions; both routes computed and compared."""
    direct, via_betti = zk_cohomology_dims_two_routes(K, f)
    if direct != via_betti:
        raise MismatchFound(
            f"moment-angle routes disagree: direct={direct} betti={via_betti}"
        )
    return direct
