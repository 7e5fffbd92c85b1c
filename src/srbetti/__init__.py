"""Multigraded Betti numbers of simplicial complexes over exact fields,
colored Koszul and cellular cochain complexes, and verification of the
coloring lower-bound theorems on concrete complexes."""

from .betti import BettiTable, betti_number, betti_table, zk_cohomology_dims
from .bounds import (
    BoundReport,
    check_colored_total,
    check_caolu,
    check_colored_binomial,
    check_ustinovskii,
    krull_dimension,
    sharpness_suite,
)
from .cohomology import (
    CochainComplex,
    cohomology_dims,
    reduced_cochain_complex,
    reduced_cohomology_dims,
)
from .coloring import (
    Partition,
    colors_of,
    greedy_coloring,
    is_nondegenerate,
    kappa,
    minimum_coloring,
    omega_L,
    trivial_partition,
)
from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    empty_complex,
    from_facets,
    full_simplex,
    full_subcomplex,
    join,
    mask_of,
    parse_complex,
    vertices_of,
)
from .corpus import cycle_complex, random_complex, rp2_complex
from .linalg import GF2, GF3, QQ, FieldSpec, SparseMap, rank
from .tor import (
    TorThreeWayReport,
    TorTable,
    koszul_piece,
    psi_iota_checks,
    quotient_cochain_complex,
    quotient_cohomology_dims,
    tor_dims,
    verify_tor_threeway,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
