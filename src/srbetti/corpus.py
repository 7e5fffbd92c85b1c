"""Built-in and seeded random complexes used by the CLI and the test corpus."""

from __future__ import annotations

import random

from .complexes import (
    SimplicialComplex,
    _check_cap,
    boundary_simplex,
    from_facets,
    full_simplex,
    mask_of,
)
from .errors import VertexOutOfRange


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle (n >= 3) on [n]."""
    if n < 3:
        raise VertexOutOfRange(f"cycle needs n >= 3, got {n}")
    facets = [mask_of((i, i + 1)) for i in range(1, n)] + [mask_of((1, n))]
    return from_facets(n, facets)


def rp2_complex() -> SimplicialComplex:
    """The minimal 6-vertex triangulation of the real projective plane."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return from_facets(6, [mask_of(t) for t in triangles])


def random_complex(
    m: int, density: float, seed: int, *, max_vertices: int | None = None
) -> SimplicialComplex:
    """Seeded random complex: each subset of size >= 2 becomes a candidate
    facet independently with probability density * 2^-|subset|; the complex is
    the downward closure plus all singletons.  Identical seeds give identical
    complexes."""
    if m < 2:
        raise VertexOutOfRange(f"random_complex needs m >= 2, got {m}")
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    _check_cap(m, max_vertices)  # before the 2^m draws; from_facets warns
    rng = random.Random(seed)
    full = (1 << m) - 1
    facets = []
    for s in sorted(range(full + 1), key=int.bit_count):  # stable: by size, then mask
        k = s.bit_count()
        if k >= 2 and rng.random() < density * 2.0 ** (-k):
            facets.append(s)
    facets.extend(1 << j for j in range(m))
    return from_facets(m, facets, max_vertices=max_vertices)


def named_corpus() -> list[tuple[str, SimplicialComplex]]:
    """The fixed corpus members: simplex boundaries up to n=3, the 4- and
    5-cycles, the full 2-simplex, and the projective plane."""
    return [
        ("boundary-1-simplex", boundary_simplex(1)),
        ("boundary-2-simplex", boundary_simplex(2)),
        ("boundary-3-simplex", boundary_simplex(3)),
        ("4-cycle", cycle_complex(4)),
        ("5-cycle", cycle_complex(5)),
        ("2-simplex", full_simplex(2)),
        ("rp2", rp2_complex()),
    ]


DENSITIES = (0.15, 0.3, 0.5, 0.8)


def random_corpus(count: int = 200, base_seed: int = 0) -> list[tuple[str, SimplicialComplex]]:
    """count seeded random complexes with m <= 7, deterministic in base_seed."""
    out = []
    for k in range(count):
        m = 4 + k % 4
        density = DENSITIES[(k // 4) % len(DENSITIES)]
        seed = base_seed + k
        out.append((f"random-m{m}-d{density}-s{seed}", random_complex(m, density, seed)))
    return out


def acceptance_corpus() -> list[tuple[str, SimplicialComplex]]:
    return named_corpus() + random_corpus(200)
