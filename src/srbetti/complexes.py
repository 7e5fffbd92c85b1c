"""Abstract simplicial complexes on the vertex set [m], stored as bitmasks.

A vertex subset is an int whose bit j-1 stands for vertex j.  A complex is
its fully expanded downward-closed face family (the empty face included);
everything downstream iterates faces, and at the supported scale (m <= 24 by
default) the 2^m expansion is cheap.  Everything else is derived from the
faces once, on first use: the one coface table (``coface_vertices``), the
facets (the faces that no vertex extends) and the faces sorted by size
(``faces_by_card``).  Cochain complexes live in :mod:`srbetti.cohomology`,
which imports this module and is not imported by it.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import (
    EmptyFacetList,
    InvalidDimension,
    IsolatedVertexMissing,
    VertexBudgetExceeded,
    VertexOutOfRange,
    ascii_ints,
)

VERTEX_CAP = 24
VERTEX_WARN = 20


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertices."""
    m = 0
    for v in vertices:
        if v < 1:
            raise VertexOutOfRange(f"vertex {v} is not positive")
        m |= 1 << (v - 1)
    return m


_VERTICES_CACHE: dict[int, tuple[int, ...]] = {}  # masks below 2^16 only: 2^16 tuples at most


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertices of a bitmask."""
    hit = _VERTICES_CACHE.get(mask)
    if hit is not None:
        return hit
    if mask < 0:  # -1 >> 1 == -1: the loop below would never end
        raise VertexOutOfRange(f"vertex mask {mask} is negative")
    out = []
    rest = mask
    v = 1
    while rest:
        if rest & 1:
            out.append(v)
        rest >>= 1
        v += 1
    t = tuple(out)
    if mask < 1 << 16:
        _VERTICES_CACHE[mask] = t
    return t


def by_size(mask: int) -> tuple[int, int]:
    """The canonical order of vertex sets: by size |S|, then by the mask S."""
    return mask.bit_count(), mask


def submasks(mask: int):
    """All subsets of a bitmask, the empty set included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _as_mask(face) -> int:
    return face if isinstance(face, int) else mask_of(face)


def _check_cap(m: int, max_vertices: int | None) -> None:
    cap = VERTEX_CAP if max_vertices is None else max_vertices
    if m > cap:
        raise VertexBudgetExceeded(f"m={m} exceeds the vertex cap {cap}")


def _within(K: SimplicialComplex, omega) -> int:
    """omega as a mask, checked to lie within K's vertex set [m]."""
    om = _as_mask(omega)
    if om & ~K.full_mask:
        raise VertexOutOfRange(f"omega {vertices_of(om)} not within [{K.m}]")
    return om


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplicial complex on [m], stored as its expanded face family only;
    the facets are derived from it.

    ``labels`` carries original vertex names after re-indexing (see
    :func:`full_subcomplex`); it is metadata and excluded from equality.
    """

    m: int
    faces: frozenset[int]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of (m, faces), which ``__eq__`` compares: one per complex."""
        return hash((self.m, self.faces))

    @cached_property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.faces) - 1

    @cached_property
    def faces_by_card(self) -> tuple[tuple[int, ...], ...]:
        """Entry k: the faces of cardinality k, ascending by bitmask."""
        buckets: list[list[int]] = [[] for _ in range(self.dim + 2)]
        for f in self.faces:
            buckets[f.bit_count()].append(f)
        return tuple(tuple(sorted(b)) for b in buckets)

    @cached_property
    def coface_vertices(self) -> dict[int, int]:
        """Face -> bitmask of the vertices v outside it with face ∪ {v} a face."""
        ext = dict.fromkeys(self.faces, 0)
        for g in self.faces:
            rest = g
            while rest:
                low = rest & -rest
                if g ^ low in ext:
                    ext[g ^ low] |= low
                rest ^= low
        return ext

    @cached_property
    def facets(self) -> frozenset[int]:
        """The faces that no vertex extends."""
        return frozenset(f for f, up in self.coface_vertices.items() if not up)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def edges(self) -> tuple[int, ...]:
        return self.faces_by_card[2] if self.dim >= 1 else ()

    def facet_list(self) -> list[int]:
        return sorted(self.facets, key=by_size)

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={[vertices_of(f) for f in self.facet_list()]})"


def empty_complex() -> SimplicialComplex:
    """The complex on no vertices whose only face is the empty set."""
    return SimplicialComplex(0, frozenset({0}))


def from_facets(
    m: int,
    facets: Iterable,
    *,
    allow_isolated: bool = False,
    max_vertices: int | None = None,
) -> SimplicialComplex:
    """Build the downward closure of a facet list on the vertex set [m].

    Rejects inputs where some vertex lies in no facet (silent repair hides
    data errors); pass ``allow_isolated=True`` to add such vertices as 0-faces.
    """
    if m < 0:
        raise VertexOutOfRange(f"m={m} is negative")
    _check_cap(m, max_vertices)
    masks = [_as_mask(f) for f in facets]
    if m == 0 and not masks:
        return empty_complex()
    if not masks:
        raise EmptyFacetList("no facets given")
    full = (1 << m) - 1
    covered = 0
    for f in masks:
        if f == 0:
            raise EmptyFacetList("facets must be nonempty")
        if f & ~full:
            raise VertexOutOfRange(
                f"facet {vertices_of(f)} has vertices outside [{m}]"
            )
        covered |= f
    if covered != full:
        missing = vertices_of(full & ~covered)
        if not allow_isolated:
            raise IsolatedVertexMissing(
                f"vertices {missing} occur in no facet"
            )
        masks.extend(1 << (v - 1) for v in missing)
    if m > VERTEX_WARN:  # only once the input is valid: a refused one costs nothing
        warnings.warn(f"m={m} implies 2^{m} subset enumerations", stacklevel=2)
    faces = {0}
    for f in set(masks):
        faces.update(submasks(f))
    return SimplicialComplex(m, frozenset(faces))


def full_subcomplex(K: SimplicialComplex, omega) -> SimplicialComplex:
    """The faces of K contained in omega, re-indexed onto 1..|omega|.

    Original vertex names are kept in ``labels``.  omega = 0 yields the
    empty complex {∅}.
    """
    om = _within(K, omega)
    faces = [g for g in K.faces if not g & ~om]
    verts = vertices_of(om)

    def reindex(f: int) -> int:
        return sum(1 << i for i, v in enumerate(verts) if f >> (v - 1) & 1)

    old_labels = K.labels or tuple(range(1, K.m + 1))
    labels = tuple(old_labels[v - 1] for v in verts)
    return SimplicialComplex(len(verts), frozenset(map(reindex, faces)), labels)


def boundary_simplex(n: int, *, max_vertices: int | None = None) -> SimplicialComplex:
    """Boundary of an n-simplex: all n-subsets of [n+1]; dimension n-1."""
    if n < 1:
        raise InvalidDimension(f"boundary_simplex needs n >= 1, got {n}")
    m = n + 1
    full = (1 << m) - 1
    return from_facets(m, [full & ~(1 << j) for j in range(m)], max_vertices=max_vertices)


def full_simplex(n: int, *, max_vertices: int | None = None) -> SimplicialComplex:
    """The full n-simplex on [n+1]."""
    if n < 0:
        raise InvalidDimension(f"full_simplex needs n >= 0, got {n}")
    return from_facets(n + 1, [(1 << (n + 1)) - 1], max_vertices=max_vertices)


def join(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    *,
    max_vertices: int | None = None,
) -> SimplicialComplex:
    """Join: faces are unions of a face of K1 with a shifted face of K2."""
    m = K1.m + K2.m
    _check_cap(m, max_vertices)
    faces = frozenset(f1 | (f2 << K1.m) for f1 in K1.faces for f2 in K2.faces)
    if m > VERTEX_WARN:  # as in from_facets, once the join is built
        warnings.warn(f"m={m} implies 2^{m} subset enumerations", stacklevel=2)
    return SimplicialComplex(m, faces)


# --- text and JSON serialization ------------------------------------------

def parse_complex(
    text: str,
    *,
    allow_isolated: bool = False,
    max_vertices: int | None = None,
) -> SimplicialComplex:
    """Parse the line-oriented text format: ``m N`` header, ``facet v1 v2 ...``
    lines, ``#`` comments."""
    m = None
    facets = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "m":
            if m is not None:  # else the last header would silently win
                raise ValueError(f"line {lineno}: second header {raw!r}")
            try:  # exactly one integer
                (m,) = ascii_ints(parts[1:], raw)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {raw!r}") from None
        elif parts[0] == "facet":
            facets.append(mask_of(ascii_ints(parts[1:], f"line {lineno}: malformed facet {raw!r}")))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if m is None:
        raise ValueError("missing 'm <int>' header line")
    return from_facets(m, facets, allow_isolated=allow_isolated, max_vertices=max_vertices)


def format_complex(K: SimplicialComplex) -> str:
    lines = [f"m {K.m}"]
    for f in K.facet_list():
        if f:
            lines.append("facet " + " ".join(str(v) for v in vertices_of(f)))
    return "\n".join(lines) + "\n"


def complex_to_json(K: SimplicialComplex) -> dict:
    return {
        "m": K.m,
        "facets": [list(vertices_of(f)) for f in K.facet_list() if f],
    }


def complex_from_json(obj: dict, **kwargs) -> SimplicialComplex:
    return from_facets(obj["m"], [mask_of(f) for f in obj["facets"]], **kwargs)
