"""Abstract simplicial complexes on the vertex set [m], stored as bitmasks.

A vertex subset is an int whose bit j-1 stands for vertex j.  Complexes keep
both their facets and the fully expanded downward-closed face family (the
empty face included); everything downstream iterates faces, and at the
supported scale (m <= 24 by default) the 2^m expansion is cheap.

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


_VERTICES_CACHE: dict[int, tuple[int, ...]] = {}


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertices of a bitmask."""
    hit = _VERTICES_CACHE.get(mask)
    if hit is not None:
        return hit
    out = []
    rest = mask
    v = 1
    while rest:
        if rest & 1:
            out.append(v)
        rest >>= 1
        v += 1
    t = tuple(out)
    if mask < 1 << 20:
        _VERTICES_CACHE[mask] = t
    return t


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
    if m > VERTEX_WARN:
        warnings.warn(f"m={m} implies 2^{m} subset enumerations", stacklevel=3)


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplicial complex on [m]: facets plus the expanded face family.

    ``labels`` carries original vertex names after re-indexing (see
    :func:`full_subcomplex`); it is metadata and excluded from equality.
    """

    m: int
    facets: frozenset[int]
    faces: frozenset[int]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

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
    def face_index(self) -> dict[int, int]:
        """Face -> its position in ``faces_by_card[|face|]``."""
        return {f: i for bucket in self.faces_by_card for i, f in enumerate(bucket)}

    @cached_property
    def cochains(self):
        """The reduced cochain complex, built and d∘d-checked once per K (see
        :func:`srbetti.cohomology.reduced_cochain_complex`)."""
        from .cohomology import reduced_cochain_complex  # cohomology imports this module

        return reduced_cochain_complex(self)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def has_face(self, mask: int) -> bool:
        return mask in self.faces

    @cached_property
    def edges(self) -> tuple[int, ...]:
        return self.faces_by_card[2] if self.dim >= 1 else ()

    def facet_list(self) -> list[int]:
        return sorted(self.facets, key=lambda f: (f.bit_count(), f))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={[vertices_of(f) for f in self.facet_list()]})"


def empty_complex() -> SimplicialComplex:
    """The complex on no vertices whose only face is the empty set."""
    return SimplicialComplex(0, frozenset({0}), frozenset({0}))


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
    uniq = set(masks)
    maximal = frozenset(
        f for f in uniq if not any(f != g and f & g == f for g in uniq)
    )
    faces = {0}
    for f in maximal:
        faces.update(submasks(f))
    return SimplicialComplex(m, maximal, frozenset(faces))


def faces_within(K: SimplicialComplex, omega) -> list[list[int]]:
    """The faces of K contained in omega, in K's own vertex coordinates:
    entry k lists those of cardinality k, up to the largest.

    Each face of cardinality k+1 is made from one of cardinality k by adding
    a vertex of omega above all of its own, with one coface-membership test
    on ``K.coface_vertices``, so the cost is O(|omega|) per face found, not a
    scan of K.
    """
    om = _as_mask(omega)
    if om & ~K.full_mask:
        raise VertexOutOfRange(f"omega {vertices_of(om)} not within [{K.m}]")
    ext = K.coface_vertices
    levels = [[0]]
    while True:
        nxt = []
        for f in levels[-1]:
            up = ext[f] & om & -(1 << f.bit_length())  # only vertices above those of f
            while up:
                low = up & -up
                nxt.append(f | low)
                up ^= low
        if not nxt:
            return levels
        levels.append(nxt)


def full_subcomplex(K: SimplicialComplex, omega) -> SimplicialComplex:
    """The faces of K contained in omega, re-indexed onto 1..|omega|.

    Original vertex names are kept in ``labels``.  omega = 0 yields the
    empty complex {∅}.  The faces come from :func:`faces_within`; a face is
    a facet when no vertex of omega extends it.
    """
    om = _as_mask(omega)
    faces = [f for level in faces_within(K, om) for f in level]
    ext = K.coface_vertices
    verts = vertices_of(om)

    def reindex(f: int) -> int:
        return sum(1 << i for i, v in enumerate(verts) if f >> (v - 1) & 1)

    maximal = frozenset(reindex(f) for f in faces if not ext[f] & om)
    old_labels = K.labels or tuple(range(1, K.m + 1))
    labels = tuple(old_labels[v - 1] for v in verts)
    return SimplicialComplex(len(verts), maximal, frozenset(map(reindex, faces)), labels)


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
    facets = frozenset(f1 | (f2 << K1.m) for f1 in K1.facets for f2 in K2.facets)
    return SimplicialComplex(m, facets, faces)


def dimension(K: SimplicialComplex) -> int:
    return K.dim


def faces_by_dim(K: SimplicialComplex) -> list[list[int]]:
    """Face lists grouped by cardinality; entry k holds the (k-1)-dimensional faces."""
    return [list(b) for b in K.faces_by_card]


def relabel_complex(K: SimplicialComplex, perm: dict[int, int]) -> SimplicialComplex:
    """Apply a vertex permutation {old: new} of [m] to K."""
    if sorted(perm) != list(range(1, K.m + 1)) or sorted(perm.values()) != list(range(1, K.m + 1)):
        raise VertexOutOfRange("perm must be a permutation of [m]")

    def remap(mask: int) -> int:
        out = 0
        for v in vertices_of(mask):
            out |= 1 << (perm[v] - 1)
        return out

    return SimplicialComplex(
        K.m,
        frozenset(remap(f) for f in K.facets),
        frozenset(remap(f) for f in K.faces),
    )


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
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise ValueError(f"line {lineno}: malformed header {raw!r}")
            m = int(parts[1])
        elif parts[0] == "facet":
            try:
                facets.append(mask_of(int(p) for p in parts[1:]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed facet {raw!r}") from None
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
