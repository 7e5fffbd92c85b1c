"""Finite cochain complexes and reduced simplicial cohomology dimensions.

Each coboundary d_q is a :class:`~srbetti.linalg.SparseMap` with one sparse
row per basis element of degree q+1, built directly from face bitmasks (here)
or generator indices (``tor``).  :func:`assemble` checks d_q ∘ d_{q-1} = 0 as
a sparse product the moment d_q is built, so every complex a builder returns
is known to be a complex; ranks then come from the one kernel
:func:`~srbetti.linalg.rank`.

The reduced (augmented) cochain complex is the only flavor here: the empty
face contributes a generator in degree -1, so H̃^{-1}({∅}) is one-dimensional
and every Hochster-type formula comes out without convention traps.  It is
built and checked once per complex K (``K.cochains``), and the cohomology of
a full subcomplex K|ω is read off it, C^*(K|ω) being C^*(K) cut down to the
rows of the faces inside ω (:func:`reduced_cohomology_dims`).

Orientation convention: the vertices of each face are ordered ascending and
the coboundary sign is (-1)^position of the inserted vertex.  Any fixed
convention yields the same dimensions (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .complexes import SimplicialComplex, faces_within
from .errors import NotAComplex
from .linalg import FieldSpec, SparseMap, rank


@dataclass
class CochainComplex:
    """Graded sequence of free modules with sparse integer coboundaries.

    ``d[q]`` maps degree q to degree q+1 and has shape size(q+1) x size(q).
    Degrees run over the contiguous range lo..hi; sizes outside are zero.
    ``checked`` records that d∘d = 0 was verified when the maps were built.
    """

    lo: int
    hi: int
    sizes: dict[int, int]
    d: dict[int, SparseMap]
    labels: dict[int, list] | None = field(default=None, repr=False)
    checked: bool = field(default=False, repr=False)

    def size(self, q: int) -> int:
        return self.sizes.get(q, 0)

    def differential(self, q: int) -> SparseMap:
        mat = self.d.get(q)
        if mat is None:
            rows = self.size(q + 1)
            mat = SparseMap(rows, self.size(q), [[] for _ in range(rows)])
        return mat

    def check_shapes(self) -> None:
        for q in range(self.lo, self.hi + 1):
            mat = self.differential(q)
            rows, cols = self.size(q + 1), self.size(q)
            if (mat.rows, mat.cols, len(mat.data)) != (rows, cols, rows) or any(
                not 0 <= c < cols for row in mat.data for c, _ in row
            ):
                raise NotAComplex(
                    f"differential at degree {q} has shape {mat.rows}x{mat.cols}, "
                    f"expected {rows}x{cols}",
                    q=q,
                )

    def check_dd_zero(self) -> None:
        """Verify d_{q+1} ∘ d_q = 0 for all q (sparse product)."""
        self.check_shapes()
        for q in range(self.lo, self.hi):
            labels = self.labels.get(q + 2) if self.labels else None
            _check_composite(self.differential(q), self.differential(q + 1), q, labels)
        self.checked = True


def _check_composite(first: SparseMap, second: SparseMap, q: int, labels=None) -> None:
    """Raise NotAComplex unless second ∘ first = 0, where first is d_q.

    Row i of the product is Σ a·(row k of first) over the entries (k, a) of
    row i of second; ``labels`` names the degree q+2 basis in the error.
    """
    prev = first.data
    for i, row in enumerate(second.data):
        acc: dict[int, int] = {}
        for k, a in row:
            for j, b in prev[k]:
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            label = labels[i] if labels is not None else i
            raise NotAComplex(f"d∘d != 0 from degree {q} at {label!r}", q=q, label=label)


def assemble(
    lo: int, hi: int, labels: dict[int, list], build: Callable[[int], SparseMap]
) -> CochainComplex:
    """The complex with bases ``labels[lo..hi]`` and d_q = build(q), each
    d_q checked against d_{q-1} as soon as it is built."""
    d: dict[int, SparseMap] = {}
    for q in range(lo, hi):
        d[q] = build(q)
        if q > lo:
            _check_composite(d[q - 1], d[q], q - 1, labels[q + 1])
    sizes = {q: len(labels[q]) for q in range(lo, hi + 1)}
    return CochainComplex(lo, hi, sizes, d, labels, checked=True)


def cohomology_dims(C: CochainComplex, f: FieldSpec, keep=None) -> dict[int, int]:
    """dim H^q = (size(q) - rank d_q) - rank d_{q-1}; zero entries omitted.

    ``keep``, if given, restricts C to the subcomplex whose degree C.lo + k
    basis is the ascending positions ``keep[k]``: each d_q is cut down to its
    kept rows and keeps C's columns.  The kept basis must be closed under
    taking faces (the faces of K inside ω, say), so a kept row reaches kept
    columns only, and every restricted composite is a block of C's composite,
    which C's d∘d check has covered.

    A complex that was not checked when it was built is checked here."""
    if not C.checked:
        C.check_dd_zero()
    lo = C.lo
    if keep is None:
        sizes = [C.size(q) for q in range(lo, C.hi + 1)]
        maps = [C.differential(q) for q in range(lo, C.hi + 1)]
    else:
        sizes = [len(rows) for rows in keep]
        maps = []
        for q, rows in enumerate([*keep[1:], ()], lo):
            M = C.differential(q)
            maps.append(SparseMap(len(rows), M.cols, [M.data[i] for i in rows]))
    ranks = [rank(M, f) for M in maps]
    out = {}
    for k, size in enumerate(sizes):
        h = (size - ranks[k]) - (ranks[k - 1] if k else 0)
        if h:
            out[lo + k] = h
    return out


def boundary_map(lower, upper) -> SparseMap:
    """d from the faces ``lower`` to the faces ``upper`` one vertex larger:
    the row of a face lists its facets with sign (-1)^position of the vertex
    left out."""
    index = {f: i for i, f in enumerate(lower)}
    data = []
    for f in upper:
        row = []
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            j = index.get(f ^ low)
            if j is not None:
                row.append((j, sign))
            sign = -sign
            rest ^= low
        data.append(row)
    return SparseMap(len(upper), len(lower), data)


def reduced_cochain_complex(K: SimplicialComplex) -> CochainComplex:
    """Reduced simplicial cochain complex of K, degrees -1..dim K."""
    by_card = K.faces_by_card
    labels = {q: by_card[q + 1] for q in range(-1, K.dim + 1)}
    return assemble(-1, K.dim, labels, lambda q: boundary_map(by_card[q + 1], by_card[q + 2]))


@lru_cache(maxsize=1 << 18)
def reduced_cohomology_dims(
    K: SimplicialComplex, f: FieldSpec, omega: int | None = None
) -> Mapping[int, int]:
    """Reduced cohomology dimensions of K|ω over f, ω all of [m] when None
    (cached, read-only view).

    C^*(K|ω) is not built: it is read off ``K.cochains``, K's own complex,
    built and d∘d-checked once per K, as the rows of the faces inside ω.
    """
    C = K.cochains
    if omega is None:
        return MappingProxyType(cohomology_dims(C, f))
    index = K.face_index  # ascending positions are ascending masks, as in K|ω's own complex
    keep = [sorted(map(index.__getitem__, level)) for level in faces_within(K, omega)]
    return MappingProxyType(cohomology_dims(C, f, keep))


def euler_characteristic_reduced(K: SimplicialComplex) -> int:
    """Alternating sum of face counts, the empty face counted in degree -1."""
    return sum((-1) ** (f.bit_count() + 1) for f in K.faces)
