"""Finite cochain complexes and reduced simplicial cohomology dimensions.

Every complex in the package (the reduced one here, the colored ones in
``tor``) is given by its graded bases and a coboundary rule, basis element ↦
(coefficient, target) terms.  :func:`assemble` turns the rule into one
:class:`~srbetti.linalg.SparseMap` per degree with the one builder
:func:`coboundary_map`, and checks d_q ∘ d_{q-1} = 0 as a sparse product the
moment d_q is built, so every complex a builder returns is known to be a
complex; ranks then come from the one kernel :func:`~srbetti.linalg.rank`.

The reduced (augmented) cochain complex is the only flavor here: the empty
face contributes a generator in degree -1, so H̃^{-1}({∅}) is one-dimensional
and every Hochster-type formula comes out without convention traps.  It is
built and checked once per complex K, by K's one walker, and the cohomology
of a full subcomplex K|ω is read off it, C^*(K|ω) being C^*(K) cut down to
the rows of the faces inside ω (:func:`reduced_cohomology_dims`).  Those rows
are reduced incrementally, as in persistent homology (Edelsbrunner–Letscher–
Zomorodian 2002): K|ω is K|(ω ∖ v) plus the faces through v, the least vertex
of ω with busy vertices last, so one push step extends the elimination over ℤ,
for every field, from ω ∖ v to ω, from the largest faces down, clearing each
face that a row one size up has as its unit pivot: by d∘d = 0 its row adds no
rank (Chen–Kerber, 2011).  A sweep (:func:`sweep_order`) steps depth first to
every ω, a single query from ∅ through the vertices of ω (:class:`_Walker`).
A sweep's leaf ω ∪ {v}, v its first vertex, is K|ω ∪ v ∗ lk|s, s = ω ∩ V(lk(v)):
unless a part has rows set aside, or a degree has unit dimension on both, its
result is K|ω's plus lk|s's one degree up, unstepped, by reduced Mayer–Vietoris
and universal coefficients (Hatcher, *Algebraic Topology*, §2.2 and §3.1).

Orientation convention: the vertices of each face are ordered ascending, the
coboundary of σ runs over its cofaces σ∪{v} (``K.coface_vertices``) and the
sign is (-1)^position of v in σ∪{v}.  Any fixed convention yields the same
dimensions (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import _CacheInfo, lru_cache, partial
from threading import Lock
from types import MappingProxyType
from typing import Callable, Mapping
from weakref import WeakSet

from .complexes import VERTEX_CAP, SimplicialComplex, _within
from .errors import NotAComplex
from .linalg import QQ, FieldSpec, SparseMap, rank


@dataclass
class CochainComplex:
    """Graded sequence of free modules with sparse integer coboundaries.

    ``d[q]`` maps degree q to degree q+1 and has shape size(q+1) x size(q).
    Degrees run over the contiguous range lo..hi; sizes outside are zero.
    :func:`assemble` checks d∘d = 0 as it builds; :func:`cohomology_dims` rechecks.
    """

    lo: int
    hi: int
    sizes: dict[int, int]
    d: dict[int, SparseMap]
    labels: dict[int, list] | None = field(default=None, repr=False)

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


def coboundary_map(rule: Callable, lower: list, upper: list, q: int) -> SparseMap:
    """Matrix of d from the basis ``lower`` of degree q to the basis ``upper``,
    where ``rule(x)`` lists the (coefficient, target) terms of d x.  A target
    outside ``upper`` means the maps are wrong and raises NotAComplex naming
    the degree q and the element x."""
    index = {g: k for k, g in enumerate(upper)}
    data: list[list[tuple[int, int]]] = [[] for _ in upper]
    for j, gen in enumerate(lower):
        for coeff, target in rule(gen):
            k = index.get(target)
            if k is None:
                raise NotAComplex(
                    f"coboundary in degree {q} leaves the basis: {gen} -> {target}",
                    q=q,
                    label=gen,
                )
            row = data[k]
            if row and row[-1][0] == j:  # a second term on the same target
                coeff += row.pop()[1]
                if not coeff:
                    continue
            row.append((j, coeff))
    return SparseMap(len(upper), len(lower), data)


def assemble(bases: dict[int, list], rule: Callable) -> CochainComplex:
    """The complex with the graded bases ``bases`` (degree -> elements) and
    coboundary ``rule`` (see :func:`coboundary_map`), each d_q checked
    against d_{q-1} as soon as it is built.

    Degrees run from the least key to the greatest, a missing degree having
    the empty basis; each basis is sorted.  No basis at all gives the zero
    complex."""
    if not bases:
        return CochainComplex(0, 0, {0: 0}, {}, {0: []})
    lo, hi = min(bases), max(bases)
    labels = {q: sorted(bases.get(q, ())) for q in range(lo, hi + 1)}
    d: dict[int, SparseMap] = {}
    for q in range(lo, hi):
        d[q] = coboundary_map(rule, labels[q], labels[q + 1], q)
        if q > lo:
            _check_composite(d[q - 1], d[q], q - 1, labels[q + 1])
    sizes = {q: len(labels[q]) for q in range(lo, hi + 1)}
    return CochainComplex(lo, hi, sizes, d, labels)


def cohomology_dims(C: CochainComplex, f: FieldSpec) -> dict[int, int]:
    """dim H^q = (size(q) - rank d_q) - rank d_{q-1}; zero entries omitted.

    C's shapes and d∘d = 0 are checked first, on the maps as they are now."""
    C.check_dd_zero()
    lo = C.lo
    sizes = [C.size(q) for q in range(lo, C.hi + 1)]
    ranks = [rank(C.differential(q), f) for q in range(lo, C.hi + 1)]
    out = {}
    for k, size in enumerate(sizes):
        h = (size - ranks[k]) - (ranks[k - 1] if k else 0)
        if h:
            out[lo + k] = h
    return out


def _face_coboundary(cofaces: dict[int, int], sigma: int) -> list[tuple[int, int]]:
    """σ ↦ Σ ± σ∪{v} over the v in ``cofaces[σ]``, the sign (-1)^(number of
    vertices of σ below v)."""
    out = []
    up = cofaces[sigma]
    while up:
        low = up & -up
        out.append((-1 if (sigma & (low - 1)).bit_count() & 1 else 1, sigma | low))
        up ^= low
    return out


def reduced_cochain_complex(K: SimplicialComplex) -> CochainComplex:
    """Reduced simplicial cochain complex of K, degrees -1..dim K."""
    bases = {q: K.faces_by_card[q + 1] for q in range(-1, K.dim + 1)}
    return assemble(bases, partial(_face_coboundary, K.coface_vertices))


class _Walker:
    """K's coboundary rows, eliminated over ℤ one vertex at a time, and the
    result of each full subcomplex K|ω, kept in one byte.

    It works on π(K), π ranking K's vertices by their number of faces, fewest
    first, ties by label (``image``): a sweep pushes each face
    σ's row 2^(m − min σ − |σ| + 1) times.  K's reduced complex is built and
    d∘d-checked once, here, in K's labels; its rows, re-indexed for π(K), are
    kept in one table.  The level of ω holds, per face size k, the number of
    faces of K|ω, the number of unit pivots among their rows (of d_{k-2}) and
    that elimination's state and residual (:func:`~srbetti.linalg.rank`).
    :meth:`_step` makes the level of ω ∪ {v}, v below min π(ω), by reducing
    only the rows of the faces {v} ∪ σ, σ ⊆ ω, into copies of ω's states, so a
    failed step changes no level.  A sweep (:meth:`fill`) steps depth first to
    every ω, its byte after its children's; a single query steps from the
    empty level ``root`` through the vertices of π(ω), largest first.

    A sweep's leaves are the ω ∪ {v}, v = π-vertex 0.  :meth:`fill` first sweeps
    lk(v), relabelled onto its d vertices, with a walker that lives for the fill.
    K|(ω ∪ {v}) is K|ω and the cone v ∗ lk|s, s = ω ∩ V(lk), meeting in lk|s, so
    the reduced Mayer–Vietoris sequence joins them by restrictions
    H̃^j(K|ω) → H̃^j(lk|s).  If neither result has rows set aside (byte 255) and
    no degree j has unit dimension in both, each restriction is zero over every
    field, whose dimensions the unit ones bound (universal coefficients): the
    leaf's result is then K|ω's plus lk|s's one degree up, stored unstepped
    through a memo (ω's byte, lk|s's byte) ↦ the leaf's byte (``omega_by_link``
    counts it).  Rows set aside, a result past the 254th, or ω = s = ∅ (both
    H̃^{-1} ≠ 0) step the leaf.

    Columns number π(K)'s faces in descending mask order, so a pivot's key,
    its largest column, is the face without the row's top vertex: for a row
    {v} ∪ σ, σ ≠ ∅, one through v, which no parent pivot holds.  Ascending
    numbers, or growing faces by their least new vertex first, ran up to 1.5× slower.

    A step reduces its new faces from the largest size down and clears (skips)
    a size-k face whose key (``keys``) is a unit pivot of the size-(k+1) state
    it has just extended.  That pivot's row is a cycle with lead ±1, so
    d∘d = 0 makes the face's row a ℤ-combination of rows of K|(ω ∪ {v}) with
    smaller keys, each kept, in the parent's state or itself cleared: the span
    over every field, so the ranks and the pivot keys, are unchanged.  Steps
    count the rows they reduce and clear, and the growth of the residual,
    which shrinks where a row set aside meets a later unit pivot (``rows_*``).

    Each ω's result is kept once, for every field, in one byte: 0 until it is
    stored, else the index of a distinct residual-free result in ``values``
    (1–254), or 255 for one in ``rare``, with a residual or past the 254th.
    ω's byte sits in a block of ``_BLOCK`` ω, allocated before it is written."""

    def __init__(self, K: SimplicialComplex):
        order = sorted(range(K.m), key=lambda v: (sum(g >> v & 1 for g in K.faces), v))  # π⁻¹
        self.image = sorted(range(K.m), key=order.__getitem__)  # K's vertex ↦ its place in π
        d, lower = reduced_cochain_complex(K).d, K.faces_by_card  # checked in K's labels
        pi = {g: _relabel(self.image, g) for g in K.faces}
        P = SimplicialComplex(K.m, frozenset(pi.values()))
        by_card, up = P.faces_by_card, P.coface_vertices  # above[g]: up[g]'s vertices above max g
        self.above = {g: up[g] >> g.bit_length() << g.bit_length() for g in up}
        self.cols = cols = [len(level) for level in by_card]
        self.keys = keys = {g: cols[k] - 1 - i for k, lv in enumerate(by_card) for i, g in enumerate(lv)}
        self.rows = {  # K's rows, re-indexed: each column is the key of its face in π(K)
            pi[g]: [(keys[pi[lower[k - 1][c]]], a) for c, a in d[k - 2].data[i]]
            for k in range(1, len(lower)) for i, g in enumerate(lower[k])
        }
        n = len(by_card) + 1  # a size past the top, with no faces and rank 0
        self.root = (0, [1] + [0] * (n - 1), [0] * n, [{}] * n, [[]] * n)
        self.lock, self.full, self.bits = Lock(), False, [1 << v for v in order]  # π vertex u ↦ K's bit
        self.rows_reduced = self.rows_cleared = self.rows_residual = self.hits = self.omega_by_link = 0
        self.blocks, self.block = {}, min(1 << K.m, _BLOCK)  # ω // _BLOCK ↦ the bytes of its block
        self.values, self.index, self.rare = [None], {}, {}
        _walkers.add(self)

    def _step(self, state: tuple, v: int) -> tuple:  # ω's level ``state`` ↦ that of ω ∪ {v}
        om, faces, ranks, pivots, residual = state
        faces, ranks, pivots, residual = faces[:], ranks[:], pivots[:], residual[:]
        above, rows_of, keys, cols = self.above, self.rows, self.keys, self.cols
        levels, new = [], [v] if v in above else []
        while new:
            levels.append(new)
            grown = []
            for g in new:  # the vertices of ω above max g, largest first: each face once
                ext = above[g] & om
                while ext:
                    u = 1 << ext.bit_length() - 1
                    grown.append(g | u)
                    ext ^= u
            new = grown
        for k in range(len(levels), 0, -1):  # top down, so pivots[k + 1] is this step's
            new, cleared = levels[k - 1], pivots[k + 1]
            faces[k] += len(new)
            rows = [rows_of[g] for g in new if keys[g] not in cleared]
            self.rows_reduced += len(rows)
            self.rows_cleared += len(new) - len(rows)
            if rows:  # else the states stay as they are
                pivots[k], inherited = pivots[k].copy(), residual[k]
                residual[k] = inherited[:] if inherited else []
                ranks[k] += rank(SparseMap(len(rows), cols[k - 1], rows, pivots[k], residual[k]), QQ)
                self.rows_residual += len(residual[k]) - len(inherited)
        return om | v, faces, ranks, pivots, residual

    def _byte(self, omega: int, state: tuple) -> int:
        """ω's byte for its level ``state``, storing its result if new or rare."""
        _, faces, ranks, _, residual = state
        units = tuple([n - r - s for n, r, s in zip(faces, ranks, ranks[1:])])  # as in _dims
        if not any(residual) and (b := self._value(units)) < 255:
            return b
        rows = {k - 2: SparseMap(len(r), self.cols[k - 1], r) for k, r in enumerate(residual) if r}
        self.rare[omega] = _dims(faces, ranks), rows or None  # the rows of the faces of size k are d_{k-2}'s
        return 255

    def _value(self, units: tuple) -> int:
        """The byte of a result without rows set aside, dimension units[k] in degree k − 1."""
        b = self.index.setdefault(units, len(self.values))  # 255 once 254 values are stored
        if b == len(self.values) < 255:
            self.values.append((MappingProxyType({k - 1: h for k, h in enumerate(units) if h}), None))
        return b

    def fill(self) -> None:
        """Store every ω by one walk, unless the store is full already."""
        with self.lock:
            if not self.full:
                for hi in range((1 << len(self.bits)) // self.block):
                    self.blocks.setdefault(hi, bytearray(self.block))
                link = self.above.get(1, 0)  # the vertices of lk(π-vertex 0), numbered 0..d-1 in lk
                place = {u: i for i, u in enumerate(u for u in range(link.bit_length()) if link >> u & 1)}
                lk = None  # m = 0: ∅ is no leaf's ω
                if self.bits:  # lk's faces: ∅ and each face through π-vertex 0, less it
                    faces = frozenset({0, *(_relabel(place, g ^ 1) for g in self.keys if g & 1)})
                    (lk := _Walker(SimplicialComplex(len(place), faces))).fill()
                sbit = [1 << place[u] if u in place else 0 for u in range(len(self.bits))]  # π vertex ↦ its bit in lk
                self._walk(self.root, 0, 0, len(self.bits), (lk, sbit, {}))
                self.full = True

    def _walk(self, state: tuple, omega: int, s: int, below: int, link: tuple) -> None:
        lk, sbit, memo = link  # s: ω ∩ V(lk) in lk's labels; memo: (ω's byte, lk|s's) ↦ the leaf's
        for u in range(below - 1, 0, -1):  # ω's level ``state``; its children ω ∪ {u}, 0 < u < min π(ω)
            self._walk(self._step(state, 1 << u), omega | self.bits[u], s | sbit[u], u, link)
        b = self.blocks[omega // _BLOCK][omega % _BLOCK] = self._byte(omega, state)
        if below:  # the leaf ω ∪ {v}, v = π-vertex 0
            leaf, key = omega | self.bits[0], (b, lk.blocks[s // _BLOCK][s % _BLOCK])
            if (b := memo.get(key)) is None:
                b = memo[key] = self._join(*key, lk.result(s)[0])
            if b == 255:
                b = self._byte(leaf, self._step(state, 1))
            else:
                self.omega_by_link += 1
            self.blocks[leaf // _BLOCK][leaf % _BLOCK] = b

    def _join(self, b: int, bl: int, l: Mapping[int, int]) -> int:
        """A leaf ω ∪ {v}'s byte from ω's byte b, lk|s's bl and its unit dimensions l; 255: step it."""
        if b == 255 or bl == 255:  # rows set aside, or a result past the 254th
            return 255
        a = self.values[b][0]
        if a.keys() & l.keys():  # the restriction H̃^j(K|ω) → H̃^j(lk|s) may be nonzero
            return 255
        return self._value(tuple([a.get(k - 1, 0) + l.get(k - 2, 0) for k in range(len(self.cols))]))

    def result(self, omega: int) -> tuple[Mapping[int, int], dict[int, SparseMap] | None]:
        """ω's unit dimensions and residual (see :func:`field_dims`), walked once, then read back."""
        hi, lo = divmod(omega, _BLOCK)
        block = self.blocks.get(hi)
        if block is not None and (b := block[lo]):
            self.hits += 1  # a count only: racing threads may lose one, never an answer
            return self.values[b] if b < 255 else self.rare[omega]
        with self.lock:
            block = block or self.blocks.setdefault(hi, bytearray(self.block))
            if not (b := block[lo]):  # else another thread walked ω meanwhile
                state, rest = self.root, _relabel(self.image, omega)
                while rest:  # π(ω)'s vertices, largest first
                    v = 1 << rest.bit_length() - 1
                    state, rest = self._step(state, v), rest ^ v
                b = block[lo] = self._byte(omega, state)
        return self.values[b] if b < 255 else self.rare[omega]


def _relabel(target: list[int], mask: int) -> int:
    """mask's image under bit j ↦ bit target[j]."""
    out = 0
    while mask:
        low = mask & -mask
        out, mask = out | 1 << target[low.bit_length() - 1], mask ^ low
    return out


def _dims(sizes: list[int], ranks: list[int], lo: int = -1) -> Mapping[int, int]:
    """Degree lo + k ↦ sizes[k] - ranks[k + 1] - ranks[k], zeros omitted."""
    ks = range(len(sizes) - 1)
    return MappingProxyType({lo + k: h for k in ks if (h := sizes[k] - ranks[k + 1] - ranks[k])})


def field_dims(units: Mapping[int, int], residual: dict | None, f: FieldSpec) -> Mapping[int, int]:
    """Dimensions over f from those of the unit pivots over ℤ and the rows set aside
    from each d_q, whose rank over f, a count of their diagonal form (see
    :func:`rank`), lowers degrees q and q + 1."""
    if not residual:
        return units
    out = dict(units)
    for q, rows in residual.items():
        r = rank(rows, f)
        out[q], out[q + 1] = out.get(q, 0) - r, out.get(q + 1, 0) - r
    return MappingProxyType({k: h for k, h in out.items() if h})


def integral_elimination(
    C: CochainComplex, shift: int = 0
) -> tuple[Mapping[int, int], dict[int, SparseMap]]:
    """C's dimensions from the unit pivots of one elimination over ℤ of each d_q,
    and the rows it set aside by degree, which :func:`field_dims` reads for any
    field; C's degree q is reported as q - shift."""
    ranks, residual = [0], {}  # ranks[k]: of the map into degree lo + k
    for q in range(C.lo, C.hi):
        d, rows = C.differential(q), []
        ranks.append(rank(SparseMap(d.rows, d.cols, d.data, {}, rows), QQ))
        if rows:
            residual[q - shift] = SparseMap(len(rows), d.cols, rows)
    sizes = [C.size(q) for q in range(C.lo, C.hi + 2)]
    return _dims(sizes, ranks + [0], C.lo - shift), residual


_rank_caches: list = []


def rank_cache(maxsize: int) -> Callable:
    """An LRU cache of rank-derived results: ``reduced_cohomology_dims.cache_clear()`` clears it."""

    def wrap(fn: Callable) -> Callable:
        _rank_caches.append(cached := lru_cache(maxsize=maxsize)(fn))
        return cached

    return wrap


_walkers: WeakSet = WeakSet()  # the live walkers, whose stores make cache_info
_SLOTS = 8  # so the stores hold at most 8 × 2^VERTEX_CAP bytes, 128 MiB, up to the vertex cap
_BLOCK = 1 << 10  # ω per block of a walker's store: above the vertex cap, 1 KiB per ω asked
_walker = rank_cache(_SLOTS)(_Walker)  # one walker per K, for every field


def sweep_order(K: SimplicialComplex) -> range:
    """Every ω ⊆ [m] in mask order, once K's walker has stored them all."""
    _walker(K).fill()
    return range(K.full_mask + 1)


def reduced_cohomology_dims(
    K: SimplicialComplex, f: FieldSpec, omega: int | None = None
) -> Mapping[int, int]:
    """Reduced cohomology dimensions of K|ω over f, ω all of [m] when None
    (a read-only view of the one per-ω store).

    C^*(K|ω) is not built: its rows are read off K's own complex, built and
    d∘d-checked once per K by K's walker, which stores ω's result for every
    field; only its residual rows, rare, are ranked over f.  ``cache_info``
    counts reads of a stored ω (hits) and ω stored (misses) in the live walkers;
    ``cache_clear`` clears every :func:`rank_cache`: walkers, ``tor``'s blocks and contexts.
    """
    om = K.full_mask if omega is None else _within(K, omega)
    return field_dims(*_walker(K).result(om), f)


def _cache_info() -> _CacheInfo:  # maxsize is the stores' worst case
    walkers = list(_walkers)
    stored = sum(len(b) - b.count(0) for w in walkers for b in w.blocks.values())
    return _CacheInfo(sum(w.hits for w in walkers), stored, _SLOTS << VERTEX_CAP, stored)


def _cache_clear() -> None:
    for cache in _rank_caches:
        cache.cache_clear()


reduced_cohomology_dims.cache_clear = _cache_clear
reduced_cohomology_dims.cache_info = _cache_info
