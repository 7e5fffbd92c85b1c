"""Colored cochain complexes and Tor computations for a vertex coloring.

Three cochain complexes live here, all attached to a complex K with a
nondegenerate partition α of [m] into r blocks:

* the cellular complex of the torus quotient, with cells (σ, I) of dimension
  2|σ|+|I| and coboundary adding one vertex of a color drawn from I;
* the cellular complex of its fattened model, with cells (σ, h, I) carrying a
  weight h supported on σ;
* the Koszul-type complex Λ[t_1..t_r] ⊗ (face ring of K), whose generators
  t_I·v^(σ,h) are identified with the fattened cells by the structure map ψ.

The Koszul differential is implemented through the module structure
(t_i ↦ Σ_{j∈α_i} v_j acting by face-ring multiplication); the fattened
cellular coboundary is implemented independently from the cell formula, so
comparing them is a genuine check, not a tautology.

Each complex is its bases plus one of these rules, built and d∘d-checked by
:func:`~srbetti.cohomology.assemble`; cofaces by a vertex of color i are read
off K's one coface table as ``K.coface_vertices[σ] & α_i``.

Everything is made finite by the color-weight vector
w_i = [i ∈ I] + Σ_{j∈α_i} h(j), which the differential preserves.  Each
weight piece is a finite complex; the L-graded Tor is the sum over w with
supp(w) = L.  For a nondegenerate coloring, raising a coordinate that is
already >= 2 is an isomorphism of pieces (pump the weight of the unique
σ-vertex of that color), so a piece's homology depends only on the clamped
pattern min(w_i, 2).

A piece with some w_i >= 2 is in fact acyclic: t_i acts on it only through
the σ-vertex v of color i, and H(σ, h, I) = κ(i, I∪{i})·(σ, h - e_v, I∪{i})
inverts that action, so dH + Hd = id.  tor_dims does not assume this.  As
(σ, I, w) fix h, each piece lifts one weight-free rule on shapes (σ, I)
(:func:`_koszul_terms`): the first tor_dims at a bound >= 2 evaluates it once
per shape of the pieces (L, e), checking d∘d = 0 over ℤ, and dH + Hd = id per
L and color i on the shapes Ũ(L, i) of the pieces whose e has least color i
(:func:`_certify`, once per coloring), so only the e = 0 pieces are built.
The piece 1_L and the quotient's L-block are the same matrices under
(σ, 1_σ, I) ↔ (σ, I): verify_tor_threeway builds each once per (K, α, L) and
compares them entry by entry, tor_dims builds the piece alone and
quotient_cohomology_dims the block alone; one of them is ranked, by one
elimination over ℤ for every field (:func:`_e0_dims`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import partial

from .betti import subcomplex_cohomology
from .cohomology import _SLOTS, CochainComplex, assemble, field_dims, integral_elimination, rank_cache
from .coloring import (
    Partition,
    _as_color_mask,
    colors_of,
    kappa,
    omega_L,
    require_nondegenerate,
)
from .complexes import SimplicialComplex, by_size, submasks, vertices_of
from .errors import MismatchFound, NotAComplex, StabilizationNotReached
from .linalg import FieldSpec

# A Koszul generator t_I v^(σ,h) and equally a fattened cell: h is a weight
# tuple of length m with support exactly σ.
Gen = tuple[int, tuple[int, ...], int]


class _Ctx:
    """Precomputed combinatorics of (K, α): color sets and block tables.  The
    cofaces of a face come from ``K.coface_vertices``, masked by a block."""

    __slots__ = (
        "K", "alpha", "r", "m", "block_verts", "colorsets", "faces_by_colorset", "certified", "sweeps"
    )

    def __init__(self, K: SimplicialComplex, alpha: Partition):
        self.K = K
        self.alpha = alpha
        self.r = alpha.r
        self.m = K.m
        self.block_verts = tuple(vertices_of(b) for b in alpha.blocks)
        self.colorsets = {f: colors_of(alpha, f) for f in K.faces}
        vc = alpha.color_of
        # I_α(σ) -> [(σ, ((color, vertex) for each vertex of σ))], σ ascending
        by_cset: dict[int, list] = {}
        for f in sorted(K.faces):
            pairs = tuple((vc[v], v) for v in vertices_of(f))
            by_cset.setdefault(self.colorsets[f], []).append((f, pairs))
        self.faces_by_colorset = by_cset
        self.certified: int | None = None  # set by the first tor_dims at a bound >= 2
        self.sweeps: dict[int, tuple] = {}  # routes -> _e0_entries, filled by the first field


# as many (K, α) as walkers: each slot keeps K, its coface table and its e = 0
# sweeps, and every caller (a CLI run, corpus, the benchmark) finishes one (K, α)
# before the next; a rank cache: cache_clear drops the count and sweeps with the ranks
@rank_cache(_SLOTS)
def _context(K: SimplicialComplex, alpha: Partition) -> _Ctx:
    require_nondegenerate(K, alpha)
    return _Ctx(K, alpha)


def color_weight(ctx: _Ctx, gen: Gen) -> tuple[int, ...]:
    """w_i = [i ∈ I] + Σ_{j∈α_i} h(j); preserved by every differential here."""
    sigma, h, imask = gen
    w = [0] * ctx.r
    for i in range(ctx.r):
        if imask >> i & 1:
            w[i] += 1
        for v in ctx.block_verts[i]:
            w[i] += h[v - 1]
    return tuple(w)


def generator_multidegree(ctx: _Ctx, gen: Gen) -> tuple[int, int]:
    """mdeg = (-|I|, I_α(σ) ∪ I); the second component as a color mask."""
    sigma, _h, imask = gen
    return (-imask.bit_count(), ctx.colorsets[sigma] | imask)


def x_cell_dim(gen: Gen) -> int:
    """Dimension of the fattened cell: |I| + 2·Σ_j h(j)."""
    _sigma, h, imask = gen
    return imask.bit_count() + 2 * sum(h)


def _koszul_terms(ctx: _Ctx, sigma: int, imask: int):
    """The Koszul rule on the weight-free shape (σ, I): each t_i, i ∈ I, maps
    to Σ_{j∈α_i} v_j, and v_j multiplies v^σ in the face ring (zero if σ∪{j}
    is a nonface).  Yields (coefficient, σ', I', j); the term raises the
    weight of j."""
    # face-ring membership, not K.coface_vertices: the three-way check must not rest on it
    faces = ctx.K.faces
    sign = 1
    for i in vertices_of(imask):
        new_imask = imask & ~(1 << (i - 1))
        for j in ctx.block_verts[i - 1]:
            jbit = 1 << (j - 1)
            if sigma & jbit:
                yield sign, sigma, new_imask, j
            elif sigma | jbit in faces:
                yield sign, sigma | jbit, new_imask, j
        sign = -sign


def koszul_coboundary(ctx: _Ctx, gen: Gen) -> list[tuple[int, Gen]]:
    """d(t_I v^(σ,h)): :func:`_koszul_terms`, each term raising h at its j."""
    sigma, h, imask = gen
    terms = _koszul_terms(ctx, sigma, imask)
    return [(c, (s, h[: j - 1] + (h[j - 1] + 1,) + h[j:], t)) for c, s, t, j in terms]


def x_coboundary(ctx: _Ctx, gen: Gen) -> list[tuple[int, Gen]]:
    """Cellular coboundary of the fattened cell (σ, h, I): for colors of I
    already met by σ, bump the weight of the σ-vertex of that color; for the
    rest, run over cofaces adding a vertex of that color."""
    sigma, h, imask = gen
    cset = ctx.colorsets[sigma]
    out = []
    for i in vertices_of(imask & cset):  # σ's one vertex of color i (nondegeneracy)
        new_h = list(h)
        new_h[(sigma & ctx.alpha.blocks[i - 1]).bit_length() - 1] += 1
        out.append((kappa(i, imask), (sigma, tuple(new_h), imask & ~(1 << (i - 1)))))
    for i in vertices_of(imask & ~cset):
        sign = kappa(i, imask)
        new_imask = imask & ~(1 << (i - 1))
        up = ctx.K.coface_vertices[sigma] & ctx.alpha.blocks[i - 1]  # cofaces by color i
        while up:
            low = up & -up
            up ^= low
            new_h = list(h)
            new_h[low.bit_length() - 1] += 1
            out.append((sign, (sigma | low, tuple(new_h), new_imask)))
    return out


def iota_star(ctx: _Ctx, gen: Gen):
    """Restriction of a fattened cell to the quotient: (σ, I) when the weight
    is the indicator of σ and I avoids the colors of σ, otherwise zero."""
    sigma, h, imask = gen
    if imask & ctx.colorsets[sigma]:
        return None
    if any(h[v - 1] != 1 for v in vertices_of(sigma)) or sum(h) != sigma.bit_count():
        return None
    return (sigma, imask)


def quotient_coboundary(ctx: _Ctx, cell: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """Coboundary of a quotient cell (σ, I): add one vertex whose color is
    drawn from I, drop that color from I."""
    sigma, imask = cell
    out = []
    sign = 1
    for i in vertices_of(imask):
        new_imask = imask & ~(1 << (i - 1))
        up = ctx.K.coface_vertices[sigma] & ctx.alpha.blocks[i - 1]
        while up:
            low = up & -up
            up ^= low
            out.append((sign, (sigma | low, new_imask)))
        sign = -sign
    return out


def quotient_cochain_complex(
    K: SimplicialComplex, alpha: Partition, L
) -> CochainComplex:
    """The L-block of the quotient's cellular cochain complex.

    Basis: cells (σ, I) with I_α(σ) ∪ I = L and I ∩ I_α(σ) = ∅, graded by
    cell dimension 2|σ|+|I|; one cell per face of K|ω_L.
    """
    ctx = _context(K, alpha)
    lmask = _as_color_mask(L, ctx.r)
    lsize = lmask.bit_count()
    cells_by_deg: dict[int, list[tuple[int, int]]] = {}
    for cset, faces in ctx.faces_by_colorset.items():
        if cset & ~lmask == 0:
            for f, _pairs in faces:
                cell = (f, lmask & ~cset)
                cells_by_deg.setdefault(lsize + f.bit_count(), []).append(cell)
    return assemble(cells_by_deg, partial(quotient_coboundary, ctx))


_PIECE, _BLOCK = 1, 2  # the e = 0 routes: the Koszul piece 1_L and the quotient L-block


def _e0_entries(K: SimplicialComplex, alpha: Partition, routes: int):
    """Per L ⊆ [r] in (|L|, L) order: L, the unit dims over ℤ of the e = 0
    piece 1_L by degree -q (the L-block's in degree 2|L| - q) and the residual
    or None.  Only ``routes`` are built: the piece, the block, or both compared
    entry by entry; one of them is eliminated over ℤ, for every field."""
    for lmask in sorted(submasks(alpha.full_color_mask), key=by_size):
        w = _pattern_weight(lmask, 0, alpha.r)
        piece = koszul_piece(K, alpha, w) if routes & _PIECE else None
        block = quotient_cochain_complex(K, alpha, lmask) if routes & _BLOCK else None
        if piece is None:  # the block's degree 2|L| - q is the piece's -q
            units, residual = integral_elimination(block, 2 * lmask.bit_count())
        else:
            if block is not None:
                _compare_e0(_context(K, alpha), lmask, piece, block)
            units, residual = integral_elimination(piece)
        yield lmask, units, residual or None


def _e0_dims(K: SimplicialComplex, alpha: Partition, f: FieldSpec, routes: int):
    """Per L in (|L|, L) order: L and the dims over f of :func:`_e0_entries`, whose
    tuple the first field keeps on the (K, α) context per ``routes``, so that a
    later field ranks only the residual rows (field_dims)."""
    sweeps = _context(K, alpha).sweeps
    if routes not in sweeps:
        sweeps[routes] = tuple(_e0_entries(K, alpha, routes))
    for lmask, units, residual in sweeps[routes]:
        yield lmask, field_dims(units, residual, f)


def _compare_e0(ctx: _Ctx, lmask: int, piece: CochainComplex, block: CochainComplex) -> None:
    """Compare the e = 0 piece 1_L and the quotient L-block under
    (σ, 1_σ, I) ↔ (σ, I), bases and maps entry by entry; the first difference
    raises MismatchFound naming (q, L) and the cell."""
    shift = 2 * lmask.bit_count()
    for deg in range(min(piece.lo, block.lo - shift), max(piece.hi, block.hi - shift) + 1):
        cells, rows = block.labels.get(deg + shift, []), block.differential(deg + shift - 1).data
        if [iota_star(ctx, gen) for gen in piece.labels.get(deg, [])] != cells:
            q, what = -deg, f"the piece's basis is not the cells {cells}"
        elif (piece_rows := piece.differential(deg - 1).data) != rows:  # the map into deg
            i = next(i for i, (a, b) in enumerate(zip(piece_rows, rows)) if a != b)
            a, b = dict(piece_rows[i]), dict(rows[i])
            j = min(j for j in a.keys() | b.keys() if a.get(j) != b.get(j))
            q, what = 1 - deg, (
                f"the entry of d{block.labels[deg + shift - 1][j]} at {cells[i]} is "
                f"{a.get(j, 0)} in the piece and {b.get(j, 0)} in the block"
            )
        else:
            continue
        message = f"e = 0 piece and quotient block differ at q={q}, L={vertices_of(lmask)}: {what}"
        raise MismatchFound(message, q=q, colors=lmask)


def quotient_cohomology_dims(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec
) -> dict[int, int]:
    """Quotient cohomology dims: the sum over L of the cellular dims of the
    L-blocks.  Each block is checked per (q, L) against Hochster's side,
    H^q of the L-block = H̃^{q-|L|-1}(K|ω_L); the first disagreement raises
    :class:`~srbetti.errors.MismatchFound` naming that (q, L)."""
    cellular: dict[int, int] = {}
    for lmask, dims in _e0_dims(K, alpha, f, _BLOCK):
        sub = subcomplex_cohomology(K, omega_L(alpha, lmask), f)
        lsize = lmask.bit_count()  # H^q of the block is the piece's in degree q - 2|L|
        for q in sorted({deg + 2 * lsize for deg in dims} | {deg + lsize + 1 for deg in sub}):
            cell, hochster = dims.get(q - 2 * lsize, 0), sub.get(q - lsize - 1, 0)
            if cell != hochster:
                at = f"q={q}, L={vertices_of(lmask)}"
                message = f"quotient routes disagree at {at}: cellular={cell} subcomplex={hochster}"
                raise MismatchFound(message, q=q, colors=lmask)
            cellular[q] = cellular.get(q, 0) + cell
    return cellular


def _piece_generators(ctx: _Ctx, w: tuple[int, ...]):
    """The generators (σ, h, I) of color weight exactly w: σ carries every
    color e = {i : w_i >= 2} and none outside supp(w), I holds the colors of
    supp(w) that σ misses plus any J ⊆ e, and h(v) = w_i - [i ∈ I] on the
    σ-vertex v of color i."""
    suppw = sum(1 << i for i, x in enumerate(w) if x > 0)
    emask = sum(1 << i for i, x in enumerate(w) if x >= 2)
    jmasks = list(submasks(emask))
    for cset, faces in ctx.faces_by_colorset.items():
        if emask & ~cset or cset & ~suppw:
            continue
        forced = suppw & ~cset
        for sigma, pairs in faces:
            for jmask in jmasks:
                h = [0] * ctx.m
                for i, v in pairs:
                    h[v - 1] = w[i - 1] - (jmask >> (i - 1) & 1)
                yield (sigma, tuple(h), forced | jmask)


def koszul_piece(
    K: SimplicialComplex, alpha: Partition, w: tuple[int, ...]
) -> CochainComplex:
    """The finite piece of the Koszul-type complex with color weight exactly w,
    graded by -|I| (cohomological degree -q).  A target of d outside the
    piece, or d∘d != 0, raises NotAComplex naming the generator, q and w."""
    ctx = _context(K, alpha)
    if len(w) != ctx.r or any(x < 0 for x in w):
        raise ValueError(f"weight vector must be in N^{ctx.r}, got {w}")
    gens_by_deg: dict[int, list[Gen]] = {}
    for gen in _piece_generators(ctx, w):
        gens_by_deg.setdefault(-gen[2].bit_count(), []).append(gen)
    try:
        return assemble(gens_by_deg, partial(koszul_coboundary, ctx))
    except NotAComplex as exc:
        w = tuple(w)
        raise NotAComplex(f"{exc}; piece w={w}", q=exc.q, label=exc.label, weight=w) from exc


def _homotopy(i: int, sigma: int, imask: int) -> list[tuple[int, tuple[int, int]]]:
    """H(σ, I) = κ(i, I∪{i})·(σ, I∪{i}), and 0 when i ∈ I: the signed inverse
    of the t_i-part of the Koszul rule; lifted to weights, it lowers h at the
    σ-vertex of color i."""
    bit = 1 << (i - 1)
    return [] if imask & bit else [(kappa(i, imask | bit), (sigma, imask | bit))]


def _certify(ctx: _Ctx) -> int:
    """Check the contraction of every piece with a coordinate >= 2, once per L
    (:func:`_contraction_failure`); count the patterns (L, e), e ⊆ L a nonzero
    face color set.  A failure raises NotAComplex naming the smallest piece
    holding the failing shape, e = J ∪ {i}, its generator there and q = -|I|."""
    count = 0
    for lmask in submasks(ctx.alpha.full_color_mask):
        inside = {e: fs for e, fs in ctx.faces_by_colorset.items() if e and not e & ~lmask}
        count += len(inside)
        if failure := _contraction_failure(ctx, lmask, inside):
            (sigma, imask), ibit, what = failure
            w = _pattern_weight(lmask, imask & ctx.colorsets[sigma] | ibit, ctx.r)
            gen = next(g for g in _piece_generators(ctx, w) if (g[0], g[2]) == (sigma, imask))
            message = f"contraction certificate fails at {gen!r}: {what}; piece w={w}"
            raise NotAComplex(message, q=-imask.bit_count(), label=gen, weight=w)
    return count


def _contraction_failure(ctx: _Ctx, lmask: int, inside: dict):
    """The first shape of U(L) where the contraction :func:`_homotopy` fails
    over ℤ, its color i and what fails, or None.  U(L) holds the (σ, I) with
    I_α(σ) in ``inside``, I = (L ∖ I_α(σ)) ∪ J and J ⊆ I_α(σ); Ũ(L, i) those
    with i ∈ I_α(σ) and J ⊆ [i, r], the piece (L, e) of least color i those
    with e ⊆ I_α(σ) and J ⊆ e.  d is built and d∘d = 0 checked once per shape;
    per i, each target of d or H stays in every piece holding its source
    (I_α(σ) ∩ [i, r] ⊆ I_α(σ'), J' ⊆ J ∪ {i}) and dH + Hd = id on Ũ(L, i)."""
    r, shapes, csets, groups = ctx.r, [], [], {}
    for cset, faces in inside.items():
        for jmask in submasks(cset):
            groups[cset, jmask] = range(len(shapes), len(shapes) + len(faces))
            shapes += [(sigma, lmask & ~cset | jmask) for sigma, _pairs in faces]
        csets += [cset] * (len(faces) << cset.bit_count())
    index = {s << r | t: k for k, (s, t) in enumerate(shapes)}  # .get: a position, or None
    d = [[(c, index.get(s << r | t)) for c, s, t, _j in _koszul_terms(ctx, *sh)] for sh in shapes]
    for ibit in sorted({e & -e for e in inside}):
        i, low, hom = ibit.bit_length(), ibit - 1, {}  # low: the colors below i
        part = [k for cset in inside if cset & ibit for jmask in submasks(cset & ~low)
                for k in groups[cset, jmask]]  # Ũ(L, i)
        for k in part:
            hom[k] = [(c, index.get(s << r | t)) for c, (s, t) in _homotopy(i, *shapes[k])]
            keep, jk = csets[k] & ~low, shapes[k][1] & csets[k] | ibit
            for _c, t in d[k] + hom[k]:
                if t is None or keep & ~csets[t] or shapes[t][1] & csets[t] & ~jk:
                    return shapes[k], ibit, "d or H leaves the piece"
        for k in part:
            dd, acc = {}, {k: -1}  # acc: dH + Hd - id
            for c, t in d[k]:
                for c2, t2 in () if csets[k] & low else d[t]:  # d∘d: at i = min I_α(σ)
                    dd[t2] = dd.get(t2, 0) + c * c2
                for c2, t2 in hom[t]:
                    acc[t2] = acc.get(t2, 0) + c * c2
            for c, t in hom[k]:
                for c2, t2 in d[t]:
                    acc[t2] = acc.get(t2, 0) + c * c2
            if any(dd.values()) or any(acc.values()):
                return shapes[k], ibit, "d∘d != 0" if any(dd.values()) else "dH + Hd != id"
    return None


def _stabilized_json(stabilized: dict[int, bool]) -> list[dict]:
    """Per-L stabilization flags, ordered by (|L|, L)."""
    return [
        {"L": list(vertices_of(L)), "stabilized": stabilized[L]}
        for L in sorted(stabilized, key=by_size)
    ]


def _unstabilized(stabilized: dict[int, bool]) -> list[list[int]]:
    """The L whose flag is unset, as color lists ordered by (|L|, L)."""
    return [e["L"] for e in _stabilized_json(stabilized) if not e["stabilized"]]


@dataclass
class TorTable:
    """Sparse (q, L) -> dim Tor_{q,L}, plus per-L weight-shell stabilization."""

    r: int
    field: FieldSpec
    weight_bound: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    stabilized: dict[int, bool] = field(default_factory=dict)
    # e != 0 pieces proved acyclic by their contraction (0 below bound 2)
    certified: int = 0

    def get(self, q: int, L: int) -> int:
        return self.entries.get((q, L), 0)

    def total_for_q(self, q: int) -> int:
        return sum(v for (qq, _), v in self.entries.items() if qq == q)

    def all_stabilized(self) -> bool:
        return all(self.stabilized.values())

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (by_size(kv[0][1]), kv[0][0]))

    def to_json(self) -> dict:
        return {
            "weight_bound": self.weight_bound,
            "entries": [
                {"q": q, "L": list(vertices_of(L)), "dim": v}
                for (q, L), v in self.sorted_items()
            ],
            "stabilized": _stabilized_json(self.stabilized),
        }


def default_weight_bound(K: SimplicialComplex, alpha: Partition) -> int:
    return K.dim + alpha.r + 2


def _weight_bound(K: SimplicialComplex, alpha: Partition, weight_bound: int | None) -> int:
    """The weight bound asked for, the default when None; below 1 raises."""
    bound = default_weight_bound(K, alpha) if weight_bound is None else weight_bound
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    return bound


def _pattern_weight(lmask: int, emask: int, r: int) -> tuple[int, ...]:
    """The clamped pattern of L and e ⊆ L: w_i = [i ∈ L] + [i ∈ e]."""
    return tuple((lmask >> i & 1) + (emask >> i & 1) for i in range(r))


def tor_dims(
    K: SimplicialComplex,
    alpha: Partition,
    f: FieldSpec,
    weight_bound: int | None = None,
) -> TorTable:
    """Sum of weight-piece homology over all w with supp(w) = L and
    max_i w_i <= weight_bound, for every L ⊆ [r].

    Every piece with a coordinate >= 2 is acyclic by its contraction
    certificate (:func:`_certify`), so each L reads only its e = 0 piece
    (:func:`_e0_dims`), w = 1_L, which fills weight shell 1 (shell 0 for
    L = ∅).  The flag per L records that the two outermost shells (maximum
    coordinate B-1 and B) contributed zero homology, which a bound 1 cannot
    tell for an L that has a piece with e != 0; a
    :class:`~srbetti.errors.StabilizationNotReached` warning lists the L whose flag is unset.
    """
    return _tor_table(K, alpha, f, weight_bound, _PIECE)


def _tor_table(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec, weight_bound: int | None, routes: int
) -> TorTable:
    """:func:`tor_dims`, reading the e = 0 pieces through ``routes``."""
    ctx = _context(K, alpha)
    bound = _weight_bound(K, alpha, weight_bound)
    if bound >= 2 and ctx.certified is None:
        ctx.certified = _certify(ctx)
    table = TorTable(ctx.r, f, bound, certified=ctx.certified if bound >= 2 else 0)
    for lmask, dims in _e0_dims(K, alpha, f, routes):
        table.entries.update(((-deg, lmask), v) for deg, v in dims.items())
        high_zero = bound >= 2 or not any(e and not e & ~lmask for e in ctx.faces_by_colorset)
        shell = 1 if lmask else 0  # of the e = 0 piece
        table.stabilized[lmask] = high_zero and (not dims or shell not in (bound - 1, bound))
    unstable = _unstabilized(table.stabilized)
    if unstable:
        message = f"weight shells still contribute at the bound {bound} for L in {unstable}"
        warnings.warn(StabilizationNotReached(message, colors=unstable), stacklevel=3)
    return table


@dataclass
class PsiIotaReport:
    """Outcome of the generator-by-generator structure-map checks."""

    generators_checked: int
    bijection_ok: bool
    chain_map_ok: bool
    iota_chain_map_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.chain_map_ok and self.iota_chain_map_ok


def _formal_sum(terms) -> dict:
    """The (coefficient, target) terms collected by target, zeros dropped."""
    out: dict = {}
    for coeff, target in terms:
        out[target] = out.get(target, 0) + coeff
    return {t: c for t, c in out.items() if c}


def psi_iota_checks(
    K: SimplicialComplex,
    alpha: Partition,
    weight_bound: int | None = None,
) -> PsiIotaReport:
    """Verify, generator by generator, on the pieces of all (B + 1)^r color
    weights w with max_i w_i <= B (the weight bound; no CLI command calls
    this, and its work grows as (B + 1)^r), that

    * each generator of the piece w has color weight w, and the
      generator/cell identification preserves degree and multidegree
      (cell dimension 2Σw - |I|, multidegree support = supp(w));
    * the module-structure differential and the cellular coboundary agree
      sign-exactly on every generator;
    * restriction to the quotient is a chain map (all coboundary squares
      commute, with the zero branches included).
    """
    ctx = _context(K, alpha)
    bound = _weight_bound(K, alpha, weight_bound)
    failures: list[str] = []
    bij = chain = iota = True
    count = 0
    for w in itertools.product(range(bound + 1), repeat=ctx.r):
        suppw = sum(1 << i for i, x in enumerate(w) if x)
        for gen in _piece_generators(ctx, w):
            count += 1
            if color_weight(ctx, gen) != w:
                bij = False
                failures.append(f"color weight is not {w} at {gen}")
            qdeg, mdeg_colors = generator_multidegree(ctx, gen)
            if x_cell_dim(gen) != 2 * sum(w) + qdeg:
                bij = False
                failures.append(f"degree shift violated at {gen}")
            if mdeg_colors != suppw:
                bij = False
                failures.append(f"multidegree support violated at {gen}")
            dx = x_coboundary(ctx, gen)
            if _formal_sum(koszul_coboundary(ctx, gen)) != _formal_sum(dx):
                chain = False
                failures.append(f"differentials disagree at {gen}")
            base = iota_star(ctx, gen)
            lhs = _formal_sum((c, cell) for c, t in dx if (cell := iota_star(ctx, t)))
            rhs = _formal_sum(quotient_coboundary(ctx, base) if base else ())
            if lhs != rhs:
                iota = False
                failures.append(f"restriction square fails at {gen}")
    return PsiIotaReport(count, bij, chain, iota, failures)


@dataclass
class TorThreeWayRecord:
    colors: int
    q: int
    tor: int
    cellular: int
    hochster: int

    @property
    def ok(self) -> bool:
        return self.tor == self.cellular == self.hochster

    def to_json(self) -> dict:
        return {
            "L": list(vertices_of(self.colors)),
            "q": self.q,
            "tor": self.tor,
            "cellular": self.cellular,
            "hochster": self.hochster,
            "pass": self.ok,
        }


@dataclass
class TorThreeWayReport:
    records: list[TorThreeWayRecord]
    table: TorTable

    @property
    def ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    @property
    def all_stabilized(self) -> bool:
        return self.table.all_stabilized()

    def to_json(self) -> dict:
        return {
            "weight_bound": self.table.weight_bound,
            "records": [rec.to_json() for rec in self.records],
            "stabilized": _stabilized_json(self.table.stabilized),
            "pass": self.ok,
        }


def verify_tor_threeway(
    K: SimplicialComplex,
    alpha: Partition,
    f: FieldSpec,
    weight_bound: int | None = None,
) -> TorThreeWayReport:
    """Three-way equality per (q, L): Tor dims from the truncated Koszul
    route, cellular cohomology in degree 2|L|-q, and reduced cohomology of
    K|ω_L in degree |L|-q-1.  The first two are one entry: the e = 0 piece
    and the L-block are compared entry by entry, then one is ranked."""
    table = _tor_table(K, alpha, f, weight_bound, _PIECE | _BLOCK)
    records = []
    for lmask in sorted(table.stabilized, key=by_size):
        lsize = lmask.bit_count()
        sub_dims = subcomplex_cohomology(K, omega_L(alpha, lmask), f)
        for q in range(0, lsize + 2):
            dim = table.get(q, lmask)
            records.append(TorThreeWayRecord(lmask, q, dim, dim, sub_dims.get(lsize - q - 1, 0)))
    return TorThreeWayReport(records, table)
