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
inverts that action, so dH + Hd = id.  tor_dims does not assume this: its
first call at a bound >= 2 checks the identity over ℤ on the piece of each
such pattern (:func:`_certify`, once per coloring) and raises NotAComplex on
a failure, so only the e = 0 pieces are built and ranked.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .betti import subcomplex_cohomology
from .cohomology import CochainComplex, assemble, cohomology_dims
from .coloring import (
    Partition,
    _as_color_mask,
    colors_of,
    kappa,
    omega_L,
    require_nondegenerate,
)
from .complexes import SimplicialComplex, submasks, vertices_of
from .errors import MismatchFound, NotAComplex, StabilizationNotReached
from .linalg import FieldSpec

# A Koszul generator t_I v^(σ,h) and equally a fattened cell: h is a weight
# tuple of length m with support exactly σ.
Gen = tuple[int, tuple[int, ...], int]


class _Ctx:
    """Precomputed combinatorics of (K, α): color sets and block tables.  The
    cofaces of a face come from ``K.coface_vertices``, masked by a block."""

    __slots__ = (
        "K", "alpha", "r", "m", "block_verts", "_colorsets", "faces_by_colorset", "certified"
    )

    def __init__(self, K: SimplicialComplex, alpha: Partition):
        self.K = K
        self.alpha = alpha
        self.r = alpha.r
        self.m = K.m
        self.block_verts = tuple(vertices_of(b) for b in alpha.blocks)
        self._colorsets = {f: colors_of(alpha, f) for f in K.faces}
        vc = alpha.color_of
        # I_α(σ) -> [(σ, ((color, vertex) for each vertex of σ))], σ ascending
        by_cset: dict[int, list] = {}
        for f in sorted(K.faces):
            pairs = tuple((vc[v], v) for v in vertices_of(f))
            by_cset.setdefault(self._colorsets[f], []).append((f, pairs))
        self.faces_by_colorset = by_cset
        self.certified: int | None = None  # set by the first tor_dims at a bound >= 2

    def colorset(self, sigma: int) -> int:
        return self._colorsets[sigma]

    def sigma_vertex(self, sigma: int, i: int) -> int:
        """The unique vertex of σ in block i (nondegeneracy)."""
        inter = sigma & self.alpha.blocks[i - 1]
        return inter.bit_length()


@lru_cache(maxsize=4096)
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
    return (-imask.bit_count(), ctx.colorset(sigma) | imask)


def x_cell_dim(gen: Gen) -> int:
    """Dimension of the fattened cell: |I| + 2·Σ_j h(j)."""
    _sigma, h, imask = gen
    return imask.bit_count() + 2 * sum(h)


def koszul_coboundary(ctx: _Ctx, gen: Gen) -> list[tuple[int, Gen]]:
    """Differential via the module structure: each t_i maps to Σ_{j∈α_i} v_j,
    and v_j multiplies v^(σ,h) in the face ring (zero if σ∪{j} is a nonface).
    """
    sigma, h, imask = gen
    # face-ring membership, not K.coface_vertices: the three-way check must not rest on it
    faces = ctx.K.faces
    out = []
    sign = 1
    for i in vertices_of(imask):
        bit = 1 << (i - 1)
        new_imask = imask & ~bit
        for j in ctx.block_verts[i - 1]:
            jbit = 1 << (j - 1)
            if sigma & jbit:
                new_sigma = sigma
            elif sigma | jbit in faces:
                new_sigma = sigma | jbit
            else:
                continue
            new_h = list(h)
            new_h[j - 1] += 1
            out.append((sign, (new_sigma, tuple(new_h), new_imask)))
        sign = -sign
    return out


def x_coboundary(ctx: _Ctx, gen: Gen) -> list[tuple[int, Gen]]:
    """Cellular coboundary of the fattened cell (σ, h, I): for colors of I
    already met by σ, bump the weight of the σ-vertex of that color; for the
    rest, run over cofaces adding a vertex of that color."""
    sigma, h, imask = gen
    cset = ctx.colorset(sigma)
    out = []
    for i in vertices_of(imask & cset):
        v = ctx.sigma_vertex(sigma, i)
        new_h = list(h)
        new_h[v - 1] += 1
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
    if imask & ctx.colorset(sigma):
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


def _colored_routes(K: SimplicialComplex, alpha: Partition, f: FieldSpec):
    """Per L ⊆ [r] in (|L|, L) order: L, the cohomology dims of the quotient
    L-block, and the reduced cohomology dims of K|ω_L (Hochster's side)."""
    for lmask in sorted(submasks(alpha.full_color_mask), key=lambda s: (s.bit_count(), s)):
        yield (
            lmask,
            cohomology_dims(quotient_cochain_complex(K, alpha, lmask), f),
            subcomplex_cohomology(K, omega_L(alpha, lmask), f),
        )


def quotient_cohomology_dims(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec
) -> dict[int, int]:
    """Quotient cohomology dims: the sum over L of the cellular dims of the
    L-blocks.  Each block is checked per (q, L) against Hochster's side,
    H^q of the L-block = H̃^{q-|L|-1}(K|ω_L); the first disagreement raises
    :class:`~srbetti.errors.MismatchFound` naming that (q, L)."""
    cellular: dict[int, int] = {}
    for lmask, cell, sub in _colored_routes(K, alpha, f):
        shift = lmask.bit_count() + 1
        for q in sorted(set(cell) | {deg + shift for deg in sub}):
            if cell.get(q, 0) != sub.get(q - shift, 0):
                raise MismatchFound(
                    f"quotient routes disagree at q={q}, L={vertices_of(lmask)}: "
                    f"cellular={cell.get(q, 0)} subcomplex={sub.get(q - shift, 0)}",
                    q=q,
                    colors=lmask,
                )
            cellular[q] = cellular.get(q, 0) + cell.get(q, 0)
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
    graded by -|I| (cohomological degree -q)."""
    ctx = _context(K, alpha)
    if len(w) != ctx.r or any(x < 0 for x in w):
        raise ValueError(f"weight vector must be in N^{ctx.r}, got {w}")
    gens_by_deg: dict[int, list[Gen]] = {}
    for gen in _piece_generators(ctx, w):
        gens_by_deg.setdefault(-gen[2].bit_count(), []).append(gen)
    # the differential must preserve the color weight: a target outside the
    # piece raises NotAComplex naming w and the generator
    return assemble(gens_by_deg, partial(koszul_coboundary, ctx), tuple(w))


def _homotopy(ctx: _Ctx, i: int, gen: Gen) -> list[tuple[int, Gen]]:
    """H(σ, h, I) = κ(i, I∪{i})·(σ, h - e_v, I∪{i}) for the σ-vertex v of
    color i, and 0 when i ∈ I: the signed inverse of the t_i-part of d."""
    sigma, h, imask = gen
    bit = 1 << (i - 1)
    if imask & bit:
        return []
    new_h = list(h)
    new_h[ctx.sigma_vertex(sigma, i) - 1] -= 1
    return [(kappa(i, imask | bit), (sigma, tuple(new_h), imask | bit))]


def _certify(ctx: _Ctx) -> int:
    """Check the contraction of the piece of each clamped pattern with a
    coordinate >= 2, one per L ⊆ [r] and nonzero face color set e ⊆ L, and
    count them; a failure raises :class:`~srbetti.errors.NotAComplex` naming
    w, the generator and its degree q = -|I|."""
    count = 0
    for lmask in submasks(ctx.alpha.full_color_mask):
        for emask in ctx.faces_by_colorset:
            if emask and not emask & ~lmask:
                w = _pattern_weight(lmask, emask, ctx.r)
                failure = _contraction_failure(ctx, w, (emask & -emask).bit_length())
                if failure:
                    gen, what = failure
                    message = f"contraction certificate fails at {gen!r}: {what}; piece w={w}"
                    raise NotAComplex(message, q=-gen[2].bit_count(), label=gen, weight=w)
                count += 1
    return count


def _contraction_failure(ctx: _Ctx, w: tuple[int, ...], i: int):
    """Where the piece w fails to carry :func:`_homotopy` for the color i,
    checked over ℤ generator by generator: d and H stay in the piece,
    d∘d = 0 and dH + Hd = id, which make it acyclic over every field.  The
    first failing generator and what fails there, or None."""
    gens = list(_piece_generators(ctx, w))
    index = {gen: k for k, gen in enumerate(gens)}
    # d and H on generator positions; None marks a target outside the piece
    d = [[(c, index.get(t)) for c, t in koszul_coboundary(ctx, gen)] for gen in gens]
    hom = [[(c, index.get(t)) for c, t in _homotopy(ctx, i, gen)] for gen in gens]
    for k, gen in enumerate(gens):
        if any(t is None for row in (d[k], hom[k]) for _, t in row):
            return gen, "d or H leaves the piece"
    for k, dk in enumerate(d):
        dd: dict[int, int] = {}
        acc = {k: -1}  # dH + Hd - id
        for c, t in dk:
            for c2, t2 in d[t]:
                dd[t2] = dd.get(t2, 0) + c * c2
            for c2, t2 in hom[t]:
                acc[t2] = acc.get(t2, 0) + c * c2
        for c, t in hom[k]:
            for c2, t2 in d[t]:
                acc[t2] = acc.get(t2, 0) + c * c2
        if any(dd.values()) or any(acc.values()):
            return gens[k], "d∘d != 0" if any(dd.values()) else "dH + Hd != id"
    return None


def _stabilized_json(stabilized: dict[int, bool]) -> list[dict]:
    """Per-L stabilization flags, ordered by (|L|, L)."""
    return [
        {"L": list(vertices_of(L)), "stabilized": flag}
        for L, flag in sorted(stabilized.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
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
        return sorted(
            self.entries.items(),
            key=lambda kv: (kv[0][1].bit_count(), kv[0][1], kv[0][0]),
        )

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
    certificate (:func:`_certify`), so each L builds and ranks only its e = 0
    piece, w = 1_L, which fills weight shell 1 (shell 0 for L = ∅).  The flag
    per L records that the two outermost shells (maximum coordinate B-1 and
    B) contributed zero homology, which a bound 1 cannot tell for an L that
    has a piece with e != 0; a :class:`~srbetti.errors.StabilizationNotReached`
    warning lists the L whose flag is unset.
    """
    ctx = _context(K, alpha)
    bound = default_weight_bound(K, alpha) if weight_bound is None else weight_bound
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    if bound >= 2 and ctx.certified is None:
        ctx.certified = _certify(ctx)
    table = TorTable(ctx.r, f, bound, certified=ctx.certified if bound >= 2 else 0)
    for lmask in submasks(ctx.alpha.full_color_mask):
        dims = cohomology_dims(koszul_piece(K, alpha, _pattern_weight(lmask, 0, ctx.r)), f)
        table.entries.update(((-deg, lmask), v) for deg, v in dims.items())
        high_zero = bound >= 2 or not any(e and not e & ~lmask for e in ctx.faces_by_colorset)
        shell = 1 if lmask else 0  # of the e = 0 piece
        table.stabilized[lmask] = high_zero and (not dims or shell not in (bound - 1, bound))
    unstable = _unstabilized(table.stabilized)
    if unstable:
        message = f"weight shells still contribute at the bound {bound} for L in {unstable}"
        warnings.warn(StabilizationNotReached(message, colors=unstable), stacklevel=2)
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

    def to_json(self) -> dict:
        return {
            "generators_checked": self.generators_checked,
            "bijection_ok": self.bijection_ok,
            "chain_map_ok": self.chain_map_ok,
            "iota_chain_map_ok": self.iota_chain_map_ok,
            "failures": self.failures[:20],
            "ok": self.ok,
        }


def _iter_generators(ctx: _Ctx, bound: int):
    """All generators (σ, h, I) with max color weight <= bound."""
    for sigma in sorted(ctx.K.faces):
        verts = vertices_of(sigma)
        for values in itertools.product(range(1, bound + 1), repeat=len(verts)):
            h = [0] * ctx.m
            for v, val in zip(verts, values):
                h[v - 1] = val
            ht = tuple(h)
            for imask in range(1 << ctx.r):
                gen = (sigma, ht, imask)
                if max(color_weight(ctx, gen), default=0) <= bound:
                    yield gen


def _formal_sum_key(terms):
    combined: dict[Gen, int] = {}
    for coeff, gen in terms:
        combined[gen] = combined.get(gen, 0) + coeff
    return sorted((g, c) for g, c in combined.items() if c)


def psi_iota_checks(
    K: SimplicialComplex,
    alpha: Partition,
    weight_bound: int | None = None,
) -> PsiIotaReport:
    """Verify, generator by generator up to the weight bound, that

    * the generator/cell identification preserves degree and multidegree
      (cell dimension 2Σw - |I|, multidegree support = supp(w));
    * the module-structure differential and the cellular coboundary agree
      sign-exactly on every generator;
    * restriction to the quotient is a chain map (all coboundary squares
      commute, with the zero branches included).
    """
    ctx = _context(K, alpha)
    bound = default_weight_bound(K, alpha) if weight_bound is None else weight_bound
    failures: list[str] = []
    bij = chain = iota = True
    count = 0
    for gen in _iter_generators(ctx, bound):
        count += 1
        sigma, h, imask = gen
        w = color_weight(ctx, gen)
        qdeg, mdeg_colors = generator_multidegree(ctx, gen)
        if x_cell_dim(gen) != 2 * sum(w) + qdeg:
            bij = False
            failures.append(f"degree shift violated at {gen}")
        if mdeg_colors != sum(1 << i for i, x in enumerate(w) if x):
            bij = False
            failures.append(f"multidegree support violated at {gen}")
        dk = koszul_coboundary(ctx, gen)
        dx = x_coboundary(ctx, gen)
        if _formal_sum_key(dk) != _formal_sum_key(dx):
            chain = False
            failures.append(f"differentials disagree at {gen}")
        lhs: dict[tuple[int, int], int] = {}
        for coeff, target in dx:
            cell = iota_star(ctx, target)
            if cell is not None:
                lhs[cell] = lhs.get(cell, 0) + coeff
        rhs: dict[tuple[int, int], int] = {}
        base = iota_star(ctx, gen)
        if base is not None:
            for coeff, cell in quotient_coboundary(ctx, base):
                rhs[cell] = rhs.get(cell, 0) + coeff
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
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
    K|ω_L in degree |L|-q-1."""
    table = tor_dims(K, alpha, f, weight_bound)
    records = []
    for lmask, cell_dims, sub_dims in _colored_routes(K, alpha, f):
        lsize = lmask.bit_count()
        for q in range(0, lsize + 2):
            rec = TorThreeWayRecord(
                colors=lmask,
                q=q,
                tor=table.get(q, lmask),
                cellular=cell_dims.get(2 * lsize - q, 0),
                hochster=sub_dims.get(lsize - q - 1, 0),
            )
            records.append(rec)
    return TorThreeWayReport(records, table)
