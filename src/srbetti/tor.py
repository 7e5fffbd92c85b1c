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

Everything is made finite by the color-weight vector
w_i = [i ∈ I] + Σ_{j∈α_i} h(j), which the differential preserves.  Each
weight piece is a finite complex; the L-graded Tor is the sum over w with
supp(w) = L.  For a nondegenerate coloring, raising a coordinate that is
already >= 2 is an isomorphism of pieces (pump the weight of the unique
σ-vertex of that color), so a piece's homology depends only on the clamped
pattern min(w_i, 2); tor_dims exploits this to evaluate the weight-bounded
sum without enumerating every vector.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from .betti import betti_number, subcomplex_cohomology
from .cohomology import CochainComplex, assemble, cohomology_dims
from .coloring import Partition, _as_color_mask, colors_of, is_nondegenerate, omega_L
from .complexes import SimplicialComplex, submasks, vertices_of
from .errors import DegeneratePartition, MismatchFound, NotAComplex, StabilizationNotReached
from .linalg import FieldSpec, SparseMap

# A Koszul generator t_I v^(σ,h) and equally a fattened cell: h is a weight
# tuple of length m with support exactly σ.
Gen = tuple[int, tuple[int, ...], int]


class _Ctx:
    """Precomputed combinatorics of (K, α): colors, cofaces, block tables."""

    __slots__ = (
        "K", "alpha", "r", "m", "block_verts", "_colorsets", "_cofaces", "faces_by_colorset"
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
        cofaces = {}
        for f in K.faces:
            lst = []
            for v in range(1, self.m + 1):
                bit = 1 << (v - 1)
                if not f & bit and (f | bit) in K.faces:
                    lst.append((v, vc[v], f | bit))
            cofaces[f] = tuple(lst)
        self._cofaces = cofaces

    def colorset(self, sigma: int) -> int:
        return self._colorsets[sigma]

    def sigma_vertex(self, sigma: int, i: int) -> int:
        """The unique vertex of σ in block i (nondegeneracy)."""
        inter = sigma & self.alpha.blocks[i - 1]
        return inter.bit_length()

    def cofaces(self, sigma: int):
        """(added vertex, its color, new face) for every coface of σ in K."""
        return self._cofaces[sigma]


@lru_cache(maxsize=4096)
def _context(K: SimplicialComplex, alpha: Partition) -> _Ctx:
    if not is_nondegenerate(K, alpha):
        raise DegeneratePartition(
            "partition is degenerate for this complex; colored complexes undefined"
        )
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
        bit = 1 << (i - 1)
        sign = 1 - 2 * ((imask & (bit - 1)).bit_count() & 1)
        v = ctx.sigma_vertex(sigma, i)
        new_h = list(h)
        new_h[v - 1] += 1
        out.append((sign, (sigma, tuple(new_h), imask & ~bit)))
    for i in vertices_of(imask & ~cset):
        bit = 1 << (i - 1)
        sign = 1 - 2 * ((imask & (bit - 1)).bit_count() & 1)
        new_imask = imask & ~bit
        for v, color, omega in ctx.cofaces(sigma):
            if color == i:
                new_h = list(h)
                new_h[v - 1] += 1
                out.append((sign, (omega, tuple(new_h), new_imask)))
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
        for _v, color, omega in ctx.cofaces(sigma):
            if color == i:
                out.append((sign, (omega, new_imask)))
        sign = -sign
    return out


def _coboundary_map(
    ctx: _Ctx, coboundary, lower: list, upper: list, q: int, weight=None
) -> SparseMap:
    """Matrix of ``coboundary`` from the basis ``lower`` of degree q to the
    basis ``upper``; a target outside ``upper`` means the maps are wrong."""
    index = {g: k for k, g in enumerate(upper)}
    data: list[list[tuple[int, int]]] = [[] for _ in upper]
    for j, gen in enumerate(lower):
        for coeff, target in coboundary(ctx, gen):
            k = index.get(target)
            if k is None:
                where = "" if weight is None else (
                    f"; weight {color_weight(ctx, target)}, piece w={weight}"
                )
                raise NotAComplex(
                    f"coboundary in degree {q} leaves the basis: {gen} -> {target}{where}",
                    q=q,
                    label=gen,
                    weight=weight,
                )
            row = data[k]
            if row and row[-1][0] == j:  # a second term on the same target
                coeff += row.pop()[1]
                if not coeff:
                    continue
            row.append((j, coeff))
    return SparseMap(len(upper), len(lower), data)


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
    lo = lsize
    hi = max(cells_by_deg)
    for deg in cells_by_deg:
        cells_by_deg[deg].sort()
    labels = {deg: cells_by_deg.get(deg, []) for deg in range(lo, hi + 1)}
    return assemble(
        lo,
        hi,
        labels,
        lambda deg: _coboundary_map(ctx, quotient_coboundary, labels[deg], labels[deg + 1], deg),
    )


def quotient_cohomology_dims(
    K: SimplicialComplex, alpha: Partition, f: FieldSpec
) -> dict[int, int]:
    """Quotient cohomology dims, computed three ways and compared: from the
    cell complexes, from subcomplex cohomology, and from the Betti table."""
    ctx = _context(K, alpha)
    cellular: dict[int, int] = {}
    shifted: dict[int, int] = {}
    via_betti: dict[int, int] = {}
    for lmask in submasks(ctx.alpha.full_color_mask):
        lsize = lmask.bit_count()
        om = omega_L(alpha, lmask)
        for q, dim in cohomology_dims(
            quotient_cochain_complex(K, alpha, lmask), f
        ).items():
            cellular[q] = cellular.get(q, 0) + dim
        for deg, dim in subcomplex_cohomology(K, om, f).items():
            q = deg + lsize + 1
            shifted[q] = shifted.get(q, 0) + dim
        osize = om.bit_count()
        for q in range(0, osize + lsize + 2):
            i = osize + lsize - q
            if i >= 0:
                b = betti_number(K, i, om, f)
                if b:
                    via_betti[q] = via_betti.get(q, 0) + b
    if not (cellular == shifted == via_betti):
        raise MismatchFound(
            f"quotient routes disagree: cellular={cellular} "
            f"subcomplex={shifted} betti={via_betti}"
        )
    return cellular


def koszul_piece(
    K: SimplicialComplex, alpha: Partition, w: tuple[int, ...]
) -> CochainComplex:
    """The finite piece of the Koszul-type complex with color weight exactly w,
    graded by -|I| (cohomological degree -q)."""
    ctx = _context(K, alpha)
    if len(w) != ctx.r or any(x < 0 for x in w):
        raise ValueError(f"weight vector must be in N^{ctx.r}, got {w}")
    suppw = sum(1 << i for i, x in enumerate(w) if x > 0)
    emask = sum(1 << i for i, x in enumerate(w) if x >= 2)
    gens_by_q: dict[int, list[Gen]] = {}
    jmasks = list(submasks(emask))
    for cset, faces in ctx.faces_by_colorset.items():
        if emask & ~cset or cset & ~suppw:
            continue
        forced = suppw & ~cset
        for sigma, pairs in faces:
            base_h = [0] * ctx.m
            for i, v in pairs:
                base_h[v - 1] = w[i - 1]
            for jmask in jmasks:
                imask = forced | jmask
                h = list(base_h)
                for i, v in pairs:
                    if jmask >> (i - 1) & 1:
                        h[v - 1] -= 1
                gens_by_q.setdefault(imask.bit_count(), []).append((sigma, tuple(h), imask))
    if not gens_by_q:
        return CochainComplex(0, 0, {0: 0}, {}, {0: []}, checked=True)
    qmax = max(gens_by_q)
    qmin = min(gens_by_q)
    for q in gens_by_q:
        gens_by_q[q].sort()
    labels = {-q: gens_by_q.get(q, []) for q in range(qmin, qmax + 1)}
    # the differential must preserve the color weight: a target outside the
    # piece raises NotAComplex naming w and the generator
    return assemble(
        -qmax,
        -qmin,
        labels,
        lambda deg: _coboundary_map(
            ctx, koszul_coboundary, labels[deg], labels[deg + 1], deg, tuple(w)
        ),
    )


def _stabilized_json(stabilized: dict[int, bool]) -> list[dict]:
    """Per-L stabilization flags, ordered by (|L|, L)."""
    return [
        {"L": list(vertices_of(L)), "stabilized": flag}
        for L, flag in sorted(stabilized.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    ]


@dataclass
class TorTable:
    """Sparse (q, L) -> dim Tor_{q,L}, plus per-L weight-shell stabilization."""

    r: int
    field: FieldSpec
    weight_bound: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    stabilized: dict[int, bool] = field(default_factory=dict)

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
    return tuple(
        (2 if emask >> i & 1 else 1) if lmask >> i & 1 else 0 for i in range(r)
    )


def tor_dims(
    K: SimplicialComplex,
    alpha: Partition,
    f: FieldSpec,
    weight_bound: int | None = None,
) -> TorTable:
    """Sum of weight-piece homology over all w with supp(w) = L and
    max_i w_i <= weight_bound, for every L ⊆ [r].

    Pieces are evaluated once per clamped pattern in {1,2}^L and multiplied by
    the number of weight vectors in the class (pieces with a coordinate >= 2
    are pairwise isomorphic along that coordinate).  The stabilization flag
    per L records that the two outermost weight shells (maximum coordinate
    B-1 and B) contributed zero homology; a
    :class:`~srbetti.errors.StabilizationNotReached` warning lists the L whose
    flag is unset.
    """
    ctx = _context(K, alpha)
    bound = default_weight_bound(K, alpha) if weight_bound is None else weight_bound
    if bound < 1:
        raise ValueError(f"weight bound must be >= 1, got {bound}")
    face_colorsets = sorted({ctx.colorset(s) for s in K.faces})
    table = TorTable(ctx.r, f, bound)
    for lmask in submasks(ctx.alpha.full_color_mask):
        patterns = [e for e in face_colorsets if e & ~lmask == 0]
        dims_by_e = {}
        for emask in patterns:
            if emask and bound < 2:
                continue
            w = _pattern_weight(lmask, emask, ctx.r)
            dims = cohomology_dims(koszul_piece(K, alpha, w), f)
            dims_by_e[emask] = {-deg: v for deg, v in dims.items() if v}
        for emask, dims in dims_by_e.items():
            mult = 1 if emask == 0 else (bound - 1) ** emask.bit_count()
            for q, v in dims.items():
                if mult:
                    key = (q, lmask)
                    table.entries[key] = table.entries.get(key, 0) + mult * v

        def shell_zero(s: int) -> bool:
            if lmask == 0:
                return s != 0 or not dims_by_e.get(0)
            if s <= 0:
                return True
            if s == 1:
                return not dims_by_e.get(0)
            return all(not d for e, d in dims_by_e.items() if e)

        outer_ok = shell_zero(bound - 1) and shell_zero(bound)
        if bound < 2 and any(e for e in patterns):
            outer_ok = False  # shells with a coordinate 2 were never inspected
        table.stabilized[lmask] = outer_ok
    unstable = [e["L"] for e in _stabilized_json(table.stabilized) if not e["stabilized"]]
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
    f: FieldSpec,
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
    stabilized: dict[int, bool]
    weight_bound: int

    @property
    def ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    @property
    def all_stabilized(self) -> bool:
        return all(self.stabilized.values())

    def to_json(self) -> dict:
        return {
            "weight_bound": self.weight_bound,
            "records": [rec.to_json() for rec in self.records],
            "stabilized": _stabilized_json(self.stabilized),
            "pass": self.ok,
        }


def verify_tor_threeway(
    K: SimplicialComplex,
    alpha: Partition,
    f: FieldSpec,
    weight_bound: int | None = None,
    strict: bool = False,
) -> TorThreeWayReport:
    """Three-way equality per (q, L): Tor dims from the truncated Koszul
    route, cellular cohomology in degree 2|L|-q, and reduced cohomology of
    K|ω_L in degree |L|-q-1."""
    ctx = _context(K, alpha)
    table = tor_dims(K, alpha, f, weight_bound)
    records = []
    for lmask in sorted(
        submasks(ctx.alpha.full_color_mask), key=lambda s: (s.bit_count(), s)
    ):
        lsize = lmask.bit_count()
        cell_dims = cohomology_dims(quotient_cochain_complex(K, alpha, lmask), f)
        sub_dims = subcomplex_cohomology(K, omega_L(alpha, lmask), f)
        for q in range(0, lsize + 2):
            rec = TorThreeWayRecord(
                colors=lmask,
                q=q,
                tor=table.get(q, lmask),
                cellular=cell_dims.get(2 * lsize - q, 0),
                hochster=sub_dims.get(lsize - q - 1, 0),
            )
            records.append(rec)
            if strict and not rec.ok:
                raise MismatchFound(
                    f"three-way mismatch at q={q}, L={vertices_of(lmask)}: "
                    f"tor={rec.tor} cellular={rec.cellular} hochster={rec.hochster}",
                    q=q,
                    colors=lmask,
                )
    return TorThreeWayReport(records, table.stabilized, table.weight_bound)
