"""Partitions of [m], vertex colorings, and the derived combinatorial gadgets.

A partition α = (α_1, ..., α_r) is nondegenerate for K exactly when no
1-face of K has both endpoints in one block; equivalently every face meets
each block at most once.  Color subsets L ⊆ [r] are bitmasks just like
vertex subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from .complexes import SimplicialComplex, mask_of, vertices_of
from .errors import (
    ColorOutOfRange,
    DegeneratePartition,
    MismatchFound,
    NotAMember,
    PartitionMismatch,
    VertexBudgetExceeded,
    VertexOutOfRange,
)

MIN_COLORING_CAP = 16


@dataclass(frozen=True)
class Partition:
    """Ordered partition of [m] into r disjoint nonempty blocks (bitmasks)."""

    m: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if b == 0:
                raise PartitionMismatch("blocks must be nonempty")
            if b & union:
                raise PartitionMismatch("blocks must be disjoint")
            union |= b
        if union != (1 << self.m) - 1:
            raise PartitionMismatch(f"blocks do not cover [{self.m}]")

    @property
    def r(self) -> int:
        return len(self.blocks)

    @cached_property
    def color_of(self) -> tuple[int, ...]:
        """1-based color of each vertex; entry 0 is padding."""
        out = [0] * (self.m + 1)
        for i, b in enumerate(self.blocks, 1):
            for v in vertices_of(b):
                out[v] = i
        return tuple(out)

    @cached_property
    def full_color_mask(self) -> int:
        return (1 << self.r) - 1

    def __repr__(self):
        return f"Partition({format_blocks(self)!r})"


def trivial_partition(m: int) -> Partition:
    return Partition(m, tuple(1 << j for j in range(m)))


def partition_from_colors(colors: list[int], m: int) -> Partition:
    """Partition from a 1-based color vector (index 0 = vertex 1)."""
    r = max(colors, default=0)
    blocks = [0] * r
    for v, c in enumerate(colors, 1):
        blocks[c - 1] |= 1 << (v - 1)
    return Partition(m, tuple(blocks))


def is_nondegenerate(K: SimplicialComplex, alpha: Partition) -> bool:
    """True iff no 1-face of K lies in a single block.

    Checks the edge criterion and the face criterion (|σ ∩ α_i| <= 1 for
    every face) and insists they agree, as they must by downward closure.
    """
    if alpha.m != K.m:
        raise PartitionMismatch(f"partition of [{alpha.m}] against complex on [{K.m}]")
    by_edges = all(
        not any((e & b).bit_count() > 1 for b in alpha.blocks) for e in K.edges
    )
    by_faces = all(
        not any((f & b).bit_count() > 1 for b in alpha.blocks) for f in K.faces
    )
    if by_edges != by_faces:
        raise MismatchFound(
            f"edge and face nondegeneracy criteria disagree for {alpha!r}: "
            f"edges say {by_edges}, faces say {by_faces}"
        )
    return by_edges


def require_nondegenerate(K: SimplicialComplex, alpha: Partition) -> None:
    """The one gate of the colored complexes and the colored bounds."""
    if not is_nondegenerate(K, alpha):
        raise DegeneratePartition(f"partition {format_blocks(alpha)} puts an edge in one block")


def _skeleton_adjacency(K: SimplicialComplex) -> list[int]:
    """adj[v] = bitmask of neighbors of v in the 1-skeleton (index 0 padding)."""
    adj = [0] * (K.m + 1)
    for e in K.edges:
        u, v = vertices_of(e)
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return adj


def greedy_coloring(K: SimplicialComplex) -> Partition:
    """Color vertices 1..m in ascending order with the smallest color not
    used by a lower-indexed neighbor.  Deterministic; always nondegenerate."""
    adj = _skeleton_adjacency(K)
    colors = [0] * K.m
    for v in range(1, K.m + 1):
        taken = {colors[u - 1] for u in vertices_of(adj[v]) if u < v}
        c = 1
        while c in taken:
            c += 1
        colors[v - 1] = c
    return partition_from_colors(colors, K.m)


def minimum_coloring(K: SimplicialComplex) -> Partition:
    """Nondegenerate partition with minimal r (chromatic number of the
    1-skeleton), ties broken by the lexicographically smallest color vector.

    Exhaustive backtracking; only sound at small m, hence the hard cap.
    """
    if K.m > MIN_COLORING_CAP:
        raise VertexBudgetExceeded(
            f"minimum_coloring capped at m <= {MIN_COLORING_CAP}, got {K.m}"
        )
    if K.m == 0:
        return Partition(0, ())
    adj = _skeleton_adjacency(K)
    upper = greedy_coloring(K).r
    lower = K.dim + 1  # a face is a clique in the 1-skeleton

    def search(limit: int) -> list[int] | None:
        colors = [0] * (K.m + 1)

        def dfs(v: int) -> bool:
            if v > K.m:
                return True
            used = max(colors[1:v], default=0)
            # a color above used+1 is interchangeable with used+1, so the
            # lexicographically smallest vector never needs it
            for c in range(1, min(limit, used + 1) + 1):
                if all(colors[u] != c for u in vertices_of(adj[v]) if u < v):
                    colors[v] = c
                    if dfs(v + 1):
                        return True
            colors[v] = 0
            return False

        return colors[1:] if dfs(1) else None

    for limit in range(max(lower, 1), upper + 1):
        found = search(limit)
        if found is not None:
            return partition_from_colors(found, K.m)
    raise MismatchFound(
        f"no coloring with at most {upper} colors found, "
        f"though the greedy coloring uses {upper}"
    )


def _as_color_mask(L, r: int | None = None) -> int:
    """L, a mask or a list of colors, as a color mask; a negative mask, a
    color below 1, or a color outside [r] when r is given, raises
    ColorOutOfRange."""
    if isinstance(L, int):
        mask = L
    else:
        mask = 0
        for c in L:
            if c < 1:
                raise ColorOutOfRange(f"color {c} is not positive")
            mask |= 1 << (c - 1)
    if mask < 0:
        raise ColorOutOfRange(f"color mask {mask} is negative")
    if r is not None and mask >> r:
        raise ColorOutOfRange(f"colors {vertices_of(mask)} outside [{r}]")
    return mask


def omega_L(alpha: Partition, L) -> int:
    """Union of the blocks indexed by L ⊆ [r]."""
    mask = _as_color_mask(L, alpha.r)
    out = 0
    for i in vertices_of(mask):
        out |= alpha.blocks[i - 1]
    return out


def colors_of(alpha: Partition, sigma) -> int:
    """Color set I_α(σ) = {i : σ ∩ α_i ≠ ∅} as a bitmask over [r]."""
    s = sigma if isinstance(sigma, int) else mask_of(sigma)
    if s & ~((1 << alpha.m) - 1):
        raise VertexOutOfRange(f"vertices {vertices_of(s)} outside [{alpha.m}]")
    out = 0
    for i, b in enumerate(alpha.blocks):
        if s & b:
            out |= 1 << i
    return out


def kappa(i: int, L) -> int:
    """Sign (-1)^c(i,L) where c(i,L) counts elements of L below i; needs i ∈ L."""
    if i < 1:
        raise ColorOutOfRange(f"color {i} is not positive")
    mask = _as_color_mask(L)
    bit = 1 << (i - 1)
    if not mask & bit:
        raise NotAMember(f"{i} is not a member of {vertices_of(mask)}")
    return -1 if (mask & (bit - 1)).bit_count() % 2 else 1


# --- text and JSON serialization ------------------------------------------

def parse_blocks(text: str, m: int) -> Partition:
    """Parse ``blocks 1 | 2 4 | 3 5`` (the ``blocks`` prefix is optional)."""
    body = text.strip()
    if body.startswith("blocks"):
        body = body[len("blocks"):]
    blocks = []
    for part in body.split("|"):
        if not (vs := part.split()):
            raise PartitionMismatch(f"empty block in {text!r}")
        try:
            blocks.append(mask_of(int(v) for v in vs))
        except ValueError:
            raise ValueError(f"malformed block {part.strip()!r} in {text!r}") from None
    return Partition(m, tuple(blocks))


def format_blocks(alpha: Partition) -> str:
    return "blocks " + " | ".join(
        " ".join(str(v) for v in vertices_of(b)) for b in alpha.blocks
    )


def partition_to_json(alpha: Partition) -> dict:
    return {"blocks": [list(vertices_of(b)) for b in alpha.blocks]}


def partition_from_json(obj: dict, m: int) -> Partition:
    return Partition(m, tuple(mask_of(b) for b in obj["blocks"]))
