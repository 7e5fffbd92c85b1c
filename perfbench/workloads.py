"""The benchmark's workloads: seeded inputs, timed operations and output oracles.

Every operation goes through a module attribute of the package
(``srbetti.betti_table``, ``srbetti.cli.main``) at call time, so the traced
run sees the wrappers that ``tracer.install`` rebinds.

How inputs are drawn.  The cost of one operation varies several-fold between
complexes from one generator, so plain random inputs would make the
run-to-run spread depend on how many large complexes a seed happens to draw.
Each workload therefore has a cost proxy computed from the complex, and
``TARGETS`` holds the proxy at the quantiles (j + 1/2)/13, j = 0..12, of the
generator's distribution.  Cycle c of a run draws a pool of 10 candidates
per target, each from its own stream ``"<workload>/<seed>/<c>/<i>"``, and runs,
for each target in ``ORDER``, the unused pool member whose proxy is nearest.
Every run thus sees the same mix of sizes in the same order, spread over the
body of the distribution; the top 4 % of the proxy is not sampled.  With 13
clusters, the 50th, 75th and 90th percentiles of operation time fall inside a
cluster rather than on the edge between two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import speed
import srbetti
import srbetti.cli

SimplicialComplex = srbetti.SimplicialComplex
SPARSE_TRIANGLES = 12
SPARSE_EDGES = 10


def sparse_complex(rng: random.Random) -> SimplicialComplex:
    """A 2-dimensional complex on m = 11 (two thirds) or 12 vertices: random
    triangles, random edges and every vertex.  An operation at m = 12 takes
    about twice as long; with an even mix the median operation would sit on
    the gap between the two sizes and jump between seeds."""
    m = rng.choice((11, 11, 12))
    verts = range(1, m + 1)
    triangles = {srbetti.mask_of(rng.sample(verts, 3)) for _ in range(SPARSE_TRIANGLES)}
    edges = {srbetti.mask_of(rng.sample(verts, 2)) for _ in range(SPARSE_EDGES)}
    singletons = {1 << (v - 1) for v in verts}
    return srbetti.from_facets(m, sorted(triangles | edges | singletons))


def dense_complex(rng: random.Random) -> SimplicialComplex:
    return srbetti.random_complex(10, 0.6, rng.getrandbits(32))


def verify_complex(rng: random.Random) -> SimplicialComplex:
    return srbetti.random_complex(rng.choice((6, 7, 8)), 0.5, rng.getrandbits(32))


def subcomplex_face_total(K: SimplicialComplex) -> int:
    """Σ_ω |K|ω| over all ω ⊆ [m]: a face σ lies in 2^(m-|σ|) of them."""
    return sum(1 << (K.m - f.bit_count()) for f in K.faces)


def greedy_colors(K: SimplicialComplex) -> int:
    """Colors of a first-fit coloring of the 1-skeleton in vertex order.

    The benchmark's own, so that which inputs are picked does not depend on
    the program's coloring code."""
    color: list[int] = []
    for v in range(K.m):
        taken = {color[u] for u in range(v) if (1 << u | 1 << v) in K.faces}
        color.append(next(c for c in range(K.m) if c not in taken))
    return max(color, default=-1) + 1


def verify_cost(K: SimplicialComplex) -> int:
    """The bound checks sweep every ω ⊆ [m]; the Tor routes sweep every color
    set L ⊆ [r].  The weight 3 is a least-squares fit of operation time."""
    return subcomplex_face_total(K) + 3 * (len(K.faces) << greedy_colors(K))


# --- operations and oracles ------------------------------------------------

HOCHSTER_FIELDS = ("q", "f2")
VERIFY_FIELDS = ("q", "f2", "f3")


def betti_op(K: SimplicialComplex, field: str):
    return srbetti.betti_table(K, srbetti.FieldSpec.parse(field))


def verify_op(K: SimplicialComplex, field: str):
    facets = ", ".join(" ".join(map(str, srbetti.vertices_of(f))) for f in K.facet_list())
    argv = ["verify", "--facets", facets, "--m", str(K.m), "--field", field]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = srbetti.cli.main(argv)
    return code, out.getvalue()


def _subset_sums(values: list[int], m: int) -> list[int]:
    """out[ω] = Σ_{σ ⊆ ω} values[σ] (zeta transform over the subset lattice)."""
    out = list(values)
    for j in range(m):
        bit = 1 << j
        for om in range(1 << m):
            if om & bit:
                out[om] += out[om ^ bit]
    return out


def reduced_euler(K: SimplicialComplex) -> list[int]:
    """χ̃(K|ω) for every ω, from face counts alone (the empty face counts -1)."""
    signs = [0] * (1 << K.m)
    for f in K.faces:
        signs[f] = 1 if f.bit_count() % 2 == 0 else -1
    return [-x for x in _subset_sums(signs, K.m)]


# Stands in for ℚ in the sampled recomputation: the rank of an integer matrix
# over ℚ and over GF(p) differ only if p divides one of its elementary
# divisors, and complexes on at most 12 vertices have no torsion that large.
LARGE_PRIME = 2_147_483_647
SAMPLED_OMEGAS = 16


def _rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitsets."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def _rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse rows {column: value}."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def reduced_cohomology(faces: list[int], p: int) -> dict[int, int]:
    """dim H̃^q over GF(p) of the complex with these faces (∅ included), from
    boundary matrices built and eliminated here rather than by srbetti."""
    by_card: dict[int, list[int]] = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    ranks = {}  # ranks[k]: the boundary from faces of cardinality k to k - 1
    for k, upper in by_card.items():
        if k == 0:
            continue
        index = {f: i for i, f in enumerate(by_card[k - 1])}
        rows = []
        for f in upper:
            row, sign, rest = {}, 1, f
            while rest:
                bit = rest & -rest
                row[index[f ^ bit]] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        if p == 2:
            ranks[k] = _rank_gf2([sum(1 << c for c in row) for row in rows])
        else:
            ranks[k] = _rank_mod_p(rows, p)
    return {k - 1: len(fs) - ranks.get(k + 1, 0) - ranks.get(k, 0) for k, fs in by_card.items()}


def check_hochster(K: SimplicialComplex, tables: list) -> list[bool]:
    """Per-op verdicts for the Betti tables of K over ℚ and GF(2).

    Check 1: Σ_i (-1)^(|ω|-i-1) β_{i,ω} = χ̃(K|ω) for every ω.
    Check 2: β over GF(2) ≥ β over ℚ for every entry (universal coefficients).
    Check 3: on 16 ω (15 seeded from the complex, and [m]), every β_{i,ω}
    equals |ω|-i-1 cohomology recomputed here, over GF(2) and over GF(p) for
    a large p.  Checks 1 and 2 cannot see a wrong rank: any rank error
    cancels in the Euler characteristic and repeats in both fields.
    None of the checks calls srbetti's rank code.  A table that is None (the
    operation raised) fails; check 2 then fails both operations.
    """
    chi = reduced_euler(K)
    rng = random.Random(input_digest(K))
    sampled = rng.sample(range(1, K.full_mask), SAMPLED_OMEGAS - 1) + [K.full_mask]
    ok = []
    for table, p in zip(tables, (LARGE_PRIME, 2)):
        if table is None:
            ok.append(False)
            continue
        alt = [0] * (1 << K.m)
        at: dict[int, dict[int, int]] = {}
        for (i, om), beta in table.entries.items():
            alt[om] += (-1) ** ((om.bit_count() - i - 1) % 2) * beta
            at.setdefault(om, {})[i] = beta
        recomputed = all(
            at.get(om, {}) == {
                om.bit_count() - deg - 1: d
                for deg, d in reduced_cohomology([f for f in K.faces if f & ~om == 0], p).items()
                if d
            }
            for om in sampled
        )
        ok.append(alt == chi and recomputed)
    q, f2 = tables
    if q is None or f2 is None or any(
        f2.get(i, om) < beta for (i, om), beta in q.entries.items()
    ):
        ok = [False, False]
    return ok


def check_verify(_K: SimplicialComplex, outputs: list) -> list[bool]:
    """Exit code 0, ``"pass": true`` and every stabilization flag true."""
    ok = []
    for out in outputs:
        if out is None:
            ok.append(False)
            continue
        code, text = out
        try:
            payload = json.loads(text)
            passed = payload["pass"] is True and all(
                s["stabilized"] for s in payload["threeway"]["stabilized"]
            )
        except (json.JSONDecodeError, KeyError, TypeError):
            passed = False
        ok.append(code == 0 and passed)
    return ok


# --- input properties --------------------------------------------------------

def input_digest(K: SimplicialComplex) -> str:
    """Short digest of a complex: its vertex count and sorted facet masks."""
    return hashlib.sha256(f"{K.m}:{sorted(K.facets)}".encode()).hexdigest()[:16]


def _bit_clear(j: int, m: int) -> int:
    """Bitset over ω ⊆ [m] of the ω without vertex j+1: runs of 2^j ones, period 2^(j+1)."""
    width = 1 << j
    return ((1 << width) - 1) * (((1 << (1 << m)) - 1) // ((1 << (2 * width)) - 1))


def _upward_closure(bits: int, m: int) -> int:
    """Bitset over ω ⊆ [m]: set every superset of a set member."""
    for j in range(m):
        bits |= (bits & _bit_clear(j, m)) << (1 << j)
    return bits


def input_properties(K: SimplicialComplex) -> dict:
    """Properties that the cone-skip and dual-route optimisations exploit.

    ``cones``: ω with an apex v ∈ ω such that σ ∪ v ∈ K for every σ ∈ K|ω,
    so H̃(K|ω) = 0.  ``faces_sub``/``dual_min``: Σ_ω |K|ω| and
    Σ_ω min(|K|ω|, |(K|ω)^∨|), where |(K|ω)^∨| = 2^|ω| - |K|ω|.
    """
    m = K.m
    full = (1 << (1 << m)) - 1
    cones = 0
    for j in range(m):
        vbit = 1 << j
        blocked = 0
        for f in K.faces:
            if not f & vbit and f | vbit not in K.faces:
                blocked |= 1 << f
        cones |= full & ~_bit_clear(j, m) & ~_upward_closure(blocked, m)
    indicator = [0] * (1 << m)
    for f in K.faces:
        indicator[f] = 1
    counts = _subset_sums(indicator, m)
    return {
        "omegas": 1 << m,
        "cones": cones.bit_count(),
        "faces_sub": sum(counts),
        "dual_min": sum(min(c, (1 << om.bit_count()) - c) for om, c in enumerate(counts)),
        "faces": len(K.faces),
        "r": srbetti.greedy_coloring(K).r,
    }


# --- workload table ------------------------------------------------------------

# Proxy at the quantiles (j + 1/2)/13 over 4000 candidates drawn from the
# streams "targets/0" .. "targets/3999".
TARGETS = {
    "hochster-dense": (26368, 28832, 30336, 31424, 32416, 33384, 34328, 35344, 36360, 37508, 38720, 40400, 43512),
    "hochster-sparse": (30464, 31232, 31744, 32256, 32768, 32768, 33280, 33792, 34816, 66560, 68608, 69632, 71680),
    "tor-verify": (396, 688, 1160, 1436, 1968, 2544, 3910, 4860, 6288, 9016, 14416, 19008, 43340),
}
# Run order of the targets within a cycle: alternating between the low and
# the high end, so that a run that stops mid-cycle still sees a balanced mix.
ORDER = (6, 12, 0, 9, 3, 10, 2, 7, 5, 11, 1, 8, 4)
POOL_PER_TARGET = 10


@dataclass(frozen=True)
class Workload:
    name: str
    candidate: Callable[[random.Random], SimplicialComplex]
    cost: Callable[[SimplicialComplex], int]
    fields: tuple[str, ...]
    op: Callable
    check: Callable[[SimplicialComplex, list], list[bool]]
    # percentile reported as op_tail_ms: the highest with >= 10 samples beyond
    # it in a run of the length BENCHMARK.json sets; a run goes on until it
    # has that many
    tail: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hochster-dense", dense_complex, subcomplex_face_total,
                 HOCHSTER_FIELDS, betti_op, check_hochster, 75),
        Workload("hochster-sparse", sparse_complex, subcomplex_face_total,
                 HOCHSTER_FIELDS, betti_op, check_hochster, 75),
        Workload("tor-verify", verify_complex, verify_cost,
                 VERIFY_FIELDS, verify_op, check_verify, 90),
    )
}


def candidate(workload: Workload, seed: int, cycle: int, i: int) -> SimplicialComplex:
    return workload.candidate(random.Random(f"{workload.name}/{seed}/{cycle}/{i}"))


@lru_cache(maxsize=None)
def cycle_picks(workload: Workload, seed: int, cycle: int) -> tuple[int, ...]:
    """Pool indices of the inputs of one cycle, in run order."""
    targets = TARGETS[workload.name]
    pool = {
        i: workload.cost(candidate(workload, seed, cycle, i))
        for i in range(POOL_PER_TARGET * len(targets))
    }
    picks = []
    for j in ORDER:
        best = min(pool, key=lambda i: abs(pool[i] - targets[j]))
        picks.append(best)
        del pool[best]
    return tuple(picks)


def input_key(workload: Workload, seed: int, k: int) -> tuple[int, int]:
    """(cycle, pool index) of input k of a run."""
    cycle, pos = divmod(k, len(ORDER))
    return cycle, cycle_picks(workload, seed, cycle)[pos]


def input_complex(workload: Workload, seed: int, k: int) -> SimplicialComplex:
    return candidate(workload, seed, *input_key(workload, seed, k))


def run_repetition(workload: Workload, K: SimplicialComplex) -> dict:
    """Time every operation on K, then (untimed) check the outputs.

    ``op_s`` holds each operation's time scaled to the reference speed with
    the calibrations taken on either side of it; ``raw_s`` the measured time.
    """
    outputs, op_s, raw_s, errors = [], [], [], []
    before = speed.calibrate()
    for field in workload.fields:
        t0 = time.perf_counter()
        try:
            out = workload.op(K, field)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = None
            errors.append(f"{field}: {type(exc).__name__}: {exc}")
        raw_s.append(time.perf_counter() - t0)
        after = speed.calibrate()
        op_s.append(speed.scaled(raw_s[-1], before, after))
        before = after
        outputs.append(out)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = workload.check(K, outputs)
    return {
        "op_s": op_s,
        "raw_s": raw_s,
        "failed": sum(not x for x in ok),
        "errors": errors,
        "rss_kib": rss_kib,
    }
