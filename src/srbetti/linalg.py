"""Exact ranks of sparse integer maps over the rationals and prime fields.

Every coboundary in the package is a :class:`SparseMap`: a list of sparse
rows, each row a list of (column index, nonzero integer coefficient) pairs
with distinct columns.  The builders produce it straight from face bitmasks
and generator indices, and :func:`rank` is the single elimination kernel.
Rows are reduced one after another against the pivot rows found so far,
each pivot keyed on its largest column index, whatever the field (the
"low" of Chen–Kerber, "Persistent homology computation with a twist",
2011); a map may carry such pivots from an earlier elimination, which its
rows then extend, as the Hochster sweep does from K|ω to K|(ω ∪ v).  The
kernel branches on the field:

* GF(p): sparse dict rows, each pivot row normalised to a unit pivot;
* the rationals: sparse integer rows.  Given a residual list, only ±1 leads
  become pivots and the rows with other leads are set aside; adding the
  residual's rank over F gives the rank over any field F (Dumas–Heckenbach–
  Saunders–Welker, 2003).  Else any lead is a pivot, scaling the rows it meets.

All arithmetic is exact; floating point is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field selector: characteristic 0 (exact rationals) or GF(p).

    ``p == 0`` means the rationals; otherwise p must be a prime below 2**16.
    """

    p: int = 0

    def __post_init__(self):
        if self.p != 0:
            if not (2 <= self.p < 1 << 16) or not _is_prime(self.p):
                raise ValueError(f"not a prime below 2^16: {self.p}")

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a CLI field selector: ``q``, ``f2``, ``f3`` or ``fp:P``."""
        t = text.strip().lower()
        if t in ("q", "qq", "0"):
            return cls(0)
        if t.startswith("fp:"):
            return cls(int(t[3:]))
        if t.startswith("f") and t[1:].isdigit():
            return cls(int(t[1:]))
        raise ValueError(f"unknown field selector: {text!r}")

    def __str__(self):
        return "q" if self.p == 0 else f"f{self.p}"


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


class SparseMap(NamedTuple):
    """A rows x cols integer matrix as ``data[i] = [(column, coefficient), ...]``.

    Columns within a row are distinct and coefficients nonzero.  ``pivots``
    and ``residual`` are an optional elimination state (see :func:`rank`).
    """

    rows: int
    cols: int
    data: list[list[tuple[int, int]]]
    pivots: dict | None = None
    residual: list | None = None


def rank(M: SparseMap, f: FieldSpec) -> int:
    """Exact rank of M over the field f.

    If M carries an elimination state over f (``M.pivots``), its rows are
    reduced against it, those that do not vanish join it, and their number
    is returned.  Rows in the state are never changed, so extending a
    shallow copy leaves the original intact.  Over ℚ, a list ``M.residual``
    keeps the rows whose lead is not ±1 instead, for the caller to rank."""
    p = f.p
    pivots = {} if M.pivots is None else M.pivots
    before = len(pivots)
    if p:
        for row in M.data:
            r = {c: a % p for c, a in row if a % p}
            while r:
                col = max(r)
                pivot = pivots.get(col)
                if pivot is None:
                    inv = pow(r[col], -1, p)
                    pivots[col] = {c: a * inv % p for c, a in r.items()}
                    break
                t = r[col]
                for c, a in pivot.items():
                    x = (r.get(c, 0) - t * a) % p
                    if x:
                        r[c] = x
                    else:
                        del r[c]
        return len(pivots) - before

    # ℚ: with M.residual, the ℤ phase, each row set aside being reduced at
    # every pivot column; a pivot s ≠ ±1 scales the row, its content gcd divided out
    residual, rows, n = M.residual, M.data, before
    while True:
        for row in rows:
            r = dict(row)
            while r:
                col = max(r)
                pivot = pivots.get(col)
                if pivot is None:
                    if residual is None or (t := r[col]) == 1 or t == -1:
                        pivots[col] = r
                        break
                    col = max((c for c in r if c in pivots), default=None)
                    if col is None:
                        residual.append([*r.items()])
                        break
                    pivot = pivots[col]
                s, t = pivot[col], r[col]
                if s == 1 or s == -1:
                    t *= s  # r - (t/s)·pivot, as 1/s == s
                else:
                    r = {c: s * a for c, a in r.items()}
                for c, a in pivot.items():
                    x = r.get(c, 0) - t * a
                    if x:
                        r[c] = x
                    else:
                        del r[c]
                if s != 1 and s != -1 and r:
                    g = gcd(*r.values())
                    r = {c: a // g for c, a in r.items()}
        if not residual or len(pivots) == n:
            return len(pivots) - before
        # a later unit pivot may have taken a column of a row set aside before it
        rows, residual[:], n = residual[:], [], len(pivots)
