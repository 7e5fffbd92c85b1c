"""Exact ranks of sparse integer maps over the rationals and prime fields.

Every coboundary in the package is a :class:`SparseMap`: a list of sparse
rows, each row a list of (column index, nonzero integer coefficient) pairs
with distinct columns.  The builders produce it straight from face bitmasks
and generator indices, and :func:`rank` is the single elimination kernel,
one elimination over ℤ for every field:

* rows are reduced one after another against the pivot rows found so far,
  each keyed on its largest column index (the "low" of Chen–Kerber,
  "Persistent homology computation with a twist", 2011).  Only a ±1 lead
  makes a pivot; a row with another lead is set aside, reduced at every
  pivot column.  A map may carry the pivots and rows set aside of an
  earlier elimination, which its rows extend, as the Hochster sweep does
  from K|ω to K|(ω ∪ v);
* the field is read only to count: ±1 pivots stay independent over every
  field, so the rank over GF(p) is their number plus the number of entries
  of a diagonal form of the rows set aside that p does not divide, and over
  ℚ plus every entry (Dumas–Heckenbach–Saunders–Welker, 2003).

All arithmetic is exact; floating point is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        tail = t[3:] if t.startswith("fp:") else t[1:] if t[:1] == "f" and t[1:].isdigit() else ""
        try:
            p = int(tail)
        except ValueError:  # a tail that is no integer, or neither fp:P nor fN
            raise ValueError(f"unknown field selector: {text!r}") from None
        if p == 0:  # a prime field's selector names a prime: ℚ is only q, qq or 0
            raise ValueError(f"not a prime below 2^16: {p}")
        return cls(p)

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

    If M carries an elimination state, ``M.pivots`` and the list ``M.residual``
    of rows set aside, its rows extend it and the number of new pivots, the
    same over every field, is returned; the caller ranks the residual over f.
    Rows in the state are never changed, so extending copies leaves it intact."""
    if (M.pivots is None) != (M.residual is None):
        raise ValueError("an elimination state needs both pivots and a residual list")
    pivots, residual = ({}, []) if M.pivots is None else (M.pivots, M.residual)
    rows, before, n = M.data, len(pivots), len(pivots)
    while True:
        for row in rows:
            r = dict(row)
            while r:
                col = max(r)
                pivot = pivots.get(col)
                if pivot is None:
                    if (t := r[col]) == 1 or t == -1:
                        pivots[col] = r
                        break
                    col = max((c for c in r if c in pivots), default=None)
                    if col is None:
                        residual.append([*r.items()])
                        break
                    pivot = pivots[col]
                t = r[col] * pivot[col]  # r - (r[col]/s)·pivot, as s = ±1 = 1/s
                for c, a in pivot.items():
                    x = r.get(c, 0) - t * a
                    if x:
                        r[c] = x
                    else:
                        del r[c]
        if not residual or len(pivots) == n:
            break
        # a later unit pivot may have taken a column of a row set aside before it
        rows, residual[:], n = residual[:], [], len(pivots)
    if M.pivots is not None:
        return len(pivots) - before
    return len(pivots) + sum(1 for d in _diagonal(residual) if not f.p or d % f.p)


def _diagonal(rows: list[list[tuple[int, int]]]) -> list[int]:
    """The entries of a diagonal form of the integer rows, reached by unimodular
    row and column operations, each step pivoting on an entry of least |value|."""
    rows, out = [dict(r) for r in rows if r], []
    while rows:
        _, i, col = min((abs(a), i, c) for i, r in enumerate(rows) for c, a in r.items())
        pivot, s = rows[i], rows[i][col]
        for r in rows:  # row operations leave a remainder mod s in the pivot's column
            if r is not pivot and col in r:
                t = r[col] // s
                for c, a in pivot.items():
                    if x := r.get(c, 0) - t * a:
                        r[c] = x
                    else:
                        del r[c]
        if not any(col in r for r in rows if r is not pivot):  # column operations then
            if rest := {c: a % s for c, a in pivot.items() if a % s}:  # change the pivot row only
                rows[i] = {**rest, col: s}
            else:
                out.append(s)
                rows[i] = {}
        rows = [r for r in rows if r]
    return out
