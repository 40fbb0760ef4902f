"""Exact integer and rational linear algebra over lattices.

Everything in this package runs on Python ints and ``fractions.Fraction``;
no floating point enters anywhere.  Vectors are plain tuples: integer
tuples for lattice points, Fraction tuples for rational coefficients.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction
LatticeVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


class InvariantViolation(RuntimeError):
    """An exact internal identity failed; this signals a construction bug,
    not bad user input."""


def lattice_vector(entries: Iterable[int]) -> LatticeVector:
    """The entries as a tuple: the one rule for vector entries, raising
    ``ValueError`` unless there is one at least and each is a non-bool int."""
    v = tuple(entries)
    if not v:
        raise ValueError("lattice vectors must have dimension >= 1")
    for e in v:
        if isinstance(e, bool) or not isinstance(e, int):
            raise ValueError(f"lattice vector entries must be ints, got {e!r}")
    return v


def rational_vector(entries: Iterable[int | Fraction]) -> RationalVector:
    v = tuple(map(ensure_rational, entries))
    if not v:
        raise ValueError("rational vectors must have dimension >= 1")
    return v


def ensure_rational(value: int | Fraction) -> Fraction:
    if type(value) is Fraction:
        return value  # immutable, so no copy is needed
    if isinstance(value, float):
        raise TypeError("floating point is not allowed; use Fraction")
    if isinstance(value, (bool, str)):
        raise TypeError(f"rationals must be ints or Fractions, got {value!r}")
    return Fraction(value)


def check_int(value: int, name: str, least: int) -> int:
    """``value`` when it is an int, not a bool, and at least ``least``: the
    one rule for every integer argument (d, r, n_1, n, bound, jobs and a
    fan document's ambient_dim)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return value


def dot(u: Sequence[int | Fraction], v: Sequence[int | Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def primitive(v: Sequence[int]) -> LatticeVector:
    """Divide a nonzero integer vector by the gcd of its entries.

    The result is the unique primitive vector that is a positive multiple
    of the input; signs are preserved.
    """
    vec = lattice_vector(v)
    g = math.gcd(*(abs(e) for e in vec))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(e // g for e in vec)


def is_primitive(v: Sequence[int]) -> bool:
    """True when the entries have gcd 1; the gcd of a zero vector is 0."""
    return math.gcd(*lattice_vector(v)) == 1


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in
    place.  Returns the pivot columns in order, the sign of the row swaps
    and the last pivot (1 when there is none).

    For each column in turn, the first row from the next free one down
    with a nonzero entry is swapped up to it (none: the column is
    skipped), and every other row i becomes (p row_i - f row_r) / q, for
    the new pivot p in row r, row i's entry f in its column and the
    previous pivot q (first 1).  The loop stops once every row holds a
    pivot.  So the k-th pivot sits in row k, each pivot column is zero off
    its pivot, and the rows below the last pivot are zero.

    Every division is exact.  Let A be the input with its rows in their
    final order, B its block on rows 1..k and the first k pivot columns,
    and p_k = det B.  After k pivots, entry (i, j), for every column j,
    skipped ones included, is an integer minor of A: det B with its i-th
    column replaced by A's column j when i <= k (Cramer: the rows 1..k are
    p_k B^-1 A), and the minor on rows 1..k, i and the pivot columns and j
    when i > k (Bareiss, *Math. Comp.* 22, 1968).  Step k+1 takes (p, f)
    from these minors with p = p_{k+1}, and p row_i - f row_r is p_k times
    the minors at k+1, so the division by q = p_k is exact; nothing here
    asks that column j hold a pivot.  When the first k columns are all
    pivots, the k-th pivot is the leading k x k minor of the rows as
    swapped.

    Two cases skip work with the same result.  A row with f = 0 becomes
    p row_i / q, which is row_i itself when p = q, so it is left as it is.
    When q = 1 (the first pivot, or a later pivot of 1) the quotient by q
    is the numerator, so no division is made.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    m = len(rows)
    r = 0
    for c in range(len(rows[0]) if m else 0):
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(m):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f == 0 and p == prev:
                continue
            if prev == 1:
                rows[i] = [p * x - f * y for x, y in zip(row, pivot_row)]
            else:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, sign, prev


def solve_in_basis(
    generators: Sequence[Sequence[int]],
    target: Sequence[int | Fraction],
) -> RationalVector | None:
    """Express ``target`` as an exact rational combination of ``generators``.

    The generators must be linearly independent over Q (else ValueError).
    Returns the unique coefficient vector when the target lies in their
    span, and None otherwise.

    The target is scaled to integers by the lcm of its denominators, and
    ``_bareiss`` reduces [G | t] with the generators as columns: they are
    independent exactly when their k columns are all pivots, and the
    target lies in their span exactly when its column is not.  Row j < k
    then reads p on the diagonal and p x_j scale in the target column.
    """
    gens = [lattice_vector(g) for g in generators]
    if not gens:
        raise ValueError("empty generator list")
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        raise ValueError("generators have mixed dimensions")
    tgt = rational_vector(target)
    if len(tgt) != d:
        raise ValueError("target dimension mismatch")
    k = len(gens)
    scale = math.lcm(*(t.denominator for t in tgt))
    rows = [[g[i] for g in gens] + [int(tgt[i] * scale)] for i in range(d)]
    pivots, _, _ = _bareiss(rows)
    if pivots[:k] != list(range(k)):
        raise ValueError("generators not independent")
    if len(pivots) > k:
        return None
    return tuple(Fraction(rows[j][k], rows[j][j] * scale) for j in range(k))


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: by ``_bareiss``, the last
    pivot times the sign of the row swaps, or 0 when a column has no
    pivot."""
    rows = [[int(e) for e in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    pivots, sign, last = _bareiss(rows)
    return sign * last if len(pivots) == n else 0


def inverse(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """The integer inverse (adj(A), det(A)) of a square integer matrix A,
    with adj(A) A = det(A) I, or None when A is singular.

    At order 3, adj(A) is the transpose of the matrix of the nine 2 x 2
    cofactors C_ij, and det(A) = sum_j a_1j C_1j.  Entry (i, j) of
    adj(A) A is sum_k C_ki a_kj, the Laplace expansion along column i of A
    with column i replaced by column j: det(A) when j = i, and 0 otherwise,
    as two columns are then equal.

    At every other order, ``_bareiss`` reduces [A | I], whose n pivots
    fall in the first n columns exactly when A is nonsingular.  The row
    operations amount to a matrix M with M [A | I] = [D I | M], so
    M = D A^-1, where D, the last pivot, is the determinant of A with its
    rows swapped as the pivots were chosen: D = s det(A) for the sign s of
    the swaps.  Hence adj(A) = s M and det(A) = s D.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 3:
        (a, b, c), (d, e, f), (g, h, k) = matrix
        c11, c12, c13 = e * k - f * h, f * g - d * k, d * h - e * g
        base = a * c11 + b * c12 + c * c13
        if base == 0:
            return None
        adj = [
            [c11, c * h - b * k, b * f - c * e],
            [c12, a * k - c * g, c * d - a * f],
            [c13, b * g - a * h, a * e - b * d],
        ]
        return adj, base
    rows = [list(row) + [0] * n for row in matrix]
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots, sign, last = _bareiss(rows)
    if pivots[:n] != list(range(n)):
        return None
    if sign == 1:
        return [row[n:] for row in rows], last
    return [[-x for x in row[n:]] for row in rows], -last


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (U, D, V) with U A V = D.

    U and V are unimodular; D is diagonal with nonnegative entries, each
    dividing the next.
    """
    a = [[int(e) for e in row] for row in matrix]
    m = len(a)
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def sub_row(src: int, dst: int, q: int) -> None:
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def sub_col(src: int, dst: int, q: int) -> None:
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                sub_row(t, i, a[i][t] // p)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                sub_col(t, j, a[t][j] // p)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        offender = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % p != 0),
            None,
        )
        if offender is not None:
            sub_row(offender[0], t, -1)
            continue
        t += 1
    return u, a, v


def parallelepiped_points(
    generators: Sequence[Sequence[int]],
) -> list[tuple[LatticeVector, RationalVector]]:
    """All lattice points of the half-open box spanned by the generators.

    For independent generators g_1..g_k this returns every lattice point
    sum(c_i g_i) with 0 <= c_i < 1, paired with its coefficient vector and
    sorted by point; the count equals the index of the generated sublattice
    in the saturation of its span.  The zero point (with zero coefficients)
    is always included.

    The points are read off the Smith normal form U A V = D of the matrix A
    whose columns are the generators, in integers only.  A rational c gives
    a lattice point A c exactly when U A c = D (V^-1 c) is integral, that is
    when V^-1 c = combo / D for an integer vector combo; modulo Z^k, which
    V preserves, the cosets are the c = V (combo / D) with 0 <= combo_j <
    D_j.  Every D_j divides the largest invariant factor D_k, so these
    coefficients are integer numerators over D_k, and reducing them mod D_k
    moves the coset into the box.  The point A nums / D_k is then integral,
    and its division is checked to be exact.
    """
    gens = [lattice_vector(g) for g in generators]
    d = len(gens[0])
    k = len(gens)
    if any(len(g) != d for g in gens):
        raise ValueError("generators have mixed dimensions")
    if k > d:
        raise ValueError("generators not independent")
    columns = [[g[i] for g in gens] for i in range(d)]
    _, dg, v = smith_normal_form(columns)
    diag = [dg[i][i] for i in range(k)]
    if any(x == 0 for x in diag):
        raise ValueError("generators not independent")
    top = diag[-1]
    # numerators over top of the coefficients c * (column j of V) / D_j
    multiples = [
        [tuple(c * (top // x) * v[i][j] for i in range(k)) for c in range(x)]
        for j, x in enumerate(diag)
    ]

    points: list[tuple[LatticeVector, RationalVector]] = []
    for parts in itertools.product(*multiples):
        nums = [sum(column) % top for column in zip(*parts)]
        pt = []
        for row in columns:
            q, rem = divmod(sum(map(operator.mul, row, nums)), top)
            if rem:
                raise InvariantViolation("box coset representative is not a lattice point")
            pt.append(q)
        points.append((tuple(pt), tuple(Fraction(n, top) for n in nums)))
    if len({pt for pt, _ in points}) != len(points):
        raise InvariantViolation("box enumeration produced a duplicate coset")
    points.sort(key=lambda item: item[0])
    return points
