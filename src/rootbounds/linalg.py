"""Small exact linear algebra over the rationals and integers.

Everything here works on tuples/lists of Fractions or ints and performs no
rounding.  One Bareiss fraction-free elimination (Math. Comp. 22, 1968),
``_bareiss``, is behind the determinant, the rank, the pivot rows and
columns behind the rank, integer null vectors and the square solver; only
the null vectors of 1 x 2 and 2 x 3 matrices, the normals of lines and of
planes in 3-space, are written out as their cofactors instead.  A row
holding Fractions is first scaled to integers by the lcm of its
denominators, so the elimination itself runs on Python ints, and an all-int
input gives an int result.  A tiny phase-one simplex decides the exact
feasibility question of :func:`nonneg_solution_exists` in low dimension.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import InternalError, ParamError

Vector = tuple[Fraction, ...]


def to_vec(xs: Sequence) -> Vector:
    return tuple(Fraction(x) for x in xs)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(map(operator.mul, a, b))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(map(operator.sub, a, b))


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[Sequence[int]], int | None]:
    """The rows as int sequences, each multiplied by the lcm of its
    denominators, and the product of those multipliers; None in its place
    when every entry already was an int."""
    if {type(x) for r in rows for x in r} <= {int}:
        return list(rows), None
    m: list[Sequence[int]] = []
    scale = 1
    for r in rows:
        fr = [Fraction(x) for x in r]
        lcm = math.lcm(*(x.denominator for x in fr))
        m.append([x.numerator * (lcm // x.denominator) for x in fr])
        scale *= lcm
    return m, scale


def _bareiss(m: list, ncols: int) -> tuple[list[int], list[int], int, list]:
    """Bareiss elimination of the first ``ncols`` columns of the int rows m.

    Each column takes the first remaining row with a nonzero entry as its
    pivot.  Returns the pivot rows and columns in pivot order, the last
    pivot (1 if none), which is the determinant of the submatrix on them,
    and the rows left without a pivot over the columns after ``ncols``.
    """
    live = list(range(len(m)))
    row_ids: list[int] = []
    col_ids: list[int] = []
    prev = 1
    # elimination on a shrinking block: by Sylvester's identity every entry
    # of the block is a minor of the input, so the division by the previous
    # pivot is exact.  A column without a pivot is part of no later minor
    # and is dropped.
    for col in range(ncols):
        for pivot, row in enumerate(m):
            if row[0]:
                break
        else:
            m = [row[1:] for row in m]
            continue
        pv, *tail = m.pop(pivot)
        row_ids.append(live.pop(pivot))
        col_ids.append(col)
        m = [[(pv * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in m]
        prev = pv
    return row_ids, col_ids, prev, m


def pivots(rows: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[int]]:
    """Indices of the rows and of the columns that carry a pivot in Bareiss
    elimination, in pivot order.

    Each column takes the first remaining row with a nonzero entry, so the
    pivot rows are independent, every other row lies in their span, and the
    submatrix on the pivot rows and columns is nonsingular.
    """
    m, _ = _integer_rows(rows)
    row_ids, col_ids, _, _ = _bareiss(m, len(m[0]) if m else 0)
    return row_ids, col_ids


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(pivots(rows)[0])


def det(rows: Sequence[Sequence[Fraction]]) -> int | Fraction:
    """Exact determinant: the last Bareiss pivot, signed by the parity of
    the pivot-row order; an int for an all-int matrix, else a Fraction."""
    m, scale = _integer_rows(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ParamError("determinant of a non-square matrix")
    order, _, d, _ = _bareiss(m, n)
    if len(order) < n:
        d = 0
    elif order != sorted(order):  # mostly each column pivots on its first row
        d *= (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return d if scale is None else Fraction(d, scale)


def null_vector(rows: Sequence[Sequence[Fraction]]) -> tuple[int, ...] | None:
    """An integer c != 0 with A c = 0 for the k x (k + 1) matrix A of the
    rows, None when A has rank < k: the cofactors of A, up to one common
    sign.  For k = 1 and k = 2 (the cross product) they are written out;
    above, they are the I part of the one row left once the k columns of
    A^T are eliminated in [A^T | I_(k+1)], minors of [A^T | I].  The sign
    is no part of the contract: the two forms can differ by it, and every
    caller fixes its own (a hull facet by its interior point, a lower
    facet normal by its height component, a solution by a ratio)."""
    m, _ = _integer_rows(rows)
    k = len(m)
    if any(len(r) != k + 1 for r in m):
        raise ParamError("null vector of a matrix that is not k x (k + 1)")
    if k == 1:
        (a, b), = m
        c: tuple[int, ...] = (-b, a)
    elif k == 2:
        (a0, a1, a2), (b0, b1, b2) = m
        c = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    else:
        return _bareiss_null_vector(m)
    return c if any(c) else None


def _bareiss_null_vector(m: list[Sequence[int]]) -> tuple[int, ...] | None:
    """``null_vector`` of the k x (k + 1) int rows m by elimination."""
    k = len(m)
    t = [[r[j] for r in m] + [0] * j + [1] + [0] * (k - j) for j in range(k + 1)]
    _, col_ids, _, left = _bareiss(t, k)
    if len(col_ids) < k:
        return None
    return tuple(left[0])


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """Solve A x = b exactly for square A; None when A is singular.  The
    null vector c of [A | b] is None or has c[n] = 0 iff A is singular, and
    otherwise gives x = -c[:n] / c[n]."""
    n = len(rows)
    c = null_vector([list(r) + [b] for r, b in zip(rows, rhs, strict=True)])
    if c is None or not c[n]:
        return None
    return tuple(Fraction(-x, c[n]) for x in c[:n])


def gram_solve(basis: Sequence[Vector], target: Sequence[Fraction]) -> Vector:
    """Coefficients y with (B^T B) y = target for independent columns B."""
    g = [[dot(bi, bj) for bj in basis] for bi in basis]
    y = solve_square(g, list(target))
    if y is None:
        raise ParamError("gram matrix singular: basis not independent")
    return y


# ---------------------------------------------------------------------------
# Exact phase-one simplex feasibility
# ---------------------------------------------------------------------------


def _phase_one_feasible(eq_rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    # Feasibility of {x >= 0 : M x = q} with q >= 0, via artificial variables
    # and Bland's rule.
    nrows = len(eq_rows)
    if nrows == 0:
        return True
    ncols = len(eq_rows[0])
    # tableau columns: original vars, artificials, rhs
    total = ncols + nrows
    tab = [row[:] + [Fraction(0)] * nrows + [rhs[i]] for i, row in enumerate(eq_rows)]
    for i in range(nrows):
        tab[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(nrows)]
    # objective: minimize sum of artificials; reduced costs via z-row
    z = [Fraction(0)] * (total + 1)
    for i in range(nrows):
        for c in range(total + 1):
            z[c] += tab[i][c]
    # artificial columns start with cost contribution 1 each; subtract basis cost
    for i in range(nrows):
        z[ncols + i] -= Fraction(1)

    max_pivots = 200 * (total + nrows + 1)
    for _ in range(max_pivots):
        enter = next((c for c in range(total) if z[c] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[r][total] / tab[r][enter], basis[r], r)
            for r in range(nrows)
            if tab[r][enter] > 0
        ]
        if not ratios:
            raise InternalError("phase-one objective unbounded; malformed tableau")
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for r in range(nrows):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[leave])]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, tab[leave])]
        basis[leave] = enter
    else:
        raise InternalError("simplex failed to terminate")
    return z[total] == 0


def nonneg_solution_exists(
    constraint_rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> bool:
    """Exact feasibility of {y >= 0 : row . y >= rhs_j for every row}.

    Decided through the Gale/Farkas alternative: the system is infeasible
    exactly when some nonnegative combination lambda of the rows has
    componentwise-nonpositive sum but positive combined rhs.  The alternative
    is itself checked with a phase-one simplex whose row count is the
    (small) variable dimension, keeping the tableau tiny even for many
    constraints.
    """
    rows = [to_vec(r) for r in constraint_rows]
    c = to_vec(rhs)
    if not rows:
        return True
    n = len(rows[0])
    k = len(rows)
    # Alternative system: lambda >= 0, sum lambda_j d_j + s = 0 (s >= 0 slack),
    # sum lambda_j c_j = 1.
    eq_rows: list[list[Fraction]] = []
    q: list[Fraction] = []
    for i in range(n):
        row = [rows[j][i] for j in range(k)] + [Fraction(0)] * n
        row[k + i] = Fraction(1)
        # flip rows so the rhs is 0 with sum <= 0 encoded as equality+slack
        eq_rows.append(row)
        q.append(Fraction(0))
    eq_rows.append([c[j] for j in range(k)] + [Fraction(0)] * n)
    q.append(Fraction(1))
    farkas = _phase_one_feasible(eq_rows, q)
    return not farkas
