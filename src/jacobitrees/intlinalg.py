"""Exact sparse linear algebra over Z.

The workhorse is snf_from_rows, sparse elimination on unit pivots: each
+-1 pivot splits off an invariant factor 1, and only the small residue of
rows without one is diagonalised by Euclid, one column at a time.
IntLattice, an incremental row-Hermite-form accumulator (xgcd pivoting,
arbitrary precision), gives the canonical residues of `reduce`.  Ranks too
large for exact elimination are taken modulo two primes near 2^20 by
rank_modp_rows_dense, a blocked engine that reduces a block of rows against
the pivot rows with one float64 matmul; the products are exact integers
while p^2 * cols < 2^53.  Everything is deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from ._value import _set, _Value
from .trees import Tree, TreeVector

class LinalgError(ValueError):
    pass


Row = dict[int, int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class SnfResult(_Value):
    """Invariant factors and cokernel structure of an integer matrix."""

    __slots__ = ("invariant_factors", "rank", "cols", "probabilistic")

    def __init__(
        self, invariant_factors: list[int], rank: int, cols: int,
        probabilistic: bool = False,
    ):
        if rank != len(invariant_factors):
            raise LinalgError("rank must equal the number of invariant factors")
        if rank > cols:
            raise LinalgError("rank must not exceed the number of columns")
        if not all(type(d) is int and d >= 1 for d in invariant_factors):
            raise LinalgError("invariant factors must be integers >= 1")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise LinalgError("invariant factors must form a divisibility chain")
        _set(self, "invariant_factors", invariant_factors)
        _set(self, "rank", rank)
        _set(self, "cols", cols)
        _set(self, "probabilistic", probabilistic)

    @property
    def free_rank(self) -> int:
        return self.cols - self.rank

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.invariant_factors if d > 1]

    def to_json_obj(self) -> dict:
        return {
            "invariant_factors": self.invariant_factors,
            "rank": self.rank,
            "cols": self.cols,
            "free_rank": self.free_rank,
            "torsion": self.torsion,
            "probabilistic": self.probabilistic,
        }


class IntLattice:
    """Row-style Hermite accumulator for a sublattice of Z^n."""

    def __init__(self, ambient: int):
        self.n = ambient
        self.pivot_rows: dict[int, Row] = {}  # pivot column -> row

    def add(self, vec: Row) -> None:
        vec = {j: v for j, v in vec.items() if v}
        for j, v in vec.items():
            if not 0 <= j < self.n:
                raise LinalgError(f"coordinate {j} out of range 0..{self.n - 1}")
        # vec is reduced dense (reduce's lattices have at most 5! columns);
        # order keeps its keys as a dict would, one that drops to 0 and comes
        # back going last, so each row stored is what dict steps give it
        n, pivots = self.n, self.pivot_rows
        while vec:
            dense = [0] * n
            for c, v in vec.items():
                dense[c] = v
            order = dict.fromkeys(vec)
            j = min(vec)
            row = pivots.get(j)
            while row is not None and dense[j] % row[j] == 0:
                q = dense[j] // row[j]
                for c, v in row.items():
                    x = dense[c]
                    dense[c] = x - q * v
                    if not x:
                        order[c] = order.pop(c, None)
                while j < n and not dense[j]:
                    j += 1
                if j == n:
                    return
                row = pivots.get(j)
            vec = {c: dense[c] for c in order if dense[c]}
            if row is None:
                if vec[j] < 0:
                    vec = {c: -v for c, v in vec.items()}
                pivots[j] = vec
                return
            a, b = row[j], vec[j]
            x, y, g = _xgcd(a, b)
            # a negative gcd would leave remainders in (g, 0] on reduce
            s = -1 if g < 0 else 1
            pivots[j] = _row_comb(row, s * x, vec, s * y)
            vec = _row_comb(row, -(b // g), vec, a // g)

    def add_many(self, vecs: Iterable[Row]) -> None:
        for v in vecs:
            self.add(v)

    def normalize(self) -> None:
        """One pass from the last pivot to the first, taking the entries above
        each pivot into [0, pivot).  A later step can move an entry already
        taken, so this is not the canonical Hermite form: reaching it changes
        reduce's residues and waits on their re-pin (ROADMAP item 1)."""
        for j in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[j]
            a = row[j]
            for k, other in self.pivot_rows.items():
                if k < j and j in other:
                    q = other[j] // a
                    if q:
                        _subtract(other, row, q)

    def reduce(self, vec: Row) -> Row:
        """Canonical representative of vec modulo the lattice."""
        vec = {j: v for j, v in vec.items() if v}
        for j in sorted(self.pivot_rows):
            if j in vec:
                row = self.pivot_rows[j]
                q = vec[j] // row[j]
                if q:
                    _subtract(vec, row, q)
        return vec


def _subtract(vec: Row, row: Row, q: int) -> None:
    """vec -= q * row in place: kept keys stay, new ones follow in row order."""
    for c, v in row.items():
        nv = vec.get(c, 0) - q * v
        if nv:
            vec[c] = nv
        else:
            vec.pop(c, None)


def _row_comb(r1: Row, c1: int, r2: Row, c2: int) -> Row:
    out: Row = {}
    if c1:
        for c, v in r1.items():
            out[c] = c1 * v
    for c, v in r2.items():
        nv = out.get(c, 0) + c2 * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Invariant factors of a nonnegative diagonal, each dividing the next.

    Ones divide everything, so only the other entries go through the
    quadratic pairwise loop; a quotient can have thousands of unit pivots.
    """
    import math

    ones = diagonal.count(1)
    ds = [d for d in diagonal if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = math.gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
    return [1] * ones + sorted(ds)


def snf_from_rows(rows: Iterable[Row], cols: int) -> SnfResult:
    """Smith normal form data of the lattice spanned by the given rows.

    Elimination on unit pivots, as in the elimination phase of Dumas,
    Saunders and Villard (J. Symb. Comput. 2001): the pivot is a +-1 entry
    of a shortest row that has one, in its column with the fewest entries.
    It clears its column exactly and splits off an invariant factor 1.  A
    row without a +-1 entry is parked until a pivot changes it.  The rows
    left when none has one, the residue, are diagonalised by Euclid: the
    least entry of one column is the pivot until no other row keeps a
    remainder there, then the least remainder of its row, if any; a new
    column is the one with the fewest entries.  Each step splits off a row
    or shrinks the residue pivot, so the loop ends.
    """
    mat: dict[int, Row] = {}  # the active rows by id
    held: dict[int, list[int]] = {}  # column -> ids of rows that held it
    count = [0] * cols  # column -> number of active rows holding it
    units: defaultdict[int, set[int]] = defaultdict(set)  # length -> rows with a +-1

    def settle(i: int) -> None:
        """Drops new or changed row i if it is empty, or files it by its
        length if it has a +-1 entry; else it stays parked."""
        row = mat[i]
        if not row:
            del mat[i]
        elif 1 in row.values() or -1 in row.values():
            units[len(row)].add(i)

    for i, row in enumerate(rows):
        row = {j: v for j, v in row.items() if v}
        for j in row:
            if not 0 <= j < cols:
                raise LinalgError(f"coordinate {j} out of range 0..{cols - 1}")
            held.setdefault(j, []).append(i)
            count[j] += 1
        if row:
            mat[i] = row
            settle(i)

    def clear(pi: int, pj: int) -> bool:
        """Subtracts multiples of row pi from the other rows holding column
        pj; whether one of them keeps a remainder there."""
        row = mat[pi]
        a, left = row[pj], False
        for i in held[pj]:
            other = mat.get(i)
            if i == pi or other is None or pj not in other:
                continue  # a stale id
            q = other[pj] // a
            if q:
                units[len(other)].discard(i)
                for j, v in row.items():
                    nv = other.get(j, 0) - q * v
                    if not nv:
                        del other[j]
                        count[j] -= 1
                        continue
                    if j not in other:
                        count[j] += 1
                        held[j].append(i)
                    other[j] = nv
                settle(i)
            left = left or pj in other
        return left

    def split_off(pi: int, pj: int) -> int:
        """Removes row pi, alone in column pj; its pivot."""
        del held[pj]
        row = mat.pop(pi)
        for j in row:
            count[j] -= 1
        return abs(row[pj])

    diagonal: list[int] = []
    pj = None  # the column of the residue pivot
    while mat:
        k = min((k for k, rs in units.items() if rs), default=None)
        if k is not None:
            pi = units[k].pop()
            uj = min((j for j, v in mat[pi].items() if v in (1, -1)), key=count.__getitem__)
            clear(pi, uj)
            diagonal.append(split_off(pi, uj))
            continue
        if pj is None or not count[pj]:
            pj = min((j for j in range(cols) if count[j]), key=count.__getitem__)
        _, pi = min((abs(mat[i][pj]), i) for i in held[pj] if pj in mat.get(i, ()))
        if clear(pi, pj):
            continue
        # column pj holds row pi alone, so column operations change only
        # row pi: they take its other entries modulo the pivot
        row = mat[pi]
        for j in [j for j in row if j != pj]:
            row[j] %= row[pj]
            if not row[j]:
                del row[j]
                count[j] -= 1
        if len(row) > 1:
            settle(pi)
            pj = min((j for j in row if j != pj), key=lambda j: abs(row[j]))
        else:
            diagonal.append(split_off(pi, pj))
            pj = None
    factors = _divisibility_chain(diagonal)
    return SnfResult(invariant_factors=factors, rank=len(factors), cols=cols)


# ---------------------------------------------------------------------------
# tree-basis wrappers


def vector_to_row(v: TreeVector, index: dict) -> Row:
    row: Row = {}
    for t, c in v.terms:
        j = index.get(t)
        if j is None:
            raise LinalgError(f"vector term {t} not in the given basis")
        row[j] = row.get(j, 0) + c
    return {j: c for j, c in row.items() if c}


def cokernel(relations: Iterable[TreeVector], basis: Sequence[Tree]) -> SnfResult:
    """Structure of Z[basis] / <relations>."""
    index = {t: i for i, t in enumerate(basis)}
    return snf_from_rows(
        (vector_to_row(v, index) for v in relations), cols=len(basis)
    )


#: Primes near 2^20.  A block of rows is reduced against the float64 pivot
#: rows with one matmul, whose sums of up to cols products below p^2 stay
#: exact while p^2 * cols < 2^53: up to cols = 8191 for these primes.
DENSE_PRIMES = (1048573, 1048583)

#: Rows reduced per matmul by rank_modp_rows_dense (below 2^10, see
#: _gauss_jordan).
MODP_BLOCK_ROWS = 128


def _front(buf, rows: int, cols: int):
    """A contiguous rows x cols array on the front of a flat work buffer."""
    return buf[: rows * cols].reshape(rows, cols)


class _ModpEchelon:
    """Pivot rows mod p in reduced echelon form, stored compactly.

    Pivot row i has a 1 in column piv[i], zeros in the other pivot columns
    and F[i] in the free columns.  Only F, r x (cols - r), is stored, in a
    flat float64 buffer of cols^2 / 4 entries that is updated in place.
    """

    def __init__(self, p: int, cols: int):
        import numpy as np

        self.p = p
        self.piv: list[int] = []
        self.free = np.arange(cols)
        self.flat = np.empty(cols * cols // 4)

    @property
    def rank(self) -> int:
        return len(self.piv)

    def add_block(self, x, work) -> None:
        """Extend the span by the rows of x (entries in [0, p), float64).

        x is contiguous and is overwritten, and so are the two flat float64
        buffers in work, each of x.size entries.
        """
        import numpy as np

        p, r, f, m = self.p, len(self.piv), len(self.free), len(x)
        if not f:
            return  # full column rank
        # X[:, piv] and X[:, free] side by side in work[0]
        c = _front(work[0], m, r)
        xf = _front(work[0][m * r :], m, f)
        np.take(x, self.free, axis=1, out=xf, mode="clip")
        if r:
            # X -= X[:, piv] @ P on the free columns; the pivot columns
            # become zero.  Exact below 2^53.
            np.take(x, self.piv, axis=1, out=c, mode="clip")
            t = np.matmul(c, self.flat[: r * f].reshape(r, f), out=_front(work[1], m, f))
            np.subtract(xf, t, out=xf)
        # reduced into [0, p) in int64, where % is cheaper
        y = _front(work[1].view(np.int64), m, f)
        np.copyto(y, xf, casting="unsafe")
        y %= p
        rows, qs = _gauss_jordan(y, p)
        if not rows:
            return
        k = len(rows)
        if r + k > x.shape[1]:
            raise LinalgError("rank exceeded column count")
        keep = np.delete(np.arange(f), qs)
        f2 = f - k
        # the new pivot rows on the remaining free columns, where x was
        new = _front(x.reshape(-1), k, f2)
        np.copyto(new, y[np.ix_(rows, keep)])
        # fold them into the old rows, F[:, keep] - F[:, qs] @ new, in row
        # chunks; the rows shrink from f to f2 entries, so chunk s is read
        # before its new place [s * f2, ...) is written
        chunk = len(work[0]) // f
        for s in range(0, r, chunk):
            h = min(chunk, r - s)
            old = self.flat[s * f : (s + h) * f].reshape(h, f)
            a = np.take(old, keep, axis=1, out=_front(work[0], h, f2), mode="clip")
            b = np.take(old, qs, axis=1, out=_front(work[0][h * f2 :], h, k), mode="clip")
            t = np.matmul(b, new, out=_front(work[1], h, f2))
            np.subtract(a, t, out=a)
            ai = _front(work[1].view(np.int64), h, f2)
            np.copyto(ai, a, casting="unsafe")
            ai %= p
            self.flat[s * f2 : (s + h) * f2] = ai.reshape(-1)
        self.flat[r * f2 : (r + k) * f2] = new.reshape(-1)
        self.piv.extend(int(q) for q in self.free[qs])
        self.free = self.free[keep]


def _gauss_jordan(y, p: int) -> tuple[list[int], list[int]]:
    """Reduced echelon form of the int64 block y mod p, in place.

    Returns the indices of the pivot rows and their pivot columns.  Entries
    start in [0, p) and are reduced lazily: an update changes an entry by
    less than p^2 < 2^53, and a row takes at most len(y) < 2^10 updates
    between two reductions, so entries stay below 2^63.
    """
    import numpy as np

    rows: list[int] = []
    qs: list[int] = []
    for i in range(len(y)):
        row = y[i]
        row %= p
        nz = np.flatnonzero(row)
        if not nz.size:
            continue
        j = int(nz[0])
        # y[i] is zero left of j, so updates touch columns j.. only
        tail = row[j:]
        tail *= pow(int(tail[0]), -1, p)
        tail %= p
        col = y[:, j] % p
        col[i] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            sub = y[hit, j:]
            sub -= col[hit, None] * tail
            y[hit, j:] = sub
        rows.append(i)
        qs.append(j)
    y %= p
    return rows, qs


def rank_modp_rows_dense(rows: Iterable[Row], cols: int) -> dict[int, int]:
    """Rank of the row span modulo each of DENSE_PRIMES.

    Blocked elimination after Dumas, Giorgi and Pernet (FFLAS-FFPACK): the
    rows are read MODP_BLOCK_ROWS at a time, and each block is reduced
    against the pivot rows with one matmul (see _ModpEchelon).  numpy is
    imported here, not at module level, so that importing the CLI stays
    cheap.
    """
    import numpy as np

    if max(DENSE_PRIMES) ** 2 * cols >= 2**53:
        raise LinalgError(f"{cols} columns unsafe for exact float64 reduction")
    block = MODP_BLOCK_ROWS
    echelons = [_ModpEchelon(p, cols) for p in DENSE_PRIMES]
    xbuf = np.empty(block * cols)
    work = [np.empty(block * cols) for _ in range(2)]

    def flush(entries: list[tuple[int, int, int]], m: int) -> None:
        ri, ci, vals = zip(*entries)
        x = _front(xbuf, m, cols)
        for ech in echelons:
            x.fill(0.0)
            x[ri, ci] = [v % ech.p for v in vals]
            ech.add_block(x, work)

    entries: list[tuple[int, int, int]] = []  # (row in block, column, value)
    m = 0
    for row in rows:
        for j, v in row.items():
            if not 0 <= j < cols:
                raise LinalgError(f"coordinate {j} out of range 0..{cols - 1}")
            entries.append((m, j, v))
        m += 1
        if m == block:
            if entries:
                flush(entries, m)
            entries, m = [], 0
    if entries:
        flush(entries, m)
    return {ech.p: ech.rank for ech in echelons}

