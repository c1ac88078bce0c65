"""Finite point sets with pairwise distances: storage, validation, cohesion scores.

Distances for ``n`` points (ids ``0..n-1``) come and go as a packed lower
triangle in row-major order: entry ``(i, j)`` with ``i < j`` sits at index
``j*(j-1)/2 + i``.  ``DistanceMatrix`` keeps one array, the full symmetric
matrix, built once by each constructor and checked and kept by ``_seal``;
all bulk work happens through numpy on it.  ``_submatrix`` owns every gather
of a block from it, and ``_sum``, ``_finite`` and ``_SUM_OVERFLOW`` the rule
for a distance sum past float64's range: inf while kept, raised when read.

``clustering_score`` owns the per-block values of a clustering: each block's
diameter, average distance and radius are read from one submatrix the first
time the clustering is scored, and kept on the ``DistanceMatrix``, keyed
weakly by the ``Clustering``.  Later scores and ``block_diameters`` of that
clustering, or of an equal one, are lookups; the values go when the
clustering does, so ``cohesion`` on arbitrary sets keeps nothing.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "StructuralError",
    "PreconditionError",
    "ResourceGuardError",
    "DistanceMatrix",
    "Clustering",
    "ClusterMatrix",
    "tri_index",
    "tri_size",
    "as_cluster",
    "validate_metric",
    "cohesion",
    "clustering_score",
    "block_diameters",
    "load_instance",
    "dump_instance",
    "encode_json",
    "write_json",
    "write_line",
]

COHESION_MEASURES = ("diam", "avg", "radius")
CLUSTERING_SCORES = ("max-diam", "avg-diam", "max-avg", "max-radius")
_SCORE_MEASURES = {"max-diam": "diam", "avg-diam": "diam", "max-avg": "avg",
                   "max-radius": "radius"}
_SUM_OVERFLOW = "the sum of a cluster's distances overflows float64"


class StructuralError(ValueError):
    """Malformed input: bad matrix shape/values, non-partition clustering, ..."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed its configured size guard."""


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of every seeded routine; a negative seed, which numpy
    rejects, is a usage error that names it."""
    if seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _check_k(n: int, k: int) -> None:
    """The one check that a cluster count k suits n points."""
    if not 1 <= k <= n:
        raise PreconditionError(f"k must be in 1..{n}, got {k}")


def tri_size(n: int) -> int:
    return n * (n - 1) // 2


def tri_index(i: int, j: int) -> int:
    """Index of the unordered pair (i, j), i != j, in the packed triangle."""
    if i == j:
        raise PreconditionError(f"no packed entry for the diagonal pair ({i}, {i})")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


class DistanceMatrix:
    """Pairwise distances for n points.

    Parameters
    ----------
    n : int
        Number of points.
    packed : ndarray
        Lower triangle, row-major, length n(n-1)/2, float64.
    labels : list of str, optional
        Display names; purely cosmetic.

    The one array kept is ``full``, the (n, n) symmetric matrix with a zero
    diagonal and every ``-0.0`` as ``+0.0``, built once by each constructor
    and sealed by ``_seal``; ``packed`` is read back off it, one O(n^2) copy
    per read.  Both are read-only, so the kept block values of scored
    clusterings (``clustering_score``) cannot go stale; they are the only
    mutable state, and a cache: a pickled or copied matrix starts without them.

    Matrices compare as values: equal ``n``, ``labels`` and ``full`` bytes.
    Every distance is finite and no zero is negative, so equal bytes means
    equal distances, and the hash agrees with ``==``.
    """

    def __init__(self, n: int, packed, labels: list[str] | None = None):
        packed = np.asarray(packed, dtype=np.float64)
        if n < 1:
            raise StructuralError(f"need at least one point, got n={n}")
        if packed.shape != (tri_size(n),):
            raise StructuralError(
                f"packed triangle for n={n} must have length {tri_size(n)}, "
                f"got {packed.shape}"
            )
        M = np.zeros((n, n), dtype=np.float64)
        for j in range(1, n):
            M[j, :j] = M[:j, j] = packed[tri_size(j):tri_size(j + 1)]
        self._seal(M, labels)

    def _seal(self, M: np.ndarray, labels) -> "DistanceMatrix":
        """Check and keep ``M``, a fresh symmetric (n, n) array, as ``full``
        with a zero diagonal: the one owner of the stored array's invariants."""
        n = M.shape[0]
        if n < 1:
            raise StructuralError(f"need at least one point, got n={n}")
        np.fill_diagonal(M, 0.0)
        if not (M.min() >= 0.0 and M.max() < math.inf):   # NaN fails both
            bad = np.flatnonzero(~np.isfinite(_pack(M)))
            if bad.size:
                raise StructuralError(f"non-finite distance at packed index {bad[0]}")
            j, i = np.argwhere(np.tril(M < 0))[0]   # row-major (j, i): packed order
            raise StructuralError(f"negative distance at pair ({i}, {j})")
        if labels is not None and len(labels) != n:
            raise StructuralError(f"got {len(labels)} labels for {n} points")
        M += 0.0   # stores -0.0 as +0.0 and keeps every other value
        M.setflags(write=False)
        self.n, self.labels, self.full = n, labels, M
        self._scored = weakref.WeakKeyDictionary()
        return self

    def __repr__(self):
        return (f"DistanceMatrix(n={self.n!r}, packed={self.packed!r}, "
                f"labels={self.labels!r})")

    @property
    def packed(self) -> np.ndarray:
        """The lower triangle, row-major, as a read-only copy of ``full``'s."""
        out = _pack(self.full)
        out.setflags(write=False)
        return out

    def __eq__(self, other):
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return (self.n == other.n and self.labels == other.labels
                and self.full.tobytes() == other.full.tobytes())

    def __hash__(self):
        return hash((self.n, tuple(self.labels or ()), self.full.tobytes()))

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_scored"]   # weak references do not pickle
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.full.setflags(write=False)   # unpickled and deep-copied arrays are writeable
        self._scored = weakref.WeakKeyDictionary()

    @classmethod
    def from_full(cls, matrix, labels=None) -> "DistanceMatrix":
        """Build from a copy of a full square matrix, checking
        shape/symmetry/diagonal (a ``-0.0`` diagonal is accepted)."""
        M = np.array(matrix, dtype=np.float64)   # the copy that is kept
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {M.shape}")
        asym = np.argwhere(M != M.T)
        if asym.size:
            i, j = (int(v) for v in asym[0])
            raise StructuralError(
                f"asymmetric entries at pair ({i}, {j}): {M[i, j]!r} vs {M[j, i]!r}"
            )
        diag = np.flatnonzero(np.diagonal(M) != 0.0)
        if diag.size:
            i = int(diag[0])
            raise StructuralError(f"nonzero diagonal at pair ({i}, {i}): {M[i, i]!r}")
        return cls.__new__(cls)._seal(M, list(labels) if labels else None)

    @classmethod
    def from_points(cls, points) -> "DistanceMatrix":
        """Euclidean distances between rows of a coordinate array, each pair's
        computed once, row by row, straight into ``full``."""
        P = np.asarray(points, dtype=np.float64)
        if P.ndim != 2:
            raise StructuralError(f"expected a 2-d coordinate array, got shape {P.shape}")
        M = np.zeros((P.shape[0],) * 2)
        for j in range(1, P.shape[0]):
            row = M[j, :j]
            diff = P[:j] - P[j]
            M[:j, j] = np.sqrt((diff * diff).sum(axis=1, out=row), out=row)
        return cls.__new__(cls)._seal(M, None)

    def d(self, i: int, j: int) -> float:
        return float(self.full[i, j])

    def scaled(self, lam: float) -> "DistanceMatrix":
        """A copy with every distance multiplied by lam >= 0."""
        if lam < 0:
            raise PreconditionError("scale factor must be nonnegative")
        with np.errstate(invalid="ignore"):   # 0 * inf on the diagonal; _seal zeroes it
            M = self.full * lam
        return DistanceMatrix.__new__(DistanceMatrix)._seal(M, self.labels)

    def to_json(self) -> dict:
        out = {"n": self.n, "dist": self.packed.tolist()}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "DistanceMatrix":
        if not isinstance(data, dict) or "n" not in data or "dist" not in data:
            raise StructuralError("instance JSON needs keys 'n' and 'dist'")
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise StructuralError(f"bad point count {n!r}")
        dist = data["dist"]
        # JSON numbers load as exact ints and floats, which the type-set test
        # passes at C speed; anything else takes the per-element check, which
        # also accepts other int/float subclasses but no bools
        if not isinstance(dist, list) or not (
                set(map(type, dist)) <= {int, float}
                or all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in dist)):
            raise StructuralError("'dist' must be a list of numbers")
        if len(dist) != tri_size(n):
            raise StructuralError(
                f"'dist' for n={n} must have length {tri_size(n)}, got {len(dist)}"
            )
        labels = data.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
            raise StructuralError("'labels' must be a list of strings")
        try:
            packed = np.asarray(dist, dtype=np.float64)
        except OverflowError:  # an int beyond float64's range
            raise StructuralError("'dist' holds a number too large for float64") from None
        return cls(n=n, packed=packed, labels=labels)


def _pack(M: np.ndarray) -> np.ndarray:
    """The lower triangle of a square matrix, row-major."""
    return M[np.tri(M.shape[0], k=-1, dtype=bool)]


def as_cluster(members: Iterable[int], n: int) -> frozenset[int]:
    """Normalise an iterable of point ids (Python or numpy integers, not
    bools) into a validated cluster."""
    try:
        ids = tuple(members)
    except TypeError:
        raise StructuralError(
            f"a cluster must be a list of point ids, got {members!r}") from None
    bad = [x for x in ids if not isinstance(x, (int, np.integer)) or isinstance(x, bool)]
    if bad:
        raise StructuralError(f"cluster point ids must be integers, got {bad[0]!r}")
    S = frozenset(map(int, ids))
    if not S:
        raise StructuralError("clusters must be nonempty")
    if min(S) < 0 or max(S) >= n:
        raise StructuralError(f"cluster {sorted(S)} has ids outside 0..{n - 1}")
    return S


@dataclass(frozen=True)
class Clustering:
    """A partition of 0..n-1 into k nonempty blocks; construction raises
    ``StructuralError`` on anything else."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise StructuralError("a clustering needs at least one block")
        points = set().union(*self.blocks)
        # True and 1.0 hash like 1, so only a type test rejects them (a set
        # of exact ints passes it at C speed); an odd id that equals another
        # id fails the partition test.  ``from_blocks`` has already turned
        # numpy integers into ints.
        if not set(map(type, points)) <= {int}:
            bad = [x for b in self.blocks for x in b
                   if not isinstance(x, int) or isinstance(x, bool)]
            if bad:
                raise StructuralError(
                    f"cluster point ids must be integers, got {bad[0]!r}")
        # a point in two blocks makes n exceed the number of distinct points
        if not all(self.blocks) or points != set(range(self.n)):
            raise StructuralError(
                "blocks must partition 0..n-1 exactly (overlap or missing points)")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def require_n(self, n: int) -> "Clustering":
        """This clustering, after checking that it covers exactly n points."""
        if self.n != n:
            raise StructuralError(
                f"clustering covers {self.n} points but the instance has {n}")
        return self

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Clustering":
        """Blocks normalised by ``as_cluster``, in canonical order (by min member)."""
        bl = sorted((as_cluster(b, n) for b in blocks), key=min)
        return cls(blocks=tuple(bl)).require_n(n)

    def to_json(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


def validate_metric(D: DistanceMatrix, tau: float = 1e-9) -> list[tuple[int, int, int]]:
    """Scan all triples for triangle-inequality violations.

    A triple (i, j, k) is reported when
    ``d(i,k) > d(i,j) + d(j,k) + tau * max(d(i,k), d(i,j) + d(j,k))``,
    i.e. the slack ``tau`` is relative, so verdicts are invariant under
    rescaling all distances.  Each violated inequality is reported once,
    canonically with i < k.

    The scan first screens every pair (i, k) with the min-plus minimum
    ``min_j d(i,j) + d(j,k)`` and runs the exact test above only on the
    pairs where ``d(i,k)`` exceeds it.  No violated triple slips past: the
    slack is >= 0 (or NaN, for 0 * inf), so a flagged triple has
    ``d(i,k) > d(i,j) + d(j,k)`` in float, and then ``d(i,k)`` exceeds the
    minimum too.  ``tau`` must be finite and nonnegative.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise PreconditionError(f"tau must be finite and nonnegative, got {tau!r}")
    return _triangle_violations(D.full, tau) if D.n > 2 else []


# Size of one (rows, n) temporary of the min-plus kernel: 512 KB of float64.
# Of 2^14, 2^16 and 2^18, 2^16 ran fastest at n=199 and at n=500 on a 2-CPU
# Xeon; 2^18 (2 MB) ran 1.7x slower at n=500.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n: int, budget: int = _BLOCK_ELEMENTS):
    """Split rows 0..n-1 of an (n, n) array into (lo, hi) blocks of about
    ``budget`` elements (at least one row each)."""
    step = max(1, budget // n)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _minplus_rows(W: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the min-plus square of W: out[i, k] = min over j of
    W[i, j] + W[j, k], folded over the midpoints j in place, so it needs one
    (hi - lo, n) array besides the result.  A minimum is exact in any order,
    so the fold has the bits of a one-pass reduction."""
    rows = W[lo:hi]
    out = np.empty_like(rows)
    tmp = np.empty_like(rows)
    # A sum that overflows to inf never undercuts a finite entry, so the
    # minimum and every verdict drawn from it stay right without the warning.
    with np.errstate(over="ignore"):
        np.add(rows[:, :1], W[0], out=out)
        for j in range(1, W.shape[0]):
            np.add(rows[:, j:j + 1], W[j], out=tmp)
            np.minimum(out, tmp, out=out)
    return out


def _triangle_violations(M: np.ndarray, tau: float,
                         budget: int = _BLOCK_ELEMENTS) -> list[tuple[int, int, int]]:
    """Violating triples (i, j, k), i < k, sorted, of a symmetric matrix M.
    Each block of i-rows is screened with its min-plus rows; only the pairs
    (i, k), i < k, with d(i,k) above its min-plus minimum can hold a
    violation (see ``validate_metric``), so only those get the exact test, in
    chunks of ``budget // n`` pairs.  Every temporary holds about ``budget``
    elements."""
    n = M.shape[0]
    chunk = max(1, budget // n)
    out = []
    for lo, hi in _row_blocks(n, budget):
        rows, cols = np.nonzero(M[lo:hi] > _minplus_rows(M, lo, hi))
        rows += lo
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        for s in range(0, rows.size, chunk):
            i, k = rows[s:s + chunk], cols[s:s + chunk]
            # Overflow rounds a sum to inf, which no finite d(i,k) exceeds,
            # and tau = 0 times that inf is NaN, which compares false: both
            # verdicts are right, so their warnings are noise.
            with np.errstate(over="ignore", invalid="ignore"):
                via = M[i] + M[k]             # via[p, j] = d(i,j) + d(j,k): M is symmetric
                lhs = M[i, k][:, None]        # lhs[p, .] = d(i,k)
                slack = tau * np.maximum(lhs, via)
                bad = lhs > via + slack       # bad[p, j]
            p, j = np.nonzero(bad)
            i, k = i[p], k[p]
            mid = (j != i) & (j != k)
            out += zip(i[mid].tolist(), j[mid].tolist(), k[mid].tolist())
    out.sort()
    return out


def cohesion(measure: str, S: Iterable[int], D: DistanceMatrix) -> float:
    """Cohesion of a cluster: its diameter, average distance, or radius.

    * ``diam``   -- max pairwise distance
    * ``avg``    -- mean over unordered pairs, 2/(|S|(|S|-1)) * sum
    * ``radius`` -- min over centers c in S of max distance from c

    Singletons score 0 under every measure.  ``avg`` raises
    ``PreconditionError`` when the sum of the distances overflows float64.
    """
    S = as_cluster(S, D.n)
    if measure not in COHESION_MEASURES:
        raise PreconditionError(f"unknown cohesion measure {measure!r}")
    return _finite(_block_cohesion(S, D, (measure,))[measure])


def _submatrix(M: np.ndarray, rows, cols=None) -> np.ndarray:
    """``M[np.ix_(rows, cols)]`` for sequences of indices (``cols`` defaults
    to ``rows``), at about half its cost.  ``M[rows][:, cols]`` comes back in
    Fortran order, and a sum over a block that is not symmetric would then
    add in another order: two takes keep the C order of ``np.ix_``, and so
    every bit."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = rows if cols is None else np.asarray(cols, dtype=np.intp)
    return M.take(rows, 0).take(cols, 1)


def _sum(block: np.ndarray) -> np.float64:
    """Sum of a block of finite distances: inf, without numpy's warning, when
    it passes float64's range, for ``_finite`` to raise on."""
    with np.errstate(over="ignore"):
        return block.sum()


def _finite(value):
    """``value``, drawn from a distance sum; ``PreconditionError`` when the
    sum overflowed to inf."""
    if math.isinf(value):
        raise PreconditionError(_SUM_OVERFLOW)
    return value


def _block_cohesion(S: frozenset[int], D: DistanceMatrix,
                    measures: tuple[str, ...]) -> dict[str, float]:
    """The given measures of a validated cluster, all read from one submatrix
    of its sorted ids.  An ``avg`` whose distance sum overflows float64 comes
    back as inf, for the caller to raise on."""
    if len(S) == 1:
        return dict.fromkeys(measures, 0.0)
    sub = _submatrix(D.full, sorted(S))
    out = {}
    for measure in measures:
        if measure == "diam":
            out[measure] = float(sub.max())
        elif measure == "avg":
            m = len(S)
            out[measure] = float(_sum(sub) / (m * (m - 1)))  # sub counts ordered pairs
        else:
            out[measure] = float(sub.max(axis=1).min())
    return out


class ClusterMatrix:
    """Complete-link distances between the live clusters of a merge sequence
    (dendrogram ids), from D and the merge pairs alone.  A live cluster sits at
    the slot of its smallest point: W[s, s] is its diameter, W[s, t] the largest
    distance between clusters s and t.  Every value is a max over the entries
    of D that ``cohesion("diam", ...)`` scans, so both agree bit for bit."""

    def __init__(self, D: DistanceMatrix):
        self.W = D.full.copy()
        self.slot = list(range(D.n)) + [0] * (D.n - 1)   # cluster id -> slot

    def merge(self, g: int, g2: int, u: int) -> float:
        """Fold cluster u = g | g2 into W; returns diam(u)."""
        W = self.W
        a, b = self.slot[g], self.slot[g2]
        s = self.slot[u] = min(a, b)
        row = np.maximum(W[a], W[b])
        row[s] = max(W[a, a], W[b, b], W[a, b])
        W[s] = row
        W[:, s] = row
        return float(row[s])

    def diam(self, clusters) -> float:
        """Diameter of the union of the given live clusters; 0.0 for none."""
        idx = [self.slot[c] for c in clusters]
        return float(_submatrix(self.W, idx).max()) if idx else 0.0


def _block_values(C: Clustering, D: DistanceMatrix) -> dict[str, tuple[float, ...]]:
    """Every cohesion measure of every block of C, in block order: read from
    one submatrix per block at the first call for C (or an equal clustering)
    and kept on D until C is dropped.  An overflowed ``avg`` is kept as inf,
    so every score that reads it raises."""
    kept = D._scored.get(C)
    if kept is None:
        per_block = [_block_cohesion(b, D, COHESION_MEASURES) for b in C.blocks]
        kept = D._scored[C] = {m: tuple(v[m] for v in per_block)
                               for m in COHESION_MEASURES}
    return kept


def block_diameters(C: Clustering, D: DistanceMatrix) -> tuple[float, ...]:
    """The diameter of each block of C, in block order; the values
    ``clustering_score`` reads, so both agree bit for bit."""
    return _block_values(C.require_n(D.n), D)["diam"]


def clustering_score(score: str, C: Clustering, D: DistanceMatrix) -> float:
    """Aggregate a cohesion measure over the blocks of a clustering.

    ``max-diam``/``max-avg``/``max-radius`` take the worst block;
    ``avg-diam`` averages block diameters (sum of diameters / k).  The block
    values are gathered once per clustering and kept on D (see
    ``_block_values``), so scoring the other names costs lookups.  An
    overflowing sum raises ``PreconditionError``.
    """
    if score not in CLUSTERING_SCORES:
        raise PreconditionError(f"unknown clustering score {score!r}")
    # a Clustering's blocks were checked when it was built
    values = _block_values(C.require_n(D.n), D)[_SCORE_MEASURES[score]]
    if score != "avg-diam":
        return _finite(max(values))
    try:
        return math.fsum(values) / C.k
    except OverflowError:  # finite diameters whose sum is not
        raise PreconditionError("the sum of block diameters overflows float64") from None


def _read_json(path):
    """The JSON value in file ``path``.  A file that is not UTF-8, not JSON,
    or nested too deeply for the decoder raises ``StructuralError`` naming
    the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise StructuralError(f"cannot decode {path}: {exc}") from None


def load_instance(path) -> DistanceMatrix:
    return DistanceMatrix.from_json(_read_json(path))


def dump_instance(D: DistanceMatrix, path) -> None:
    write_json(D.to_json(), path)


# Every document the program writes is a tree that it built itself, so the
# encoder skips the cycle check.  It
# writes the bytes of ``json.dumps``, with the same C encoder.
encode_json = json.JSONEncoder(check_circular=False).encode


def write_json(obj, path) -> None:
    """``obj`` as one unindented JSON line: ``json.dumps(obj)`` and a newline."""
    write_line(encode_json(obj), path)


def write_line(text: str, path) -> None:
    """``text`` and a newline, as the whole file ``path``."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
