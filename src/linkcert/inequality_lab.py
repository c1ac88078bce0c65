"""The guarantee exponents, the bound formulas, and the tolerances.

The only owner of ``P_EXP``, ``ALPHA_CAP``, ``RTOL``, ``FINE_RTOL``,
``alpha_k``, the bounds k^{log2 3} * avg-diam (``avg_bound``: CL, AL, MM) and
k^{alpha_k} * max-diam (``dm_bound``: CL; ``growth_bound`` per family), and
``within_bound``.

Two parametric inequalities are checked, plus the supremum scan that pins
down the exponent cap:

* ``check_ineq_avg``: for a, b >= 0 and x, y >= 1 with a*x^p >= b*y^p
  (p = log2(3) - 1), it holds that a*x^p + 2*b*y^p <= (a+b)*(x+y)^p.
* ``check_ineq_2``: for a nondecreasing list a_1..a_l with a_i >= 1, l >= 2,
  and any p at least max over i in 2..l of log_i(2i-2), it holds that
  a_l^p + a_{l-1}^p + 2*(a_1^p + ... + a_{l-2}^p) <= (a_1 + ... + a_l)^p.
* ``alpha_sup``: log_i(2i-2) over i >= 2 is maximised at i = 4 with value
  log_4(6); the tail is dominated via 1 + 1/log2(i) < log_4(6) for i >= 11
  (base-2 logs -- the bound is false in other bases).

Each inequality has one array evaluator (``_avg_terms``, ``_ineq2_sides``):
the samplers call it on their draws, the scalar checks on a one-sample batch.
Inputs outside an inequality's hypothesis raise ``InapplicableSample`` (a skip
signal, distinct from a counterexample).  All exponents are ratios of natural
logs.  These verdicts and the replays' per-cluster bound checks are
``within_bound``: lhs <= rhs * (1 + RTOL), slack on the bound side.  The
spanning-tree and diameter-sum checks are exact; the alignment check, alg1's
phi_sigma re-sum and the supremum check allow ``FINE_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric_core import PreconditionError, _seeded_rng

__all__ = [
    "InapplicableSample",
    "IneqSample",
    "BatchIneqResult",
    "AlphaSupResult",
    "AlphaK",
    "P_EXP",
    "ALPHA_CAP",
    "RTOL",
    "FINE_RTOL",
    "within_bound",
    "avg_bound",
    "dm_bound",
    "growth_bound",
    "alpha_k",
    "ineq2_threshold",
    "check_ineq_avg",
    "check_ineq_2",
    "alpha_sup",
    "sample_ineq_avg",
    "sample_ineq_2",
]

P_EXP = math.log(3) / math.log(2) - 1  # p of ineq-avg and of the phi bound chain
ALPHA_CAP = math.log(6) / math.log(4)  # sup of log_i(2i-2), reached at i = 4
RTOL = 1e-9
FINE_RTOL = 1e-12  # final-ulp slack, where both sides differ only by rounding
N_EXTREMES = 10  # tightest samples a batch keeps
MAX_LEN = 10     # longest list sample_ineq_2 draws
# Peak bytes per sample of sample_ineq_avg, the larger sampler: about sixteen
# float64 arrays of n_samples entries (tracemalloc read 122-129 bytes)
SAMPLE_BYTES = 128
# i values per block of alpha_sup's scan, so its memory does not grow with
# i_max: a few float64 arrays of 512 KB each.
_SCAN_BLOCK = 1 << 16


def within_bound(lhs, rhs, rtol: float = RTOL):
    """lhs <= rhs * (1 + rtol), slack on the bound side only; elementwise on arrays."""
    return lhs <= rhs * (1 + rtol)


def avg_bound(k: int, avg_diam: float) -> float:
    """Family-forest bound k^{log2 3} * avg-diam(target) (CL, AL and MM)."""
    return k ** (P_EXP + 1) * avg_diam


@dataclass(frozen=True)
class AlphaK:
    """Exponent alpha_k and the factor k**alpha_k of the per-cluster bound."""

    k: int
    exponent: float
    factor: float


def alpha_k(k: int) -> AlphaK:
    """alpha_k = log_k(2k-2) for k in {2, 3, 4}, log_4(6) for k > 4.

    The exponent is ``ineq2_threshold(k)``.  For k <= 4 the factor k**alpha_k
    equals 2k-2 exactly, so it is returned as that integer value rather than
    as power-function output.
    """
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    factor = float(2 * k - 2) if k <= 4 else float(k) ** ALPHA_CAP
    return AlphaK(k=k, exponent=ineq2_threshold(k), factor=factor)


def dm_bound(k: int, max_diam: float) -> float:
    """Pure-cluster-graph bound k^{alpha_k} * max-diam(target) (CL only); at
    k = 1 it is max-diam(target), as 1^alpha is 1 for every alpha."""
    return max_diam if k == 1 else alpha_k(k).factor * max_diam


def growth_bound(k: int, max_diam: float, phi: int) -> float:
    """Family-growth bound max-diam(target) * phi^{alpha_k}."""
    return max_diam * phi ** alpha_k(k).exponent


class InapplicableSample(Exception):
    """The inputs violate the inequality's hypothesis: skip, not a failure."""


@dataclass(frozen=True)
class IneqSample:
    inputs: dict
    lhs: float
    rhs: float
    holds: bool
    slack: float          # rhs - lhs; negative beyond tolerance => failure

    def to_row(self) -> dict:
        row = {f"in_{k}": v for k, v in self.inputs.items()}
        row.update(lhs=self.lhs, rhs=self.rhs, holds=self.holds, slack=self.slack)
        return row


def _avg_terms(a, b, x, y):
    """ineq-avg on arrays: a*x^p and b*y^p (its hypothesis), then lhs and rhs."""
    xp, yp = x ** P_EXP, y ** P_EXP
    ax = a * xp
    return ax, b * yp, ax + 2 * b * yp, (a + b) * (x + y) ** P_EXP


def _ineq2_sides(vals, p):
    """ineq-2's lhs and rhs for each row of ``vals`` at its own exponent p."""
    powed = vals ** p[:, None]
    lhs = powed[:, -1] + powed[:, -2] + 2 * powed[:, :-2].sum(axis=1)
    return lhs, vals.sum(axis=1) ** p


def _as_floats(values) -> list[float]:
    """Checked inputs as floats.  An int beyond float64's range is refused,
    as NaN and infinite inputs are."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise PreconditionError("inputs must lie within float64's range") from None


def check_ineq_avg(a: float, b: float, x: float, y: float) -> IneqSample:
    """One sample of the averaged-weight inequality at p = log2(3) - 1."""
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise PreconditionError("a and b must be finite and nonnegative")
    if not (1 <= x < math.inf and 1 <= y < math.inf):
        raise PreconditionError("x and y must be finite and at least 1")
    inputs = {key: np.array([v]) for key, v in zip("abxy", _as_floats((a, b, x, y)))}
    ax, by, lhs, rhs = _avg_terms(**inputs)
    if ax[0] < by[0]:
        raise InapplicableSample(
            f"hypothesis a*x^p >= b*y^p fails: {float(ax[0])!r} < {float(by[0])!r}"
        )
    return _batch_result("ineq-avg", lhs, rhs, inputs).extremes[0]


def ineq2_threshold(length: int) -> float:
    """max over i in 2..length of log_i(2i-2): 1, then log_3(4), then log_4(6)."""
    if length < 2:
        raise PreconditionError("need length >= 2")
    if length == 2:
        return 1.0
    if length == 3:
        return math.log(4) / math.log(3)
    return ALPHA_CAP


def check_ineq_2(a, p: float) -> IneqSample:
    """One sample of the sorted-list inequality at exponent p."""
    a = list(a)
    if len(a) < 2:
        raise PreconditionError("need at least two values")
    if not all(1 <= v < math.inf for v in a):
        raise PreconditionError("all values must be finite and at least 1")
    if not -math.inf < p < math.inf:
        raise PreconditionError("p must be finite")
    if any(a[i] > a[i + 1] for i in range(len(a) - 1)):
        raise PreconditionError("values must be nondecreasing")
    if p < ineq2_threshold(len(a)):
        raise InapplicableSample(
            f"p={p!r} is below the exponent threshold {ineq2_threshold(len(a))!r}"
        )
    *a, p = _as_floats([*a, p])
    inputs = {"a": np.array([a]), "p": np.array([p])}
    lhs, rhs = _ineq2_sides(inputs["a"], inputs["p"])
    return _batch_result("ineq-2", lhs, rhs, inputs).extremes[0]


@dataclass(frozen=True)
class AlphaSupResult:
    i_max: int
    argmax: int
    value: float
    tail_ok: bool


def alpha_sup(i_max: int) -> AlphaSupResult:
    """Scan log_i(2i-2) for 2 <= i <= i_max and dominate the tail.

    Returns the maximiser (expected: 4), the supremum (log_4(6)), and whether
    the tail domination 1 + 1/log2(i) < log_4(6) held for all 11 <= i <= i_max.
    The scan runs over blocks of ``_SCAN_BLOCK`` values of i and keeps the
    first maximiser, as one scan over all of them would.
    """
    if i_max < 4:
        raise PreconditionError("need i_max >= 4 to see the maximiser")
    argmax, value, tail_ok = 0, -math.inf, True
    for start in range(2, i_max + 1, _SCAN_BLOCK):
        i = np.arange(start, min(start + _SCAN_BLOCK, i_max + 1), dtype=np.float64)
        vals = np.log(2 * i - 2) / np.log(i)
        j = int(np.argmax(vals))
        if vals[j] > value:
            argmax, value = int(i[j]), float(vals[j])
        tail = i[max(0, 11 - start):]   # i >= 11
        tail_ok = tail_ok and bool(np.all(1.0 + 1.0 / np.log2(tail) < ALPHA_CAP))
    return AlphaSupResult(i_max=i_max, argmax=argmax, value=value, tail_ok=tail_ok)


@dataclass
class BatchIneqResult:
    name: str
    samples: int
    failures: list[IneqSample] = field(default_factory=list)
    extremes: list[IneqSample] = field(default_factory=list)
    min_rel_slack: float = math.inf

    @property
    def ok(self) -> bool:
        return not self.failures


def sample_ineq_avg(n_samples: int, seed: int = 0) -> BatchIneqResult:
    """Vectorised batch of admissible averaged-weight samples.

    Draws (a, b) >= 0 and (x, y) >= 1 over mixed scales and swaps the pairs
    wherever needed so the hypothesis holds, so every drawn sample counts.
    Every 100th sample probes the symmetric near-equality region a=b, x=y.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be positive")
    rng = _seeded_rng(seed)
    a = rng.uniform(0.0, 10.0, n_samples) * 10.0 ** rng.integers(-2, 3, n_samples)
    b = rng.uniform(0.0, 10.0, n_samples) * 10.0 ** rng.integers(-2, 3, n_samples)
    x = 1.0 + rng.uniform(0.0, 9.0, n_samples) * 10.0 ** rng.integers(-2, 3, n_samples)
    y = 1.0 + rng.uniform(0.0, 9.0, n_samples) * 10.0 ** rng.integers(-2, 3, n_samples)
    probe = np.arange(n_samples) % 100 == 0
    b[probe] = a[probe]
    y[probe] = x[probe]
    ax, by, _, _ = _avg_terms(a, b, x, y)
    swap = ax < by
    a[swap], b[swap] = b[swap], a[swap].copy()
    x[swap], y[swap] = y[swap], x[swap].copy()
    _, _, lhs, rhs = _avg_terms(a, b, x, y)
    return _batch_result("ineq-avg", lhs, rhs, {"a": a, "b": b, "x": x, "y": y})


def sample_ineq_2(n_samples: int, seed: int = 0) -> BatchIneqResult:
    """Vectorised batch of admissible sorted-list samples.

    Lengths are uniform in 2..MAX_LEN; values uniform in [1, 10]; exponents
    mix the exact threshold (the equality-prone edge), the cap log_4(6), and
    a random surplus above the threshold.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be positive")
    rng = _seeded_rng(seed)
    lengths = rng.integers(2, MAX_LEN + 1, n_samples)
    result = BatchIneqResult(name="ineq-2", samples=n_samples)
    for ell in range(2, MAX_LEN + 1):
        m = int((lengths == ell).sum())
        if m == 0:
            continue
        vals = np.sort(rng.uniform(1.0, 10.0, (m, ell)), axis=1)
        ones = rng.random(m) < 0.1
        vals[ones] = 1.0
        thr = ineq2_threshold(ell)
        mode = rng.integers(0, 4, m)
        p = np.where(mode == 0, thr,
                     np.where(mode == 1, max(thr, ALPHA_CAP),
                              thr + rng.uniform(0.0, 2.0, m)))
        lhs, rhs = _ineq2_sides(vals, p)
        part = _batch_result("ineq-2", lhs, rhs, {"a": vals, "p": p})
        result.failures.extend(part.failures)
        result.extremes.extend(part.extremes)
        result.min_rel_slack = min(result.min_rel_slack, part.min_rel_slack)
    result.extremes.sort(key=lambda s: s.slack / max(1.0, abs(s.rhs)))
    result.extremes = result.extremes[:N_EXTREMES]
    return result


def _batch_result(name: str, lhs: np.ndarray, rhs: np.ndarray,
                  inputs: dict) -> BatchIneqResult:
    holds = within_bound(lhs, rhs)
    rel_slack = (rhs - lhs) / np.maximum(1.0, np.abs(rhs))

    def mk(i) -> IneqSample:
        ins = {key: tuple(map(float, arr[i])) if arr.ndim > 1 else float(arr[i])
               for key, arr in inputs.items()}
        return IneqSample(inputs=ins, lhs=float(lhs[i]), rhs=float(rhs[i]),
                          holds=bool(holds[i]), slack=float(rhs[i] - lhs[i]))

    return BatchIneqResult(name=name, samples=len(lhs),
                           failures=[mk(i) for i in np.flatnonzero(~holds)],
                           extremes=[mk(i) for i in np.argsort(rel_slack)[:N_EXTREMES]],
                           min_rel_slack=float(rel_slack.min()))
