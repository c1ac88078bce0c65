"""A sampled probe of the paper's aligned-class condition, kept for tests.

A linkage method and a cohesion measure fit together when, for disjoint
clusters A and B, cost(A u B) <= max{cost(A), cost(B), f(A, B)}, with f the
method's value and cost the measure (condition iii).  ``check_alignment``
samples that condition on random cluster pairs; criterion 7 of the
acceptance suite and the engine tests read its verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from linkcert.inequality_lab import FINE_RTOL, within_bound
from linkcert.linkage_engine import linkage_distance
from linkcert.metric_core import DistanceMatrix, cohesion


@dataclass
class AlignmentReport:
    samples: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_alignment(method: str, measure: str, D: DistanceMatrix,
                    sample_pairs: int, seed: int = 0) -> AlignmentReport:
    """Sample condition iii on ``sample_pairs`` random disjoint cluster pairs
    (A, B) of D's points, both names given as the library takes them.

    The comparison is ``within_bound`` with the final-ulp slack ``FINE_RTOL``:
    mean-based costs can overshoot pure maxima by rounding.  Every fourth
    sample forces |A| = 1, where a singleton's zero cost leaves only f(A, B)
    to bound the union (SL with diam breaks the condition there).
    """
    n = D.n
    rng = np.random.default_rng(seed)
    report = AlignmentReport(samples=sample_pairs)
    for s in range(sample_pairs):
        perm = rng.permutation(n)
        sa = 1 if s % 4 == 0 else int(rng.integers(1, n))
        sb = int(rng.integers(1, n - sa + 1))
        A = frozenset(int(x) for x in perm[:sa])
        B = frozenset(int(x) for x in perm[sa:sa + sb])
        fab = linkage_distance(method, A, B, D)
        cu = cohesion(measure, A | B, D)
        bound = max(cohesion(measure, A, D), cohesion(measure, B, D), fab)
        if not within_bound(cu, bound, FINE_RTOL):
            report.violations.append({"condition": "iii", "A": sorted(A),
                                      "B": sorted(B), "lhs": cu, "rhs": bound})
    return report
