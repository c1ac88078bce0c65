"""Four linkage rules, one tiny instance, every merge inspected.

Walks through agglomerative clustering on four points on a line at
positions 0, 1, 10, 11: two tight pairs separated by a gap.  Shows how
complete (CL), single (SL), average (AL), and minimax (MM) linkage value
the same pair of clusters differently, how the deterministic tie rule
picks a merge when values are equal, how to cut a dendrogram at k
clusters, and how to check that a dendrogram is a CL run.

Run from the repository root:  python3 demos/01_linkage_basics.py
"""

from __future__ import annotations

import numpy as np

from linkcert import (
    Dendrogram,
    DistanceMatrix,
    MergeRecord,
    check_complete_linkage,
    clustering_score,
    extract_clustering,
    linkage_distance,
    run_linkage,
)
from linkcert.linkage_engine import TIE_RULE


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def print_merges(dg, label: str) -> None:
    members = dg.members_map()
    print(f"{label}:")
    for m in dg.merges:
        left = sorted(members[m.left])
        right = sorted(members[m.right])
        print(f"  merge {m.iteration}: {left} + {right} "
              f"at value {m.value:g} -> cluster id {m.result}")


def main() -> None:
    banner("the instance")
    positions = [0.0, 1.0, 10.0, 11.0]
    D = DistanceMatrix.from_points(np.array([[p] for p in positions]))
    print(f"four points on a line at {positions}")
    print("distance matrix:")
    for row in D.full:
        print("  " + "  ".join(f"{v:5g}" for v in row))

    banner("one pair of clusters, four valuations")
    # A = the left pair, B = the right pair.  Cross distances are
    # {9, 10, 10, 11}, and the union {0, 1, 10, 11} has eccentricities
    # 11, 10, 10, 11 -- so the four rules give four different answers.
    A, B = {0, 1}, {2, 3}
    for method, expect in (("SL", 9.0), ("AL", 10.0), ("MM", 10.0), ("CL", 11.0)):
        v = linkage_distance(method, A, B, D)
        print(f"  {method}({sorted(A)}, {sorted(B)}) = {v:g}")
        assert v == expect
    print("  SL takes the min cross distance, CL the max, AL the mean,")
    print("  and MM the best eccentricity inside the union.")

    banner("full agglomerations")
    # All four methods agree on this instance until the final forced
    # merge, where the value IS the rule: 9 (SL), 10 (AL and MM), 11 (CL).
    finals = {}
    for method in ("CL", "SL", "AL", "MM"):
        dg = run_linkage(method, D)
        print_merges(dg, method)
        finals[method] = dg.merges[-1].value
    assert finals == {"CL": 11.0, "SL": 9.0, "AL": 10.0, "MM": 10.0}

    banner("deterministic ties")
    # An equilateral triple: every pair sits at distance 1, so the first
    # merge is a three-way tie.  The rule picks the candidate whose
    # (smallest member, then other smallest member) is lexicographically
    # least -- here {0} + {1} -- making reruns bit-for-bit identical.
    E = DistanceMatrix.from_full(np.array([[0.0, 1.0, 1.0],
                                           [1.0, 0.0, 1.0],
                                           [1.0, 1.0, 0.0]]))
    dg = run_linkage("CL", E)
    members = dg.members_map()
    first = dg.merges[0]
    print(f"  tie rule = {TIE_RULE!r}")
    print(f"  first merge: {sorted(members[first.left])} + "
          f"{sorted(members[first.right])} at {first.value:g}")
    assert (members[first.left], members[first.right]) == (
        frozenset({0}), frozenset({1}))

    banner("cutting the dendrogram")
    dg = run_linkage("CL", D)
    C = extract_clustering(dg, k=2)
    print(f"  CL cut at k=2: {[sorted(b) for b in C.blocks]}")
    for score in ("max-diam", "avg-diam", "max-avg", "max-radius"):
        print(f"    {score:10s} = {clustering_score(score, C, D):g}")
    assert [sorted(b) for b in C.blocks] == [[0, 1], [2, 3]]
    assert clustering_score("max-diam", C, D) == 1.0

    banner("checking a CL run, whatever its tie-break")
    # check_complete_linkage folds a dendrogram's merges and, before each,
    # checks that the recorded value is the pair's largest cross distance,
    # that no live pair is cheaper, by that distance or by the diameter of
    # its union (so CL is the min-union-diameter rule), and that union
    # diameters never shrink.  Any CL tie-break passes: on the tied instance
    # above, d(0,1) = d(10,11) = 1, and merging the right pair first is as
    # good a CL run as the engine's.
    dg = run_linkage("CL", D)
    other = Dendrogram(4, "CL", (MergeRecord(2, 3, 1.0, 4, 1),
                                 MergeRecord(0, 1, 1.0, 5, 2),
                                 MergeRecord(5, 4, 11.0, 6, 3)))
    for label, run in (("the engine's CL run", dg), ("the other tie-break", other)):
        print_merges(run, label)
        violations = check_complete_linkage(run, D)
        print(f"  violated claims: {violations}")
        assert violations == []
    # SL merges the same pairs here, but records the least cross distance;
    # labelled CL, its last merge fails on its value alone
    sl = run_linkage("SL", D)
    (violation,) = check_complete_linkage(Dendrogram(4, "CL", sl.merges), D)
    print(f"  SL's run labelled CL: {violation}")
    assert violation == {"iteration": 3, "claim": "value",
                         "expected": 11.0, "observed": 9.0}

    print("\nall checks passed")


if __name__ == "__main__":
    main()
