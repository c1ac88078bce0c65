"""Replay both guarantee certificates along a complete-linkage run.

The star instance interleaves two far-apart pairs on a line: points at
positions 0, 10, 1, 11 with the reference 2-clustering {0,1} | {2,3},
i.e. {pos 0, pos 10} and {pos 1, pos 11}.  Complete linkage immediately
merges across the reference blocks (pos 0 with pos 1), which is exactly
the situation the certificates exist to control:

- the FAMILY FOREST groups live clusters into families and checks that
  each family's diameter stays below phi_sigma * phi**log2(1.5), which
  telescopes into the k**log2(3) * avg-diam(reference) guarantee;
- the PURE-CLUSTER GRAPH tracks which clusters are still inside a single
  reference block, pays for every impure merge out of an exclusion
  budget of k, and emits a standalone SPANNING-TREE CERTIFICATE for each
  collapsed component, giving the (2k-2) * max-diam(reference) guarantee.

The demo prints every iteration of both replays, re-checks the emitted
spanning-tree certificate in isolation, forges it to prove the checker
can say no, and finishes with a clean run on a larger random instance
certified against exhaustively optimal reference clusterings.

Run from the repository root:  python3 demos/02_certificate_replay.py
"""

from __future__ import annotations

import numpy as np

from linkcert import (
    Clustering,
    DistanceMatrix,
    alg1_bound,
    alg1_trace,
    alg2_bound,
    alg2_trace,
    alpha_k,
    clustering_score,
    fc_diameter_check,
    gen_random_euclidean,
    opt_scores,
    run_linkage,
    spanning_tree_check,
)


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def main() -> None:
    banner("the instance and its reference clustering")
    positions = [0.0, 10.0, 1.0, 11.0]
    D = DistanceMatrix.from_points(np.array([[p] for p in positions]))
    k = 2
    target = Clustering.from_blocks([[0, 1], [2, 3]], D.n)
    print(f"points on a line at {positions} (point id = position index)")
    print(f"reference blocks: {[sorted(b) for b in target.blocks]}"
          f"  (each spans distance 10)")
    print(f"reference avg-diam = {clustering_score('avg-diam', target, D):g}, "
          f"max-diam = {clustering_score('max-diam', target, D):g}")

    dg = run_linkage("CL", D)
    members = dg.members_map()
    print("complete-linkage merges (first n-k = 2 are certified):")
    for m in dg.merges:
        print(f"  merge {m.iteration}: {sorted(members[m.left])} + "
              f"{sorted(members[m.right])} at {m.value:g}")
    print("merge 1 joins points 0 and 2 -- ACROSS the reference blocks.")

    banner("family forest replay")
    # Case legend: a   = a regular family hands one cluster to a singleton
    #              b-sub1 = two singleton families fuse
    #              b-sub2 = a merge internal to one family
    #              b-sub3 = two families fuse, at least one regular
    # The trace writes each family once, in the record of the iteration
    # that creates it; the families it names as children stop being roots.
    t1 = alg1_trace(D, dg, target)
    live = {s["id"]: s for s in t1.initial}
    for r in t1.records:
        roots = ", ".join(
            f"(id={s['id']} phi={s['phi']} phi_sigma={s['phi_sigma']:g} "
            f"diam={s['diam']:g})" for s in live.values())
        print(f"  iteration {r.iteration}: case {r.case}, "
              f"assertions {r.assertions}")
        print(f"    root families before the merge: {roots}")
        for s in r.families:
            for c in s["children"]:
                del live[c]
            live[s["id"]] = s
            print(f"    new family {s['id']} from children {s['children']}")
    print(f"  final-state assertions: {t1.final_assertions}")
    p1, f1 = t1.assertion_counts
    print(f"  assertions passed/failed: {p1}/{f1}")
    assert t1.ok

    # The replay folds a cluster-level complete-link matrix along the merges;
    # the bound check reads the born clusters' diameters off the trace.
    b1 = alg1_bound(t1)
    print(f"  diameters of the clusters born in the replay: {t1.born}")
    print(f"  per-cluster guarantee: diam <= k**log2(3) * avg-diam(ref) "
          f"= {b1.bound:g}")
    assert b1.ok

    banner("pure-cluster graph replay")
    # Case legend: a = a component collapses while one family is still
    # pure; b = none is; c = a lone family goes fully impure and its last
    # pure cluster is banked into the exclusion set.
    t2 = alg2_trace(D, dg, target)
    for r in t2.records:
        print(f"  iteration {r.iteration}: case {r.case}, "
              f"exclusion set size {r.exclusion_set_size}, "
              f"assertions all pass: {not r.failures}")
    print(f"  exclusion additions: {len(t2.additions)} (budget = k = {k})")
    p2, f2 = t2.assertion_counts
    print(f"  assertions passed/failed: {p2}/{f2}")
    assert t2.ok

    banner("the spanning-tree certificate, checked standalone")
    assert len(t2.spanning_certs) == 1
    cert = t2.spanning_certs[0]
    print(f"  emitted at iteration {cert.iteration} for merged family "
          f"{cert.fc_id}:")
    print(f"    component families: {cert.families}")
    for e in cert.edges:
        print(f"    tree edge at iteration {e['iteration']}: weight "
              f"{e['weight']:g} between families {e['endpoints']}")
    print(f"    family diameter snapshots dm = {cert.dm}")
    # |C|-1 edges spanning the component, sorted weights below the sorted
    # snapshot diameters: w(1) <= dm(1) and w(i) <= dm(i-1).
    assert spanning_tree_check(cert) == []
    print("  spanning_tree_check: no failures")
    # The merged family's diameter is bounded by sum(dm) plus the largest
    # len(dm)-2 snapshots again; here 11 <= 10 + 10.
    merged_diam = 11.0
    assert fc_diameter_check(cert, merged_diam) == []
    print(f"  fc_diameter_check(diam={merged_diam:g}): no failures")

    banner("forging the certificate")
    cert.edges[0]["weight"] = 10.5   # claim the cross merge cost 10.5
    failures = spanning_tree_check(cert)
    for f in failures:
        print(f"  {f['assertion']}: {f['detail']}")
    assert any(f["assertion"] == "tree-weight" for f in failures)
    print("  -> a tampered edge weight is caught by the standalone checker")

    banner("bound from the graph replay")
    cert.edges[0]["weight"] = 1.0    # restore
    b2 = alg2_bound(t2)
    print(f"  per-cluster guarantee: diam <= (2k-2) * max-diam(ref) "
          f"= {alpha_k(k).factor:g} * 10 = {b2.bound:g}")
    assert b2.ok and b2.bound == 20.0

    banner("a real instance against exhaustive optima")
    D = gen_random_euclidean(n=12, dim=2, seed=42)
    k = 3
    dg = run_linkage("CL", D)
    ref = opt_scores(D, k)                 # both optima, one enumeration
    ref_av = ref["avg-diam"]               # family forest reference
    ref_dm = ref["max-diam"]               # graph replay reference
    t1 = alg1_trace(D, dg, ref_av.witness)
    t2 = alg2_trace(D, dg, ref_dm.witness)
    b1 = alg1_bound(t1)
    b2 = alg2_bound(t2)
    print(f"  n=12, k=3: enumerated {ref_av.enumerated} partitions for both "
          f"scores, scored {ref_av.scored} of them")
    assert ref_av.scored <= ref_av.enumerated
    print(f"  family forest:      {t1.assertion_counts[0]} assertions, "
          f"bound {b1.bound:.6g}, ok={t1.ok and b1.ok}")
    print(f"  pure-cluster graph: {t2.assertion_counts[0]} assertions, "
          f"{len(t2.spanning_certs)} spanning certs, "
          f"bound {b2.bound:.6g}, ok={t2.ok and b2.ok}")
    assert t1.ok and b1.ok and t2.ok and b2.ok
    for cert in t2.spanning_certs:
        assert spanning_tree_check(cert) == []
    print(f"  optimal max-diam {ref_dm.value:.6g}; every emitted certificate "
          f"re-checks standalone")

    print("\nall checks passed")


if __name__ == "__main__":
    main()
