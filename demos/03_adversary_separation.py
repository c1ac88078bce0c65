"""Single linkage can be quadratically bad; complete linkage cannot.

The separation family on n = 2k-1 points is rigged so that single
linkage keeps extending one chain: two anchors a, b at distance B, chain
points x_i at (i-1)(B-eps) from both anchors and from each other in
steps of B-eps, and k-1 outliers y_j mutually at B+eps but d_out >> B
from everything else.  Every nearest available merge (values B-eps,
B-eps, ...) glues the chain onto {a, b}, so the single-linkage
k-clustering contains the block {a, b, x_2..x_(k-1)} of diameter
max(B, (k-2)(B-eps)).

Meanwhile the intended k-clustering -- {a, b}, each {x_i} alone, all y's
together -- has average block diameter only (2B + eps)/k.  The achieved-
over-intended ratio therefore follows the exact law

    ratio(k) = k * max(B, (k-2)(B-eps)) / (2B + eps)  ~  k^2 / 2,

growing without bound: no guarantee of this shape exists for single
linkage.  Complete linkage on the *same* instances refuses the long
chain, pays only B+eps, and stays inside its k**log2(3) * avg-diam
guarantee.  The demo replays the family at several k and checks the law
exactly.

Run from the repository root:  python3 demos/03_adversary_separation.py
"""

from __future__ import annotations

from linkcert import (
    adversary_ratio_law,
    clustering_score,
    extract_clustering,
    gen_single_link_adversary,
    run_linkage,
)
from linkcert.inequality_lab import P_EXP, within_bound


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def main() -> None:
    banner("anatomy of one instance (k=5, B=100, eps=1)")
    inst = gen_single_link_adversary(k=5, B=100, eps=1)
    D, target = inst.D, inst.target
    print(f"n = {inst.n} points; outlier spacing d_out = {inst.d_out:g}")
    print(f"intended blocks: {[sorted(b) for b in target.blocks]}")
    print(f"  (anchors {{0,1}}, lone chain points, outliers together)")
    av = clustering_score("avg-diam", target, D)
    print(f"intended avg-diam = (2B+eps)/k = {av:g}")

    dg_sl = run_linkage("SL", D)
    members = dg_sl.members_map()
    print("single-linkage merges into the k=5 clustering:")
    for t, m, _ in dg_sl.steps(5):
        print(f"  merge {t}: {sorted(members[m.left])} + "
              f"{sorted(members[m.right])} at {m.value:g}")
    C_sl = extract_clustering(dg_sl, 5)
    print(f"single-linkage blocks: {[sorted(b) for b in C_sl.blocks]}")
    sl_diam = clustering_score("max-diam", C_sl, D)
    print(f"worst block diameter = (k-2)(B-eps) = {sl_diam:g} "
          f"-> ratio {sl_diam / av:g}")
    assert sl_diam == 297.0

    C_cl = extract_clustering(run_linkage("CL", D), 5)
    cl_diam = clustering_score("max-diam", C_cl, D)
    print(f"complete linkage on the same instance: worst diameter "
          f"{cl_diam:g} = B+eps (the outlier block)")
    assert cl_diam == 101.0

    banner("the ratio law across k")
    print(f"{'k':>4} {'SL worst diam':>14} {'ratio achieved':>15} "
          f"{'law':>15} {'~ k^2/2':>9} {'CL ratio':>9} {'CL bound':>9}")
    B, eps = 1000.0, 1.0
    prev = 0.0
    for k in (3, 5, 10, 20):
        inst = gen_single_link_adversary(k=k, B=B, eps=eps)
        av = clustering_score("avg-diam", inst.target, inst.D)
        sl = clustering_score("max-diam",
                              extract_clustering(run_linkage("SL", inst.D), k),
                              inst.D)
        cl = clustering_score("max-diam",
                              extract_clustering(run_linkage("CL", inst.D), k),
                              inst.D)
        ratio = sl / av
        law = adversary_ratio_law(k, B, eps)
        bound = k ** (1 + P_EXP)        # k**log2(3), the CL guarantee
        print(f"{k:>4} {sl:>14g} {ratio:>15.6f} {law:>15.6f} "
              f"{k * k / 2:>9g} {cl / av:>9.4f} {bound:>9.4f}")
        # The replayed ratio matches the closed form to rounding, grows
        # superlinearly in k, and CL stays inside its guarantee.
        assert abs(ratio - law) <= 1e-9 * law
        assert ratio / k > prev
        assert within_bound(cl, bound * av)
        prev = ratio / k

    print("\nsingle linkage tracks ~k^2/2 with no ceiling; complete")
    print("linkage never leaves its k**log2(3) * avg-diam guarantee.")
    print("\nall checks passed")


if __name__ == "__main__":
    main()
