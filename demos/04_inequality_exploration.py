"""The scalar inequalities that power the exponents in both guarantees.

The two certificate constructions reduce, at their cores, to elementary
inequalities about nonnegative weights raised to a fixed power:

- the family forest's potential argument needs, at p = log2(3) - 1,
      a*x^p >= b*y^p   implies   a*x^p + 2*b*y^p <= (a+b)(x+y)^p,
  which is exactly what makes phi_sigma * phi**p a valid potential, and
  p = log2(3) - 1 is the smallest exponent for which it holds;

- the pure-cluster graph needs, for a nondecreasing list a_1..a_l >= 1
  and p at least a length-dependent threshold,
      a_l^p + a_(l-1)^p + 2*(a_1^p + ... + a_(l-2)^p) <= (sum a_i)^p,
  and the supremum of those thresholds over all lengths is
  log_4(6) ~ 1.2925 -- the exponent cap in the (2k-2) / k**log4(6)
  guarantee.

This demo probes both inequalities at their equality cases (where the
exponents are forced), shows the hypothesis gates rejecting
inadmissible samples, locates the threshold supremum by scanning, and
finishes with large randomised batches.

Run from the repository root:  python3 demos/04_inequality_exploration.py
"""

from __future__ import annotations

import math

from linkcert import alpha_sup, check_ineq_2, check_ineq_avg, sample_ineq_2, sample_ineq_avg
from linkcert.inequality_lab import (
    ALPHA_CAP,
    P_EXP,
    InapplicableSample,
    ineq2_threshold,
)


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def main() -> None:
    banner("the averaged-weight inequality at p = log2(3) - 1")
    print(f"p = {P_EXP!r}")
    s = check_ineq_avg(a=2.0, b=1.0, x=2.0, y=1.0)
    print(f"  a=2 b=1 x=2 y=1:  lhs = 2*2^p + 2*1 = {s.lhs!r}")
    print(f"                    rhs = 3*3^p       = {s.rhs!r}")
    print(f"                    slack {s.slack:.6g}, holds: {s.holds}")
    assert s.holds and s.lhs == 5.0

    # The equality case a=b, x=y is what pins the exponent down:
    # lhs = 3*a*x^p and rhs = 2a*(2x)^p = a*x^p * 2^(1+p), equal exactly
    # when 2^(1+p) = 3, i.e. p = log2(3) - 1.
    s = check_ineq_avg(a=1.0, b=1.0, x=1.0, y=1.0)
    print(f"  equality case a=b=x=y=1: lhs = {s.lhs!r}, rhs = {s.rhs!r}, "
          f"slack = {s.slack!r}")
    assert s.holds and abs(s.slack) <= 1e-12 * s.rhs
    smaller = 2.0 * (1.0 + 1.0) ** (P_EXP - 0.01)
    print(f"  with exponent p - 0.01 the same rhs drops to {smaller:.6f} "
          f"< 3 = lhs: the exponent is tight")
    assert smaller < 3.0

    banner("the hypothesis gate")
    # Samples violating a*x^p >= b*y^p are OUTSIDE the inequality's
    # hypothesis; treating them as failures would be dishonest, so the
    # checker refuses them loudly instead of returning a verdict.
    try:
        check_ineq_avg(a=1.0, b=5.0, x=1.0, y=1.0)
    except InapplicableSample as e:
        print(f"  a=1 b=5 x=y=1 -> InapplicableSample: {e}")

    banner("the sorted-list inequality and its thresholds")
    for length in (2, 3, 4, 7):
        print(f"  length {length}: exponent threshold "
              f"{ineq2_threshold(length)!r}")
    # All-ones lists make lhs = 2*len - 2 independent of p, while
    # rhs = len**p.  At each length's own threshold they agree exactly --
    # these equality cases are what the thresholds are solved from.
    s3 = check_ineq_2([1.0, 1.0, 1.0], p=ineq2_threshold(3))
    print(f"  ones, length 3, p = log3(4): lhs = {s3.lhs!r}, rhs = {s3.rhs!r}")
    assert s3.holds and abs(s3.slack) <= 1e-12 * s3.rhs
    s4 = check_ineq_2([1.0, 1.0, 1.0, 1.0], p=ALPHA_CAP)
    print(f"  ones, length 4, p = log4(6): lhs = {s4.lhs!r}, rhs = {s4.rhs!r}")
    assert s4.holds and abs(s4.slack) <= 1e-12 * s4.rhs
    try:
        check_ineq_2([1.0, 1.0, 1.0, 1.0], p=1.29)
    except InapplicableSample as e:
        print(f"  p = 1.29 < log4(6) -> InapplicableSample: {e}")

    banner("where the cap comes from: sup over lengths of log_i(2i-2)")
    print("     i   log_i(2i-2)")
    for i in range(2, 9):
        mark = "   <-- maximum" if i == 4 else ""
        print(f"  {i:>4}   {math.log(2 * i - 2) / math.log(i):.12f}{mark}")
    sup = alpha_sup(100_000)
    print(f"  scan to i = {sup.i_max}: argmax = {sup.argmax}, "
          f"sup = {sup.value!r}")
    print(f"  tail domination 1 + 1/log2(i) < log4(6) for i >= 11: "
          f"{sup.tail_ok}")
    assert sup.argmax == 4 and sup.value == ALPHA_CAP and sup.tail_ok

    banner("randomised mass sampling")
    for batch in (sample_ineq_avg(50_000, seed=7),
                  sample_ineq_2(50_000, seed=8)):
        print(f"  {batch.name}: {batch.samples} admissible samples, "
              f"{len(batch.failures)} failures, "
              f"min relative slack {batch.min_rel_slack:.3e}")
        tightest = batch.extremes[0]
        print(f"    tightest sample: {tightest.inputs}")
        print(f"      lhs {tightest.lhs!r} vs rhs {tightest.rhs!r}")
        assert batch.ok
        # Slack may touch zero (the equality cases are reachable) but
        # never goes negative beyond rounding.
        assert batch.min_rel_slack >= -1e-12

    print("\nall checks passed")


if __name__ == "__main__":
    main()
