"""Metamorphic relations of ``certify``: a transformed instance whose outputs
follow from the original's, checked on fixed seeded instances at sizes no
oracle-based test reaches.

Scaling every distance by 2^j is exact in float64 (barring overflow and
underflow, which the instances here stay far from), and every quantity
``certify`` computes is a sum, maximum, ratio or power-law multiple of
distances.  So each float of the report and of both traces scales by exactly
2^j, apart from the exponents, the dm factor and the ratios, which are
scale-free and stay the same; every string, int and bool stays the same.
"""

import pytest

from linkcert import cli, gen_random_euclidean, gen_random_metric, gen_single_link_adversary

from .conftest import unit_square_cell

EXPONENTS = (-30, -17, -3, -1, 1, 4, 19, 30)
SCALE_FREE = {"exponent_avg", "exponent_dm", "factor_dm", "ratios"}


def same_target(D, target):
    return D, target.k, {"avg-diam": target, "max-diam": target}


def adversary_cell(k):
    inst = gen_single_link_adversary(k, 120.0, 0.5)
    return same_target(inst.D, inst.target)


# name -> (D, k, targets); targets None means the oracle witnesses of each D
CELLS = {
    "euclidean-oracle-k3": lambda: (gen_random_euclidean(10, 2, seed=0), 3, None),
    "euclidean-oracle-k4": lambda: (gen_random_euclidean(10, 2, seed=1), 4, None),
    "closure-oracle-k3": lambda: (gen_random_metric(10, seed=0), 3, None),
    "closure-oracle-k4": lambda: (gen_random_metric(10, seed=1), 4, None),
    "strips-n200-k8": lambda: same_target(*unit_square_cell(200, 8, "strips")),
    "adversary-k20": lambda: adversary_cell(20),
}


def outputs(D, k, targets):
    if targets is None:
        targets = cli._oracle_targets(D, k, 12)
    report, traces, failures = cli.certify(D, "CL", k, targets)
    assert not failures and sorted(traces) == ["alg1", "alg2"]
    return [report.to_json(), traces["alg1"].to_json(), traces["alg2"].to_json()]


def assert_scaled(got, want, factor, path=()):
    """``got`` is ``want`` with every float times ``factor``, except under
    the ``SCALE_FREE`` keys, where floats are equal too."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key, value in want.items():
            assert_scaled(got[key], value, 1.0 if key in SCALE_FREE else factor,
                          (*path, key))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_scaled(g, w, factor, (*path, i))
    elif isinstance(want, float):
        assert got == want * factor, (path, got, want, factor)
    else:
        assert got == want, path


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_certify_is_scale_equivariant(cell):
    D, k, targets = CELLS[cell]()
    want = outputs(D, k, targets)
    for j in EXPONENTS:
        assert_scaled(outputs(D.scaled(2.0 ** j), k, targets), want, 2.0 ** j, (j,))
