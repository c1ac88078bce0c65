"""Fuzzing of the instance, target and sweep config loaders through the
command line.

Whatever JSON value an instance or target file holds, and whatever bytes an
instance, target or sweep config file holds, ``linkcert`` exits 0, 2 or 3
and lets no other exception escape.  Examples are derandomized and bounded,
so the run is deterministic and takes a few seconds.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linkcert import cli, dump_instance, gen_random_euclidean, tri_size

FUZZ = settings(derandomize=True, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
numbers = st.integers(-2, 10) | st.floats() | st.integers()

# Instance-shaped objects reach the checks behind the key test, and
# triangles of the right length reach the linkage run and the scores.
instances = json_values | st.fixed_dictionaries(
    {"n": st.integers(-1, 5) | json_values,
     "dist": st.lists(numbers | json_values, max_size=10) | json_values},
    optional={"labels": st.lists(st.text(max_size=2) | json_values, max_size=5)
              | json_values},
) | st.integers(1, 5).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n),
     "dist": st.lists(numbers, min_size=tri_size(n), max_size=tri_size(n))},
    optional={"labels": st.lists(st.text(max_size=2), min_size=n, max_size=n)
              | json_values},
))

# Targets over the 6-point instance: anything, lists of id lists, and true
# 2-block partitions (which certify end to end).
N = 6
partitions = st.permutations(range(N)).flatmap(
    lambda p: st.integers(1, N - 1).map(lambda i: [p[:i], p[i:]]))
targets = (json_values
           | st.lists(st.lists(st.integers(-1, N) | json_values, max_size=4),
                      max_size=4)
           | partitions)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    dump_instance(gen_random_euclidean(N, 2, seed=3), path / "inst.json")
    return path


def run(workdir, name, content: bytes, *argv):
    path = workdir / name
    path.write_bytes(content)
    return cli.main(["--out-dir", str(workdir / "out"), *argv])


def run_instance(workdir, content: bytes) -> int:
    return run(workdir, "fuzz_inst.json", content, "run", "--method", "CL",
               "--k", "2", "--instance", str(workdir / "fuzz_inst.json"))


def run_target(workdir, content: bytes) -> int:
    return run(workdir, "fuzz_target.json", content, "certify", "--k", "2",
               "--instance", str(workdir / "inst.json"),
               "--target", str(workdir / "fuzz_target.json"))


@FUZZ
@given(value=instances)
def test_instance_files(workdir, value):
    assert run_instance(workdir, json.dumps(value).encode()) in (0, 2, 3)


@FUZZ
@given(value=targets)
def test_target_files(workdir, value):
    assert run_target(workdir, json.dumps(value).encode()) in (0, 2, 3)


@FUZZ
@given(content=st.binary(max_size=64))
def test_instance_bytes(workdir, content):
    assert run_instance(workdir, content) in (0, 2, 3)


@FUZZ
@given(content=st.binary(max_size=64))
def test_target_bytes(workdir, content):
    assert run_target(workdir, content) in (0, 2, 3)


@FUZZ
@given(content=st.binary(max_size=64))
def test_sweep_config_bytes(workdir, content):
    code = run(workdir, "fuzz.ini", content, "sweep", "--config", str(workdir / "fuzz.ini"))
    assert code in (0, 2, 3)
