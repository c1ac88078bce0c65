"""Byte-level pins of the certificate replays and the certify report.

Each case hashes ``json.dumps`` of the alg1 trace, the alg2 trace and the
``certify`` report (with its failures) into one sha256.  The digests were
computed before the replays were restructured; a refactor of either replay
must leave every one of them unchanged.  A change in output bits has to be
explained and the digest updated deliberately.

The lost-point fakes (from ``TestClusterAudit``) hash the alg2 trace alone:
they exercise the audit's record text and order.  Two alg1 cases hash the
alg1 trace with its ``alg1_bound`` failures: a hand-made merge order (from
``TestForgedMergeOrder``) and a non-metric instance whose p4 and per-cluster
records fail, including the final p4 after the last merge.  A third hashes
a family whose p4 failure repeats at every audit while it stays a root.

One case runs the command line: ``certify`` of the single-link adversary at
k=12 against its sidecar target hashes the files it writes.  There the engine
stops at the cut, after 11 of the 22 merges.
"""

import hashlib
import json

import numpy as np
import pytest

from linkcert import (
    Clustering,
    Dendrogram,
    DistanceMatrix,
    MergeRecord,
    alg1_bound,
    alg1_trace,
    alg2_trace,
    extract_clustering,
    gen_single_link_adversary,
    opt_scores,
    run_linkage,
)
from linkcert import cli
from linkcert.cli import certify

from .conftest import line_metric
from .test_family_certificates import FUSED_BLOCKS, fused_blocks_specimen
from .test_graph_certificates import losing


def digest(*objects) -> str:
    return hashlib.sha256(json.dumps(objects).encode()).hexdigest()


def certify_digest(D: DistanceMatrix, k: int, targets: dict) -> str:
    report, traces, failures = certify(D, "CL", k, targets)
    return digest(traces["alg1"].to_json(), traces["alg2"].to_json(),
                  report.to_json(), failures)


def same_target(target: Clustering) -> dict:
    return {"avg-diam": target, "max-diam": target}


KINDS = ("own-cut", "interleaved", "oracle")


def euclidean_targets(kind: str, k: int) -> tuple[DistanceMatrix, dict]:
    rng = np.random.default_rng(4000 + 10 * k + KINDS.index(kind))
    n = 10 if kind == "oracle" else 30
    D = DistanceMatrix.from_points(rng.random((n, 2)))
    if kind == "oracle":
        return D, {s: r.witness for s, r in opt_scores(D, k).items()}
    if kind == "own-cut":
        return D, same_target(extract_clustering(run_linkage("CL", D), k))
    return D, same_target(Clustering.from_blocks([range(i, n, k) for i in range(k)], n))


EUCLIDEAN = {
    ("own-cut", 2): "ab0852fbc19bd447bee9d9aa3a99fba3ca2fe339d257fe4357c84939fc88b62b",
    ("own-cut", 4): "29e73c8109c99171ab0e052ae4f3c657e5de06f2acf0a43f2934d56744b64671",
    ("own-cut", 7): "00f0fb7e5fd55953e51b527fdd0bcc82e737ae4bd049a1143587e366b036ee46",
    ("interleaved", 2): "f5dd08fbfa098130b33f324b72d3c5bb5d607bb28ee981b42264402643f208dd",
    ("interleaved", 4): "24d2abe443531689536a2329d5f504b4be3adcf467967e6c004313a8d942e246",
    ("interleaved", 7): "0977a8edd343ab4cb20bf276e956e6aaa63016a5ff1e7e0c9e95bbafda8a0599",
    ("oracle", 2): "c4034e1284e43bc086f30c51869e024cca7e5623e22a3b024ff033468342d5a7",
    ("oracle", 4): "f241e5634a875ecd44f3f180e6cfde17e6a86b2beb4c5273d7e4e7704748f5f1",
    ("oracle", 7): "7f1e372d2d884e72670c256f173b1b576bbc5d044e55c56b11478e6206a85093",
}


@pytest.mark.parametrize("kind,k", list(EUCLIDEAN), ids=str)
def test_euclidean(kind, k):
    D, targets = euclidean_targets(kind, k)
    assert certify_digest(D, k, targets) == EUCLIDEAN[kind, k]


ADVERSARY = {
    6: "83461cf5a4defce5d070bd447b2081d50dbd3cd400ca94c8541d231a22783578",
    20: "f48a98af9570e3f0953fa014ef45aecc0570ab773ffd370ff3838d47b958aa34",
}


@pytest.mark.parametrize("k", list(ADVERSARY))
def test_adversary(k):
    inst = gen_single_link_adversary(k, 100.0, 1.0)
    assert certify_digest(inst.D, k, same_target(inst.target)) == ADVERSARY[k]


def test_adversary_certify_against_its_sidecar(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the report names the instance by this path
    assert cli.main(["--out-dir", "adv", "generate", "adversary", "--k", "12"]) == 0
    stem = "adv/adversary_k12_B100_eps1"
    assert cli.main(["--out-dir", "out", "certify", "--k", "12", "--instance",
                     f"{stem}.json", "--target", f"{stem}.target.json"]) == 0
    written = hashlib.sha256()
    for path in sorted((tmp_path / "out").iterdir()):
        written.update(path.read_bytes())
    assert written.hexdigest() == (
        "c25f3bd69c80204b969a975d5737b421f948f81c4ae5fc3235362da7a66d9c50")


NON_METRIC = DistanceMatrix(n=4, packed=np.array([2.0, 1.0, 1000.0, 1000.0, 1000.0, 2.0]))


def test_failing_non_metric_specimen():
    target = Clustering.from_blocks([[0, 1], [2, 3]], 4)
    assert certify_digest(NON_METRIC, 2, same_target(target)) == (
        "62b682b6a9b353a16d99236cb9a84145c876bdffe1ca0d3c5a1254d70eddacaa")


def alg1_digest(D: DistanceMatrix, dg: Dendrogram, target) -> str:
    trace = alg1_trace(D, dg, target)
    return digest(trace.to_json(), alg1_bound(trace, D).failures)


def test_alg1_forged_merge_order():
    merges = [(1, 2), (0, 4), (3, 5)]
    dg = Dendrogram(n=4, method="CL", merges=tuple(
        MergeRecord(left=a, right=b, value=0.0, result=4 + i, iteration=i + 1)
        for i, (a, b) in enumerate(merges)))
    assert alg1_digest(line_metric([1.5, 0.0, 3.0, 100.0]), dg, [[0], [1, 2, 3]]) == (
        "b474cd5c4dca7e60ec4c0308be869f88ca48daf61e19000e3e23a8437deb58fb")


def test_alg1_non_metric_failures():
    dg = run_linkage("CL", NON_METRIC)
    assert alg1_digest(NON_METRIC, dg, [[0, 1], [2, 3]]) == (
        "d2fd6afddc1ec587b206e64662bfe40fa176a0f4334989447ae128fb3ba13b1f")


def test_alg1_repeated_p4_failures():
    D = fused_blocks_specimen()
    assert alg1_digest(D, run_linkage("CL", D), FUSED_BLOCKS) == (
        "5ec52904c6747410b0d0d0b67b75c0847ac31d5a290f03453c9e802f316f668a")


# positions, fake cluster h, lost point p, target blocks, digest
LOSING = {
    "lost-point": (
        [0.0, 1.0, 3.0, 7.0, 15.0], 5, 0, [[0, 2, 3], [1, 4]],
        "3b0a0a93b9fec1cb90dcb39de541bb7bd872a88dc4b9c695c5b3201041405c0e"),
    "wrong-tag": (
        [21.0, 9.0, 14.0, 34.0, 8.0, 0.0], 6, 1, [[0, 4, 5], [1, 2, 3]],
        "e3f12dc1f23db64f14237699225c00ee61b12fcc639a32157a9ee0ed7874c6cc"),
    "ledger": (
        [0.0, 29.0, 15.0, 36.0, 23.0, 33.0], 4, 4, [[0, 4], [1, 3], [2, 5]],
        "5c422df2c41a59bfcd98644a0f6fbcaa71ccdde3480fa5a1b3e22ec821b31c2f"),
    "dead-family": (
        [30.0, 36.0, 2.0, 28.0, 12.0, 8.0, 27.0], 7, 6, [[0, 5, 6], [1, 4], [2, 3]],
        "10aadb37577ed03daac373a37380a7ab4c086e1e6541fe4331b34a8b42ca11b1"),
}


@pytest.mark.parametrize("name", list(LOSING))
def test_lost_point_fakes(name):
    positions, h, p, blocks, expected = LOSING[name]
    D = line_metric(positions)
    dg = losing(run_linkage("CL", D), h, p)
    assert digest(alg2_trace(D, dg, blocks).to_json()) == expected
