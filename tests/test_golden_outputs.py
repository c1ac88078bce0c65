"""Byte-level pins of the certificate replays and the certify report.

Each case hashes ``json.dumps`` of the alg1 trace, the alg2 trace and the
``certify`` report (with its failures) into one sha256, twice: once with the
traces rebuilt in trace format 1 by ``trace_v1.to_v1``, once as written
(format 2).  The format 1 digests were computed before the replays were
restructured and before format 2 existed, so they show that format 2 lost
nothing; a refactor of either replay must leave every digest unchanged.  A
change in output bits has to be explained and the digest updated
deliberately.

The forged-owner fakes (from ``TestClusterAudit``) hash the alg2 trace
alone: they exercise the audit's record text and order.  Two alg1 cases
hash the alg1 trace with its ``alg1_bound`` failures: a hand-made merge
order (from ``TestForgedMergeOrder``) and a non-metric instance whose p4 and
per-cluster records fail, including the final p4 after the last merge.  A
third hashes a family whose p4 failure repeats at every audit while it stays
a root.

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
    extract_clustering,
    gen_single_link_adversary,
    opt_scores,
    run_linkage,
)
from linkcert import cli
from linkcert.cli import certify

from .conftest import line_metric
from .test_family_certificates import FUSED_BLOCKS, fused_blocks_specimen
from .test_graph_certificates import forged
from .trace_v1 import to_v1


def digest(*objects) -> str:
    return hashlib.sha256(json.dumps(objects).encode()).hexdigest()


def digests(traces: list[dict], *rest) -> tuple[str, str]:
    """The digest of the trace documents rebuilt in format 1 and the rest,
    and the digest of the documents as they are and the rest."""
    return digest(*map(to_v1, traces), *rest), digest(*traces, *rest)


def certify_digest(D: DistanceMatrix, k: int, targets: dict) -> tuple[str, str]:
    report, traces, failures = certify(D, "CL", k, targets)
    return digests([traces["alg1"].to_json(), traces["alg2"].to_json()],
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
    ("own-cut", 2): (
        "ab0852fbc19bd447bee9d9aa3a99fba3ca2fe339d257fe4357c84939fc88b62b",
        "2aafa471afe06c6928838144aa0fe88d2ae445f6f28885a55495cf2672e0fe44"),
    ("own-cut", 4): (
        "29e73c8109c99171ab0e052ae4f3c657e5de06f2acf0a43f2934d56744b64671",
        "0d6912c45567f76ae385bfe82bde8231ce93671d4af7ce81965a2b9562c05c3d"),
    ("own-cut", 7): (
        "00f0fb7e5fd55953e51b527fdd0bcc82e737ae4bd049a1143587e366b036ee46",
        "428be61fa95c9927d6ca77a36307d8f80691a28041076c90a861e69445e679b4"),
    ("interleaved", 2): (
        "f5dd08fbfa098130b33f324b72d3c5bb5d607bb28ee981b42264402643f208dd",
        "386114452850e618652e11d08d11ec2520a444e7f11cf19928ea05b899e2c007"),
    ("interleaved", 4): (
        "24d2abe443531689536a2329d5f504b4be3adcf467967e6c004313a8d942e246",
        "73c902e9e1e53c3d4f223504fe27f53e758958cbfb0777adaff9708ebd1d0310"),
    ("interleaved", 7): (
        "0977a8edd343ab4cb20bf276e956e6aaa63016a5ff1e7e0c9e95bbafda8a0599",
        "c32cd2b6a54b85c5ab0c8673f8ae9e56e05d6b0fe5c9c89413257e22b9f4726a"),
    ("oracle", 2): (
        "c4034e1284e43bc086f30c51869e024cca7e5623e22a3b024ff033468342d5a7",
        "c1499cb8009968c15210755dd25ad68dfdda69d45e997c3ec2503f35e4e2b427"),
    ("oracle", 4): (
        "f241e5634a875ecd44f3f180e6cfde17e6a86b2beb4c5273d7e4e7704748f5f1",
        "7eb8182750415616713bdfb27b51598fd82f3640009c2e62864be63d125fd45b"),
    ("oracle", 7): (
        "7f1e372d2d884e72670c256f173b1b576bbc5d044e55c56b11478e6206a85093",
        "cabb508fc5ab8914ae4ceb56f296fa5bf67ff01821ff406a9663ca80acf41987"),
}


@pytest.mark.parametrize("kind,k", list(EUCLIDEAN), ids=str)
def test_euclidean(kind, k):
    D, targets = euclidean_targets(kind, k)
    assert certify_digest(D, k, targets) == EUCLIDEAN[kind, k]


ADVERSARY = {
    6: (
        "83461cf5a4defce5d070bd447b2081d50dbd3cd400ca94c8541d231a22783578",
        "9fa63f390067205ce46ee3c9aa6b8960702bd33e931f70768566d07a17eb3ff9"),
    20: (
        "f48a98af9570e3f0953fa014ef45aecc0570ab773ffd370ff3838d47b958aa34",
        "579d08d4679dbab71510b57ce321faf67a2bd654e3162b0c995d369ab0226034"),
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
    v1, written = hashlib.sha256(), hashlib.sha256()
    for path in sorted((tmp_path / "out").iterdir()):
        data = path.read_bytes()
        written.update(data)
        if path.name.endswith("_trace.json"):
            data = (json.dumps(to_v1(json.loads(data))) + "\n").encode()
        v1.update(data)
    assert (v1.hexdigest(), written.hexdigest()) == (
        "c25f3bd69c80204b969a975d5737b421f948f81c4ae5fc3235362da7a66d9c50",
        "dc2fbf852df8b7e99086f41d10ddc3bc947dcb692ae1df35625f66d60389176e")


NON_METRIC = DistanceMatrix(n=4, packed=np.array([2.0, 1.0, 1000.0, 1000.0, 1000.0, 2.0]))


def test_failing_non_metric_specimen():
    target = Clustering.from_blocks([[0, 1], [2, 3]], 4)
    assert certify_digest(NON_METRIC, 2, same_target(target)) == (
        "62b682b6a9b353a16d99236cb9a84145c876bdffe1ca0d3c5a1254d70eddacaa",
        "b9e35d30170e90447662d9dbb5a27abf8e21aaa0dc6189e20ed940c32cc9a42e")


def alg1_digest(D: DistanceMatrix, dg: Dendrogram, target) -> tuple[str, str]:
    trace = alg1_trace(D, dg, target)
    return digests([trace.to_json()], alg1_bound(trace).failures)


def test_alg1_forged_merge_order():
    merges = [(1, 2), (0, 4), (3, 5)]
    dg = Dendrogram(n=4, method="CL", merges=tuple(
        MergeRecord(left=a, right=b, value=0.0) for a, b in merges))
    assert alg1_digest(line_metric([1.5, 0.0, 3.0, 100.0]), dg, [[0], [1, 2, 3]]) == (
        "b474cd5c4dca7e60ec4c0308be869f88ca48daf61e19000e3e23a8437deb58fb",
        "d78fbb62474de7611e3dd66a240d8417b9154e6a8df02281100a7258ebe08676")


def test_alg1_non_metric_failures():
    dg = run_linkage("CL", NON_METRIC)
    assert alg1_digest(NON_METRIC, dg, [[0, 1], [2, 3]]) == (
        "d2fd6afddc1ec587b206e64662bfe40fa176a0f4334989447ae128fb3ba13b1f",
        "5a2b3115c87d32ca186889eaaa2d41aa2c05f4cb009fe411297be9c6c0d74f58")


def test_alg1_repeated_p4_failures():
    D = fused_blocks_specimen()
    assert alg1_digest(D, run_linkage("CL", D), FUSED_BLOCKS) == (
        "5ec52904c6747410b0d0d0b67b75c0847ac31d5a290f03453c9e802f316f668a",
        "63b012cc079fd99a0f32c75618124e261e1090f2fd676434f3740ded7c634d73")


# positions, forgery (iteration, points, cluster), target blocks, digests
FORGED = {
    "lost-point": (
        [0.0, 1.0, 3.0, 7.0, 15.0], (2, [4], 6), [[0, 2, 3], [1, 4]],
        ("92ccc2ae151b1075eabe57a66c9d50fb087844916aded15c88e030e691cc14d2",
         "cf038f53759944ac79d00e1878f6840e73311bce70035b81b38f20eae670ef47")),
    "wrong-tag": (
        [21.0, 9.0, 14.0, 34.0, 8.0, 0.0], (1, [1], 1), [[0, 4, 5], [1, 2, 3]],
        ("75478286e6d221e345b5184c7ea11273e29434a04c561192d7e2033a5b27f7f8",
         "c283911c0727dadf567e3f688898a3c3858f5e2cbf042bdda6dc5b8dd34526ba")),
    "ledger": (
        [0.0, 29.0, 15.0, 36.0, 23.0, 33.0], (1, [4], 3), [[0, 4], [1, 3], [2, 5]],
        ("be749d7bbe96a6d9ede6525d81d0ff70c61d990a398aca690b260ff9e2b20ae8",
         "ed0cddb4e2961123a6547baa2f78014b642c6d2aef17780956819e44061cb0e2")),
    "dead-family": (
        [30.0, 36.0, 2.0, 28.0, 12.0, 8.0, 27.0], (2, [2], 8),
        [[0, 5, 6], [1, 4], [2, 3]],
        ("52a117e2e0a5439134c1834281f7e449dff96cd9ef82b0664ae72d1aabd5ffd5",
         "cc47c7f5fb4c0c65d64dabd8f1903eecf6810a3f9b97cd59f727647f88cd8638")),
}


@pytest.mark.parametrize("name", list(FORGED))
def test_lost_point_fakes(name):
    positions, forgery, blocks, expected = FORGED[name]
    D = line_metric(positions)
    assert digests([forged(D, run_linkage("CL", D), blocks, *forgery).to_json()]) == expected
