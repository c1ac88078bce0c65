"""The version 1 trace documents, rebuilt from version 2 ones for tests.

Trace format 2 writes each family once, at its birth, and each change of a
pure count or a component once, in the record of its iteration.  Format 1
listed, in every record, every root family's summary and (alg2) every
component with its families' pure counts.  ``to_v1`` replays a version 2
document and rebuilds those lists, so tests can show that format 2 lost
nothing: the rebuilt documents hash to the digests that format 1 pinned.

Only the JSON document is read: no replay state, and nothing from
``linkcert`` but the document itself.
"""

from __future__ import annotations


def to_v1(doc: dict) -> dict:
    """The version 1 document of a version 2 alg1 or alg2 trace document."""
    if doc.get("trace_version") != 2:
        raise ValueError(f"not a version 2 trace: {doc.get('trace_version')!r}")
    return _alg1(doc) if "final" in doc else _alg2(doc)


def _alg1(doc: dict) -> dict:
    """Each record listed the root families before its merge, in id order.
    A family becomes a root in the record after its birth, and stops being
    one where it appears among a new family's children."""
    roots = {}

    def born(fam: dict) -> None:
        for c in fam["children"]:
            del roots[c]
        roots[fam["id"]] = {k: v for k, v in fam.items() if k != "children"}

    for fam in doc["families"]:
        born(fam)
    records = []
    for r in doc["iterations"]:
        records.append({"iteration": r["iteration"], "case": r["case"],
                        "roots": list(roots.values()),
                        "assertions": r["assertions"], "failures": r["failures"]})
        for fam in r["families"]:
            born(fam)
    return {"n": doc["n"], "k": doc["k"], "target": doc["target"],
            "iterations": records, "final": doc["final"], "ok": doc["ok"]}


def _alg2(doc: dict) -> dict:
    """Each record listed, after its iteration, every live family's summary
    at its pure count (in id order), and every component by id with its
    families and their pure counts.  A component's id is its founding
    family's."""
    snapshot: dict[int, dict] = {}    # family -> id, size, phi, diam
    counts: dict[int, int] = {}       # live family -> pure count
    comps: dict[int, set[int]] = {}   # component -> its families
    comp_of: dict[int, int] = {}      # live family -> component

    def found(fam: dict) -> None:
        f = fam["id"]
        snapshot[f], counts[f], comps[f], comp_of[f] = fam, fam["size"], {f}, f

    def kill(f: int) -> None:
        for g in comps.pop(comp_of[f]):
            del counts[g], comp_of[g]

    for fam in doc["families"]:
        found(fam)
    records = []
    for r in doc["iterations"]:
        if r["join"]:
            survivor, absorbed = r["join"]
            for f in comps[absorbed]:
                comp_of[f] = survivor
            comps[survivor] |= comps.pop(absorbed)
        for e in r["events"]:
            if e["type"] == "fc_created":
                found({"id": e["family"], "size": len(e["clusters"]),
                       "phi": e["phi"], "diam": e["diam"]})
                kill(e["component"][0])
            elif e["type"] == "removed":
                kill(e["family"])
        counts.update((int(f), c) for f, c in r["pure_counts"].items())
        records.append({
            "iteration": r["iteration"], "case": r["case"],
            "roots": [{**snapshot[f], "pure": counts[f]} for f in sorted(counts)],
            "assertions": r["assertions"],
            "exclusion_set_size": r["exclusion_set_size"],
            "components": [{"families": sorted(fams),
                            "pure_counts": {str(f): counts[f] for f in sorted(fams)}}
                           for _, fams in sorted(comps.items())],
            "events": r["events"], "failures": r["failures"]})
    return {"n": doc["n"], "k": doc["k"], "target": doc["target"],
            "iterations": records,
            "spanning_tree_certs": doc["spanning_tree_certs"],
            "exclusion_additions": doc["exclusion_additions"], "ok": doc["ok"]}


def roots(doc: dict) -> list[list[dict]]:
    """Per record of a version 2 trace document, version 1's root list."""
    return [r["roots"] for r in to_v1(doc)["iterations"]]


def components(doc: dict) -> list[list[dict]]:
    """Per record of a version 2 alg2 trace document, version 1's
    ``components`` list."""
    return [r["components"] for r in to_v1(doc)["iterations"]]
