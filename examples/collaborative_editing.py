#!/usr/bin/env python
"""Collaborative editing: the shared log under partitions.

The introduction's motivating domain ([Sun et al.], [Li et al.]): multiple
authors append to a shared document while the network does its worst.
Update consistency gives exactly the guarantee collaborative editors call
*intention preservation*: the converged document is one agreed
interleaving of the authors' edits that preserves each author's own order.

The script contrasts three implementations on the same edit trace:

* Algorithm 1 (update consistent)  — converges to one document;
* the same replica with undo/redo replay — same document, cheaper
  repositioning;
* causal apply (causally consistent) — the Proposition 1 failure mode:
  concurrent edits land in different orders and replicas keep different
  documents forever.

Run: ``python examples/collaborative_editing.py``
"""

from repro.core.universal import UniversalReplica
from repro.objects.causal import CausalApplyReplica
from repro.sim import Cluster
from repro.specs import LogSpec
from repro.specs import log_spec as L

AUTHORS = ["amy", "ben", "cat"]


def edit_session(cluster) -> None:
    """Three authors write; a partition splits amy from ben+cat mid-way."""
    amy, ben, cat = 0, 1, 2
    cluster.update(amy, L.append("amy: Title"))
    cluster.run()

    cluster.partition([[amy], [ben, cat]])
    cluster.update(amy, L.append("amy: intro paragraph"))
    cluster.update(ben, L.append("ben: results table"))
    cluster.run()  # intra-partition traffic
    cluster.update(cat, L.append("cat: fixes ben's table"))
    cluster.update(amy, L.append("amy: conclusion"))
    cluster.heal()
    cluster.run()


def show(name: str, cluster) -> bool:
    docs = {pid: cluster.query(pid, "read") for pid in range(3)}
    agreed = len({d for d in docs.values()}) == 1
    print(f"--- {name} ---")
    if agreed:
        print("all replicas hold the same document:")
        for i, line in enumerate(docs[0]):
            print(f"  {i}. {line}")
    else:
        for pid, doc in docs.items():
            print(f"  {AUTHORS[pid]}'s replica: {list(doc)}")
        print("  => the replicas NEVER reconcile (quiescent network)")
    print()
    return agreed


def check_intentions(doc) -> bool:
    """Each author's own edits appear in the order they made them."""
    for author in AUTHORS:
        own = [line for line in doc if line.startswith(author)]
        indices = [doc.index(line) for line in own]
        if indices != sorted(indices):
            return False
    return True


def main() -> None:
    spec = LogSpec()

    uc = Cluster(3, lambda p, n: UniversalReplica(p, n, spec), seed=7)
    edit_session(uc)
    assert show("Algorithm 1 (update consistent)", uc)
    doc = uc.query(0, "read")
    print(f"intention preservation (each author's own order kept): "
          f"{check_intentions(doc)}\n")

    undo = Cluster(
        3, lambda p, n: UniversalReplica(p, n, spec, replay="undo"), seed=7
    )
    edit_session(undo)
    assert show("undo-optimized (Karsenty-Beaudouin-Lafon)", undo)
    assert undo.query(0, "read") == doc, "optimizations must not change semantics"
    print(f"undo/redo steps spent repositioning late edits: "
          f"{sum(r.replay.undone_redone for r in undo.replicas)}\n")

    causal = Cluster(3, lambda p, n: CausalApplyReplica(p, n, spec), seed=7)
    edit_session(causal)
    agreed = show("causal apply-on-receipt (the Proposition 1 trap)", causal)
    if not agreed:
        print("causal consistency orders only causally related edits; the")
        print("partition made amy's and ben's edits concurrent, and no")
        print("arbitration exists — eventual convergence is lost, exactly")
        print("as Proposition 1 predicts for wait-free causal systems.")


if __name__ == "__main__":
    main()
