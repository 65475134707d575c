"""Checks of each operation's output against the reference computations.

A check returns ``{operation index: (kind, reason)}`` for every output it
rejects.  Two kinds are the signatures of faults the program is known to
have and are counted as failed operations:

* ``sparse-with-witness``: a Sparse verdict on an instance where the
  reference certificate finds a point of full orbit rank (R8's first
  admissible index, directly or through R9);
* ``order-dependent``: Unknown on a product while another listed factor
  order of the same multiset, or of its dual, is decided (the dual is
  chosen by factor order before ``reduce_span`` runs).

Any other kind means a wrong answer the benchmark does not expect.
"""

from __future__ import annotations

import reference as ref

KNOWN_FAULTS = ("sparse-with-witness", "order-dependent")
DECIDED = ("Dense", "Sparse", "TriviallySparse")


def _shape(meta) -> tuple[list[int], list[int], int]:
    if meta["kind"] == "product":
        labels, parents = ref.product_tree(meta["factors"], meta["n"])
    else:
        labels, parents = meta["tree"]["labels"], meta["tree"]["parents"]
    return labels, parents, labels[0]


def decide_sweep(ops, results) -> dict[int, tuple[str, str]]:
    bad: dict[int, tuple[str, str]] = {}
    certs: dict = {}
    groups: dict = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        meta = op["meta"]
        if meta["kind"] == "product":
            groups.setdefault(meta["group"], []).append(i)
        if isinstance(res, dict):
            bad[i] = ("error", res["error"])
            continue
        if res not in DECIDED + ("Unknown",):
            bad[i] = ("wrong", f"unexpected verdict {res!r}")
            continue
        labels, parents, n = _shape(meta)
        dim = ref.variety_dim(labels, parents)
        ts = ref.trivially_sparse(labels, parents)
        if (res == "TriviallySparse") != ts:
            bad[i] = ("wrong", f"{res}, but the dimension count says trivially sparse = {ts}")
            continue
        factors = meta.get("factors")
        if factors and len(factors) == 3 and len(set(map(tuple, factors))) == 1 and len(factors[0]) == 2:
            dense = ref.two_step_dense(*factors[0], n)
            if res != "Unknown" and (res == "Dense") != dense:
                bad[i] = ("wrong", f"{res}, but the theorem says dense = {dense}")
                continue
        if res in ("Dense", "Sparse"):
            key = meta["group"] if meta["kind"] == "product" else op["text"]
            if key not in certs:
                certs[key] = ref.certificate_ranks(labels, parents)
            ranks = certs[key]
            if res == "Dense" and dim not in ranks:
                bad[i] = ("wrong", f"Dense, but no certificate trial reaches rank {dim} (ranks {ranks})")
            elif res == "Sparse" and dim in ranks:
                bad[i] = ("sparse-with-witness",
                          f"Sparse, but the certificate reaches rank {dim} = dim")
    for idxs in groups.values():
        decided = [j for j in idxs if results[j] in DECIDED]
        if not decided:
            continue
        other = decided[0]
        for j in idxs:
            if results[j] == "Unknown":
                bad.setdefault(j, ("order-dependent",
                                   f"Unknown, while {ops[other]['text']} is {results[other]}"))
    return bad


def certify_ladder(ops, results) -> dict[int, tuple[str, str]]:
    bad: dict[int, tuple[str, str]] = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, dict):
            bad[i] = ("error", res["error"])
            continue
        status, ranks, vdim = res
        flag, n = op["meta"]["flag"], op["meta"]["n"]
        dim = ref.variety_dim(*ref.product_tree([flag] * 3, n))
        if len(flag) == 2:
            dense = ref.two_step_dense(*flag, n)
        elif dim > n * n - 1:
            dense = False
        else:
            raise ValueError(f"no reference verdict for {op['text']}")
        want = "DenseCertified" if dense else "Inconclusive"
        if vdim != dim:
            bad[i] = ("wrong", f"variety dimension {vdim}, the edge formula gives {dim}")
        elif len(ranks) != 3 or any(r > min(dim, n * n - 1) for r in ranks):
            bad[i] = ("wrong", f"ranks {ranks} exceed min(dim, n^2 - 1) = {min(dim, n * n - 1)}")
        elif status != want or (dense and dim not in ranks):
            bad[i] = ("wrong", f"{status} with ranks {ranks}, but the reference verdict is {want}")
    return bad


def orbit_census(ops, results) -> dict[int, tuple[str, str]]:
    bad: dict[int, tuple[str, str]] = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, dict):
            bad[i] = ("error", res["error"])
            continue
        meta, (points, orbits) = op["meta"], res
        q = meta["q"]
        if meta["kind"] == "pair":
            (a, b), n = meta["factors"], meta["n"]
            want = (ref.flag_point_count(a, n, q) * ref.flag_point_count(b, n, q),
                    ref.flag_pair_orbits(a, b, n))
        else:
            want = ((q + 1) ** meta["m"], ref.points_on_line_orbits(meta["m"], q))
        if (points, orbits) != want:
            bad[i] = ("wrong", f"{points} points in {orbits} orbits, the reference gives "
                               f"{want[0]} points in {want[1]} orbits")
    return bad


def decided_per_pass(workload: str, results) -> int:
    """Operations of one pass that came back with a definite answer."""
    if workload == "decide_sweep":
        return sum(r in DECIDED for r in results)
    if workload == "certify_ladder":
        return sum(not isinstance(r, dict) and r[0] == "DenseCertified" for r in results)
    return sum(not isinstance(r, dict) for r in results)
