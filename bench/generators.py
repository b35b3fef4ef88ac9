"""Seeded instance generators for the benchmark workloads.

Every generator takes its seed as an argument and returns plain JSON-ready
documents in the CLI instance format (see README.md at the repository root),
so the program under test only ever sees generated documents.  Nothing here
imports `bbranching`: the generators are the benchmark's side of the contract.
"""

from __future__ import annotations

import hashlib
import json
import random

# Default seeds.  At CRITERION9_SEED the maxweight-large generator rebuilds the
# instance of the acceptance test `test_criterion_9_performance` exactly.
CRITERION9_SEED = 0xB9
CRITERION9_SIZE = (1000, 100_000)
# sha256 of the canonical JSON of the criterion-9 document (n, arcs, b, w).
CRITERION9_DIGEST = "43f64499da0ba0295b1231b1a7b85b82027daa81b931d644d37b0bbc94df7ee6"

CHAIN_VERTICES = 200
CHAIN_NOISE_ARCS = 10_000
CHAIN_SPINE_WEIGHT = 1_000_000
CHAIN_NOISE_MAX = 1000

SMALL_BATCH_INSTANCES = 2000

# Vertex counts per document slot.  The subset scans cost 2^n, so the sizes
# are fixed per slot and only the structure varies with the seed; that keeps
# the work of one pass the same from seed to seed.
PACK_SIZES = (10, 11, 12)
COVER_SIZES = (8, 9, 10)
DECOMPOSE_SIZES = (6, 7, 8)
PACK_PARTS, COVER_PARTS, DECOMPOSE_PARTS = 2, 2, 3


def digest(doc: dict) -> str:
    """sha256 of a document's canonical JSON form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def maxweight_large(seed: int = CRITERION9_SEED) -> dict:
    """The criterion-9 instance, with its vertices relabelled by the seed.

    The graph is drawn from CRITERION9_SEED in the same order as the
    acceptance test (arc endpoints, then capacities, then weights), so the
    default seed rebuilds that instance exactly.  Any other seed applies a
    random vertex relabelling: the document differs, but the instance is
    isomorphic and keeps its arc ids, so the greedy's arc-id tie-breaking
    and hence the work done are the same.  Fresh random graphs would not
    keep it: the number of nested set potentials, which the verifier's cost
    scales with, changes from seed to seed.
    """
    rng = random.Random(CRITERION9_SEED)
    n, m = CRITERION9_SIZE
    pairs = [[rng.randrange(n), rng.randrange(n)] for _ in range(m)]
    b = [rng.randint(1, 5) for _ in range(n)]
    w = [rng.randint(0, 1000) for _ in range(m)]
    if seed != CRITERION9_SEED:
        label = list(range(n))
        random.Random(seed).shuffle(label)
        pairs = [[label[t], label[h]] for t, h in pairs]
        relabelled = [0] * n
        for v, cap in enumerate(b):
            relabelled[label[v]] = cap
        b = relabelled
    return {"n": n, "arcs": pairs, "b": b, "w": w}


def contraction_chain(seed: int = 0xC4) -> dict:
    """Unit capacities where every greedy phase contracts exactly one 2-cycle.

    The spine i -> i+1 is heavier than anything else, so every vertex but 0
    selects its spine arc.  Back arcs k -> 0 weigh more than any noise arc
    and fall with k, so the contracted blob always selects the back arc from
    the next spine vertex: phase j closes the single cycle {blob, j}.  That
    gives |V| phases, |V|-1 contractions and |V|-1 nested vertex sets.
    """
    rng = random.Random(seed)
    n = CHAIN_VERTICES
    pairs: list[list[int]] = []
    w: list[int] = []
    for i in range(n - 1):
        pairs.append([i, i + 1])
        w.append(CHAIN_SPINE_WEIGHT)
    for k in range(1, n):
        pairs.append([k, 0])
        w.append(2 * CHAIN_NOISE_MAX + 10 * (n - k))
    for _ in range(CHAIN_NOISE_ARCS):
        pairs.append([rng.randrange(n), rng.randrange(n)])
        w.append(rng.randint(0, CHAIN_NOISE_MAX))
    return {"n": n, "arcs": pairs, "b": [1] * n, "w": w}


def _in_arcs(n: int, pairs: list) -> list[list[int]]:
    incoming: list[list[int]] = [[] for _ in range(n)]
    for a, (_, head) in enumerate(pairs):
        incoming[head].append(a)
    return incoming


def _partition_spec(rng: random.Random, ground: list[int], cap: int):
    """None (a uniform oracle of rank cap) or a random partition oracle of rank cap."""
    if not ground or rng.random() < 0.5:
        return None
    arcs = list(ground)
    rng.shuffle(arcs)
    count = rng.randint(1, min(3, len(arcs)))
    cuts = sorted(rng.sample(range(1, len(arcs)), count - 1))
    blocks = [sorted(arcs[i:j]) for i, j in zip([0, *cuts], [*cuts, len(arcs)])]
    caps = [0] * count
    for _ in range(cap):
        caps[rng.randrange(count)] += 1
    return {"kind": "partition", "blocks": blocks, "caps": caps}


def small_batch(seed: int = 0x5B, count: int = SMALL_BATCH_INSTANCES) -> list[dict]:
    """Many tiny instances: n in [5,30], m in [n,6n], b in [1,3],
    "num/den" weights including negatives, and one oracle spec per vertex."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        n = rng.randint(5, 30)
        m = rng.randint(n, 6 * n)
        pairs = [[rng.randrange(n), rng.randrange(n)] for _ in range(m)]
        b = [rng.randint(1, 3) for _ in range(n)]
        w = [f"{rng.randint(-20, 100)}/{rng.choice((1, 2, 3, 4, 6))}" for _ in range(m)]
        incoming = _in_arcs(n, pairs)
        matroids = [_partition_spec(rng, incoming[v], b[v]) for v in range(n)]
        docs.append({"n": n, "arcs": pairs, "b": b, "w": w, "matroids": matroids})
    return docs


def _capacities(rng: random.Random, n: int) -> list[int]:
    """Unit capacities with exactly n // 4 vertices of capacity 2."""
    b = [1] * n
    for v in rng.sample(range(n), n // 4):
        b[v] = 2
    return b


def _acyclic_part(rng: random.Random, b: list[int]) -> tuple[list[list[int]], list[int]]:
    """Arcs of one feasible part, built along a random vertex order.

    The first vertex of the order is the root and receives nothing; every
    other vertex receives exactly b(v) arcs from earlier vertices (parallel
    arcs allowed).  An acyclic set with indegrees at most b is feasible: in
    every vertex set, a source of the induced subgraph receives nothing.
    """
    order = list(range(len(b)))
    rng.shuffle(order)
    arcs: list[list[int]] = []
    indegree = [0] * len(b)
    for pos in range(1, len(order)):
        head = order[pos]
        for _ in range(b[head]):
            arcs.append([order[rng.randrange(pos)], head])
        indegree[head] = b[head]
    return arcs, indegree


def pack_doc(rng: random.Random, n: int, k: int = PACK_PARTS) -> dict:
    """k planted disjoint parts plus n // 2 noise arcs, in shuffled order."""
    b = _capacities(rng, n)
    arcs: list[list[int]] = []
    demands = []
    for _ in range(k):
        part, indegree = _acyclic_part(rng, b)
        arcs.extend(part)
        demands.append(indegree)
    arcs.extend([rng.randrange(n), rng.randrange(n)] for _ in range(n // 2))
    rng.shuffle(arcs)
    return {"n": n, "arcs": arcs, "b": b, "k": k, "b_i": demands}


def cover_doc(rng: random.Random, n: int, k: int = COVER_PARTS) -> dict:
    """Union of k planted feasible parts, so a cover by k parts exists."""
    b = _capacities(rng, n)
    arcs: list[list[int]] = []
    for _ in range(k):
        arcs.extend(_acyclic_part(rng, b)[0])
    rng.shuffle(arcs)
    return {"n": n, "arcs": arcs, "b": b, "k": k}


def decompose_doc(rng: random.Random, n: int, k: int = DECOMPOSE_PARTS) -> dict:
    """x = sum of k planted feasible 0/1 vectors over the distinct arcs.

    Parts draw their tails from the two vertices just before the head in a
    shared order, so arcs repeat across parts and x reaches 2 and 3.
    """
    b = _capacities(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    multiplicity: dict[tuple[int, int], int] = {}
    for _ in range(k):
        for pos in range(1, n):
            head = order[pos]
            tails = rng.sample(range(max(0, pos - 2), pos), min(b[head], min(pos, 2)))
            for tpos in tails:
                key = (order[tpos], head)
                multiplicity[key] = multiplicity.get(key, 0) + 1
    pairs = sorted(multiplicity)
    return {
        "n": n,
        "arcs": [list(p) for p in pairs],
        "b": b,
        "k": k,
        "x": [multiplicity[p] for p in pairs],
    }


def _received(doc: dict) -> list[int]:
    counts = [0] * doc["n"]
    for _, head in doc["arcs"]:
        counts[head] += 1
    return counts


def _close_pair(doc: dict, u: int, v: int) -> None:
    """Re-tail every arc entering u or v so that it comes from the other one."""
    for arc in doc["arcs"]:
        if arc[1] == u:
            arc[0] = v
        elif arc[1] == v:
            arc[0] = u


def infeasible_pack_doc(rng: random.Random, n: int) -> dict:
    """A pack document whose cut condition fails on a two-vertex set X.

    X = {u, v} is cut off from the rest: every arc entering it is re-tailed
    to come from inside it.  Indegrees are unchanged, so the degree condition
    still holds, but no arc enters X while both parts demand a unit from u
    and from v, and hence an arc entering X.
    """
    doc = pack_doc(rng, n)
    full = [v for v in range(n) if all(d[v] == 1 == doc["b"][v] for d in doc["b_i"])]
    _close_pair(doc, *rng.sample(full, 2))
    return doc


def infeasible_cover_doc(rng: random.Random, n: int) -> dict:
    """A cover document whose unit-capacity pair X = {u, v} induces 2k arcs,
    more than the k * (b(X) - 1) = k that a cover by k parts allows."""
    doc = cover_doc(rng, n)
    received = _received(doc)
    inner = [v for v in range(n) if doc["b"][v] == 1 and received[v] == COVER_PARTS]
    _close_pair(doc, *rng.sample(inner, 2))
    return doc


def infeasible_decompose_doc(rng: random.Random, n: int) -> dict:
    """A decompose document with two more copies of a unit-capacity 2-cycle
    {u, v}: x then puts at least 4 copies on arcs inside X = {u, v}, more
    than the k * (b(X) - 1) = 3 that k feasible parts can hold."""
    doc = decompose_doc(rng, n)
    u, v = rng.sample([w for w in range(n) if doc["b"][w] == 1], 2)
    doc["arcs"] += [[u, v], [v, u]]
    doc["x"] += [2, 2]
    return doc


def pack_cover(seed: int = 0x9C) -> list[tuple[str, dict, int]]:
    """(command, document, expected exit code) for one pack-cover pass."""
    rng = random.Random(seed)
    ops = [("pack", pack_doc(rng, n), 0) for n in PACK_SIZES]
    ops.append(("pack", infeasible_pack_doc(rng, PACK_SIZES[0]), 2))
    ops += [("cover", cover_doc(rng, n), 0) for n in COVER_SIZES]
    ops.append(("cover", infeasible_cover_doc(rng, COVER_SIZES[0]), 2))
    ops += [("decompose", decompose_doc(rng, n), 0) for n in DECOMPOSE_SIZES]
    ops.append(("decompose", infeasible_decompose_doc(rng, DECOMPOSE_SIZES[0]), 2))
    return ops
