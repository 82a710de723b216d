"""Seeded synthetic inputs for the taxovec benchmark.

Every input file is a pure function of (workload, seed) and the parameters
in `PARAMS`. The graphs are WordNet-shaped: a random tree whose level
sizes peak at depth 8 and thin out towards depth 20, plus about 2% extra
parent edges, which gives multiple inheritance. Corpus counts are
Zipf-distributed with about 30% of nodes unobserved, so jcn meets both
its 0.0 path (unobserved endpoint) and its inf path (zero
information-content distance).

The generator never calls taxovec: pairs, expected counts and embeddings
come from the code below, so a defect in the program under test cannot
shape its own inputs.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/gen.py --workload build --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
from collections import deque
from pathlib import Path

import numpy as np

PARAMS = {
    "build": {
        # Full builds score all n(n-1)/2 pairs; fast builds scan all n^2
        # targets today, which is what a bounded-distance row kernel removes.
        "full_nodes": 400,
        "fast_nodes": 3000,
    },
    "train": {"nodes": 400, "dev_frac": 0.1},
    "query": {
        "nodes": 12000,
        "dim": 300,
        "lemma_pairs": 8,
        "candidates_per_lemma": 3,
        "sentences": 150,
        "tokens_per_sentence": 6,
        "senses_per_token": 3,
    },
}
SHAPE = {"mode_depth": 8, "depth_sd": 3.5, "max_depth": 20, "extra_parent_frac": 0.02}
COUNTS = {"unobserved_frac": 0.3, "zipf_exponent": 1.1, "zipf_scale": 1e6}


def node_ids(n: int) -> list[str]:
    return [f"n{i:06d}" for i in range(n)]


def make_dag(rng: np.random.Generator, n: int) -> list[list[int]]:
    """Parent lists of a random tree with a fixed level profile, plus extra parents.

    Level sizes follow a bell curve over depths 2..max_depth; each node
    picks a uniform parent on the level above, and a fixed share of
    nodes take a second one there too. Fixing the profile keeps the work an input
    implies steady across seeds while the topology varies; a plain random
    recursive tree of 500 nodes varies its pair distances by about 12%
    between seeds. Nodes are numbered level by level, so every parent
    index is smaller than its child's and the graph is acyclic.
    """
    depth = np.arange(2, SHAPE["max_depth"] + 1)
    w = np.exp(-((depth - SHAPE["mode_depth"]) ** 2) / (2 * SHAPE["depth_sd"] ** 2))
    sizes = np.floor(w / w.sum() * (n - 1)).astype(np.int64)
    sizes[np.argsort(-w, kind="stable")[: n - 1 - sizes.sum()]] += 1
    parents: list[list[int]] = [[]]
    levels = [np.array([0])]
    for size in sizes[sizes > 0]:
        start = len(parents)
        parents.extend([int(p)] for p in rng.choice(levels[-1], size=size))
        levels.append(np.arange(start, start + size))
    # exactly round(frac * n) nodes take a second parent on the level above
    movable = [(node, above) for above, level in zip(levels, levels[1:]) if len(above) > 1 for node in level]
    for k in rng.choice(len(movable), size=round(SHAPE["extra_parent_frac"] * n), replace=False):
        node, above = movable[k]
        parents[node].append(int(rng.choice(above[above != parents[node][0]])))
    return parents


def undirected(parents: list[list[int]]) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in parents]
    for c, ps in enumerate(parents):
        for p in ps:
            adj[c].add(p)
            adj[p].add(c)
    return [sorted(s) for s in adj]


def bfs(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def write_graph(path: Path, parents: list[list[int]]) -> None:
    """Root alone on the first line, then first-parent edges in index
    order, then the extra edges, so first-seen order is index order."""
    ids = node_ids(len(parents))
    lines = [ids[0]]
    lines += [f"{ids[c]}\t{ids[ps[0]]}" for c, ps in enumerate(parents) if ps]
    lines += [f"{ids[c]}\t{ids[p]}" for c, ps in enumerate(parents) for p in ps[1:]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_counts(path: Path, rng: np.random.Generator, n: int) -> None:
    ranks = rng.permutation(n) + 1
    counts = np.floor(COUNTS["zipf_scale"] / ranks ** COUNTS["zipf_exponent"]) + 1
    observed = rng.random(n) >= COUNTS["unobserved_frac"]
    ids = node_ids(n)
    lines = [f"{ids[i]}\t{int(counts[i])}" for i in range(n) if observed[i]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def near_pairs(adj: list[list[int]]) -> dict[tuple[int, int], int]:
    """Unordered pairs (u < v) at undirected distance 1 or 2, with that distance."""
    out: dict[tuple[int, int], int] = {}
    for src, nbrs in enumerate(adj):
        first = set(nbrs)
        second = {w for a in nbrs for w in adj[a]} - first - {src}
        out.update(((src, t), 1) for t in first if t > src)
        out.update(((src, t), 2) for t in second if t > src)
    return out


def write_pairs_file(path: Path, rows: list[tuple[str, str, float]]) -> None:
    header = {
        "measure": "shp", "threshold": "0.1", "top_k": "-", "mode": "fast",
        "seed": "-", "norm_min": repr(1 / 3), "norm_max": repr(0.5),
    }
    with path.open("w", encoding="utf-8") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        for u, v, s in rows:
            fh.write(f"{u}\t{v}\t{s!r}\n")


def tree_embedding(rng: np.random.Generator, parents: list[list[int]], d: int) -> np.ndarray:
    """Unit rows where each node leans towards the mean of its parents.

    Parent-child dot products sit near 0.95 and siblings near 0.9, so the
    WSD thresholds of 0.90-0.99 keep some edges and drop others.
    """
    rho = 0.95
    noise = rng.standard_normal((len(parents), d))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    V = np.empty((len(parents), d))
    V[0] = noise[0]
    for i in range(1, len(parents)):
        mean = V[parents[i]].mean(axis=0)
        row = rho * mean / np.linalg.norm(mean) + np.sqrt(1 - rho * rho) * noise[i]
        V[i] = row / np.linalg.norm(row)
    return V


def write_embedding_text(path: Path, V: np.ndarray) -> None:
    """`N d` header, then `id v1 ... vd` rows with values as `+0.dddddd`.

    Built as one fixed-width byte array, because formatting millions of
    floats one by one would dominate generation time.
    """
    n, d = V.shape
    ids = np.frombuffer("".join(node_ids(n)).encode("ascii"), dtype=np.uint8).reshape(n, 7)
    q = np.minimum(np.rint(np.abs(V) * 1e6).astype(np.int64), 999_999)
    cell = np.empty((n, d, 10), dtype=np.uint8)
    cell[:, :, 0] = ord(" ")
    cell[:, :, 1] = np.where(V < 0, ord("-"), ord("+"))
    cell[:, :, 2] = ord("0")
    cell[:, :, 3] = ord(".")
    for k in range(6):
        cell[:, :, 4 + k] = (q // 10 ** (5 - k)) % 10 + ord("0")
    body = np.concatenate(
        [ids, cell.reshape(n, d * 10), np.full((n, 1), ord("\n"), dtype=np.uint8)], axis=1
    )
    with path.open("wb") as fh:
        fh.write(f"{n} {d}\n".encode("ascii"))
        fh.write(body.tobytes())


def ball(adj: list[list[int]], src: int, radius: int) -> list[int]:
    seen = {src}
    frontier = [src]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def gen_build(rng: np.random.Generator, out: Path) -> dict:
    p = PARAMS["build"]
    full = make_dag(rng, p["full_nodes"])
    fast = make_dag(rng, p["fast_nodes"])
    write_graph(out / "full_graph.tsv", full)
    write_counts(out / "full_counts.tsv", rng, p["full_nodes"])
    write_graph(out / "fast_graph.tsv", fast)
    n = p["full_nodes"]
    return {
        "full_candidates": n * (n - 1) // 2,  # a single tree component
        "fast_candidates": len(near_pairs(undirected(fast))),
    }


def gen_train(rng: np.random.Generator, out: Path) -> dict:
    p = PARAMS["train"]
    parents = make_dag(rng, p["nodes"])
    write_graph(out / "graph.tsv", parents)
    ids = node_ids(p["nodes"])
    # fast-mode shp scores 1/2 at distance 1 and 1/3 at distance 2, which
    # unity normalization maps to 1.0 and 0.0; no top-k pruning is applied
    rows = [(ids[u], ids[v], 1.0 if d == 1 else 0.0) for (u, v), d in near_pairs(undirected(parents)).items()]
    order = rng.permutation(len(rows))
    n_dev = int(round(p["dev_frac"] * len(rows)))
    write_pairs_file(out / "dev.tsv", [rows[i] for i in order[:n_dev]])
    write_pairs_file(out / "pairs.tsv", [rows[i] for i in order[n_dev:]])
    return {"pairs": len(rows) - n_dev, "dev_pairs": n_dev}


def gen_query(rng: np.random.Generator, out: Path) -> dict:
    p = PARAMS["query"]
    n = p["nodes"]
    parents = make_dag(rng, n)
    adj = undirected(parents)
    ids = node_ids(n)
    write_graph(out / "graph.tsv", parents)
    write_embedding_text(out / "embedding.txt", tree_embedding(rng, parents, p["dim"]))

    # Lemma pairs: the second lemma's first candidate lies a few steps from
    # the first lemma's, and the gold score falls with that walk length.
    k = p["candidates_per_lemma"]
    lemma_lines, cand_lines = [], []
    for r in range(p["lemma_pairs"]):
        a = int(rng.integers(n))
        steps = 1 + r % 5
        b = a
        for _ in range(steps):
            b = int(rng.choice(adj[b]))
        cands_a = [a] + [int(x) for x in rng.integers(0, n, k - 1)]
        cands_b = [b] + [int(x) for x in rng.integers(0, n, k - 1)]
        gold = 10.0 / (1 + steps) + float(rng.random())
        lemma_lines.append(f"la{r}\tlb{r}\t{gold:.4f}")
        cand_lines.append(f"la{r}\t{','.join(ids[c] for c in cands_a)}")
        cand_lines.append(f"lb{r}\t{','.join(ids[c] for c in cands_b)}")
    (out / "lemma_pairs.tsv").write_text("\n".join(lemma_lines) + "\n", encoding="utf-8")
    (out / "candidates.tsv").write_text("\n".join(cand_lines) + "\n", encoding="utf-8")

    # WSD sentences: each sentence has a topic node; every token's gold
    # sense lies within two steps of it, the other senses anywhere.
    blocks = []
    for s in range(p["sentences"]):
        near = ball(adj, int(rng.integers(n)), 2)
        lines = []
        for t in range(p["tokens_per_sentence"]):
            gold = near[int(rng.integers(len(near)))]
            senses = [gold] + [int(x) for x in rng.integers(0, n, p["senses_per_token"] - 1)]
            senses = [senses[i] for i in rng.permutation(len(senses))]
            lines.append(f"s{s}\t{t}\tw{s}_{t}\t{','.join(ids[c] for c in senses)}\t{ids[gold]}")
        blocks.append("\n".join(lines))
    (out / "wsd.tsv").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return {}


GENERATORS = {"build": gen_build, "train": gen_train, "query": gen_query}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """Digest of this file: cached inputs are reused only while it is unchanged."""
    return sha256(Path(__file__))


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs and `inputs.json` (parameters, facts, digests) into
    `out`, atomically: a half-written directory never appears under that name."""
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    facts = GENERATORS[workload](rng, tmp)
    record = {
        "workload": workload,
        "seed": seed,
        "generator_sha256": source_digest(),
        "params": {"workload": PARAMS[workload], "shape": SHAPE, "counts": COUNTS},
        "facts": facts,
        "sha256": {f.name: sha256(f) for f in sorted(tmp.iterdir())},
    }
    (tmp / "inputs.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    try:
        tmp.rename(out)
    except OSError:  # another run of the same seed finished first
        shutil.rmtree(tmp, ignore_errors=True)
        if not (out / "inputs.json").exists():
            raise


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
