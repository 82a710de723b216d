"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than
the library (dense matrix closures, counting ranks, finite differences)
so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
import struct

import numpy as np


def floyd_warshall_undirected(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """All-pairs shortest path matrix over undirected edges; inf = unreachable."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in edges:
        dist[a, b] = 1.0
        dist[b, a] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def ancestor_closure(n: int, parent_edges: list[tuple[int, int]]) -> list[set[int]]:
    """Reflexive ancestor sets by fixpoint iteration over child->parent edges."""
    parents: list[set[int]] = [set() for _ in range(n)]
    for c, p in parent_edges:
        parents[c].add(p)
    anc = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = set(anc[i])
            for p in parents[i]:
                grown |= anc[p]
            if grown != anc[i]:
                anc[i] = grown
                changed = True
    return anc


def depth_oracle(n: int, parent_edges: list[tuple[int, int]]) -> list[int]:
    """depth = 1 + shortest directed distance to any root, via matrix relaxation."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for c, p in parent_edges:
        dist[c, p] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    has_parent = {c for c, _ in parent_edges}
    roots = [i for i in range(n) if i not in has_parent]
    return [1 + int(min(dist[i, r] for r in roots)) for i in range(n)]


def level_oracle(n: int, parent_edges: list[tuple[int, int]]) -> list[int]:
    """level = edges on the longest directed path to a root, via max-plus
    matrix relaxation (a DAG has no positive cycle, so it converges)."""
    length = np.full((n, n), -np.inf)
    np.fill_diagonal(length, 0.0)
    for c, p in parent_edges:
        length[c, p] = 1.0
    for k in range(n):
        length = np.maximum(length, length[:, k : k + 1] + length[k : k + 1, :])
    # a longest path from a node always ends at a root
    return [int(length[i].max()) for i in range(n)]


def graph_lists_oracle(lines: list[str], virtual_root: str | None = None) -> dict:
    """The graph of an edge-list file's record lines (no comments or blank
    lines), built as Python lists one edge at a time: the ids in order of
    first mention, then the virtual root with every parentless node as its
    child in index order; each node's parents and children in order of
    first mention, a repeated edge dropped; each node's sorted undirected
    neighbours; the roots; and connected components by union-find,
    numbered in order of their smallest node."""
    fields = [line.split("\t") for line in lines]
    ids = list(dict.fromkeys(node for f in fields for node in f))
    index = {node: i for i, node in enumerate(ids)}
    edges = [(index[f[0]], index[f[1]]) for f in fields if len(f) == 2]
    if virtual_root is not None:
        has_parent = {c for c, _ in edges}
        edges += [(i, len(ids)) for i in range(len(ids)) if i not in has_parent]
        ids.append(virtual_root)
    n = len(ids)
    parents: list[list[int]] = [[] for _ in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    boss = list(range(n))

    def find(x: int) -> int:
        while boss[x] != x:
            x = boss[x]
        return x

    for c, p in edges:
        if p not in parents[c]:
            parents[c].append(p)
            children[p].append(c)
        boss[find(c)] = find(p)
    numbers: dict[int, int] = {}
    return {
        "ids": tuple(ids),
        "parents": parents,
        "children": children,
        "neighbors": [sorted(set(parents[i]) | set(children[i])) for i in range(n)],
        "roots": [i for i in range(n) if not parents[i]],
        "components": [numbers.setdefault(find(i), len(numbers)) for i in range(n)],
        "edges": [(c, p) for c in range(n) for p in parents[c]],
    }


def lcs_oracle(
    anc: list[set[int]], depths: list[int], u: int, v: int
) -> int | None:
    """Deepest common ancestor; depth ties to the smallest index."""
    common = anc[u] & anc[v]
    if not common:
        return None
    best = None
    for a in sorted(common):
        if best is None or depths[a] > depths[best]:
            best = a
    return best


def ic_counts_oracle(
    n: int, parent_edges: list[tuple[int, int]], raw: list[float]
) -> tuple[list[float], float]:
    """Propagated counts via explicit descendant enumeration, plus root total."""
    anc = ancestor_closure(n, parent_edges)
    counts = [0.0] * n
    for v in range(n):
        descendants = [u for u in range(n) if v in anc[u]]
        counts[v] = sum(raw[u] for u in descendants)
    has_parent = {c for c, _ in parent_edges}
    total = sum(counts[i] for i in range(n) if i not in has_parent)
    return counts, total


def pipeline_oracle(n, edges, measure, threshold, k, raw_counts=None, max_dist=None):
    """Independent dataset pipeline: dense matrices and full sorts.

    The candidates are the connected pairs, or with `max_dist` the pairs
    at most that many undirected edges apart (fast mode: 2). Returns
    (survivor dict {(i,j): raw}, normalized dict, norm_min, norm_max,
    candidate count, count of candidates passing the threshold).
    """
    dist = floyd_warshall_undirected(n, edges)
    depths = depth_oracle(n, edges)
    anc = ancestor_closure(n, edges)
    max_depth = max(depths)
    if raw_counts is not None:
        counts, total = ic_counts_oracle(n, edges, raw_counts)

    def sim(u, v):
        if measure == "shp":
            return 1.0 / (1.0 + dist[u, v])
        if measure == "lch":
            return -math.log((dist[u, v] + 1) / (2.0 * max_depth))
        lcs = lcs_oracle(anc, depths, u, v)
        if lcs is None:
            return 0.0
        if measure == "wup":
            return 2.0 * depths[lcs] / (depths[u] + depths[v])
        ic = lambda x: math.inf if counts[x] <= 0 else -math.log(counts[x] / total)
        if math.isinf(ic(u)) or math.isinf(ic(v)):
            return 0.0
        denom = ic(u) + ic(v) - 2 * ic(lcs)
        return math.inf if denom < 1e-12 else 1.0 / denom

    reach = n if max_dist is None else max_dist  # an unreachable pair is inf apart
    reached = [(u, v) for u in range(n) for v in range(u + 1, n) if dist[u, v] <= reach]
    candidates = {(u, v): s for u, v in reached if (s := sim(u, v)) >= threshold}
    per_node: dict[int, list[tuple[float, int]]] = {i: [] for i in range(n)}
    for (u, v), s in candidates.items():
        per_node[u].append((s, v))
        per_node[v].append((s, u))
    survivors = {}
    for node, partners in per_node.items():
        partners.sort(key=lambda t: (-t[0], t[1]))
        for s, partner in partners[:k]:
            key = (node, partner) if node < partner else (partner, node)
            survivors[key] = s
    finite = [s for s in survivors.values() if math.isfinite(s)]
    lo, hi = min(finite), max(finite)
    normalized = {
        key: min(1.0, max(0.0, (s - lo) / (hi - lo))) for key, s in survivors.items()
    }
    return survivors, normalized, lo, hi, len(reached), len(candidates)


def top_k_oracle(sources, columns, tgt, sim, n: int, k: int) -> list[tuple[int, bytes]]:
    """Each source's top-k of its (sources[column], target, score) triples by
    a Python sort on (-score, target), as sorted (code min*n + max, score
    bits) entries, one per kept triple."""
    partners: dict[int, list[tuple[float, int]]] = {}
    for column, t, s in zip(columns.tolist(), tgt.tolist(), sim.tolist()):
        partners.setdefault(int(sources[column]), []).append((s, t))
    kept = []
    for source, found in partners.items():
        found.sort(key=lambda p: (-p[0], p[1]))
        kept += [(min(source, t) * n + max(source, t), struct.pack("<d", s)) for s, t in found[:k]]
    return sorted(kept)


def wsd_degree_oracle(tokens, weight, threshold):
    """Degrees, picks and skipped count of a sentence by nested loops.

    `tokens` are (token index, candidates); `weight(u, v)` is a pair's score
    or None when the scorer lacks an end. A candidate listed twice for one
    token counts once, at its first place. Token pairs a before b in listed
    order, then each distinct candidate of a and of b in listed order: a
    weight strictly above `threshold` adds to the (index, candidate) degree
    of a, then of b. Each token then picks the first candidate of highest
    degree.
    """
    tokens = [(index, list(dict.fromkeys(cands))) for index, cands in tokens]
    degree = {}
    for index, cands in tokens:
        for cand in cands:
            degree[(index, cand)] = 0.0
    skipped = 0
    for a in range(len(tokens)):
        for b in range(a + 1, len(tokens)):
            (ia, ca), (ib, cb) = tokens[a], tokens[b]
            for u in ca:
                for v in cb:
                    w = weight(u, v)
                    if w is None:
                        skipped += 1
                    elif w > threshold:
                        degree[(ia, u)] += w
                        degree[(ib, v)] += w
    picks = {}
    for index, cands in tokens:
        for cand in cands:
            if index not in picks or degree[(index, cand)] > degree[(index, picks[index])]:
                picks[index] = cand
    return degree, picks, skipped


def sentence_scores_oracle(inst, scorer):
    """(nodes, pairs, weights, skipped) of one sentence by the per-sentence
    logic: nodes are the (token index, candidate) of each token's distinct
    candidates; one scorer grid over the sentence's distinct candidates
    that the scorer has; the cross-token pairs from a mask of slot pairs,
    put in (token a, token b, candidate of a, candidate of b) order by a
    lexsort; pairs with a candidate the scorer lacks are skipped."""
    slots = [(tok.index, dict.fromkeys(tok.candidates)) for tok in inst.tokens if tok.candidates]
    nodes = [(index, cand) for index, cands in slots for cand in cands]
    slot = np.repeat(np.arange(len(slots)), [len(cands) for _, cands in slots])
    known = list(dict.fromkeys(cand for _, cand in nodes if scorer.has(cand)))
    col = {cand: k for k, cand in enumerate(known)}
    pos = np.array([col.get(cand, -1) for _, cand in nodes], dtype=np.int64)
    a, b = np.nonzero(slot[:, None] < slot[None, :])
    pairs = np.column_stack((a, b))[np.lexsort((b, a, slot[b], slot[a]))]
    cells = pos[pairs]
    scored = (cells >= 0).all(axis=1)
    weights = scorer.grids([(known, known)])[0][cells[scored, 0], cells[scored, 1]]
    return nodes, pairs[scored], weights, len(pairs) - len(weights)


def sentence_degrees_oracle(nodes, pairs, weights, threshold):
    """Each node's degree, in node order: the weights strictly above
    `threshold` added to both ends one pair at a time, in pair order from
    0.0. A node listed twice (two tokens of one index) keeps its own."""
    degree = [0.0] * len(nodes)
    keep = weights > threshold
    for (a, b), w in zip(pairs[keep].tolist(), weights[keep].tolist()):
        degree[a] += w
        degree[b] += w
    return degree


def sentence_picks_oracle(inst, degree):
    """{token index: candidate} of a sentence given its nodes' degrees in
    node order (each token's distinct candidates in turn): scanning each
    token's candidates in listed order, only a strictly higher degree
    displaces the one held, and a later token of the same index replaces
    an earlier one's pick."""
    picks, at = {}, 0
    for tok in inst.tokens:
        held = None
        for cand in dict.fromkeys(tok.candidates):
            if held is None or degree[at] > held[0]:
                held = degree[at], cand
            at += 1
        if held is not None:
            picks[tok.index] = held[1]
    return picks


def spearman_oracle(x: list[float], y: list[float]) -> float:
    """Counting-based fractional ranks, then a hand-rolled Pearson."""

    def ranks(vals: list[float]) -> list[float]:
        out = []
        for a in vals:
            below = sum(1 for b in vals if b < a)
            ties = sum(1 for b in vals if b == a)
            out.append(below + (ties + 1) / 2.0)
        return out

    rx = ranks(x)
    ry = ranks(y)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def model_score_oracle(matrix: np.ndarray, i: int, j: int, mode: str) -> float:
    """Dot or cosine of rows i and j, one 1-D float64 `a @ b` per product
    (np.dot, unlike `@`, returns -0.0 for a one-element product of 0 and a
    negative entry).

    Cosine: 0.0 when either row's norm is below 1e-300, exactly 1.0 for a
    row with itself, otherwise dot / (|a| * |b|).
    """
    a = np.array(matrix[i], dtype=np.float64)
    b = np.array(matrix[j], dtype=np.float64)
    dot = float(a @ b)
    if mode == "dot":
        return dot
    norm_a = math.sqrt(float(a @ a))
    norm_b = math.sqrt(float(b @ b))
    if norm_a < 1e-300 or norm_b < 1e-300:
        return 0.0
    if i == j:
        return 1.0
    return dot / (norm_a * norm_b)


def finite_difference_grads(loss_fn, matrix: np.ndarray, rows, h: float = 1e-5):
    """Central-difference gradient of loss_fn(matrix) for the given rows."""
    grads = np.zeros((len(rows), matrix.shape[1]))
    for r_pos, r in enumerate(rows):
        for c in range(matrix.shape[1]):
            orig = matrix[r, c]
            matrix[r, c] = orig + h
            hi = loss_fn(matrix)
            matrix[r, c] = orig - h
            lo = loss_fn(matrix)
            matrix[r, c] = orig
            grads[r_pos, c] = (hi - lo) / (2 * h)
    return grads


def prufer_tree(n: int, seed: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n nodes from a Prüfer sequence."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    rng = np.random.default_rng(seed)
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return edges


def load_embeddings_oracle(path, dtype: str = "float32") -> tuple[list[str], np.ndarray]:
    """The embedding text reader as one readline() and one float() per token.

    Reads the first N rows of the `N d` text format and ignores the rest
    of the file. Raises ValueError with the same file:line messages as
    trainer.load_embeddings.
    """
    p = str(path)
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{p}:1: expected header `N d`")
        try:
            n, d = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{p}:1: bad header {' '.join(header)!r}") from None
        ids: list[str] = []
        matrix = np.empty((n, d), dtype=dtype)
        for k in range(n):
            fields = fh.readline().split()
            if len(fields) != d + 1:
                raise ValueError(f"{p}:{k + 2}: expected node id and {d} values")
            ids.append(fields[0])
            try:
                matrix[k] = [float(x) for x in fields[1:]]
            except ValueError:
                raise ValueError(f"{p}:{k + 2}: non-numeric vector entry") from None
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{p}: non-finite embedding entries")
    return ids, matrix


def records_oracle(path, layout: str) -> list[tuple[int, str, list[str]]]:
    """(paragraph, file:line, fields) of each record of a TAB-separated file,
    by the line policy of taxovec.io read one whole file at a time: blank
    lines advance the paragraph, `#` lines are skipped, fields are split on
    TAB and stripped. A bad line raises ValueError with the library's text."""
    names = layout.replace("[", "").replace("]", "").split("<TAB>")
    least = layout.split("[")[0].count("<TAB>") + 1
    with open(path, encoding="utf-8-sig") as fh:  # universal newlines: every line end is "\n"
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    out, paragraph = [], 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            paragraph += 1
        elif not line.strip().startswith("#"):
            fields = [f.strip() for f in line.split("\t")]
            if not least <= len(fields) <= len(names):
                allowed = " or ".join(str(k) for k in range(least, len(names) + 1))
                raise ValueError(f"{path}:{lineno}: expected {allowed} tab-separated "
                                 f"fields `{layout}`, got {len(fields)}")
            if "" in fields:
                raise ValueError(f"{path}:{lineno}: empty {names[fields.index('')]}")
            out.append((paragraph, f"{path}:{lineno}", fields))
    return out
