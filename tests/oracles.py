"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms than
the library (dense matrix closures, counting ranks, finite differences)
so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math

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
