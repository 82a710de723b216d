"""A/B the dataset build at a git revision against the working tree's.

Extracts `src/taxovec` as committed at REV (`git archive`) into a
temporary directory and imports it, under another package name, next to
the working tree's package. On perfbench-generated `build` inputs (full
mode on the 400-node graph, fast mode on the 3,000-node one, as the
benchmark's `build` workload) it checks that the two sides write
byte-identical pairs files for shp, lch, wup and jcn in full and fast
mode, then alternates build + write_pairs runs per case and prints each
side's median and quartiles and how many pairs the working tree won.

`--nodes N --measure M` instead runs one full-mode build per side on a
`gen.make_dag` graph of N nodes (seed: the first of --seeds), each in a
child process, and prints its seconds, peak RSS (ru_maxrss) and whether
the two pairs files are byte-identical.

    python3 tools/ab_build.py --rev HEAD --seeds 5 6 --pairs 10
    python3 tools/ab_build.py --rev HEAD --nodes 82000 --measure shp

Run it from the repository root. Inputs go under a temporary directory
unless --work names one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench's input generator, used read-only)

MEASURES = ("shp", "lch", "wup", "jcn")
MODES = ("full", "fast")


def package(root: Path, name: str):
    """Import the taxovec package under `root` (a directory holding
    taxovec/) as `name`; its modules import each other relatively."""
    spec = importlib.util.spec_from_file_location(
        name, root / "taxovec" / "__init__.py", submodule_search_locations=[str(root / "taxovec")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("dataset", "graph", "metrics"):
        importlib.import_module(f"{name}.{sub}")
    return module


def extract(rev: str, into: Path) -> Path:
    """src/taxovec as committed at rev, written under `into`; returns the directory holding taxovec/."""
    archive = subprocess.run(["git", "archive", rev, "src/taxovec"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def build_once(pkg, g, measure: str, mode: str, table, out: Path) -> float:
    """Seconds of one build + write_pairs, as the benchmark's build pass times them."""
    cfg = pkg.dataset.DatasetConfig(measure=measure, mode=mode)
    builder = pkg.dataset.build_fast if mode == "fast" else pkg.dataset.build_full
    t0 = time.perf_counter()
    pkg.dataset.write_pairs(out, builder(g, cfg, ic_table=table if measure == "jcn" else None))
    return time.perf_counter() - t0


def report(label: str, times: dict[str, list[float]]) -> None:
    (base_name, base), (work_name, work) = times.items()
    for name, xs in times.items():
        q1, med, q3 = (1e3 * x for x in statistics.quantiles(xs, n=4, method="inclusive"))
        print(f"{label} {name}: median {med:.4g} ms, quartiles {q1:.4g}-{q3:.4g}")
    wins = sum(w < b for b, w in zip(base, work))
    change = statistics.median(work) / statistics.median(base) - 1
    print(f"{label} {work_name} won {wins}/{len(base)} pairs, median {change:+.1%} against {base_name}")


def compare(sides: dict, seeds: list[int], n_pairs: int, work: Path) -> None:
    totals: dict[str, list[float]] = {name: [0.0] * n_pairs for name in sides}
    for seed in seeds:
        inputs = work / f"build-{seed}"
        if not (inputs / "inputs.json").exists():
            gen.generate("build", seed, inputs)
        loaded = {}
        for name, pkg in sides.items():
            graphs = {mode: pkg.graph.load_edge_list(inputs / f"{mode}_graph.tsv") for mode in MODES}
            tables = {mode: pkg.metrics.propagate_counts(g, pkg.metrics.load_raw_counts(inputs / "full_counts.tsv", g))
                      for mode, g in graphs.items()}
            loaded[name] = graphs, tables
        for measure in MEASURES:
            for mode in MODES:
                label = f"seed {seed} {mode} {measure}"
                digests = set()
                for name, pkg in sides.items():
                    graphs, tables = loaded[name]
                    out = work / f"pairs-{len(digests)}.tsv"
                    build_once(pkg, graphs[mode], measure, mode, tables[mode], out)
                    digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
                print(f"{label}: pairs files {'byte-identical' if len(digests) == 1 else 'DIFFER'}")
                if len(digests) != 1:
                    sys.exit(1)
                times: dict[str, list[float]] = {name: [] for name in sides}
                names = list(sides)
                for k in range(n_pairs):
                    for name in names if k % 2 == 0 else names[::-1]:
                        graphs, tables = loaded[name]
                        secs = build_once(sides[name], graphs[mode], measure, mode, tables[mode], work / "pairs.tsv")
                        times[name].append(secs)
                        totals[name][k] += secs
                report(label, times)
    report("all cases", totals)


def child(root: Path, graph: Path, measure: str, out: Path) -> None:
    """One full build + write_pairs with the package under `root`; prints seconds and peak RSS as JSON."""
    pkg = package(root, "taxovec_side")
    g = pkg.graph.load_edge_list(graph)
    secs = build_once(pkg, g, measure, "full", None, out)
    print(json.dumps({"seconds": secs, "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def large(roots: dict[str, Path], nodes: int, seed: int, measure: str, work: Path) -> None:
    graph = work / f"dag-{nodes}-{seed}.tsv"
    if not graph.exists():
        gen.write_graph(graph, gen.make_dag(np.random.default_rng(seed), nodes))
    digests = set()
    for k, (name, root) in enumerate(roots.items()):
        out = work / f"large-{k}.tsv"
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(root), "--graph", str(graph), "--measure", measure,
             "--output", str(out)], check=True, capture_output=True, text=True)
        result = json.loads(done.stdout)
        print(f"{nodes} nodes, full {measure}, {name}: {result['seconds']:.2f} s, peak RSS {result['maxrss_mb']:.0f} MB")
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    print(f"pairs files {'byte-identical' if len(digests) == 1 else 'DIFFER'}")
    if len(digests) != 1:
        sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="git revision of the baseline src/")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5])
    ap.add_argument("--pairs", type=int, default=10, help="alternating rounds per case")
    ap.add_argument("--nodes", type=int, help="one full build per side on a make_dag graph this large")
    ap.add_argument("--measure", choices=MEASURES, default="shp", help="the measure of the --nodes build")
    ap.add_argument("--work", type=Path, help="directory for inputs and pairs files")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--graph", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--output", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.graph, args.measure, args.output)
        return

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        roots = {args.rev: extract(args.rev, Path(tmp) / "rev"), "working tree": ROOT / "src"}
        if args.nodes:
            large(roots, args.nodes, args.seeds[0], args.measure, work)
        else:
            sides = {name: package(root, f"taxovec_side{k}") for k, (name, root) in enumerate(roots.items())}
            compare(sides, args.seeds, args.pairs, work)


if __name__ == "__main__":
    main()
