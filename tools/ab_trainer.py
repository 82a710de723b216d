"""A/B the trainer at a git revision against the working tree's.

Loads `src/taxovec/trainer.py` as committed at REV (`git show REV:...`)
next to the working tree's module; both import the rest of taxovec from
the working tree. On perfbench-generated `train` inputs (d=300, float32,
2 epochs, with the dev set, as the benchmark's `train` workload) it
checks that the two save byte-identical embeddings, then alternates
`train()` runs and prints each side's median and quartiles and how many
pairs the working tree won. `--star` runs the same on a star graph
instead (one root, LEAVES leaves, every root-leaf pair at s=1, one
epoch, no dev set) and prints `train()` time per batch: the root recurs
in nearly every entry, the worst case for a per-row gradient sum.

    python3 tools/ab_trainer.py --rev HEAD --seeds 5 6 7 --pairs 10
    python3 tools/ab_trainer.py --rev HEAD --star --batch-sizes 100 1000

Run it from the repository root. Inputs go under a temporary directory
unless --work names one.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench's input generator, used read-only)

from taxovec import trainer as work_trainer  # noqa: E402
from taxovec.dataset import Pairs, read_pairs  # noqa: E402
from taxovec.graph import TaxonomyGraph, load_edge_list  # noqa: E402

TRAIN_DIM = 300  # as perfbench's train workload
TRAIN_EPOCHS = 2


def trainer_at(rev: str):
    """The trainer module as committed at rev, in the taxovec package."""
    src = subprocess.run(["git", "show", f"{rev}:src/taxovec/trainer.py"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    spec = importlib.util.spec_from_loader("taxovec._trainer_at_rev", loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "taxovec"
    sys.modules[spec.name] = module  # dataclasses look their module up there
    exec(compile(src, f"{rev}:src/taxovec/trainer.py", "exec"), module.__dict__)
    return module


def bench_inputs(seed: int, work: Path) -> tuple[TaxonomyGraph, Pairs, Pairs]:
    out = work / f"train-{seed}"
    if not (out / "inputs.json").exists():
        gen.generate("train", seed, out)
    pairs, _ = read_pairs(out / "pairs.tsv")
    dev, _ = read_pairs(out / "dev.tsv")
    return load_edge_list(out / "graph.tsv"), pairs, dev


def star_inputs(leaves: int) -> tuple[TaxonomyGraph, Pairs]:
    ids = ["root"] + [f"leaf{k}" for k in range(leaves)]
    g = TaxonomyGraph(ids, [(leaf, "root") for leaf in ids[1:]])
    return g, Pairs.from_rows(("root", leaf, 1.0) for leaf in ids[1:])


def saved_bytes(module, pairs, g, cfg, work: Path) -> bytes:
    path = work / "embedding.txt"
    module.save_embeddings(module.train(pairs, g, cfg), path)
    return path.read_bytes()


def alternate(sides: dict, pairs, g, cfg, n_pairs: int) -> dict[str, list[float]]:
    """n_pairs rounds of one train() per side, the side that runs first alternating."""
    times: dict[str, list[float]] = {name: [] for name in sides}
    names = list(sides)
    for k in range(n_pairs):
        for name in names if k % 2 == 0 else names[::-1]:
            t0 = time.perf_counter()
            sides[name].train(pairs, g, cfg)
            times[name].append(time.perf_counter() - t0)
    return times


def report(label: str, times: dict[str, list[float]], scale: float, unit: str) -> None:
    (base_name, base), (work_name, work) = times.items()
    for name, xs in times.items():
        q1, med, q3 = (scale * x for x in statistics.quantiles(xs, n=4, method="inclusive"))
        print(f"{label} {name}: median {med:.4g} {unit}, quartiles {q1:.4g}-{q3:.4g}")
    wins = sum(w < b for b, w in zip(base, work))
    change = statistics.median(work) / statistics.median(base) - 1
    print(f"{label} {work_name} won {wins}/{len(base)} pairs, median {change:+.1%} against {base_name}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="git revision of the baseline trainer")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5])
    ap.add_argument("--pairs", type=int, default=10, help="alternating rounds per case")
    ap.add_argument("--star", action="store_true", help="time a star graph instead")
    ap.add_argument("--leaves", type=int, default=2000)
    ap.add_argument("--batch-sizes", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--work", type=Path, help="directory for inputs and embeddings")
    args = ap.parse_args()

    sides = {args.rev: trainer_at(args.rev), "working tree": work_trainer}
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        cases = []
        if args.star:
            g, pairs = star_inputs(args.leaves)
            for size in args.batch_sizes:
                cfg = work_trainer.TrainConfig(d=TRAIN_DIM, epochs=1, seed=args.seeds[0], batch_size=size)
                cases.append((f"star {args.leaves} leaves, batch {size}", g, pairs, cfg))
        else:
            for seed in args.seeds:
                g, pairs, dev = bench_inputs(seed, work)
                cfg = work_trainer.TrainConfig(d=TRAIN_DIM, epochs=TRAIN_EPOCHS, seed=seed,
                                               early_stop_patience=TRAIN_EPOCHS, dev_set=dev)
                cases.append((f"train seed {seed}", g, pairs, cfg))
        for label, g, pairs, cfg in cases:
            same = len({saved_bytes(m, pairs, g, cfg, work) for m in sides.values()}) == 1
            print(f"{label}: saved embeddings {'byte-identical' if same else 'DIFFER'}")
            if not same:
                sys.exit(1)
            times = alternate(sides, pairs, g, cfg, args.pairs)
            if args.star:
                batches = math.ceil(len(pairs) * (1 + sum(cfg.negatives_per_side())) / cfg.batch_size)
                report(label, times, 1e3 / batches, "ms per batch")
            else:
                report(label, times, 1.0, "s per train()")


if __name__ == "__main__":
    main()
