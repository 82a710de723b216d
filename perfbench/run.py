"""taxovec benchmark: one run of one workload.

    python3 perfbench/run.py --workload {build,train,query} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program under test is imported from
`src/taxovec` next to this directory; without it the run exits with
code 2 and prints no result. Inputs are generated from the seed (cached
under `.perfbench_work/inputs`) and set up at least five times and for
at least a second; then the workload's ops repeat for S seconds with
every output checked. Times are rescaled to a fixed machine speed
measured during the run (see speed.py).

With `--trace 0` the metrics are the end-to-end figures, measured with
tracing off; with `--trace 1` they are the per-layer figures, with spans
recorded around every call into taxovec. The last line of standard
output is the result as one JSON object; the lines before it print the
workload's named metrics with units. A JSON report (environment, input
parameters and digests, every metric) and, for traced runs, the spans
go to `.perfbench_work/reports`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS/OpenMP thread: a single client on a shared 2-core machine
# measures steadier with one, and nproc is the upper limit either way.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INPUT_CACHE_KEEP = 3  # cached seeds kept per workload
GEN_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("graph", "metrics", "dataset", "trainer", "evaluation", "wsd", "bench", "manifest", "perfbench")
# the build kinds of workloads.BUILD_KINDS, repeated so that reading this
# list does not import numpy before the BLAS pin
KINDS = ("full_shp", "full_wup", "full_jcn", "fast_shp")
PER_LAYER = {
    "graph.load_s": "s", "graph.depths_s": "s", "graph.ancestors_s": "s", "graph.bfs_ms": "ms",
    "graph.nodes": "count", "graph.edges": "count",
    "metrics.ic_s": "s", "metrics.pair_us": "us", "metrics.pair_calls": "count",
    **{f"dataset.build_s.{k}": "s" for k in KINDS},
    "dataset.write_s": "s", "dataset.read_s": "s",
    **{f"dataset.candidates.{k}": "count" for k in KINDS},
    **{f"dataset.kept.{k}": "count" for k in KINDS},
    **{f"dataset.pairs.{k}": "count" for k in KINDS},
    **{f"dataset.useful_frac.{k}": "ratio" for k in KINDS},
    "trainer.epoch_s": "s", "trainer.make_batches_s": "s", "trainer.grads_s": "s",
    "trainer.dev_s": "s", "trainer.other_s": "s", "trainer.save_s": "s", "trainer.load_s": "s",
    "trainer.score_us": "us", "trainer.batches": "count", "trainer.entries": "count",
    "trainer.touched_rows_mean": "count",
    "evaluation.static_s": "s", "evaluation.dynamic_s": "s", "evaluation.spearman_ms": "ms",
    "evaluation.records": "count", "evaluation.excluded": "count", "evaluation.pairs_tried": "count",
    "wsd.disambiguate_s": "s", "wsd.candidate_pairs": "count", "wsd.skipped": "count",
    "bench.graph_ms": "ms", "bench.dot_ms": "ms", "bench.dot_bytes": "bytes",
    "bench.dot_gbps": "GB/s", "bench.speedup": "ratio", "bench.mem_bytes": "bytes",
    "bench.mem_gbps": "GB/s", "bench.dot_bw_frac": "ratio",
    "manifest.write_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count",
    "perfbench.ref_ms": "ms",
}


def environment() -> dict:
    import numpy as np

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    from workloads import llc_bytes

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "client": "one process, one closed-loop client",
    }


def inputs_for(workload: str, seed: int) -> Path:
    """Generated inputs for (workload, seed), made in a child process so
    that generation neither counts towards set-up time nor raises the
    benchmark's peak RSS."""
    import gen

    cache = WORK / "inputs"
    out = cache / f"{workload}-s{seed}-{gen.source_digest()[:12]}"
    if not (out / "inputs.json").is_file():
        cache.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
            check=True, timeout=GEN_TIMEOUT_S,
        )
    out.touch()
    entries = sorted(cache.glob(f"{workload}-s*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[INPUT_CACHE_KEEP:]:
        if old != out and old.is_dir():
            shutil.rmtree(old, ignore_errors=True)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one taxovec benchmark workload.")
    ap.add_argument("--workload", required=True, choices=("build", "train", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True  # leave no caches in the benchmark's directory
    if not (SRC / "taxovec" / "__init__.py").is_file():
        print(f"taxovec sources not found under {SRC}; run from a taxovec checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import taxovec

    if not Path(taxovec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported taxovec from {taxovec.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Run, peak_rss_mb

    inputs = inputs_for(args.workload, args.seed)
    record = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
    out = WORK / "out" / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    run = Run(args.seed, args.seconds, bool(args.trace), inputs, out, record)
    wl = WORKLOADS[args.workload](run)
    try:
        run.tr.enabled = run.traced
        wl.prepare(run.setup(wl.load))
        run.measure(wl.run_pass)
        named = {
            "setup_s": (run.med("setup"), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "fail_frac": (run.failed / max(run.attempted, 1), "ratio"),
            **wl.report(),
            "reference_ms": (run.speed.median_ms(), "ms"),
        }
        if args.trace:
            metrics = dict.fromkeys(PER_LAYER, 0)
            metrics.update(run.counts)
            metrics.update(wl.layers())
            pass_spans = [s for s in run.tr.spans if s.op is not None]
            traced = len(run.samples["pass.traced"])
            for layer, secs in run.tr.self_seconds(pass_spans, run.speed.factor).items():
                metrics[f"{layer}.self_s"] = secs / traced
            metrics["trace.overhead_s"] = run.med("pass.traced") - run.med("pass.untraced")
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / run.med("pass.untraced")
            metrics["trace.spans"] = len(run.tr.spans)
            metrics["perfbench.ref_ms"] = run.speed.median_ms()
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": run.med("setup"),
                "pass_s": run.per_pass(wl.pass_keys),
                "peak_rss_mb": named["peak_rss_mb"][0],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(out, ignore_errors=True)

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the declared list: {sorted(unknown)}")
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        run.tr.write(reports / f"{stem}.spans.jsonl")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "inputs": record,
        "passes": {k: len(run.samples[k]) for k in ("pass.untraced", "pass.traced")},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": metrics,
    }
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("environment:", json.dumps(report["environment"]))
    print("inputs:", inputs.name, " ".join(f"{f}={h[:12]}" for f, h in record["sha256"].items()))
    for name, (value, unit) in named.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"report: {reports / f'{stem}.json'}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
