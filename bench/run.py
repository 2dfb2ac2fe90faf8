"""artigen benchmark: dataset throughput and joint-sweep rate, with per-layer spans.

    python3 bench/run.py --workload dataset --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from `src/`
next to this directory, and nothing needs installing. One process, one
client, closed loop: each asset starts when the previous one has finished.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same assets
untraced and then traced, and prints the per-layer metrics, the stage
decomposition and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object. The exit code is 1 when an
output check fails, and the run stops without a result when the program
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spans import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Bundles and span dumps go here, inside the checkout.
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Set-up as a user pays it: interpreter start, imports, one asset per category.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import artigen, workloads; workloads.warm_up()"
)


def load_program():
    """Import `artigen` from this checkout's `src/`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import artigen
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import artigen from {SRC}: {exc}") from None
    if Path(artigen.__file__).resolve().parent != SRC / "artigen":
        raise SystemExit(f"bench: artigen was imported from {artigen.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of its warm-up."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH)],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def tail_percentile(values, q: float = 0.9):
    """(percentile, value) at q, or at the highest percentile that still has
    at least ten samples beyond it; the median when no percentile has."""
    xs = sorted(values)
    i = min(math.ceil(q * len(xs)) - 1, len(xs) - 11)
    if i < 0:
        return 50, statistics.median(xs)
    return 100 * (i + 1) // len(xs), xs[i]


def cycle_rate(op_ms, size: int) -> float:
    """Median over round-robin cycles (one asset per category) of assets per second.

    Rare assets that cost a hundred times the usual (a lamp whose parts touch
    in every configuration) would swing a plain mean from seed to seed; the
    plain rate is printed next to this one.
    """
    cycles = [op_ms[i : i + size] for i in range(0, len(op_ms) - size + 1, size)] or [op_ms]
    return statistics.median(1000.0 * len(c) / sum(c) for c in cycles)


def end_to_end(tally, cycle: int) -> dict:
    q, p90 = tail_percentile(tally.op_ms)
    out = {
        "assets_per_s": (cycle_rate(tally.op_ms, cycle), "1/s"),
        "asset_ms_p50": (statistics.median(tally.op_ms), "ms"),
        "asset_ms_p90": (p90, "ms"),
    }
    if q != 90:
        print(f"note: asset_ms_p90 is p{q}; {len(tally.op_ms)} samples cannot fill the p90 tail")
    return out


def print_metrics(metrics: dict, label: str = "") -> None:
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{label}{name} {shown} {unit}")


def print_pass(workload: str, tally, label: str = "") -> None:
    print(f"{label}samples {len(tally.op_ms)} assets over {tally.busy_s:.3f} s of operations, "
          f"plain mean rate {len(tally.op_ms) / tally.busy_s:.6g} 1/s")
    if workload != "dataset":
        # For the sweeps the per-asset latency is build plus sweep.
        print(f"{label}check_ms_p50 = asset_ms_p50, check_ms_p90 = asset_ms_p90")
        print(f"{label}configs_per_s {tally.configs / tally.sweep_s:.6g} 1/s "
              f"({tally.configs} configs in {tally.sweep_s:.3f} s inside sweep_check)")
    print(f"{label}failed_ratio {len(tally.failures) / tally.attempted:.6g} "
          f"({len(tally.failures)}/{tally.attempted})")


def per_layer(wl, tally, traced, decomp, decomposed, nodes, untraced) -> dict:
    m = {}
    for name in (
        "pipeline.build_instance",
        "export.urdf",
        "export.mjcf",
        "export.manifest",
        "collision.sweep",
    ):
        m[name + "_ms"] = (traced.mean_ms(name, tally.attempted), "ms")
    k = len(decomposed)
    for name in wl.DECOMPOSITION + wl.PROBES:
        m[name + "_ms"] = (decomp.mean_ms(name, k), "ms")
    built = decomp.per_asset_ms("pipeline.build_instance")
    stages = [decomp.per_asset_ms(name) for name in wl.DECOMPOSITION]
    gap = sum(built[i] - sum(s[i] for s in stages) for i, _, _ in decomposed)
    m["pipeline.decomposition_gap_ms"] = (gap / k, "ms")
    for name, unit in wl.COUNTS.items():
        m[name] = (tally.counts.get(name, 0), unit)
    m["generators.nodes"] = (nodes, "count")
    rate = tally.configs / tally.sweep_s if tally.sweep_s else 0.0
    m["collision.configs_per_s"] = (rate, "1/s")
    overhead = 100.0 * (sum(tally.op_ms) / sum(untraced.op_ms) - 1.0)
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES, prefix: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = load_program()
    if workload not in wl.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; choose from {sorted(wl.WORKLOADS)}")
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}); one process, "
          "one client, closed loop, no worker pool")
    cycle = len(wl.WORKLOADS[workload].categories)
    setup = measure_setup(probes)
    wl.warm_up()
    OUT.mkdir(exist_ok=True)
    bundles = Path(tempfile.mkdtemp(prefix="bundles-", dir=OUT))
    try:
        untraced = wl.run_pass(workload, seed, seconds, Recorder(False), bundles, prefix=prefix)
        if not untraced.op_ms:
            raise SystemExit(f"bench: no asset succeeded; first failure {untraced.failures[0]}")
        if trace:
            traced_rec, decomp_rec = Recorder(True), Recorder(True)
            tally = wl.run_pass(workload, seed, seconds, traced_rec, bundles,
                                limit=untraced.attempted, prefix=prefix)
            decomposed = [a for a in tally.done if a[0] < tally.prefix]
            nodes = wl.decompose(decomposed, decomp_rec)
        else:
            tally = untraced
    finally:
        shutil.rmtree(bundles, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(end_to_end(untraced, cycle))
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    print(f"setup probes s: {' '.join(f'{t:.4f}' for t in setup)}")
    print_metrics(metrics)
    print_pass(workload, untraced)
    if workload == "dataset":
        print(f"bundle_sha256 {tally.digest.hexdigest()} over the first {tally.prefix} assets; "
              "bundles were written to a temporary directory and removed, so writes "
              "landed in the page cache, not necessarily on disk")
    # A traced pass repeats the same assets, so it repeats these lines too.
    for line in untraced.findings:
        print(f"finding {line}")
    for f in untraced.failures:
        print(f"failure stage={f.stage} type={f.exc_type} category={f.category} "
              f"seed={f.seed}: {f.message}")
    errors = untraced.errors + (tally.errors if trace else [])
    for e in errors:
        print(f"CHECK FAILED {e}")

    if trace:
        layers = per_layer(wl, tally, traced_rec, decomp_rec, decomposed, nodes, untraced)
        print_metrics(end_to_end(tally, cycle), "traced ")
        print_pass(workload, tally, "traced ")
        print_metrics(layers, "layer ")
        stage_sum = sum(layers[name + "_ms"][0] for name in wl.DECOMPOSITION)
        print(f"decomposition over {len(decomposed)} assets: "
              + " + ".join(f"{n} {layers[n + '_ms'][0]:.3f}" for n in wl.DECOMPOSITION)
              + f" = {stage_sum:.3f} ms; build_instance span minus these: "
              f"{layers['pipeline.decomposition_gap_ms'][0]:.3f} ms; graph.validate runs "
              "inside both extract_blueprint and evaluate (twice per build)")
        with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
            traced_rec.write_jsonl(fh, "traced")
            decomp_rec.write_jsonl(fh, "decomposition")
        metrics = layers

    return {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
