"""Benchmark of the graph -> spectrum -> graph pipeline.

    python3 perfbench/run.py --workload game|curve|recovery --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
process, one thread, one caller.  Set-up is the import of the library
plus the corpus build and a warm-up operation; each part is timed five
times and the sum of the two medians is reported.  The timed loop then repeats
whole passes over the seeded corpus until S seconds have gone and at least
three passes are done; each operation is timed from call to return, and
rates are the median over passes.  Outputs are reduced to what the checks
need right after each operation (untimed) and checked after the loop;
peak memory is read before the checks import their own libraries.  The
last line of standard output is one JSON object.

With --trace 0 the end-to-end metrics are reported.  With --trace 1
untraced and traced passes alternate; the traced ones give the per-layer
metrics (per operation) and the difference between the two gives the
tracing overhead.  Spans are written once, at the end, to
perfbench/out/trace-<workload>-<seed>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("game", "curve", "recovery"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Put src/ on the path and import the library there; returns the median
    time of a fresh import, measured SETUP_REPEATS times in a new
    interpreter so that this process keeps one copy of the modules."""
    src = ROOT / "src"
    if not (src / "graphspectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source under {src}")
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import graphspectra; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code, str(src)],
                                  capture_output=True, text=True, check=True,
                                  timeout=120).stdout)
             for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(src))
    import graphspectra  # noqa: F401
    return statistics.median(times)


def no_span(_name):
    return nullcontext()


def set_up(wl, seed):
    """Corpus build plus one warm-up operation, from cold library caches."""
    from graphspectra import catalog, reconstruct
    for fn in (getattr(catalog, "all_graphs", None),
               getattr(catalog, "connected_graphs", None),
               getattr(reconstruct, "_component_size_products", None)):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    corpus = wl.build(seed)
    wl.run(wl.warmup_input(), no_span)
    return corpus


class Pass:
    def __init__(self):
        self.ops = self.failed = 0
        self.wall = self.cpu = 0.0
        self.bytes = self.primes = 0


def run_pass(wl, corpus, records, span, op_span):
    """One pass over the corpus.  records maps an operation's index to the
    distinct digests its output has had, so that every output is checked
    while memory does not grow with the number of passes."""
    p = Pass()
    for idx, inp in enumerate(corpus):
        p.ops += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with op_span("op"):
                out = wl.run(inp, span)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        p.wall += time.perf_counter() - t0
        p.cpu += time.process_time() - c0
        if isinstance(out, Exception):
            p.failed += 1
            print(f"operation {idx} failed: {type(out).__name__}: {out}",
                  file=sys.stderr)
            continue
        d = wl.digest(inp, out)
        p.bytes += d["bytes"]
        p.primes += d.get("primes", 0)
        seen = records.setdefault(idx, [])
        if d not in seen:
            seen.append(d)
    return p


def check_all(workload, corpus, records):
    from checks import CHECKS, CheckFailed
    make_ref, check = CHECKS[workload]
    bad = 0
    for idx, digests in records.items():
        try:
            ref = make_ref(corpus[idx])
            for d in digests:
                check(ref, d)
        except CheckFailed as exc:
            bad += 1
            print(f"check failed on operation {idx}: {exc}", file=sys.stderr)
    return bad == 0


def end_to_end(passes, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = sum(p.ops for p in passes)
    return {
        "ops_per_s": (statistics.median(p.ops / p.wall for p in passes), "1/s"),
        "cpu_ms_per_op": (statistics.median(1000 * p.cpu / p.ops for p in passes), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "output_kb": (sum(p.bytes for p in passes) / 1024 / ops, "KiB/op"),
        "setup_s": (setup_s, "s"),
    }


TIMED_LAYERS = [  # (metric, span, total or self time)
    ("spectra.sym_eigs.s", "spectra.sym_eigs", 0),
    ("graphs.level_laplacian.s", "graphs.level_laplacian", 0),
    ("spectra.simulate_spectrum.self_s", "spectra.simulate_spectrum", 1),
    ("spectra.cluster_and_assign.s", "spectra.cluster_and_assign", 0),
    ("spectra.recover_spectral_poly.self_s", "spectra.recover_spectral_poly", 1),
    ("polynomials.interpolate_spectral_poly.s", "polynomials.interpolate_spectral_poly", 0),
    ("spectra.spectrum_text.s", "spectra.spectrum_text", 0),
    ("polynomials.spectral_polynomial.self_s", "polynomials.spectral_polynomial", 1),
    ("polynomials.spoly_text.s", "polynomials.spoly_text", 0),
    ("reconstruct.decode_forest_family.s", "reconstruct.decode_forest_family", 0),
    ("reconstruct.realize_graph.self_s", "reconstruct.realize_graph", 1),
    ("forests.enumerate_forests.s", "forests.enumerate_forests", 0),
    ("game.handle.self_s", "game.handle", 1),
    ("game.solver.self_s", "game.solver", 1),
    ("trace.unattributed_s", "op", 1),
]


def per_layer(workload, tracer, traced, untraced):
    from spans import OP
    ops = sum(p.ops for p in traced)
    times = tracer.self_times()
    spanned = sum(self_s for _, self_s, _ in times.values())
    op_wall = times[OP][0]
    if abs(spanned - op_wall) > 1e-6 * max(op_wall, 1.0):
        raise RuntimeError(f"self times add up to {spanned} s, ops took {op_wall} s")
    out = {}
    for metric, span, use_self in TIMED_LAYERS:
        out[metric] = (times.get(span, (0.0, 0.0, 0))[use_self] / ops, "s/op")
    sym_calls = times.get("spectra.sym_eigs", (0, 0, 0))[2]
    out["spectra.sym_eigs.calls"] = (sym_calls / ops, "calls/op")
    out["spectra.working_bits.sum"] = (
        tracer.counts["spectra.working_bits.sum"] / ops, "bits/op")
    out["spectra.working_bits.max"] = (tracer.bits_max, "bits")
    out["polynomials.charpoly.calls"] = (
        tracer.counts["polynomials.charpoly.calls"] / ops, "calls/op")
    out["reconstruct.trees_examined"] = (
        tracer.counts["reconstruct.trees_examined"] / ops, "trees/op")
    kb = sum(p.bytes for p in traced) / 1024 / ops
    out["spectra.spectrum_text.kb"] = (kb if workload == "recovery" else 0.0, "KiB/op")
    out["game.wire_kb"] = (kb if workload == "game" else 0.0, "KiB/op")
    out["game.primes_used"] = (sum(p.primes for p in traced) / ops, "primes/op")
    out["trace.overhead_s"] = (
        sum(p.wall for p in traced) / ops
        - sum(p.wall for p in untraced) / sum(p.ops for p in untraced), "s/op")
    return out


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = set_up(wl, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    records, untraced, traced = {}, [], []
    tracer = None
    if args.trace:
        from spans import Tracer, installed
        tracer = Tracer()
    loop_start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(untraced):
            with installed(tracer):
                traced.append(run_pass(wl, corpus, records, tracer.span, tracer.span))
        else:
            untraced.append(run_pass(wl, corpus, records, no_span, no_span))
        if (time.perf_counter() - loop_start >= args.seconds
                and len(untraced) + len(traced) >= MIN_PASSES
                and (traced or not args.trace)):
            break

    if args.trace:
        metrics = per_layer(args.workload, tracer, traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_s)
    passes = untraced + traced
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = check_all(args.workload, corpus, records)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:42s} {value:14.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
