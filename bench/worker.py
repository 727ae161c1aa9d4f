"""The workload process: set-up, timed blocks, checks, metrics.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED``.  With
``--probe`` it only sets up (import, first block of inputs, session
state) and reports how long that took; the timed run starts such
probes between blocks to sample ``setup_s`` across the run.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import twogen  # noqa: E402

if not os.path.abspath(twogen.__file__).startswith(SRC + os.sep):
    sys.exit("twogen was imported from %s, not from %s"
             % (twogen.__file__, SRC))

import workloads  # noqa: E402

OUT_DIR = os.path.abspath(".bench_out")
#: fresh-process set-ups per run besides the worker's own
PROBES = 8
#: samples that must lie beyond the nearest-rank p90
MIN_BEYOND_P90 = 10


def nearest_rank(sorted_values, q):
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def beyond_p90(n):
    return n - math.ceil(0.9 * n)


def machine_loop():
    """A fixed pure-Python loop: a machine-speed diagnostic printed
    beside the metrics, so drift of the box can be told apart from a
    change of the code."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def probe(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_blocks(wl, blocks, on_request=None):
    """Runs whole blocks; returns (latencies in ns, outputs).  Only the
    request itself is timed."""
    clock = time.perf_counter_ns
    lat, outs = [], []
    for items in blocks:
        for item in items:
            if on_request is not None:
                on_request()
            start = clock()
            try:
                out, ok = wl.run(item), True
            except Exception as e:  # a failed request is counted, not fatal
                out, ok = repr(e), False
            lat.append(clock() - start)
            outs.append((item, out, ok))
    return lat, outs


def count_failures(wl, outs):
    failed = 0
    for item, out, ok in outs:
        try:
            ok = ok and wl.check(item, out)
        except Exception:
            ok = False
        failed += not ok
    return failed


def timed_run(wl, args, setup_s):
    setups, loops = [setup_s], [machine_loop()]
    lat = []
    attempted = failed = 0
    start = time.perf_counter()
    paused = 0.0
    b = 0
    while True:
        items = wl.first if b == 0 else wl.block(b)
        block_lat, outs = run_blocks(wl, [items])
        lat.extend(block_lat)
        attempted += len(outs)
        failed += count_failures(wl, outs)
        b += 1
        elapsed = time.perf_counter() - start - paused
        # probes sit at block boundaries, spread evenly over the run
        while (len(setups) < PROBES
               and elapsed >= len(setups) * args.seconds / PROBES):
            p0 = time.perf_counter()
            setups.append(probe(args))
            loops.append(machine_loop())
            paused += time.perf_counter() - p0
        if (elapsed >= args.seconds
                and beyond_p90(len(lat)) >= MIN_BEYOND_P90):
            break
    while len(setups) <= PROBES:
        setups.append(probe(args))
        loops.append(machine_loop())
    s = sorted(lat)
    metrics = {
        "ops_per_s": (len(s) / (sum(s) / 1e9), "1/s"),
        "op_p50_ms": (nearest_rank(s, 0.5) / 1e6, "ms"),
        "op_p90_ms": (nearest_rank(s, 0.9) / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("workload %s  seed %d  blocks %d of %d requests  samples %d"
          "  (p50 rank %d, p90 rank %d, %d beyond p90)"
          % (args.workload, args.seed, b, len(wl.first), len(s),
             math.ceil(0.5 * len(s)), math.ceil(0.9 * len(s)),
             beyond_p90(len(s))))
    print("setup_s samples (%d fresh processes): %s" % (
        len(setups), " ".join("%.4f" % x for x in setups)))
    return metrics, attempted, failed, loops


def traced_run(wl, args):
    """Alternates traced and untraced passes over the same fixed blocks
    until the time is up; counts come from the first traced pass."""
    from tracer import Tracer

    blocks = [wl.first] + [wl.block(b) for b in range(1, wl.trace_blocks)]
    tracer = Tracer()
    loops = [machine_loop()]
    attempted = failed = 0
    traced_ns = untraced_ns = 0
    counts = None
    passes = 0
    start = time.perf_counter()

    def next_request():
        tracer.request += 1

    while True:
        # alternate which pass goes first, so drift of the machine over
        # a pair does not always favour the same side
        for traced in ((True, False) if passes % 2 == 0 else (False, True)):
            if not traced:
                lat, outs = run_blocks(wl, blocks)
                untraced_ns += sum(lat)
            else:
                tracer.install()
                try:
                    lat, outs = run_blocks(wl, blocks, next_request)
                finally:
                    tracer.uninstall()
                traced_ns += sum(lat)
                if counts is None:
                    counts = dict(tracer.counts)
                    counted = len(outs)
            attempted += len(outs)
            failed += count_failures(wl, outs)
        passes += 1
        loops.append(machine_loop())
        if time.perf_counter() - start >= args.seconds:
            break
    requests = passes * counted
    metrics = tracer.layer_metrics(
        requests, traced_ns, counts, counted,
        100.0 * (traced_ns / untraced_ns - 1.0))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-%d.jsonl"
                        % (args.workload, args.seed))
    tracer.write(path)
    print("workload %s  seed %d  %d traced + %d untraced passes of %d "
          "requests  %d spans -> %s"
          % (args.workload, args.seed, passes, passes, counted,
             len(tracer.spans), os.path.relpath(path)))
    return metrics, attempted, failed, loops


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    setup_s = time.perf_counter() - _T0
    try:
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, attempted, failed, loops = traced_run(wl, args)
        else:
            metrics, attempted, failed, loops = timed_run(wl, args, setup_s)
    finally:
        wl.close()
    width = max(len(k) for k in metrics)
    for k, (v, unit) in metrics.items():
        print("%-*s %14.6f %s" % (width, k, v, unit))
    print("attempted %d  failed %d" % (attempted, failed))
    print("machine_loop_ms (diagnostic, not a metric): median %.2f  "
          "min %.2f  max %.2f over %d samples"
          % (statistics.median(loops) * 1e3, min(loops) * 1e3,
             max(loops) * 1e3, len(loops)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
