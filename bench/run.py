"""threebody4d benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of that
checkout, never from an installed copy.  One process issues items back to
back (a closed loop with one client), with numpy/BLAS capped at one thread.

`--trace 0` sets up the workload several times in fresh processes, then times
items for `--seconds` and reports the end-to-end metrics.  `--trace 1` runs a
fixed number of items twice, first untraced and then with spans recorded
from outside the package, and reports the per-layer metrics; the count
depends only on the workload and `--seconds`, so counts repeat exactly
between runs with one seed.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it records the environment.  A fuller result, with the spans of a traced run,
goes to `.bench_out/` under the checkout.
"""

import os

# before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
ITEM_LIMIT_S = 10          # an item running longer fails (signal.alarm)
PROBE_LIMIT_S = 30          # a set-up probe running longer fails the run
UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
    "ok_frac": "frac", "peak_rss_mb": "MB",
}


def _import_package():
    """Import threebody4d from this checkout's src/ or exit with code 2."""
    if not (SRC / "threebody4d" / "__init__.py").is_file():
        sys.exit(f"bench: no threebody4d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import threebody4d
    if Path(threebody4d.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: threebody4d imported from {threebody4d.__file__}, not {SRC}")


_import_package()

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ItemTimeout(Exception):
    """An item or a set-up probe ran past its time limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout("time limit exceeded")


class Loop:
    """Outcome of running items one after another."""

    def __init__(self):
        self.latencies = []     # seconds per successful item
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0
        self.rows = 0
        self.elapsed = 0.0

    def run_item(self, wl, index, tr):
        self.attempted += 1
        tr.item = index
        signal.alarm(ITEM_LIMIT_S)
        start = time.perf_counter()
        try:
            ratio, rows = wl.run(index, tr)
        except Exception as exc:  # every failure is counted, the loop goes on
            self.failed += 1
            if self.failed <= 3:
                print(f"bench: item {index} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                if not isinstance(exc, ItemTimeout):
                    traceback.print_exc(limit=4, file=sys.stderr)
            return
        finally:
            signal.alarm(0)
        self.latencies.append(time.perf_counter() - start)
        self.worst_ratio = max(self.worst_ratio, ratio)
        self.rows += rows


def timed_loop(wl, seconds):
    """Items back to back until `seconds` have passed."""
    loop = Loop()
    tr = spans.NullTracer()
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while time.perf_counter() < deadline:
        loop.run_item(wl, index, tr)
        index += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def paired_loop(wl, count):
    """Items 0 .. count-1, each once untraced and once traced.

    The two runs of an item alternate in order, so neither side is favoured
    by caches that the other run of the same item filled.
    """
    plain, traced, tr = Loop(), Loop(), spans.Tracer()
    null = spans.NullTracer()
    for index in range(count):
        runs = ((plain, null), (traced, tr))
        for loop, rec in runs if index % 2 == 0 else reversed(runs):
            loop.run_item(wl, index, rec)
    return plain, traced, tr


def trace_items(wl, seconds):
    """Items per traced run: their untraced and traced runs take about `seconds`
    at the seed commit's rate."""
    cycles = max(1, round(seconds * wl.nominal_items_per_s / 2.5 / wl.cycle))
    return cycles * wl.cycle


def setup_seconds(workload, seed):
    """Median wall time from process start to ready, over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        signal.alarm(PROBE_LIMIT_S)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        finally:
            signal.alarm(0)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {code}: {line!r}")
        times.append(ready - start)
    return statistics.median(times)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "item_limit_s": ITEM_LIMIT_S,
    }


def end_to_end(loop, setup_s):
    lat_ms = [1e3 * v for v in loop.latencies]
    return {
        "setup_s": setup_s,
        "items_per_s": len(loop.latencies) / loop.elapsed,
        "item_ms_p50": statistics.median(lat_ms),
        "item_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tr, attempted, failed):
    metrics = spans.layer_metrics(tr, len(traced.latencies), sum(traced.latencies),
                                  traced.rows)
    metrics["trace.overhead_frac"] = 1.0 - sum(plain.latencies) / sum(traced.latencies)
    metrics["check.worst_err_ratio"] = max(plain.worst_ratio, traced.worst_ratio)
    metrics["check.fail_frac"] = failed / attempted
    return metrics


def write_spans(path, tr):
    with open(path, "w") as fh:
        fh.write("name,start_us,end_us,parent,item\n")
        t0 = tr.spans[0][1] if tr.spans else 0.0
        for name, start, end, parent, item in tr.spans:
            fh.write(f"{name},{1e6 * (start - t0):.3f},{1e6 * (end - t0):.3f},"
                     f"{parent},{item}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    load_before = os.getloadavg()
    setup_s = setup_seconds(args.workload, args.seed) if args.trace == 0 else None
    wl = WORKLOADS[args.workload](args.seed)
    for index in range(wl.cycle):  # warm-up over one input-mix cycle, not counted
        Loop().run_item(wl, index, spans.NullTracer())

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        loop = timed_loop(wl, args.seconds)
        attempted, failed = loop.attempted, loop.failed
        metrics = end_to_end(loop, setup_s) if loop.latencies else {}
        latencies = loop.latencies
        detail = {"samples": len(latencies), "worst_err_ratio": loop.worst_ratio}
    else:
        count = trace_items(wl, args.seconds)
        plain, traced, tr = paired_loop(wl, count)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        metrics = per_layer(plain, traced, tr, attempted, failed) \
            if traced.latencies else {}
        latencies = traced.latencies
        detail = {"samples": len(latencies), "spans": len(tr.spans)}
        write_spans(stem.with_suffix(".spans.csv"), tr)

    env = environment(args)
    env.update(detail, load_before=load_before, load_after=os.getloadavg())
    units = UNITS if args.trace == 0 else spans.UNITS
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"env": env, **result,
                   "latencies_ms": [1e3 * v for v in latencies]}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
