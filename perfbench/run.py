"""The bvmsheaf benchmark.

    python3 perfbench/run.py --workload {models,bridge,spaces,cli}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it
carries the details (input digest, the unscaled throughput, latency and
set-up time, item_tail_ms with its percentile and sample count, fail_frac,
host facts).  Load is closed-loop from one client: one process, no threads,
the next item only after the previous one finished.

Throughput, latency and set-up time are gated scaled by a yardstick (see
python_yardstick and Workload.yardstick in workloads.py), so that the host's
own speed, which drifts by tens of percent over minutes on a shared machine,
cancels out of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Bytecode is cached inside the checkout, as an installed package has it.
sys.dont_write_bytecode = False
sys.pycache_prefix = str(ROOT / ".perfbench_cache" / "pycache")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from workloads import PYTHON_YARDSTICK_REF_S, WORKLOADS, python_yardstick  # noqa: E402

# Set-up is timed this many times before the measured loop, once after
# every measured pass, and as many times after the loop, so its median spans
# the run instead of one moment of a noisy host.
SETUP_REPEATS = 3
WARM_UP_S = 2.0  # untimed items first, so lazy work and the heap settle
TRACE_PASS_CAP_S = 70.0  # a traced pass stops early past this, so a run ends in time
SETUP_STICKS = 5  # yardsticks timed after each set-up, to scale it
SCALE_WINDOW = 2  # yardsticks on either side of an item that set its scale

END_TO_END = {"scaled_items_per_s": "items/s", "scaled_item_p50_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": os.getloadavg()}


def library_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "bvmsheaf" or n.startswith("bvmsheaf.")}


def import_library():
    """A fresh import of the package (and its cli module)."""
    for name in library_modules():
        del sys.modules[name]
    lib = importlib.import_module("bvmsheaf")
    importlib.import_module("bvmsheaf.cli")
    return lib


def setup(workload, seed: int, times: list[tuple[float, float]],
          repeats: int = SETUP_REPEATS):
    """Import plus input generation, repeats times; appends each time, with
    it scaled by the Python yardstick timed right after, and returns the
    last library and inputs.  A library imported before is put back
    afterwards: its functions import siblings lazily, and they must keep
    finding the modules whose classes their objects have."""
    kept = library_modules()
    for _ in range(repeats):
        gc.collect()  # the previous import's module cycles are not collected inside the timing
        start = time.perf_counter()
        lib = import_library()
        passes = workload.inputs(seed)
        took = time.perf_counter() - start
        stick = statistics.median(python_yardstick() for _ in range(SETUP_STICKS))
        times.append((took, took * PYTHON_YARDSTICK_REF_S / stick))
    if kept:
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(kept)
    return lib, passes


def warm_up(workload, lib, items) -> None:
    start = time.perf_counter()
    for item in items:
        run_one(workload, lib, item)
        workload.yardstick()
        if time.perf_counter() - start > WARM_UP_S:
            break
    gc.collect()


def run_one(workload, lib, item) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        ok = bool(workload.run_item(lib, item))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    elapsed = time.perf_counter() - start
    if not ok:
        print(f"item failed its oracle check: {item!r:.300}", file=sys.stderr)
    return elapsed, ok


def timed_loop(workload, lib, passes, seconds: float, between_passes):
    """Closed loop over whole passes, cycling, until `seconds` are up: a run
    ends at the pass boundary nearest to them, so its mix of items is
    exactly stratified.  The workload's yardstick runs after every item, off
    the item's clock but inside the run's seconds; between_passes runs after
    each pass, off both.
    Returns the failure count, the measured time, and per pass its item
    latencies and the yardstick time after each."""
    failed, measured, pass_s, per_pass = 0, 0.0, 0.0, []
    k = 0
    while measured + pass_s / 2 < seconds:
        latencies, sticks = [], []
        start = time.perf_counter()
        for item in passes[k % len(passes)]:
            latency, ok = run_one(workload, lib, item)
            latencies.append(latency)
            failed += not ok
            sticks.append(workload.yardstick())
        pass_s = time.perf_counter() - start
        measured += pass_s
        per_pass.append((latencies, sticks))
        between_passes()
        k += 1
    return failed, measured, per_pass


def scales(sticks: list[float], ref_s: float) -> list[float]:
    """How slow the host ran at each item: the median of the yardsticks
    timed after it and after its SCALE_WINDOW neighbours on either side,
    over ref_s.  A few seconds of yardsticks follow phases of contention
    that a median over the whole pass or run would average away."""
    n = len(sticks)
    return [statistics.median(sticks[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1]) / ref_s
            for i in range(n)]


def fixed_pass(workload, lib, items):
    """Run the items once in order, stopping early past the cap."""
    failed = 0
    start = time.perf_counter()
    done = 0
    for item in items:
        if time.perf_counter() - start > TRACE_PASS_CAP_S:
            break
        failed += not run_one(workload, lib, item)[1]
        done += 1
    return done, failed, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least ten items beyond
    it, and that percentile (the maximum when there are ten or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(workload, lib, passes, seconds, between_passes):
    failed, wall, per_pass = timed_loop(workload, lib, passes, seconds, between_passes)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    latencies = [x for lat, _ in per_pass for x in lat]
    sticks = [y for _, ys in per_pass for y in ys]
    # Every item's latency as if the yardstick had taken yardstick_ref_s
    # around it: a host running slow slows the yardstick too.
    scaled = [x / k for x, k in zip(latencies, scales(sticks, workload.yardstick_ref_s))]
    bounds = [0]
    for lat, _ in per_pass:
        bounds.append(bounds[-1] + len(lat))
    pass_slices = list(zip(bounds, bounds[1:]))
    tail_s, tail_pct = tail(latencies)
    metrics = {
        # The median pass, so one burst of contention on the host does not
        # set the figure (a pass holds the same mix of items as any other).
        "scaled_items_per_s": statistics.median(
            (b - a) / sum(scaled[a:b]) for a, b in pass_slices),
        "scaled_item_p50_ms": statistics.median(scaled) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    pass_rates = [(b - a) / sum(latencies[a:b]) for a, b in pass_slices]
    # The tail is reported, not gated: a percentile with only ten items beyond
    # it follows a shared host's bursts of contention (see NOTES.md).
    detail = {"items_per_s": statistics.median(pass_rates),
              "item_p50_ms": statistics.median(latencies) * 1000,
              "item_tail_ms": tail_s * 1000, "tail_percentile": tail_pct,
              "latency_samples": len(latencies), "measured_s": wall,
              "pass_items_per_s": pass_rates,
              "pass_yardstick_ms": [statistics.median(ys) * 1000 for _, ys in per_pass]}
    return metrics, END_TO_END, len(latencies), failed, detail


def traced(workload, lib, passes, seed):
    """The first measured pass untraced, then again traced: per-layer self
    times, counts, and the tracing overhead on identical work."""
    chosen = passes[0]
    done, failed_plain, untraced_wall = fixed_pass(workload, lib, chosen)
    tracer = spans.Tracer()
    out_dir = ROOT / ".perfbench_out"
    child_dir = out_dir / f"children-{workload.name}-{seed}"
    if workload.name == "cli":
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.mkdir(parents=True)
        workload.trace_dir = child_dir
    spans.install(tracer)
    done_traced, failed_traced, traced_wall = fixed_pass(workload, lib, chosen[:done])
    if workload.name == "cli":
        for dump in sorted(child_dir.glob("child-*.json")):
            tracer.merge(json.loads(dump.read_text()))
        shutil.rmtree(child_dir)
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}.json")
    if done_traced < done:  # the traced pass hit the cap: scale the baseline down
        untraced_wall *= done_traced / done
    metrics = spans.per_layer(tracer, traced_wall, untraced_wall)
    detail = {"traced_items": done_traced, "spans": len(tracer.start)}
    return (metrics, spans.layer_metrics(), done + done_traced,
            failed_plain + failed_traced, detail)


def run(args) -> int:
    workload = WORKLOADS[args.workload]()
    host = host_facts()
    sys.path.insert(0, str(ROOT / "src"))
    setup_times: list[tuple[float, float]] = []
    lib, passes = setup(workload, args.seed, setup_times)
    digest = gen.digest(passes)
    # The first pass warms up; the rest are measured (a single pass does both).
    if args.max_items is not None:
        passes = [p[:args.max_items] for p in passes]
    warm_up(workload, lib, passes[0])
    measured = passes[1:] or passes
    if args.trace:
        metrics, unit_of, attempted, failed, detail = traced(
            workload, lib, measured, args.seed)
    else:
        metrics, unit_of, attempted, failed, detail = end_to_end(
            workload, lib, measured, args.seconds,
            lambda: setup(workload, args.seed, setup_times, repeats=1))
        setup(workload, args.seed, setup_times)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup_times)
        detail["unscaled_setup_s"] = statistics.median(took for took, _ in setup_times)
        detail["setup_repeats"] = len(setup_times)
    detail.update({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "input_digest": digest, "items_per_pass": len(measured[0]),
                   "fail_frac": failed / attempted, "host": host})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                    for name in unit_of},
    }))
    return 0


# -- smoke mode -----------------------------------------------------------------

def _invoke(workload: str, seed: int, trace_flag: int, max_items: int):
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace_flag), "--max-items", str(max_items)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def smoke(spec: dict) -> int:
    """Each workload on a handful of items: every named metric present with
    its unit, fail_frac = 0, and the input digest fixed by the seed."""
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = sorted(WORKLOADS)
    problems = []
    for name in names:
        digests = {}
        for seed, trace_flag in ((1, 0), (1, 1), (2, 0)):
            try:
                detail, result = _invoke(name, seed, trace_flag, 3)
            except AssertionError as exc:
                problems.append(str(exc))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace_flag]:
                problems.append(f"{name} trace={trace_flag}: metrics {got} != {expected[trace_flag]}")
            if result["failed"] or detail["fail_frac"] != 0 or not result["correct"]:
                problems.append(f"{name} seed={seed} trace={trace_flag}: fail_frac "
                                f"{detail['fail_frac']}")
            digests[seed, trace_flag] = detail["input_digest"]
        if len(digests) == 3 and not (digests[1, 0] == digests[1, 1] != digests[2, 0]):
            problems.append(f"{name}: input digests {digests} do not follow the seed")
        print(f"smoke {name}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, default=None,
                        help="cut every pass to this many items (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a handful of items and check the output")
    args = parser.parse_args()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except Exception as exc:  # no result line, so the run reads as failed
        traceback.print_exc()
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
