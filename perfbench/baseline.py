"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload of BENCHMARK.json, runs run.py untraced once per seed
(1..RUNS) and traced once (seed 1), then reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles as a share of the median) next
to its bound from BENCHMARK.json.  With --out, writes the summary with the
host facts: that file is the recorded baseline of the commit it ran on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
RUNS = 10


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"regenerate": "python3 perfbench/baseline.py --out perfbench/baseline.json",
              "run_seconds": spec["run_seconds"], "seeds": list(range(1, RUNS + 1)),
              "workloads": {}}
    worst = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            start = time.perf_counter()
            detail, result = invoke(name, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} items failed")
            runs.append((detail, result, time.perf_counter() - start))
        report.setdefault("host", runs[0][0]["host"])
        entry = {"input_digests": [d["input_digest"] for d, _, _ in runs],
                 "unscaled": {k: summarise([d[k] for d, _, _ in runs])
                              for k in ("items_per_s", "item_p50_ms")},
                 "item_tail_ms": summarise([d["item_tail_ms"] for d, _, _ in runs]),
                 "tail_percentiles": [d["tail_percentile"] for d, _, _ in runs],
                 "latency_samples": [d["latency_samples"] for d, _, _ in runs],
                 "run_wall_s": [w for _, _, w in runs],
                 "end_to_end": {}}
        print(f"== {name}: {RUNS} runs, {statistics.mean(entry['run_wall_s']):.1f} s each")
        for metric in bounds:
            stats = summarise([r["metrics"][metric]["value"] for _, r, _ in runs])
            stats["bound"] = bounds[metric]
            entry["end_to_end"][metric] = stats
            worst = max(worst, stats["spread"] / bounds[metric])
            print(f"  {metric:18s} median {stats['median']:10.4f}  spread "
                  f"{stats['spread']:6.3f}  bound {bounds[metric]:.2f}")
        for metric, stats in [*entry["unscaled"].items(), ("item_tail_ms", entry["item_tail_ms"])]:
            print(f"  {metric:18s} median {stats['median']:10.4f}  spread "
                  f"{stats['spread']:6.3f}  (reported, not gated)")
        detail, result = invoke(name, 1, spec["run_seconds"], 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_items"] = detail["traced_items"]
        report["workloads"][name] = entry
    print(f"largest spread / bound, every gated metric: {worst:.2f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
