"""A/A check: is the benchmark steady enough for its own bounds?

    python bench/aa.py [--runs 10] [--out bench/AA.md]

Runs the benchmark exactly as the driver does (one process per run,
``--trace 0``, seeds 1..N) in two *separate* sets on the same code —
all of set A, then all of set B — and writes, per workload and
end-to-end metric, each set's median and quartiles, the spread
(``(q3 - q1) / median`` of ``statistics.quantiles(values, n=4)``) and
the relative gap between the two medians, next to the metric's bound.
A row passes when both spreads and the gap are inside the bound.

Every run's values go to ``bench/out/aa-raw.json`` as they arrive;
``--resume`` continues an interrupted check from that file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ROOT / "bench" / "out" / "aa-raw.json"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["process_s"] = time.perf_counter() - started
    return values


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(spec, raw, runs: int) -> tuple:
    workloads = [w["name"] for w in spec["workloads"]]
    process_s = [r["process_s"] for s in "AB" for w in workloads for r in raw[s][w]]
    lines = [
        "# A/A: two sets of runs of the same code",
        "",
        f"{runs} runs per set and workload (seeds 1..{runs}, one process per run, "
        f"`--seconds {spec['run_seconds']} --trace 0`), set A completed before "
        f"set B started.  {platform.platform()}, python {platform.python_version()}, "
        "2 vCPUs.  Generated by `python bench/aa.py`.",
        "",
        f"A run took {statistics.median(process_s):.1f} s (median; max "
        f"{max(process_s):.1f} s) from process start to exit; the driver's cap "
        "averages 37 s.",
        "",
        "spread = (q3 - q1) / median over a set's runs; gap = (median B - "
        "median A) / median A.  `ok` needs both spreads and |gap| inside the "
        "bound; `setup_s` is held to the gap only, as the driver does.  The "
        "seeds differ between runs and are the same in both sets, so the three "
        "exact metrics must agree to the last digit: gap 0.",
        "",
        "| workload | metric | bound | median A | q1..q3 A | spread A | median B "
        "| q1..q3 B | spread B | gap | ok |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    all_ok = True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (ma, a1, a3, sa), (mb, b1, b3, sb) = (
                summary([r[name] for r in raw[s][workload]]) for s in "AB"
            )
            gap = (mb - ma) / ma
            spreads_ok = name == "setup_s" or max(sa, sb) <= bound
            ok = spreads_ok and abs(gap) <= bound
            all_ok &= ok
            lines.append(
                f"| {workload} | {name} | {bound} | {ma:.6g} | {a1:.6g}..{a3:.6g} "
                f"| {sa:.4f} | {mb:.6g} | {b1:.6g}..{b3:.6g} | {sb:.4f} "
                f"| {gap:+.4f} | {'yes' if ok else 'NO'} |"
            )
    lines += ["", f"All rows inside their bounds: {'yes' if all_ok else 'NO'}.", ""]
    return "\n".join(lines), all_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "AA.md")
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    raw = json.loads(RAW.read_text()) if args.resume else {}
    RAW.parent.mkdir(exist_ok=True)
    for label in "AB":
        runs = raw.setdefault(label, {w: [] for w in workloads})
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                if len(runs[workload]) >= seed:
                    continue
                runs[workload].append(one_run(workload, seed, spec["run_seconds"]))
                RAW.write_text(json.dumps(raw, indent=1))
                print(f"set {label} seed {seed} {workload}: "
                      f"{runs[workload][-1]['process_s']:.1f} s", flush=True)

    text, all_ok = report(spec, raw, args.runs)
    args.out.write_text(text)
    print(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
