"""Run-to-run spread of the end-to-end metrics, as the gate measures it.

Runs ``run.py`` once per seed for each workload in ``BENCHMARK.json``
and reports, per metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, beside the metric's bound.  From the root of
a checkout::

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/spreads.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default="", help="comma list; default all gated")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"seeds": parse_seeds(args.seeds), "run_seconds": bench["run_seconds"],
                    "workloads": {}}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in report["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[0])["detail"]
            ok &= proc.returncode == 0 and result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for key, v in detail.items():
                if key.endswith("_raw"):
                    raw.setdefault(key, []).append(v)
            print(f"{name} seed {seed}: rc={proc.returncode} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        rows = {}
        for metric, vals in values.items():
            rows[metric] = {"median": statistics.median(vals), "spread": spread(vals),
                            "bound": bounds[metric], "values": vals}
        for key, vals in raw.items():
            rows[key] = {"median": statistics.median(vals), "spread": spread(vals),
                         "values": vals}
        report["workloads"][name] = rows
        for metric, row in rows.items():
            bound = row.get("bound")
            flag = "" if bound is None or row["spread"] < bound / 3 else "  <-- >= bound/3"
            print(f"  {metric:22s} median {row['median']:14.6g} spread {row['spread']:7.4f}"
                  + (f" bound {bound}" if bound is not None else " (raw)") + flag)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
