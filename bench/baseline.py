"""Re-measure the baseline recorded in ``bench/baseline.json``.

Runs ``bench/run.py`` untraced on every workload for seeds 1 to 10, twice
(two separate sets of runs of the same code), and traced once per workload
on seed 0, each run in its own interpreter and for BENCHMARK.json's
``run_seconds``.  Writes, per set, the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric and how much worse the
second set's median is than the first's; the traced per-layer metrics,
whose ``.share`` entries are each layer's share of the traced wall time;
and the environment.  The hand-written predictions of the existing file
are kept, and the ``measured`` entry of each is refilled from the traced
run.

    python3 bench/baseline.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracles import TOLERANCES  # noqa: E402
from run import OUT, ROOT, WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SETS = 2
OUTPUT = HERE / "baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run in its own interpreter; returns the record it wrote."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if not record["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {record['failed']} failed invocations")
    return record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(metric: str, first: float, second: float) -> float:
    """Share by which ``second`` is worse than ``first`` (negative if better)."""
    change = (second - first) / first
    return change if END_TO_END[metric]["better"] == "lower" else -change


def measured(prediction: dict, per_layer: dict) -> dict:
    """Traced values of a prediction's layer metrics, per workload; a
    ``.self_s`` metric is given as its layer's share of the traced wall."""
    keys = [m[: -len(".self_s")] + ".share" if m.endswith(".self_s") else m
            for m in prediction["layer_metrics"]]
    return {k: {w: per_layer[w][k] for w in per_layer} for k in dict.fromkeys(keys)}


def main() -> int:
    previous = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    end_to_end, per_layer, residuals = {}, {}, {}
    for workload in WORKLOADS:
        sets, worst = [], {}
        for number in range(1, SETS + 1):
            runs = []
            for seed in SEEDS:
                record = bench(workload, seed, 0)
                runs.append(record["metrics"])
                for name, value in record["residuals"].items():
                    worst[name] = max(worst.get(name, 0.0), value)
                print(workload, f"set {number}", seed,
                      {k: round(m["value"], 4) for k, m in runs[-1].items()}, flush=True)
            sets.append({name: summarize([r[name]["value"] for r in runs]) for name in runs[0]})
        end_to_end[workload] = {
            name: {
                "unit": END_TO_END[name]["unit"],
                "bound": END_TO_END[name]["bound"],
                "sets": [s[name] for s in sets],
                "second_worse_by": worse_by(name, sets[0][name]["median"],
                                            sets[-1][name]["median"]),
            }
            for name in sets[0]
        }
        record = bench(workload, 0, 1)
        per_layer[workload] = {k: m["value"] for k, m in record["metrics"].items()}
        residuals[workload] = worst

    report = {
        "environment": record["environment"],
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "tolerances": TOLERANCES,
        "worst_residuals": residuals,
        "end_to_end": end_to_end,
        "per_layer_seed0": per_layer,
        "predictions": [dict(p, measured=measured(p, per_layer))
                        for p in previous.get("predictions", [])],
    }
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    for workload, metrics in end_to_end.items():
        for name, m in metrics.items():
            spreads = ", ".join(f"{s['spread']:.2%}" for s in m["sets"])
            print(f"{workload:13s} {name:13s} median {m['sets'][0]['median']:.6g} {m['unit']}"
                  f"  spreads {spreads}  second set worse by {m['second_worse_by']:+.2%}"
                  f"  (bound {m['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
