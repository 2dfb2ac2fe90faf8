"""Self-check of the benchmark: a tiny run of every workload, traced and not.

    python3 bench/smoke.py

Each run must pass its output checks and report every metric BENCHMARK.json
names for its mode (end-to-end untraced, per-layer traced), with the unit
BENCHMARK.json gives. Exits 1 and names the problem otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in run.load_program().WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, seed=0, seconds=0.2, trace=trace, probes=1, prefix=2)
            where = f"{workload} trace {int(trace)}"
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            got = result["metrics"]
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} in {got[name]['unit']}, expected {unit}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
