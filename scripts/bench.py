"""Compare two checkouts on the benchmark in alternating pairs of runs.

Each pair runs ``perfbench/run.py --workload W --seed S`` once in each
checkout, one after the other, with the order alternating from pair to
pair so that a drift of the machine's speed does not favour one side.
The last line of each run's standard output is its JSON record; its
end-to-end metrics (those `BENCHMARK.json` lists under ``end_to_end``)
are kept.  The output file holds the machine line of the first run,
every pair's metrics, and per metric each side's median and quartiles,
the number of pairs the head checkout won, and a verdict (`verdict`).  Each run's ``correct``
flag is kept too: every workload and seed counts its incorrect runs per
side, the printed lines name them, and the script exits 1 if any run of
the head checkout was incorrect.

Typical use, from the root of the changed checkout, with the parent
commit cloned next to it:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench.py --base ../parent --head . \\
        --workload thermal-knife --seed 0 --seed 5 --pairs 10 --out BENCH.json

Every run takes ``--seconds`` (15 by default, as in `BENCHMARK.json`)
plus its setup and calibration, about 30 s on a 2-vCPU Xeon, so ten
pairs of one workload and seed take about ten minutes.  Neither
checkout is modified.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _describe(checkout: Path) -> str:
    """The checkout's commit, marked dirty when it has uncommitted changes."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _run(checkout: Path, workload: str, seed: int, seconds: float):
    """(machine line, JSON record) of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = next((line for line in lines if line.startswith("machine:")), "")
    return machine, json.loads(lines[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(summary: dict, bound: float) -> str:
    """'gain', 'worse' or 'unresolved' for one metric's summary.

    'gain' when the head won at least nine tenths of the pairs and its
    median is better than the base's by more than the base's quartile
    spread; 'worse' when its median is worse than the base's by more
    than ``bound`` (`BENCHMARK.json`'s bound, read as relative to the
    base median); 'unresolved' otherwise.
    """
    sign = 1.0 if summary["better"] == "lower" else -1.0
    base, head = summary["base"]["median"], summary["head"]["median"]
    gained = sign * (base - head)
    if (10 * summary["pairs_won"] >= 9 * summary["pairs"]
            and gained > summary["base"]["q3"] - summary["base"]["q1"]):
        return "gain"
    if -gained > bound * abs(base):
        return "worse"
    return "unresolved"


def compare(base: Path, head: Path, workload: str, seed: int, pairs: int,
            seconds: float, metrics: dict):
    """Alternating pairs of one workload and seed: (machine, result)."""
    sides = {"base": base, "head": head}
    machine, runs = "", []
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            line, record = _run(sides[side], workload, seed, seconds)
            machine = machine or line
            pair[side] = {name: record["metrics"][name]["value"] for name in metrics
                          if name in record["metrics"]}
            pair[side]["correct"] = record["correct"]
        runs.append(pair)
        wrong = [side for side in sides if not pair[side]["correct"]]
        print(f"{workload} seed={seed} pair {i + 1}/{pairs}: " + ", ".join(
            f"{name} {pair['base'][name]:.4g} -> {pair['head'][name]:.4g}"
            for name in metrics if name in pair["base"])
            + (f"; incorrect: {', '.join(wrong)}" if wrong else ""), flush=True)
    summary = {}
    for name, (better, bound) in metrics.items():
        if not all(name in p["base"] and name in p["head"] for p in runs):
            continue
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (p["head"][name] - p["base"][name]) < 0.0 for p in runs)
        summary[name] = {"better": better,
                         "base": _spread([p["base"][name] for p in runs]),
                         "head": _spread([p["head"][name] for p in runs]),
                         "pairs_won": won, "pairs": len(runs)}
        summary[name]["verdict"] = verdict(summary[name], bound)
    incorrect = {side: sum(not p[side]["correct"] for p in runs) for side in sides}
    return machine, {"workload": workload, "seed": seed, "pairs": runs,
                     "incorrect": incorrect, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; repeat for several")
    parser.add_argument("--seed", type=int, action="append", help="seed; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    machine, results = "", []
    for workload in args.workload:
        for seed in args.seed or [0]:
            line, result = compare(args.base, args.head, workload, seed, args.pairs,
                                   args.seconds, metrics)
            machine = machine or line
            results.append(result)
            for name, s in result["summary"].items():
                print(f"{workload} seed={seed} {name}: base median {s['base']['median']:.4g} "
                      f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}], head median "
                      f"{s['head']['median']:.4g} [{s['head']['q1']:.4g}, "
                      f"{s['head']['q3']:.4g}], head won {s['pairs_won']}/{s['pairs']}: "
                      f"{s['verdict']}")
            bad = result["incorrect"]
            print(f"{workload} seed={seed} incorrect runs: base {bad['base']}/{args.pairs}, "
                  f"head {bad['head']}/{args.pairs}")
    args.out.write_text(json.dumps({
        "machine": machine,
        "command": f"perfbench/run.py --seconds {args.seconds:g}",
        "base": _describe(args.base),
        "head": _describe(args.head),
        "results": results,
    }, indent=1) + "\n")
    return 1 if any(result["incorrect"]["head"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
