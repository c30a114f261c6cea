"""Steadiness check: two sets of runs of one workload, compared.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload txn-tpcc --runs 10

Runs ``perfbench/run.py`` ``2 x --runs`` times, alternating between set
A (seeds ``--seed`` .. ``--seed + runs - 1``) and set B (the next
``--runs`` seeds, so B sees other inputs).  For
every end-to-end metric of ``BENCHMARK.json`` it prints each set's
median and quartiles, the spread (quartile distance over the median),
and whether both spreads stay within the metric's bound and B's median
is no worse than A's by more than the bound.  A run that fails exits
non-zero and stops the comparison.  Raw results go to
``perfbench/out/steady-<workload>.json``.  Exits 1 if anything
disagrees.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name, seed in (("A", args.seed + i),
                           ("B", args.seed + args.runs + i)):
            result = run_once(args.workload, seed, spec["run_seconds"])
            sets[name].append(result)
            print(f"# {name} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(sets, fh, indent=1)

    ok = True
    print(f"{'metric':<18} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = {}
        for s in ("A", "B"):
            stats[s] = summary([r["metrics"][name]["value"]
                                for r in sets[s]])
        med_a, med_b = stats["A"][0], stats["B"][0]
        worse = ((med_b - med_a) / med_a if metric["better"] == "lower"
                 else (med_a - med_b) / med_a)
        for s in ("A", "B"):
            med, q1, q3, spread = stats[s]
            good = spread <= bound
            if s == "B":
                good = good and worse <= bound
            ok = ok and good
            print(f"{name:<18} {s:<3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.3f} {bound:>6.2f}  "
                  f"{'ok' if good else 'DISAGREE'}"
                  + (f" (B vs A {worse:+.3f})" if s == "B" else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
