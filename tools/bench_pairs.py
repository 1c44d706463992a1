"""Alternating before/after runs of the benchmark, kept in one JSON record.

    python3 tools/bench_pairs.py --before DIR --after DIR --out FILE

Each DIR is the root of a porism source tree with its ``benchmark/``.  For
every workload of the after tree's BENCHMARK.json, ten pairs run seeds
11-20, one run at a time: ``python3 benchmark/run.py --workload W --seed S
--seconds T`` inside each tree, with T the file's ``run_seconds``,
PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to a fresh empty
directory: every run compiles porism from source, and bytecode a tree holds
in ``__pycache__`` (from a test run, say) is never read, so it cannot make
one side's set-up look faster.  The before side runs first on even seeds and
second on odd ones, so that a drift in the machine's speed falls on both
sides alike.  The record holds the python version, the number of CPUs,
every run's result line, and per metric the two medians, the before side's
interquartile range and the number of pairs the after side won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SEEDS = range(11, 21)


def one_run(tree, workload, seed, seconds):
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return dict(result, seed=seed)


def summary(before, after, better):
    out = {}
    for name, how in better.items():
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after]
        q1, _, q3 = statistics.quantiles(b, n=4)
        wins = sum((y > x) if how == "higher" else (y < x) for x, y in zip(b, a))
        out[name] = {"before_median": statistics.median(b),
                     "after_median": statistics.median(a),
                     "before_iqr": q3 - q1, "after_wins": wins}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.after, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
              "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"before": [], "after": []}
        for seed in SEEDS:
            order = ("before", "after") if seed % 2 == 0 else ("after", "before")
            for side in order:
                tree = args.before if side == "before" else args.after
                runs[side].append(one_run(tree, workload, seed, seconds))
                print(workload, seed, side, runs[side][-1]["metrics"], flush=True)
        record["workloads"][workload] = dict(
            runs, summary=summary(runs["before"], runs["after"], better))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
