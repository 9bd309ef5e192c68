#!/usr/bin/env python3
"""Run-agreement check: do two sets of runs of the same code agree?

    python3 perfbench/agree.py run A.jsonl [--seeds 1-10] [--seconds 25] [--trace 0]
    python3 perfbench/agree.py run B.jsonl [--seeds 1-10] [--seconds 25] [--trace 0]
    python3 perfbench/agree.py compare A.jsonl B.jsonl

`run` runs every workload of BENCHMARK.json once per seed through
perfbench/run.py and appends one record per run to the file. `compare`
checks, per workload and metric, the rules BENCHMARK.json and spec.json
state:

- a metric spec.json tags deterministic must read the same, digit for
  digit, in both sets for every seed both ran;
- a timed metric's spread (first to third quartile over its median) must
  stay within its bound in each set, and the two sets' medians must not
  differ by more than the bound, in either direction.

setup_s is exempt from the spread rule, as in the benchmark's acceptance
rule: a set-up lasts a fraction of a second, so the host's noise spreads
it more than the measured windows. Its medians must still agree.

Run from the repository root. Exits 1 when a rule fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(out, seeds, seconds, trace):
    bench = load("BENCHMARK.json")
    with open(out, "a") as f:
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in seeds:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                # '# raw NAME = VALUE': the unscaled figures, kept to show how
                # far calibration moved them.
                raw = dict(line[6:].split(" = ", 1) for line in lines if line.startswith("# raw "))
                record = {"workload": workload, "seed": seed, "trace": trace,
                          "exit": proc.returncode, "result": result,
                          "raw": {k: float(v) for k, v in raw.items()}}
                if proc.returncode != 0:
                    record["stderr"] = proc.stderr[-2000:]
                f.write(json.dumps(record) + "\n")
                f.flush()
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(a_path, b_path):
    bench = load("BENCHMARK.json")
    kinds = load(os.path.join(HERE, "spec.json"))["metrics"]
    deterministic = set(kinds["deterministic"])
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = records(a_path), records(b_path)
    failures = []
    for rec in a + b:
        if rec["exit"] != 0 or not (rec["result"] or {}).get("correct"):
            failures.append(f"{rec['workload']} seed {rec['seed']}: run failed (exit {rec['exit']})")
    groups = sorted({(r["workload"], r["trace"]) for r in a + b})
    for workload, trace in groups:
        sel = lambda rs: {r["seed"]: r["result"]["metrics"] for r in rs
                          if r["workload"] == workload and r["trace"] == trace and r["result"]}
        ma, mb = sel(a), sel(b)
        names = sorted({n for m in list(ma.values()) + list(mb.values()) for n in m})
        for name in names:
            meta = declared.get(name, {})
            if name in deterministic:
                for seed in sorted(set(ma) & set(mb)):
                    va, vb = ma[seed][name]["value"], mb[seed][name]["value"]
                    if repr(va) != repr(vb):
                        failures.append(f"{workload} {name} seed {seed}: {va!r} != {vb!r}")
                continue
            bound = meta.get("bound")
            if bound is None or len(ma) < 2 or len(mb) < 2:
                continue
            va = [m[name]["value"] for m in ma.values()]
            vb = [m[name]["value"] for m in mb.values()]
            sa, sb = spread(va), spread(vb)
            meda, medb = statistics.median(va), statistics.median(vb)
            moved = abs(medb - meda) / meda
            print(f"{workload:12} {name:18} spread {sa:.4f} {sb:.4f}  median {meda:.6g} -> {medb:.6g}"
                  f"  moved {moved:.4f}  bound {bound}")
            if name != "setup_s" and max(sa, sb) > bound:
                failures.append(f"{workload} {name}: spread {max(sa, sb):.4f} > bound {bound}")
            if moved > bound:
                failures.append(f"{workload} {name}: medians differ by {moved:.4f} > {bound}")
    for f in failures:
        print("FAIL", f)
    print("agree" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "run":
        opts = dict(zip(argv[2::2], argv[3::2]))
        run(argv[1], seeds_arg(opts.get("--seeds", "1-10")),
            opts.get("--seconds", str(load("BENCHMARK.json")["run_seconds"])),
            int(opts.get("--trace", "0")))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
