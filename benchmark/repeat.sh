#!/usr/bin/env bash
# Repeatability evidence for the benchmark, from the repo root or anywhere:
#
#   benchmark/repeat.sh [SEED]             the whole benchmark twice on this tree with one
#                                          seed; per (workload, end-to-end metric) both
#                                          values, their relative difference and PASS/FAIL
#                                          against that metric's bound in BENCHMARK.json
#   benchmark/repeat.sh --spread N [SEED]  what the driver does, twice: N runs per workload,
#                                          seeds SEED..SEED+N-1; per metric the median, the
#                                          quartile distance as a share of the median against
#                                          the bound, then the second median against the first
#   benchmark/repeat.sh --smoke [SEED]     tiny sizes, one-second windows, traced and
#                                          untraced: checks the output shape and the
#                                          reference check in well under 20 s after the build
#
# Exits non-zero when anything fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
export BENCH_BIN="${CARGO_TARGET_DIR:-$here/target}/release/simsearch-benchmark"
export BENCH_JSON="$here/../BENCHMARK.json"
exec python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys

spec = json.load(open(os.environ["BENCH_JSON"]))
workloads = [w["name"] for w in spec["workloads"]]
end_to_end = {m["name"]: m for m in spec["end_to_end"]}
per_layer = {m["name"]: m for m in spec["per_layer"]}

def run(workload, seed, seconds, trace=0, smoke=False):
    cmd = [os.environ["BENCH_BIN"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = per_layer if trace else end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(declared), set(result["metrics"]) ^ set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]["unit"], (name, m)
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if end_to_end[metric]["better"] == "lower" else -change

args = sys.argv[1:]
smoke = "--smoke" in args
spread = int(args[args.index("--spread") + 1]) if "--spread" in args else 0
numbers = [a for i, a in enumerate(args) if a.isdigit() and (i == 0 or args[i - 1] != "--spread")]
seed = int(numbers[0]) if numbers else 1
seconds = spec["run_seconds"]
ok = True

if smoke:
    for w in workloads:
        for trace in (0, 1):
            values = run(w, seed, 1, trace, smoke=True)
            print(f"smoke {w} trace {trace}: {len(values)} metrics, output correct")
elif spread:
    medians = []
    for attempt in (1, 2):
        medians.append({})
        for w in workloads:
            runs = [run(w, seed + i, seconds) for i in range(spread)]
            for name, m in end_to_end.items():
                values = [r[name] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / median
                medians[-1][w, name] = median
                verdict = "PASS" if share <= m["bound"] or name == "setup_s" else "FAIL"
                steady = "" if share <= m["bound"] / 3 else "  (above a third of the bound)"
                ok &= verdict == "PASS"
                print(f"set {attempt} {w:<14} {name:<12} median {median:>12.4f} {m['unit']:<4} "
                      f"spread {share:7.2%} bound {m['bound']:.0%} {verdict}{steady}")
                print("      values " + " ".join(f"{v:.4g}" for v in values), flush=True)
    for (w, name), first in medians[0].items():
        worse = worse_by(name, first, medians[1][w, name])
        verdict = "PASS" if worse <= end_to_end[name]["bound"] else "FAIL"
        ok &= verdict == "PASS"
        print(f"medians {w:<14} {name:<12} {first:>12.4f} -> {medians[1][w, name]:>12.4f} "
              f"worse by {worse:+7.2%} bound {end_to_end[name]['bound']:.0%} {verdict}")
else:
    for w in workloads:
        a, b = run(w, seed, seconds), run(w, seed, seconds)
        for name, m in end_to_end.items():
            diff = abs(a[name] - b[name]) / min(a[name], b[name])
            verdict = "PASS" if diff <= m["bound"] else "FAIL"
            ok &= verdict == "PASS"
            print(f"{w:<14} {name:<12} {a[name]:>12.4f} {b[name]:>12.4f} {m['unit']:<4} "
                  f"differ {diff:7.2%} bound {m['bound']:.0%} {verdict}", flush=True)
sys.exit(0 if ok else 1)
EOF
