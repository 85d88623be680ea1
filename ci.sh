#!/bin/sh
# Offline CI gate: the workspace has zero external dependencies, so
# everything here runs with --offline and must pass on a machine with no
# registry access.
set -eux

cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The bit-parallel kernels and the sorted view's sliced candidate
# selection are shift/mask/popcount arithmetic whose edge cases
# (`1 << 64`, `row % 64` at a Myers block seam, `!0 << lo` and
# `!0 >> (64 - hi)` at a range's first and last word, a block's last,
# partial eight words, a pair-set word's first and last lanes, the
# segment postings' `position << fp_bits | fingerprint` packing) panic under the dev profile's overflow checks but
# wrap silently in the release codegen the daemon and the benchmark run,
# so their oracles must hold there too.
cargo test -q --offline --release -p simsearch-data -p simsearch-distance -p simsearch-scan
# A bench file without a [[bench]] entry is a bench that silently never
# runs (and an entry without a file fails only when someone asks for
# it): the two lists must be the same set.
bench_files=$(ls crates/bench/benches/*.rs | sed 's|.*/||; s|\.rs$||' | sort)
bench_entries=$(sed -n '/^\[\[bench\]\]/{n;s/^name = "\(.*\)"$/\1/p;}' crates/bench/Cargo.toml | sort)
test "$bench_files" = "$bench_entries"
# Every bench backs a committed snapshot: each target publishes one,
# except `paper_tables`, whose Tables II–IX are the reproduction's
# (`reproduce`) and get their snapshot at the paper's Table I scale.
for bench in crates/bench/benches/*.rs; do
    case "$bench" in */paper_tables.rs) continue ;; esac
    if ! grep -q 'publish_snapshot' "$bench"; then
        echo "$bench publishes no snapshot" >&2
        exit 1
    fi
done
# Bench binaries run in single-iteration smoke mode under `cargo test`
# (no --bench flag), keeping every bench code path compile- and
# run-checked without measuring.
cargo test -q --offline --benches -p simsearch-bench
cargo test -q --offline --bench ablation_lcp_reuse -p simsearch-bench
cargo clippy --offline --workspace --all-targets -- -D warnings
# Documentation builds warning-free: no link to a private or missing
# item survives a rename or a deletion.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# What the oracle suites inside `cargo test --workspace` above prove
# (the root package is a workspace member, so every one of them has
# already run — they are not re-invoked here):
#   planner_parity      `--backend auto` (static and calibrated) is
#                       byte-identical to the V1 oracle under every
#                       executor × thread count, plan counters account
#                       for every query, and top-k — each radius routed
#                       by the same table — matches exhaustive V1
#                       deepening.
#   replan_oracle       live recalibration across a distribution shift
#                       stays byte-identical while plan_epoch advances
#                       once per converged phase.
#   calibration_props   (testkit) the calibration arithmetic's laws:
#                       positivity, boundedness, scale invariance,
#                       pooled fallback.
#   shard_oracle        every shard count × partitioner × executor,
#                       static and calibrated, threshold and top-k, is
#                       byte-identical to the unsharded V1 oracle, and
#                       per-shard counters account for every fan-out.
#   live_oracle         any INSERT/DELETE/QUERY/TOPK/COMPACT
#                       interleaving answers like a fresh V1 scan over
#                       the survivors (shrinking on failure), unsharded
#                       and on 1/2/4 hash-routed live shards.
#   live_compaction     every compaction step — flush, tiered merge,
#                       tombstone elision — is an atomic re-layout that
#                       racing queries and concurrent per-shard
#                       compactors never observe half-done.
#   router_props        (testkit) the mutation router's laws: purity,
#                       dense disjoint ids, delete-finds-inserter.
#   v8_oracle           the Myers-block sweep — as an engine, as a
#                       planner arm, pinned per shard — is
#                       byte-identical to V1 on both alphabets.
#   join_oracle         PASS-JOIN — the one join, under every
#                       executor × thread count — returns the
#                       nested-loop join's pair list pair-for-pair,
#                       including the degenerate inputs.

# The repo's benchmark is a package of its own (own workspace table,
# own lock file) that reaches the crates through their public items
# only, so a public-API break under crates/ must fail here rather than
# in the benchmark driver: build and unit-test it against the
# workspace, then run all four workloads in smoke mode (exit status
# only).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --smoke --seconds 1 --seed 1 >/dev/null

# Canonical benchmark snapshots (published by `cargo bench` via
# testkit's publish_snapshot) must stay committed at the repo root.
for snapshot in BENCH_fig6_city_best.json BENCH_fig7_dna_best.json \
    BENCH_ablation_lcp_reuse_city.json BENCH_ablation_lcp_reuse_dna.json \
    BENCH_ablation_bitparallel_city.json BENCH_ablation_bitparallel_dna.json \
    BENCH_ablation_join_city.json BENCH_ablation_executors_dna.json; do
    test -f "$snapshot"
done
# The bit-parallel snapshots count what candidate selection does before
# the kernel runs (the occupancy planes and the bigram column on city
# names, the segment postings on DNA): records the length filter admits,
# and how many of them reach the kernel, per threshold as well; on city
# names how many pass the planes and the length filter before the bigram
# column, and the selection alone is timed as its own row.
for snapshot in BENCH_ablation_bitparallel_city.json BENCH_ablation_bitparallel_dna.json; do
    grep -q '"length_admitted": [1-9]' "$snapshot"
    grep -q '"v8_candidates": [1-9]' "$snapshot"
done
grep -q '"v8_candidates_k16": [0-9]' BENCH_ablation_bitparallel_dna.json
grep -q '"v8_candidates_k3": [0-9]' BENCH_ablation_bitparallel_city.json
grep -q '"v8_plane_survivors_k3": [0-9]' BENCH_ablation_bitparallel_city.json
grep -q '"name": "v8_selection"' BENCH_ablation_bitparallel_city.json
# The join snapshot has two rows, the nested-loop reference and
# PASS-JOIN: no row or counter of a retired join may survive a republish
# — the MinJoin rung's counters (`min_ns` is every row's fastest sample
# and stays) or the length-sorted join's row.
if grep -Eq '"min_(join|candidates_verified|fallback_records)"' BENCH_ablation_join_city.json; then
    echo "BENCH_ablation_join_city.json still carries a MinJoin entry" >&2
    exit 1
fi
if grep -q '"name": "length_sorted"' BENCH_ablation_join_city.json; then
    echo "BENCH_ablation_join_city.json still carries the length-sorted join" >&2
    exit 1
fi

# Serving-layer smoke test, fully offline: boot simsearchd on an
# ephemeral loopback port, probe HEALTH, run one query, check that
# STATS parses as JSON (the client's --check-stats-json uses the
# in-house validator — no python/jq needed), then SHUTDOWN and
# require the drain to finish within a timeout.
SIMSEARCH=./target/release/simsearch
smoke_dir=$(mktemp -d)
serve_pid=
# A failed assertion exits under `set -e`: take the daemon down with it.
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT

# boot_daemon <serve args…>: start simsearchd on an ephemeral port and
# wait (≤ 10 s) for it to publish the port; sets $serve_pid and $port.
boot_daemon() {
    rm -f "$smoke_dir/port"
    "$SIMSEARCH" serve "$@" --port 0 --port-file "$smoke_dir/port" &
    serve_pid=$!
    i=0
    while [ ! -s "$smoke_dir/port" ] && [ "$i" -lt 100 ]; do
        i=$((i + 1)); sleep 0.1
    done
    test -s "$smoke_dir/port"
    port=$(cat "$smoke_dir/port")
}

# drain_daemon: SHUTDOWN the daemon booted last and require the drain to
# finish within 10 s with a clean exit status.
drain_daemon() {
    "$SIMSEARCH" client --port "$port" --send 'SHUTDOWN' | grep -qx 'OK bye'
    i=0
    while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
        i=$((i + 1)); sleep 0.1
    done
    if kill -0 "$serve_pid" 2>/dev/null; then
        echo "simsearchd failed to drain within 10s" >&2
        exit 1
    fi
    wait "$serve_pid"
    serve_pid=
}

"$SIMSEARCH" generate --kind city --count 2000 --seed 7 --out "$smoke_dir/city.data" \
    --queries "$smoke_dir/city.q" --query-count 100
# Sharded search goes through the same engine factory as unsharded: a
# shard arm is a routing choice, never a correctness one (`trie` shards
# run radix's arm), so both sharded outputs are the unsharded radix
# output byte for byte.
search_city() {
    "$SIMSEARCH" search --data "$smoke_dir/city.data" --queries "$smoke_dir/city.q" "$@"
}
search_city --backend radix >"$smoke_dir/radix.out"
search_city --backend trie --shards 4 >"$smoke_dir/trie4.out"
search_city --backend radix --shards 4 >"$smoke_dir/radix4.out"
cmp "$smoke_dir/radix.out" "$smoke_dir/trie4.out"
cmp "$smoke_dir/radix.out" "$smoke_dir/radix4.out"
# The two sorted-arena sweeps visit only each query's length band (V7
# every record of it, V8 the candidates it selects there), and the
# uncompressed trie (rung I1) shares the radix trie's preorder layout
# with one-byte edges: all three are the radix output byte for byte, on
# one thread and on two.
for threads in 1 2; do
    for backend in trie scan-sorted scan-bitparallel; do
        search_city --backend "$backend" --threads "$threads" >"$smoke_dir/$backend.out"
        cmp "$smoke_dir/radix.out" "$smoke_dir/$backend.out"
    done
done

boot_daemon --data "$smoke_dir/city.data"
"$SIMSEARCH" client --port "$port" --send 'HEALTH' | grep -qx 'OK healthy'
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q 'simsearch-bench-v2'
# JOIN streams on a frozen daemon: the header advertises the pair
# count, at least one pair chunk follows (seed-7 city data has near
# duplicates at k=1), and STATS carries the join counters.
join_out=$("$SIMSEARCH" client --port "$port" --send 'JOIN 1')
echo "$join_out" | grep -q '^OK join [1-9]'
echo "$join_out" | grep -q '^OK pairs '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"join_pairs_emitted": [1-9]'
# No idle tier: a daemon that has answered its clients is main,
# `simsearchd` and the replan tick — connection handlers exist only
# while their connection does (slack of one for a client mid-disconnect)
# — nobody is left waiting for a permit, and `batches` is exactly the
# two requests that ran on the engine (the QUERY and the JOIN).
[ "$(ls /proc/$serve_pid/task | wc -l)" -le 4 ]
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"queue_depth": 0,'
echo "$stats" | grep -q '"batches": 2,'
drain_daemon

# Auto-backend serve smoke: a planner-driven daemon must route queries,
# report per-backend plan_decisions counters through STATS (still valid
# JSON per the in-house validator) and accept a background replan tick
# once the observation grid converges.
boot_daemon --data "$smoke_dir/city.data" --backend auto \
    --replan-interval-ms 50
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
# Second query: the counters are published after each executed request,
# so by the time this reply arrives the first query's counts are live.
"$SIMSEARCH" client --port "$port" --send 'QUERY 1 Ulm' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"plan_decisions": {.*": [1-9]'
# Fill one observation cell past the replan trust threshold, then poll
# STATS (≤ 10 s) until the 50ms tick has accepted a swap.
i=0
while [ "$i" -lt 16 ]; do
    i=$((i + 1))
    "$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' >/dev/null
done
i=0
until stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS') &&
    echo "$stats" | grep -q '"replans": [1-9]'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "no replan tick accepted a swap within 10s" >&2
        exit 1
    fi
    sleep 0.1
done
echo "$stats" | grep -q '"plan_epoch": [1-9]'
drain_daemon

# Bit-parallel routing smoke: on DNA-length queries at high k the auto
# planner must route to the V8 arm, and STATS must show a nonzero
# scan-bitparallel plan_decisions counter (still valid JSON). The
# build-time calibration race gives every arm a share of time, not of
# queries: `explain` must report at least one timed probe query for each
# of the five arms, however slow, and a k = 0 query — the row the probe
# measures for every arm — must find at least the record itself.
"$SIMSEARCH" generate --kind dna --count 500 --seed 7 --out "$smoke_dir/dna.data" \
    --queries "$smoke_dir/dna.q" --query-count 16
explained=$("$SIMSEARCH" explain --data "$smoke_dir/dna.data" --queries "$smoke_dir/dna.q")
for arm in scan-flat scan-sorted scan-bitparallel radix qgram; do
    echo "$explained" | grep -q "^  probe: $arm  *[1-9]"
done
boot_daemon --data "$smoke_dir/dna.data" --backend auto
dna_q=$(head -n 1 "$smoke_dir/dna.data")
"$SIMSEARCH" client --port "$port" --send "QUERY 0 $dna_q" | grep -q '^OK [1-9]'
"$SIMSEARCH" client --port "$port" --send "QUERY 16 $dna_q" | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --send "QUERY 16 $dna_q" | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    | grep -q '"scan-bitparallel": [1-9]'
# A TOPK is a series of threshold probes (radius 0, 1, 2, 4, …), each
# routed by the decision table and counted like a QUERY: over three
# TOPKs on one connection (a handler publishes its counters before it
# reads the next frame) `plan_decisions` grows by the probes, not by the
# three requests. The replies are compared with the V8 daemon's below.
q1=$(sed -n 1p "$smoke_dir/dna.q" | cut -f 1)
q2=$(sed -n 2p "$smoke_dir/dna.q" | cut -f 1)
q3=$(sed -n 3p "$smoke_dir/dna.q" | cut -f 1)
topk=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS' \
    --send "TOPK 3 $q1" --send "TOPK 3 $q2" --send "TOPK 3 $q3" --send 'STATS')
# plan_total <n>: Σ plan_decisions in the STATS reply on line <n>.
plan_total() {
    echo "$topk" | sed -n "${1}p" | sed 's/.*"plan_decisions": {\([^}]*\)}.*/\1/' \
        | tr ',' '\n' | awk -F': ' '{ total += $2 } END { print total + 0 }'
}
[ $(($(plan_total 5) - $(plan_total 1))) -gt 3 ]
echo "$topk" | sed -n '2,4p' >"$smoke_dir/topk.auto"
grep -c '^OK 3 ' "$smoke_dir/topk.auto" | grep -qx 3
drain_daemon

# Segment-postings smoke: a V8 daemon on the generated reads answers one
# query per threshold of the DNA cycle through the postings (k = 0 takes
# the equal range) and one at k = 17 through the length-filter fallback;
# each reply's id list must be the V1 scan's on the same input, byte for
# byte.
boot_daemon --data "$smoke_dir/dna.data" --backend scan-bitparallel
: >"$smoke_dir/postings.q"
: >"$smoke_dir/postings.replies"
i=0
for k in 0 4 8 16 17; do
    i=$((i + 1))
    q=$(sed -n "${i}p" "$smoke_dir/dna.q" | cut -f 1)
    printf '%s\t%s\n' "$q" "$k" >>"$smoke_dir/postings.q"
    "$SIMSEARCH" client --port "$port" --send "QUERY $k $q" >>"$smoke_dir/postings.replies"
done
"$SIMSEARCH" client --port "$port" \
    --send "TOPK 3 $q1" --send "TOPK 3 $q2" --send "TOPK 3 $q3" >"$smoke_dir/topk.v8"
drain_daemon
cmp "$smoke_dir/topk.auto" "$smoke_dir/topk.v8"
grep -q '^OK [1-9]' "$smoke_dir/postings.replies"
# "OK <n> <id>:<d> …" → the results-file line "<query>: <id>,<id>…".
awk '{
    line = (NR - 1) ":"
    for (f = 3; f <= NF; f++) {
        split($f, hit, ":")
        line = line (f == 3 ? " " : ",") hit[1]
    }
    print line
}' "$smoke_dir/postings.replies" >"$smoke_dir/postings.served"
"$SIMSEARCH" search --data "$smoke_dir/dna.data" --queries "$smoke_dir/postings.q" \
    --backend scan-base --output "$smoke_dir/postings.expected"
cmp "$smoke_dir/postings.served" "$smoke_dir/postings.expected"

# Sharded serve smoke: a --shards 4 daemon calibrates one planner per
# shard and STATS must carry per-shard plan_decisions ("s<i>.<arm>"
# keys) and per-shard match counters, still as valid JSON.
boot_daemon --data "$smoke_dir/city.data" --shards 4 --shard-by len
"$SIMSEARCH" client --port "$port" --send 'QUERY 2 Berlin' | grep -q '^OK '
"$SIMSEARCH" client --port "$port" --send 'QUERY 1 Ulm' | grep -q '^OK '
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"s0\.'
echo "$stats" | grep -q '"s3\.'
echo "$stats" | grep -q '"shard_matches": {"s0": '
drain_daemon

# Live-ingest serve smoke: a --live daemon accepts INSERT/DELETE over
# the wire, the mutations are immediately visible to QUERY, and STATS
# carries the LSM gauges (memtable_len / segments / compactions) and the
# live record count (2,000 seeds + 2 inserts − 1 delete), still as valid
# JSON.
boot_daemon --data "$smoke_dir/city.data" --live --memtable-cap 64
# The record uses bytes (#, digits) outside the city generator's
# alphabet, so the exact-match query can only ever hit the insert.
"$SIMSEARCH" client --port "$port" --send 'INSERT zz#live-smoke-9' | grep -qx 'OK id=2000'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 1 2000:0'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK deleted'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK absent'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 0'
"$SIMSEARCH" client --port "$port" --send 'INSERT zz#live-smoke-10' | grep -qx 'OK id=2001'
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"memtable_len"'
echo "$stats" | grep -q '"segments"'
echo "$stats" | grep -q '"compactions"'
echo "$stats" | grep -q '"records": 2001,'
drain_daemon

# Sharded-live serve smoke: --live composes with --shards — 4 hash-
# routed LiveEngine shards behind one daemon. INSERT routes to one
# shard and is immediately visible to cross-shard QUERY, DELETE finds
# the inserting shard, and STATS carries per-shard LSM gauges
# ("s<i>.memtable_len" keys) alongside the aggregates, still as valid
# JSON per the in-house validator.
boot_daemon --data "$smoke_dir/city.data" --live --shards 4 \
    --memtable-cap 64
"$SIMSEARCH" client --port "$port" --send 'INSERT zz#live-smoke-9' | grep -qx 'OK id=2000'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 1 2000:0'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK deleted'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK absent'
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#live-smoke-9' | grep -qx 'OK 0'
# Churn burst: hammer inserts and queries against moving memtables,
# then require STATS to carry the self-tuning counters (live shards have
# nothing to tick, so they stay zero — the keys are unconditional).
i=0
while [ "$i" -lt 12 ]; do
    i=$((i + 1))
    "$SIMSEARCH" client --port "$port" --send "INSERT zz#churn-$i" >/dev/null
    "$SIMSEARCH" client --port "$port" --send 'QUERY 1 Berlin' >/dev/null
done
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
echo "$stats" | grep -q '"s0\.memtable_len"'
echo "$stats" | grep -q '"s3\.memtable_len"'
echo "$stats" | grep -q '"memtable_len"'
echo "$stats" | grep -q '"replans": '
echo "$stats" | grep -q '"plan_epoch": '
echo "$stats" | grep -q '"records": 2012,'
drain_daemon

# Compaction over the wire: two live shards with an 8-slot memtable take
# 40 inserts, so each one flushes and merges while it serves. STATS must
# count at least two compaction steps, and the first insert, long out
# of its memtable, must still answer its exact-match query and delete
# once.
boot_daemon --data "$smoke_dir/city.data" --live --shards 2 --memtable-cap 8
i=0
while [ "$i" -lt 40 ]; do
    "$SIMSEARCH" client --port "$port" --send "INSERT zz#compact-$i" >/dev/null
    i=$((i + 1))
done
stats=$("$SIMSEARCH" client --port "$port" --check-stats-json --send 'STATS')
compactions=$(echo "$stats" | grep -o '"compactions": [0-9]*' | grep -o '[0-9]*$')
test "$compactions" -ge 2
"$SIMSEARCH" client --port "$port" --send 'QUERY 0 zz#compact-0' | grep -qx 'OK 1 2000:0'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK deleted'
"$SIMSEARCH" client --port "$port" --send 'DELETE 2000' | grep -qx 'OK absent'
drain_daemon

# A len partitioner cannot route live inserts: the daemon must refuse
# to boot, with a message naming the fix, before binding a port.
if "$SIMSEARCH" serve --data "$smoke_dir/city.data" --live --shards 2 \
    --shard-by len --port 0 2>"$smoke_dir/reject.err"; then
    echo "simsearchd accepted --live --shards --shard-by len" >&2
    exit 1
fi
grep -q 'shard-by hash' "$smoke_dir/reject.err"
