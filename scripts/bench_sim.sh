#!/usr/bin/env bash
# Measure the simulator's two headline numbers and record them in
# BENCH_sim.json:
#
#   * engine micro-bench throughput (events dispatched per second in the
#     `engine/dispatch_128k_events` bench),
#   * burst-log drain throughput (frames through the append/GC/replay
#     cycle per second in the `blog/drain_cycle_10k_frames` bench), and
#   * wall time of a full `repro all` at paper scale (perf counters off),
#     at the default `--jobs` (the host's core count) and at `--jobs 1`.
#
# Each is sampled BENCH_REPS times (default 3) and the best sample kept —
# on a shared machine the minimum is the closest estimate of the true cost.
#
#   scripts/bench_sim.sh [--note TEXT]   append an entry to BENCH_sim.json
#   scripts/bench_sim.sh --check         measure, write the would-be file to
#                                        target/BENCH_sim.json, and FAIL if
#                                        engine throughput fell below 80% of
#                                        the last committed entry
#
# Run on an otherwise idle host; BENCH_FLOOR overrides the 0.8 gate fraction
# when checking on shared hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=record
NOTE=""
while [ $# -gt 0 ]; do
    case "$1" in
        --check) MODE=check ;;
        --note)
            NOTE="$2"
            shift
            ;;
        *)
            echo "usage: $0 [--check] [--note TEXT]" >&2
            exit 2
            ;;
    esac
    shift
done

REPS="${BENCH_REPS:-3}"

echo "[bench_sim] building release binaries..." >&2
cargo build --release -q -p sio-analysis -p sio-bench

eps_samples=()
for _ in $(seq "$REPS"); do
    eps=$(cargo bench -q -p sio-bench --bench micro -- engine/dispatch_128k_events 2>/dev/null |
        awk '/engine\/dispatch_128k_events/ {print $(NF - 1)}')
    if [ -z "$eps" ]; then
        echo "[bench_sim] failed to parse engine bench output" >&2
        exit 1
    fi
    echo "[bench_sim] engine sample: $eps elem/s" >&2
    eps_samples+=("$eps")
done

drain_samples=()
for _ in $(seq "$REPS"); do
    fps=$(cargo bench -q -p sio-bench --bench micro -- blog/drain_cycle_10k_frames 2>/dev/null |
        awk '/blog\/drain_cycle_10k_frames/ {print $(NF - 1)}')
    if [ -z "$fps" ]; then
        echo "[bench_sim] failed to parse drain bench output" >&2
        exit 1
    fi
    echo "[bench_sim] drain sample: $fps frames/s" >&2
    drain_samples+=("$fps")
done

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
# Best-of-REPS wall time of `repro all`, in ms; extra args go to repro.
time_repro_all() {
    local best=""
    for _ in $(seq "$REPS"); do
        local start ms
        start=$(date +%s%N)
        ./target/release/repro "$@" --out "$out_dir" all >/dev/null 2>&1
        ms=$((($(date +%s%N) - start) / 1000000))
        echo "[bench_sim] repro ${*:+$* }all sample: ${ms} ms" >&2
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then
            best=$ms
        fi
    done
    echo "$best"
}
ms=$(time_repro_all)
ms_j1=$(time_repro_all --jobs 1)

MODE="$MODE" NOTE="$NOTE" \
    EPS_SAMPLES="${eps_samples[*]}" MS="$ms" MS_J1="$ms_j1" \
    DRAIN_SAMPLES="${drain_samples[*]}" \
    HOST_CPUS="$(nproc 2>/dev/null || echo 1)" \
    REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    DATE="$(date -u +%F)" \
    python3 - <<'EOF'
import json, os, sys

eps = max(int(s) for s in os.environ["EPS_SAMPLES"].split())
ms = int(os.environ["MS"])
ms_j1 = int(os.environ["MS_J1"])
drain = max(int(s) for s in os.environ["DRAIN_SAMPLES"].split())
host_cpus = int(os.environ["HOST_CPUS"])
entry = {
    "rev": os.environ["REV"],
    "date": os.environ["DATE"],
    "engine_events_per_sec": eps,
    "engine_ns_per_iter": round(128_000 / eps * 1e9),
    "host_cpus": host_cpus,
    "drain_frames_per_sec": drain,
    "repro_all_ms": ms,
    "repro_all_j1_ms": ms_j1,
}
if os.environ["NOTE"]:
    entry["note"] = os.environ["NOTE"]

path = "BENCH_sim.json"
if os.path.exists(path):
    with open(path) as f:
        doc = json.load(f)
else:
    doc = {"bench": "sim", "history": []}
doc["schema"] = (
    "history[]: best-of-N samples; engine bench is "
    "engine/dispatch_128k_events (128k events/iter); repro_all_ms is "
    "wall time of `repro all` at paper scale at the default --jobs "
    "(host_cpus workers), repro_all_j1_ms the same at --jobs 1; "
    "counters disabled"
)

mode = os.environ["MODE"]
if mode == "check":
    if not doc["history"]:
        sys.exit("[bench_sim] --check needs a committed baseline entry")
    base = doc["history"][-1]
    floor = float(os.environ.get("BENCH_FLOOR", "0.8")) * base["engine_events_per_sec"]
    verdict = "ok" if eps >= floor else "REGRESSION"
    print(
        f"[bench_sim] engine: {eps} elem/s vs baseline "
        f"{base['engine_events_per_sec']} ({base['rev']}); "
        f"floor {floor:.0f}: {verdict}"
    )
    print(f"[bench_sim] repro all: {ms} ms (baseline {base['repro_all_ms']} ms)")
    if "repro_all_j1_ms" in base:
        print(
            f"[bench_sim] repro --jobs 1 all: {ms_j1} ms "
            f"(baseline {base['repro_all_j1_ms']} ms)"
        )
    if "drain_frames_per_sec" in base:
        print(
            f"[bench_sim] drain: {drain} frames/s "
            f"(baseline {base['drain_frames_per_sec']})"
        )
    os.makedirs("target", exist_ok=True)
    doc["history"].append(entry)
    with open("target/BENCH_sim.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    if eps < floor:
        sys.exit(1)
else:
    doc["history"].append(entry)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"[bench_sim] recorded {entry} -> {path}")
EOF
