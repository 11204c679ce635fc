#!/usr/bin/env bash
# resume_check.sh — end-to-end crash-safety check for twlsim checkpointing.
#
# Runs a lifetime simulation to completion for a baseline report, then runs
# the same simulation with periodic checkpointing, SIGKILLs it mid-flight,
# resumes from the surviving checkpoint file and requires the resumed run's
# report to be byte-identical to the baseline. It does so twice: once for a
# run that ends at the first page failure, and once with spare-pool page
# retirement (-spare-frac), whose capacity-curve CSV must match as well.
# This is the shell-level
# counterpart of internal/sim's differential tests: it exercises the real
# binary, a real kill -9, and the atomic checkpoint file on a real
# filesystem.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The workload must run long enough (about a second) that the kill lands
# mid-simulation; at the 1Mi-write checkpoint cadence the first checkpoint
# is installed well before the run ends.
args=(-scheme TWL_swp -attack inconsistent -pages 1024 -endurance 200000 -seed 3)

echo "resume_check: building twlsim"
go build -o "$work/twlsim" ./cmd/twlsim

# check NAME EXTRA_ARGS...: baseline run, checkpointed run killed mid-flight,
# resume, and byte-compare the reports (and the capacity curves, when the
# run writes one to $work/NAME.curve.csv).
check() {
    local name=$1
    shift
    local run=("$work/twlsim" "${args[@]}" "$@")
    local ckpt="$work/$name.ckpt" curve="$work/$name.curve.csv"

    echo "resume_check[$name]: baseline run"
    "${run[@]}" > "$work/$name.baseline.txt"
    if [ -e "$curve" ]; then
        mv "$curve" "$work/$name.baseline.csv"
    fi

    echo "resume_check[$name]: checkpointed run (to be killed)"
    "${run[@]}" -checkpoint "$ckpt" -checkpoint-every 1048576 \
        > "$work/$name.killed.txt" 2>&1 &
    local pid=$!

    # Wait for the first checkpoint to be installed, then pull the plug.
    for _ in $(seq 1 200); do
        [ -s "$ckpt" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    if [ ! -s "$ckpt" ]; then
        echo "resume_check[$name]: FAIL — no checkpoint appeared before the run ended" >&2
        wait "$pid" || true
        cat "$work/$name.killed.txt" >&2
        exit 1
    fi
    if kill -KILL "$pid" 2>/dev/null; then
        echo "resume_check[$name]: killed pid $pid mid-run"
    else
        # The run finished before the kill landed; the resume below still
        # verifies the checkpoint replays to the same result, but flag it so
        # a timing regression is visible in the log.
        echo "resume_check[$name]: WARNING — run finished before SIGKILL; resume still checked"
    fi
    wait "$pid" 2>/dev/null || true

    echo "resume_check[$name]: resuming from $ckpt"
    "${run[@]}" -checkpoint "$ckpt" -resume > "$work/$name.resumed.txt"

    if ! diff -u "$work/$name.baseline.txt" "$work/$name.resumed.txt"; then
        echo "resume_check[$name]: FAIL — resumed report diverges from the baseline" >&2
        exit 1
    fi
    if [ -e "$work/$name.baseline.csv" ] && ! diff -u "$work/$name.baseline.csv" "$curve"; then
        echo "resume_check[$name]: FAIL — resumed capacity curve diverges from the baseline" >&2
        exit 1
    fi
    echo "resume_check[$name]: OK — resumed run is byte-identical to the baseline"
}

check first-failure
check retire -spare-frac 0.03 -curve "$work/retire.curve.csv"
