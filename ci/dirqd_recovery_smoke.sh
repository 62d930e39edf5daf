#!/usr/bin/env bash
# Crash-recovery smoke: two checkpointing deployments, a real `kill -9`
# mid-run, and a restart with `--recover` — each deployment must resume
# from its newest rotating auto-checkpoint with a state fingerprint
# equal to an uninterrupted run to the same epoch.
#
# The daemon steps to epoch 25 with a 10-epoch checkpoint period, so the
# newest on-disk image holds epoch 20 while the killed process was ahead
# at 25: recovery must land exactly on 20, not on anything the dead
# process knew beyond its last checkpoint. One deployment's name holds a
# dot, which must round-trip through the checkpoint file names; a name
# no checkpoint file can carry is rejected up front.
set -euo pipefail

DIRQD=${DIRQD:-./target/release/dirqd}
CLI=${CLI:-./target/release/dirq-cli}
WORK=$(mktemp -d)
CKPT="$WORK/ckpt"
mkdir -p "$CKPT"
DAEMON_PID=

cleanup() {
    status=$?
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
    exit "$status"
}
trap cleanup EXIT

start_daemon() {
    : > "$WORK/addr.txt"
    "$DIRQD" --addr 127.0.0.1:0 --print-addr "$@" > "$WORK/addr.txt" &
    DAEMON_PID=$!
    for _ in $(seq 50); do [ -s "$WORK/addr.txt" ] && break; sleep 0.1; done
    ADDR=$(head -n1 "$WORK/addr.txt")
    test -n "$ADDR"
}

cli() { "$CLI" --addr "$ADDR" "$@"; }
raw() { "$CLI" --addr "$ADDR" --raw "$@"; }

start_daemon
cli deploy g dense_grid_100 --scale 0.1 --seed 42 \
    --checkpoint-every 10 --checkpoint-dir "$CKPT"
cli deploy h.v2 hotspot_workload_200 --scale 0.1 --seed 43 \
    --checkpoint-every 10 --checkpoint-dir "$CKPT"
if cli deploy 'a/b' dense_grid_100 --scale 0.1 \
    --checkpoint-every 10 --checkpoint-dir "$CKPT" 2> "$WORK/bad.txt"; then
    echo "deploy 'a/b' was accepted" >&2
    exit 1
else
    test $? -eq 1
fi
grep -q 'bad_request' "$WORK/bad.txt"
test "$(raw epoch step g 25)" = 25
test "$(raw epoch step h.v2 25)" = 25

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=

start_daemon --recover "$CKPT"
STATUS=$(cli status)
echo "$STATUS" | grep -q '"name": "g"'
echo "$STATUS" | grep -q '"name": "h.v2"'
echo "$STATUS" | grep -q '"recovered"'

EG=$(raw epoch fingerprint g)
EH=$(raw epoch fingerprint h.v2)
FG=$(raw fingerprint fingerprint g)
FH=$(raw fingerprint fingerprint h.v2)
test "$EG" = 20
test "$EH" = 20

# Uninterrupted straight runs to the recovered epochs must
# fingerprint-equal the resumed deployments.
cli deploy g-clean dense_grid_100 --scale 0.1 --seed 42
cli deploy h-clean hotspot_workload_200 --scale 0.1 --seed 43
test "$(raw epoch step g-clean "$EG")" = "$EG"
test "$(raw epoch step h-clean "$EH")" = "$EH"
test "$(raw fingerprint fingerprint g-clean)" = "$FG"
test "$(raw fingerprint fingerprint h-clean)" = "$FH"

# The resumed deployments still serve: one blocking query each.
cli query g 0 12 26 > /dev/null
cli query h.v2 0 12 26 > /dev/null

cli shutdown
wait "$DAEMON_PID"
DAEMON_PID=
echo "dirqd recovery smoke: ok (g and h.v2 resumed at epoch 20, fingerprints match clean runs)"
