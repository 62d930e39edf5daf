#!/usr/bin/env bash
# External-daemon round trip: a real dirqd process driven by dirq-cli
# over TCP — deploy, step, blocking and async queries, poll/drain,
# snapshot/restore with fingerprint equality, status, and a clean
# shutdown with an idle client connected.
#
# Scripted values (ids, cursors, epochs, fingerprints) are captured with
# `dirq-cli --raw FIELD` rather than scraped out of pretty JSON. The
# daemon is started in the background and killed by the exit trap, so a
# failed assertion never leaks the process until job teardown.
set -euo pipefail

DIRQD=${DIRQD:-./target/release/dirqd}
CLI=${CLI:-./target/release/dirq-cli}
WORK=$(mktemp -d)
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

"$DIRQD" --addr 127.0.0.1:0 --print-addr > "$WORK/addr.txt" &
DAEMON_PID=$!
for _ in $(seq 50); do [ -s "$WORK/addr.txt" ] && break; sleep 0.1; done
ADDR=$(head -n1 "$WORK/addr.txt")
test -n "$ADDR"

cli() { "$CLI" --addr "$ADDR" "$@"; }
raw() { "$CLI" --addr "$ADDR" --raw "$@"; }

cli deploy a dense_grid_100 --scale 0.1
test "$(raw epoch step a 20)" = 20

# EPOCHS is an unsigned integer: a fraction is a usage error (exit 2)
# raised before any request is sent, and the epoch stays where it was.
STEP_EXIT=0
cli step a 1.5 2> /dev/null || STEP_EXIT=$?
test "$STEP_EXIT" = 2
test "$(raw epoch fingerprint a)" = 20
cli query a 0 12 26

# Non-blocking path: submit returns the id immediately, poll resolves
# it, drain hands it to a cursored reader that then runs dry.
QID=$(raw id query a 0 14 22 --async --client ci)
test -n "$QID"
DONE=false
for _ in $(seq 100); do
    DONE=$(raw done poll a "$QID")
    [ "$DONE" = true ] && break
    sleep 0.05
done
test "$DONE" = true
cli drain a | grep -q "\"id\": $QID"
CURSOR=$(raw cursor drain a)
test "$(raw results drain a "$CURSOR")" = "[]"

cli snapshot a "$WORK/a.dirqsnap"
cli restore b "$WORK/a.dirqsnap"
FA=$(raw fingerprint fingerprint a)
FB=$(raw fingerprint fingerprint b)
echo "a: $FA"
echo "b: $FB"
test -n "$FA"
test "$FA" = "$FB"

test "$(raw serving_threads status)" -ge 1
cli status

# Shutdown joins every connection handler, so it must close idle
# connections: hold one open and silent across `shutdown` and require the
# daemon to exit within 5 s.
exec 3<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
cli shutdown
for _ in $(seq 50); do
    kill -0 "$DAEMON_PID" 2> /dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON_PID" 2> /dev/null; then
    echo "dirqd still running 5 s after shutdown with an idle client connected" >&2
    exit 1
fi
wait "$DAEMON_PID"
DAEMON_PID=
exec 3<&-
echo "dirqd round trip: ok"
