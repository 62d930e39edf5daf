#!/usr/bin/env bash
# Same behaviour, byte for byte, on two checkouts:
#
#     ci/same_output.sh PARENT_DIR CHANGE_DIR
#
# Builds each checkout in release into its own `target` directory (an
# inherited CARGO_TARGET_DIR is overridden), runs the six paper bins with
# `--quick` and the six examples from the checkout's root, and diffs
# their stdout. Prints "same" or "DIFFERS" per program, with the diff
# below a difference. Exits 1 if a build fails, a program fails or any
# stdout differs, 2 on a usage error.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
BINS="cost_ratio fig5_accuracy fig6_updates fig7_overshoot tab_analytic ablations"
EXAMPLES="analytic_vs_sim atc_tuning forest_monitoring geo_queries quickstart topology_churn"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# run_all DIR SIDE: build DIR and write each program's stdout to OUT/SIDE.
run_all() {
    local dir side=$2
    dir=$(cd "$1" && pwd)
    export CARGO_TARGET_DIR="$dir/target"
    (cd "$dir" && cargo build --release -q -p dirq-bench --bins && cargo build --release -q --examples) \
        || { echo "$side: build failed" >&2; exit 1; }
    mkdir -p "$OUT/$side"
    for bin in $BINS; do
        (cd "$dir" && "$CARGO_TARGET_DIR/release/$bin" --quick) > "$OUT/$side/$bin" \
            || { echo "$side: $bin failed" >&2; exit 1; }
    done
    for example in $EXAMPLES; do
        (cd "$dir" && "$CARGO_TARGET_DIR/release/examples/$example") > "$OUT/$side/$example" \
            || { echo "$side: example $example failed" >&2; exit 1; }
    done
}

run_all "$1" parent
run_all "$2" change
status=0
for name in $BINS $EXAMPLES; do
    if diff -u "$OUT/parent/$name" "$OUT/change/$name" > "$OUT/diff"; then
        echo "same     $name"
    else
        echo "DIFFERS  $name"
        cat "$OUT/diff"
        status=1
    fi
done
exit "$status"
