#!/usr/bin/env bash
# Golden-staleness gate: regenerates every committed golden from the
# current code and fails when the working tree's copies differ — a
# planner-visible cost change cannot land without regenerating goldens.
#
# Covers:
#   1. tests/golden/plan_table.txt and tests/golden/plan_table_gaussian.txt
#      (the same plan under uniform and Gaussian noise) — rewritten in
#      place by the plan_determinism test's GOLDEN_UPDATE hook, then
#      diffed against HEAD via git (so a stale committed copy fails even
#      after the regeneration overwrote it);
#   2. tests/golden/plan_report.json — the machine-readable plan of the
#      smoke scenario (`plan_report --seed 47 --json`), extracted from
#      the report output and diffed against the committed copy.
#
# To refresh after an intentional cost change:
#   GOLDEN_UPDATE=1 cargo test --release --test plan_determinism
#   ci/goldencheck.sh   # regenerates plan_report.json too, then verifies
set -euo pipefail

cd "$(dirname "$0")/.."

# Regenerate everything first, check staleness after — so one local run
# refreshes every golden even when an early check would fail.
echo "== goldencheck: regenerate plan_table.txt, plan_table_gaussian.txt =="
GOLDEN_UPDATE=1 cargo test --release --test plan_determinism -q

echo "== goldencheck: regenerate plan_report.json =="
cargo build --release --example plan_report
target/release/examples/plan_report --seed 47 --json \
    >target/goldencheck-plan-report.txt 2>target/goldencheck-plan-report.log || {
    echo "goldencheck: plan_report failed; its stderr follows" >&2
    cat target/goldencheck-plan-report.log >&2
    exit 1
}
# The report prints the human table first, then the JSON document (the
# only lines from a column-0 '{' to a column-0 '}').
sed -n '/^{/,/^}/p' target/goldencheck-plan-report.txt \
    >target/goldencheck-plan-report.json
if [[ ! -s target/goldencheck-plan-report.json ]]; then
    echo "goldencheck: no JSON document found in plan_report output" >&2
    exit 1
fi
if [[ "${GOLDEN_UPDATE:-0}" == "1" ]] || [[ ! -f tests/golden/plan_report.json ]]; then
    cp target/goldencheck-plan-report.json tests/golden/plan_report.json
    echo "goldencheck: wrote tests/golden/plan_report.json"
fi

echo "== goldencheck: staleness =="
fail=0
if ! diff -u tests/golden/plan_report.json target/goldencheck-plan-report.json; then
    echo "goldencheck: FAIL — tests/golden/plan_report.json is stale;" \
         "rerun with GOLDEN_UPDATE=1 and commit the result" >&2
    fail=1
fi
# git-diff the regenerated files against the committed copies: the
# GOLDEN_UPDATE hook above rewrote the working tree, so any drift from
# HEAD means the commit under test shipped stale goldens.
if ! git diff --exit-code -- tests/golden/plan_table.txt tests/golden/plan_table_gaussian.txt \
    tests/golden/plan_report.json; then
    echo "goldencheck: FAIL — committed goldens are stale;" \
         "commit the regenerated copies (diff above)" >&2
    fail=1
fi
[[ "$fail" == 0 ]] || exit 1

echo "goldencheck: OK"
