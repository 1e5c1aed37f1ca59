#!/usr/bin/env bash
# Code-size count: the non-blank, non-comment Rust lines of the library
# and binary sources under crates/ and shims/. Each file is counted up
# to its first `#[cfg(test)]` (the unit tests that follow are not
# counted), so a test-only module file, which opens with
# `#![cfg(test)]`, counts nothing; files under a `tests/` or `benches/`
# directory are skipped. Comment lines are those starting with `//`
# (doc comments included) or lying inside a `/* … */` block.
#
# Usage: ci/loc.sh                    # prints the total
#        ci/loc.sh --by-crate         # one line per crate, then the total
#        ci/loc.sh [--by-crate] <rev> # the same for a commit, counted from
#                                     # a `git archive` of it in a temporary
#                                     # directory (removed afterwards)
set -euo pipefail

cd "$(dirname "$0")/.."

by_crate=0
if [[ "${1:-}" == "--by-crate" ]]; then
    by_crate=1
    shift
fi
if [[ -n "${1:-}" ]]; then
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" | tar -x -C "$tmp"
    cd "$tmp"
fi

count() {
    awk '
        FNR == 1 { done = 0; block = 0 }
        done { next }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { done = 1; next }
        {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            if (block) { if (line ~ /\*\//) block = 0; next }
            if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
            if (line == "" || line ~ /^\/\//) next
            n++
        }
        END { print n + 0 }
    ' "$@"
}

files() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path '*/target/*' | sort
}

if ((by_crate)); then
    for dir in crates/* shims/*; do
        [[ -d "$dir" ]] || continue
        mapfile -t fs < <(files "$dir")
        ((${#fs[@]})) || continue
        printf '%-24s %6d\n' "$dir" "$(count "${fs[@]}")"
    done
fi
mapfile -t all < <(files crates shims)
printf '%-24s %6d\n' "total" "$(count "${all[@]}")"
