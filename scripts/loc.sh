#!/usr/bin/env bash
# Line counts of the serving engine, as ROADMAP and CHANGES quote them.
#
# A code line is a non-blank line whose first non-blank characters are not
# `//` (so `///` and `//!` docs count as comments). Prints, per row, all
# lines and code lines for each file of crates/engines/src and their total,
# for fused.rs's executor (its first line up to `// ----- delta states`),
# for the delta walk (`// ----- delta states` to the end of fused.rs), for
# crates/midas/src/runtime.rs, and the totals of crates/ires/src and
# crates/midas/src (every `.rs` file beneath each). The executor and walk
# rows sum to fused.rs's own.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Reads lines on stdin; prints "<all> <code> <label>".
count() {
    awk -v label="$1" '{ n++ } !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { c++ }
        END { printf "%7d %7d  %s\n", n, c, label }'
}

printf "%7s %7s  %s\n" all code what
for f in crates/engines/src/*.rs; do
    count "$f" < "$f"
done
cat crates/engines/src/*.rs | count "crates/engines/src (total)"
sed '/^\/\/ ----- delta states/,$d' crates/engines/src/fused.rs | count "fused.rs executor (start to delta states)"
sed -n '/^\/\/ ----- delta states/,$p' crates/engines/src/fused.rs | count "fused.rs walk (delta states to end)"
count crates/midas/src/runtime.rs < crates/midas/src/runtime.rs
for dir in crates/ires/src crates/midas/src; do
    find "$dir" -name '*.rs' | sort | xargs cat | count "$dir (total)"
done
