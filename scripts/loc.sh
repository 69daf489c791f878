#!/usr/bin/env bash
# Lines of Rust per crate under crates/*/src, three ways:
#   all    every line;
#   lib    lines before the file's first `#[cfg(test)]` that opens a
#          `mod` (the unit-test module), i.e. outside test modules;
#   code   those `lib` lines that are neither blank nor comments (a line
#          whose first non-space characters are `//`, doc comments too).
# `code` is the number the LoC tables in CHANGES.md compare.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to this script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

printf '%-12s %8s %8s %8s\n' crate all lib code
total_all=0 total_lib=0 total_code=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    read -r all lib code < <(
        find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { in_lib = 1; pending = 0 }
            {
                all++
                line = $0
                sub(/^[ \t]+/, "", line)
                if (pending) {
                    # The attribute opened the test module: it and the
                    # rest of the file are test code.
                    if (line ~ /^(pub(\([a-z]+\))? )?mod /) {
                        in_lib = 0
                        lib -= 1
                        code -= 1
                    }
                    pending = 0
                }
                if (line ~ /^#\[cfg\(test\)\] *(pub(\([a-z]+\))? )?mod /) in_lib = 0
                if (!in_lib) next
                lib++
                if (line != "" && line !~ /^\/\//) code++
                if (line ~ /^#\[cfg\(test\)\]/) pending = 1
            }
            END { printf "%d %d %d\n", all, lib, code }'
    )
    printf '%-12s %8d %8d %8d\n' "$crate" "$all" "$lib" "$code"
    total_all=$((total_all + all))
    total_lib=$((total_lib + lib))
    total_code=$((total_code + code))
done
printf '%-12s %8d %8d %8d\n' total "$total_all" "$total_lib" "$total_code"
