#!/usr/bin/env sh
# Non-test line counter: prints the code and comment lines of the
# workspace's Rust sources, the figure a simplicity change is judged by.
# It reports; it gates nothing.
#
# The rule: non-blank lines of `.rs` files under crates/, examples/
# and src/ (or under the paths given as arguments), skipping every
# `tests/` and `benches/` directory, each file cut after its first
# `#[cfg(test)]` whose next line declares a `mod` (the attribute line
# itself counts as code). A line whose first
# non-blank characters are `//` is a comment line; every other
# non-blank line is code.
#
# Usage: ./count_lines.sh [path ...]    (run from the repo root)
set -eu

if [ "$#" -eq 0 ]; then
    set -- crates examples src
fi

find "$@" -name '*.rs' -type f \
    | grep -Ev '(^|/)(tests|benches)/' \
    | sort \
    | xargs awk '
        FNR == 1 { cut = 0; pending = 0 }
        cut { next }
        pending && /^[ \t]*(pub(\([a-z]+\))? )?mod / { cut = 1; next }
        { pending = 0 }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1 }
        /^[ \t]*$/ { next }
        /^[ \t]*\/\// { comment++; next }
        { code++ }
        END { printf "code %d  comment %d  total %d\n", code, comment, code + comment }
    '
