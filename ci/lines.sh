#!/usr/bin/env bash
# Net lines per crate, production and test, between a base ref and the
# working tree: the count every CHANGES.md entry reports.
#
#   ci/lines.sh [BASE]        BASE defaults to HEAD~1
#
# A Rust file is production up to its first top-level `#[cfg(test)]` line
# and test from there on; every line of `sim.rs`, of `explore.rs` and of
# a file under a `tests/` directory is test. A file belongs to the crate of the nearest
# Cargo.toml above it. Doc comments count as the lines they are.
set -euo pipefail
base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"

# "production test" for the Rust source on stdin; $1 = 1 counts it all as test.
count() {
    awk -v all_test="$1" '
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (all_test || in_test) test++; else prod++ }
        END { print prod + 0, test + 0 }'
}

# The package name of the nearest Cargo.toml above a path.
crate_of() {
    local dir
    dir=$(dirname "$1")
    while [ "$dir" != . ] && [ ! -f "$dir/Cargo.toml" ]; do
        dir=$(dirname "$dir")
    done
    sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1
}

{
    git diff --name-only "$base" -- '*.rs'
    git ls-files --others --exclude-standard -- '*.rs'
} | sort -u | while read -r file; do
    case "$file" in
        */tests/* | tests/* | */sim.rs | */explore.rs) all_test=1 ;;
        *) all_test=0 ;;
    esac
    read -r old_prod old_test < <(git show "$base:$file" 2>/dev/null | count "$all_test")
    if [ -f "$file" ]; then
        read -r new_prod new_test < <(count "$all_test" < "$file")
    else
        new_prod=0 new_test=0
    fi
    echo "$(crate_of "$file") $file $((new_prod - old_prod)) $((new_test - old_test))"
done | awk '
    function signed(n) { return n > 0 ? "+" n : n }
    BEGIN { printf "%-12s %-48s %10s %6s\n", "crate", "file", "production", "test" }
    {
        printf "%-12s %-48s %10s %6s\n", $1, $2, signed($3), signed($4)
        if (!($1 in prod)) crates[++n] = $1
        prod[$1] += $3; test[$1] += $4; total_prod += $3; total_test += $4
    }
    END {
        print ""
        for (i = 1; i <= n; i++)
            printf "%-12s %-48s %10s %6s\n", crates[i], "(crate)", signed(prod[crates[i]]), signed(test[crates[i]])
        printf "%-12s %-48s %10s %6s\n", "all", "", signed(total_prod), signed(total_test)
    }'
