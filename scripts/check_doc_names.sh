#!/bin/sh
# Fail when README.md or docs/*.md names, in backticks, an identifier
# the code no longer has. A backticked identifier (optionally with a
# trailing "()") is checked when it contains "_", "::" or a capital
# after its first character, and passes when
#  - it is a word of a tracked file under bench/, src/, examples/,
#    perfbench/, tests/, .github/ or scripts/, or of CMakeLists.txt
#    (a "::" name by its last component),
#  - it is part of a tracked file's path, or
#  - it is example_X and examples/X.cpp exists.
# Run from the repo root.
set -u

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git ls-files -z -- bench src examples perfbench tests .github scripts \
    CMakeLists.txt | xargs -0 grep -hoE '[A-Za-z0-9_]+' |
    sort -u >"$tmp/words"
git ls-files >"$tmp/paths"

status=0
for f in README.md docs/*.md; do
    [ -f "$f" ] || continue
    grep -o '`[^`]*`' "$f" | sed 's/^`//; s/`$//; s/()$//' |
        grep -E '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$' |
        grep -E '_|::|^.+[A-Z]' | sort -u >"$tmp/names"
    while read -r name; do
        grep -qxF "${name##*::}" "$tmp/words" && continue
        grep -qF "$name" "$tmp/paths" && continue
        case "$name" in
        example_*) [ -f "examples/${name#example_}.cpp" ] && continue ;;
        esac
        echo "$f: \`$name\` names nothing in the code" >&2
        status=1
    done <"$tmp/names"
done
[ "$status" -eq 0 ] && echo "doc names ok"
exit "$status"
