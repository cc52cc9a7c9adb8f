#!/bin/sh
# Print the line count of every src/ module (each top-level directory
# under src/, its .h and .cpp files) and the total, as a Markdown
# table. The roadmap tracks the net src/ line count next to perf.
# Run from the repo root.
set -eu

total=0
echo "| src module | lines |"
echo "|---|---:|"
for d in src/*/; do
    n=$(find "$d" -type f \( -name '*.h' -o -name '*.cpp' \) \
        -exec cat {} + | wc -l)
    echo "| $(basename "$d") | $n |"
    total=$((total + n))
done
echo "| total | $total |"
