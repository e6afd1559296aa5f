#!/usr/bin/env bash
# scoreboard_diff.sh — the refactor check: byte-identical pegload output.
#
# Usage: scripts/scoreboard_diff.sh <base-rev>
#
# Builds pegload twice: from <base-rev> (exported with git archive into
# a temporary directory) and from the working tree. Then runs every
# `go run ./cmd/pegload ...` command in .github/workflows/ci.yml on both
# builds with -json added. Commands that do not already write a
# session trace and a metrics series also get -trace-out/-metrics-out,
# so every scenario's trace is compared, not just the telemetry
# smoke's. Each command runs in its own directory.
#
# The host-time fields wall_seconds, events_per_sec and cells_per_sec
# are dropped with jq; everything else must match: the JSON scoreboard,
# the exit status, and every file the run wrote. Exits 1 on any
# difference, 0 when every command matches. Needs git, go and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/scoreboard_diff.sh <base-rev>" >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/src-base" "$work/bin"
git archive "$base" | tar -x -C "$work/src-base"
(cd "$work/src-base" && go build -o "$work/bin/base" ./cmd/pegload)
go build -o "$work/bin/head" ./cmd/pegload

# One pegload argument list per line. A command is a line naming
# ./cmd/pegload plus its continuation lines: the rest of a folded
# `run: >` block, or lines after a trailing backslash in a `run: |`
# block.
awk '
    function flush() { if (cmd != "") print cmd; cmd = ""; cont = 0 }
    {
        line = $0
        ind = match(line, /[^ ]/) - 1
        if (cmd != "" && (cont || (folded && ind >= foldind && line ~ /[^ ]/))) {
            sub(/^ +/, "", line)
        } else {
            flush()
            if (!(ind >= foldind && line ~ /[^ ]/)) folded = 0
            if (line ~ /run: >/) {
                folded = 1
                foldind = ind + 1
                next
            }
            if (line !~ /go run .*\.\/cmd\/pegload/) next
            sub(/.*\.\/cmd\/pegload/, "", line)
        }
        cont = (line ~ /\\$/)
        sub(/ *\\$/, "", line)
        cmd = cmd " " line
    }
    END { flush() }
' .github/workflows/ci.yml > "$work/commands"

if [ ! -s "$work/commands" ]; then
    echo "scoreboard_diff.sh: no pegload commands found in ci.yml" >&2
    exit 2
fi

strip='walk(if type == "object" then del(.wall_seconds, .events_per_sec, .cells_per_sec) else . end)'
status=0
i=0
while read -r args; do
    i=$((i + 1))
    case "$args" in
    *-trace-out*) ;;
    *) args="$args -trace-out trace.jsonl -metrics-out metrics.json" ;;
    esac
    for build in base head; do
        dir="$work/run$i/$build"
        mkdir -p "$dir"
        code=0
        # shellcheck disable=SC2086 # args is a flag list, split on purpose
        (cd "$dir" && "$work/bin/$build" $args -json > stdout.raw 2> /dev/null) || code=$?
        echo "$code" > "$dir/exit-status"
        jq -S "$strip" "$dir/stdout.raw" > "$dir/scoreboard.json"
        rm "$dir/stdout.raw"
    done
    if diff -r "$work/run$i/base" "$work/run$i/head" > "$work/run$i.diff"; then
        echo "same     pegload $args"
    else
        echo "DIFFERS  pegload $args"
        head -n 40 "$work/run$i.diff"
        status=1
    fi
done < "$work/commands"

if [ "$status" -ne 0 ]; then
    echo "scoreboard_diff.sh: output differs from $1" >&2
fi
exit "$status"
