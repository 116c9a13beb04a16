#!/bin/sh
# lint_hotpath.sh — guard the zero-alloc hot paths against closure creep.
#
# The audited packages schedule their steady-state events closure-free
# (prebuilt callback fields, ScheduleArg with pooled records; see
# DESIGN.md §6). This check greps those packages for call sites that pass
# an inline func literal to Schedule/ScheduleAt/Use and fails if
# any site is not listed in tools/hotpath_allow.txt — the registry of
# intentionally cold sites (recovery retransmission timers, per-switch
# copies, job setup) where a per-call closure is fine.
#
# An allowlist entry is "<file>:<trimmed source line>", so moving a cold
# site is free but editing it forces the allowlist (and this reasoning)
# to be revisited. Run from anywhere; operates on the repo root.
set -eu
cd "$(dirname "$0")/.."

allow=tools/hotpath_allow.txt
pkgs="internal/sim internal/lanai internal/fm internal/myrinet internal/core internal/parpar internal/workload internal/altsched"
pattern='\.(Schedule|ScheduleAt|Use)\(.*func\('

hits=$(grep -rnE "$pattern" $pkgs --include='*.go' | grep -v _test.go || true)

bad=0
seen_keys=""
while IFS= read -r hit; do
	[ -z "$hit" ] && continue
	file=${hit%%:*}
	rest=${hit#*:}
	rest=${rest#*:} # strip the line number; content identifies the site
	key="$file:$(printf '%s' "$rest" | sed 's/^[[:space:]]*//;s/[[:space:]]*$//')"
	seen_keys="$seen_keys$key
"
	if ! grep -qxF "$key" "$allow"; then
		echo "hotpath lint: closure-capturing scheduling call not in allowlist:"
		echo "  $hit"
		bad=1
	fi
done <<EOF
$hits
EOF

# Stale allowlist entries are an error too: the site was fixed or moved,
# so the registry must shrink with it.
while IFS= read -r entry; do
	case $entry in '' | '#'*) continue ;; esac
	if ! printf '%s' "$seen_keys" | grep -qxF "$entry"; then
		echo "hotpath lint: stale allowlist entry (site no longer matches):"
		echo "  $entry"
		bad=1
	fi
done <"$allow"

if [ "$bad" -ne 0 ]; then
	echo "hotpath lint: FAILED — keep steady-state scheduling closure-free" \
		"(prebuilt callbacks / ScheduleArg with pooled records)," \
		"or add genuinely cold sites to $allow with a rationale."
	exit 1
fi
echo "hotpath lint: ok"
