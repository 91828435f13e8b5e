#!/bin/sh
# benchcmp.sh — diff two benchrepro -json artifact files counter by counter.
#
#   go run ./cmd/benchrepro -json before.jsonl
#   ... change something ...
#   go run ./cmd/benchrepro -json after.jsonl
#   ./scripts/benchcmp.sh before.jsonl after.jsonl
#
# Rows are matched by table header + label. For every shared row the script
# prints old -> new for each deterministic counter that changed, with the
# ratio; rows present on only one side are listed separately. By default it
# exits 0 always (it reports, it does not judge). With -gate PCT it becomes
# a regression gate: exit 1 if any counter grew by more than PCT percent
# over the old file, or if a row of the old file disappeared (improvements
# and brand-new rows pass). `make bench-smoke` runs it with -gate 10
# against the committed bench/baseline.jsonl.
#
# POSIX sh + awk only; the JSON lines are flat objects written by benchrepro
# itself, so a field extractor over "key":value pairs is sufficient.
set -eu

gate=""
if [ "${1:-}" = "-gate" ]; then
	gate=${2:?"-gate needs a percentage"}
	case $gate in
	''|*[!0-9.]*) echo "benchcmp: -gate wants a number, got $gate" >&2; exit 2 ;;
	esac
	shift 2
fi

if [ $# -ne 2 ]; then
	echo "usage: $0 [-gate PCT] OLD.jsonl NEW.jsonl" >&2
	exit 2
fi
old=$1
new=$2
[ -r "$old" ] || { echo "benchcmp: cannot read $old" >&2; exit 2; }
[ -r "$new" ] || { echo "benchcmp: cannot read $new" >&2; exit 2; }

awk -v oldfile="$old" -v newfile="$new" -v gate="$gate" '
function strfield(line, key,    re, s) {
	re = "\"" key "\":\"";
	s = line;
	if (!match(s, re)) return "";
	s = substr(s, RSTART + RLENGTH);
	sub(/".*/, "", s);
	return s;
}
function numfield(line, key,    re, s) {
	re = "\"" key "\":";
	s = line;
	if (!match(s, re)) return "";
	s = substr(s, RSTART + RLENGTH);
	sub(/[,}].*/, "", s);
	return s + 0;
}
function rowkey(line) {
	return strfield(line, "table") " / " strfield(line, "label");
}
BEGIN {
	ncounters = split("base_tuples_read comparisons intermediate_tuples materializations " \
	                  "cache_hits cache_misses cache_tuples_replayed cache_tuples_spooled " \
	                  "cache_spools_abandoned batches_emitted " \
	                  "sheds rate_limited breaker_opened breaker_half_opened breaker_closed breaker_rejected",
	                  counters, " ");
	while ((getline line < oldfile) > 0) {
		if (line ~ /^[ \t]*$/) continue;
		k = rowkey(line);
		inold[k] = 1;
		for (i = 1; i <= ncounters; i++)
			oldv[k, counters[i]] = numfield(line, counters[i]);
		oldres[k] = strfield(line, "result");
	}
	close(oldfile);
	changed = 0; same = 0;
	while ((getline line < newfile) > 0) {
		if (line ~ /^[ \t]*$/) continue;
		k = rowkey(line);
		innew[k] = 1;
		if (!(k in inold)) { onlynew[k] = 1; continue; }
		header = 0;
		newres = strfield(line, "result");
		if (newres != oldres[k]) {
			printf "%s\n  result: %s -> %s\n", k, oldres[k], newres;
			header = 1;
		}
		for (i = 1; i <= ncounters; i++) {
			c = counters[i];
			o = oldv[k, c];
			n = numfield(line, c);
			if (o == n) continue;
			if (!header) { printf "%s\n", k; header = 1; }
			worse = (gate != "") && (n > o) && (o == 0 || n > o * (1 + gate / 100));
			if (worse) regress++;
			if (o > 0)
				printf "  %s: %d -> %d (%.2fx)%s\n", c, o, n, n / o, worse ? "  REGRESSION" : "";
			else
				printf "  %s: %d -> %d%s\n", c, o, n, worse ? "  REGRESSION" : "";
		}
		if (header) changed++; else same++;
	}
	close(newfile);
	for (k in inold) if (!(k in innew)) {
		printf "only in %s: %s\n", oldfile, k;
		if (gate != "") regress++;
	}
	for (k in onlynew) printf "only in %s: %s\n", newfile, k;
	printf "%d rows compared: %d changed, %d identical\n", changed + same, changed, same;
	if (gate != "" && regress > 0) {
		printf "GATE FAILED: %d counter(s) regressed more than %s%%\n", regress, gate;
		exit 1;
	}
}' </dev/null
