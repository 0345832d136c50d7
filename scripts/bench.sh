#!/bin/sh
# Benchmark-trajectory harness: runs the benchmark families and writes
# machine-readable snapshots of the numbers this checkout produces,
# committed periodically so performance can be tracked across history:
#
#   BENCH_interp.json  interpreter, probe-profiling, observability, and
#                      the cold compile-and-estimate phases
#   BENCH_serve.json   serving paths (estimate cache hits, fleet ingest,
#                      estimate reply encoding), including p50/p99/p999
#                      tail latency reported by the benchmarks as custom
#                      p*-ns metrics
#
# Alongside each JSON snapshot the raw `go test -bench` stream is kept
# as FILE.bench (benchstat / cmd/benchdiff input format; not committed).
# A failing or silently-skipped benchmark exits non-zero — a truncated
# snapshot must never look like a healthy one.
#
#   scripts/bench.sh                  # smoke run (-benchtime 1x)
#   BENCH_TIME=2s scripts/bench.sh    # steadier numbers
#   BENCH_COUNT=6 scripts/bench.sh    # multi-sample: the JSON keeps each
#                                     # metric's median, _min and _max; the
#                                     # .bench stream every sample (benchdiff)
#   BENCH_OUT=- scripts/bench.sh      # interp JSON to stdout
set -eu
cd "$(dirname "$0")/.."

benchtime=${BENCH_TIME:-1x}
benchcount=${BENCH_COUNT:-1}

# bench_family FILTER OUT PKGS... — runs one benchmark family and writes
# the JSON snapshot to OUT ("-" = stdout) plus the raw bench stream to
# OUT with .json swapped for .bench (skipped when OUT is - or /dev/null).
bench_family() {
	filter=$1
	out=$2
	shift 2
	raw=$(mktemp)
	# Not a pipeline: `go test | tee` would report tee's exit status and
	# swallow a benchmark failure.
	if ! go test -run '^$' -bench "$filter" -benchtime "$benchtime" -count "$benchcount" "$@" >"$raw" 2>&1; then
		cat "$raw" >&2
		echo "bench.sh: go test -bench '$filter' failed" >&2
		rm -f "$raw"
		exit 1
	fi
	cat "$raw" >&2
	if ! grep -q '^Benchmark' "$raw"; then
		echo "bench.sh: no Benchmark lines matched '$filter'" >&2
		rm -f "$raw"
		exit 1
	fi
	# One entry per benchmark, in first-seen order. Its metrics are the
	# medians of its samples (the mean of the middle two for an even
	# count, as cmd/benchdiff takes them); with more than one sample,
	# each metric also gets <metric>_min and <metric>_max. A single
	# sample is copied through as printed.
	json=$(awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
	# sorted(samples, c, s) copies samples[1..c] into s in numeric order.
	function sorted(samples, c, s,    i, j, v) {
		for (i = 1; i <= c; i++) {
			v = samples[i]
			for (j = i - 1; j >= 1 && s[j] + 0 > v + 0; j--)
				s[j + 1] = s[j]
			s[j + 1] = v
		}
	}
	function median(s, c) {
		if (c % 2) return s[(c + 1) / 2]
		return sprintf("%.10g", (s[c / 2] + s[c / 2 + 1]) / 2)
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		if (!(name in runs)) {
			order[++n] = name
			runs[name] = 0
			for (i = 3; i < NF; i += 2)
				unit[name, ++units[name]] = $(i + 1)
		}
		k = ++runs[name]
		iters[name, k] = $2
		for (i = 3; i < NF; i += 2)
			val[name, $(i + 1), k] = $i
	}
	END {
		printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, gover
		for (e = 1; e <= n; e++) {
			name = order[e]
			c = runs[name]
			split("", samples)
			for (k = 1; k <= c; k++)
				samples[k] = iters[name, k]
			split("", s)
			sorted(samples, c, s)
			if (e > 1) printf ","
			printf "\n    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", name, median(s, c)
			for (m = 1; m <= units[name]; m++) {
				u = unit[name, m]
				for (k = 1; k <= c; k++)
					samples[k] = val[name, u, k]
				split("", s)
				sorted(samples, c, s)
				if (m > 1) printf ", "
				printf "\"%s\": %s", u, median(s, c)
				if (c > 1) printf ", \"%s_min\": %s, \"%s_max\": %s", u, s[1], u, s[c]
			}
			printf "}}"
		}
		printf "\n  ]\n}\n"
	}' "$raw")
	# Belt and braces on top of the raw-stream grep: never let a snapshot
	# with zero benchmark entries masquerade as a healthy trajectory point
	# (a bad filter or a parse regression would otherwise silently write
	# an empty "benchmarks": [] on a fresh checkout).
	entries=$(printf '%s\n' "$json" | grep -c '"name":' || true)
	if [ "$entries" -eq 0 ]; then
		echo "bench.sh: refusing to write $out: snapshot has zero benchmark entries" >&2
		rm -f "$raw"
		exit 1
	fi
	if [ "$out" = "-" ]; then
		printf '%s\n' "$json"
	else
		printf '%s\n' "$json" >"$out"
		echo "wrote $out" >&2
		case $out in
		/dev/null) ;;
		*.json)
			rawout=${out%.json}.bench
			cp "$raw" "$rawout"
			echo "wrote $rawout" >&2
			;;
		esac
	fi
	rm -f "$raw"
}

interp_filter=${BENCH_FILTER:-'InterpretCompress|InlineXlisp|ProbeProfiling|ReuseTrace|ObsEnabled|CompilePhases|NilObserverSpan|NilCounterAdd|CounterAdd|SpanStartEnd|HistogramObserve'}
serve_filter=${BENCH_SERVE_FILTER:-'ServeEstimate|ServeBatch|^BenchmarkIngest$|EncodeEstimate'}

bench_family "$interp_filter" "${BENCH_OUT:-BENCH_interp.json}" . ./internal/obs
bench_family "$serve_filter" "${BENCH_SERVE_OUT:-BENCH_serve.json}" ./internal/server
