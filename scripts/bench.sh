#!/bin/sh
# Runs the hot-path benchmark suite with allocation stats and records
# the results in BENCH_<date>.json in the repo root. COUNT=N runs each
# benchmark N times, 5 by default (the JSON then carries one entry per
# run; compare medians, not single runs — single-run ns/op is noisy).
#
# If the day's file already exists, the new results are appended as a
# "run_<HHMMSS>" section instead of clobbering the curated sections a
# PR may have recorded earlier the same day.
set -eu
cd "$(dirname "$0")/.."

date="$(date +%F)"
out="BENCH_${date}.json"
benches='BenchmarkFig5$|BenchmarkSimTableEngine$|BenchmarkSimTableEngineNoPlanCache$|BenchmarkSimTableEngineNoEventSkip$|BenchmarkSimSteadyState$|BenchmarkSimSteadyStateNoEventSkip$|BenchmarkClusterSteadyFleet$|BenchmarkClusterSteadyFleetNoEventSkip$|BenchmarkClusterFaultedFleet|BenchmarkExperimentPairRunCacheOn$|BenchmarkExperimentPairRunCacheOff$|BenchmarkStreamNext$|BenchmarkAblationPartitionPair$|BenchmarkCachePartitioned$|BenchmarkCacheGlobalPartition$|BenchmarkVictimPolicy$|BenchmarkShadowTagsObserve$|BenchmarkMissCurveReplay$|BenchmarkMissCurveSinglePass$|BenchmarkMissCurveSinglePassSampled$|BenchmarkTimelineEarliestFit$|BenchmarkTimelineChurn$|BenchmarkTimelineSetCapacity$|BenchmarkTimelineAvailability$|BenchmarkWALAppend$|BenchmarkDaemonSubmit$|BenchmarkClusterDispatch|BenchmarkControllerTick$'

raw="$(go test -run '^$' -bench "$benches" -benchmem -count "${COUNT:-5}" .)"
printf '%s\n' "$raw"

results="$(printf '%s\n' "$raw" | awk '
	# Locate each value by its unit: benchmarks may report custom
	# metrics that shift the column positions.
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = b = allocs = "null"
		for (i = 3; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			else if ($i == "B/op") b = $(i - 1)
			else if ($i == "allocs/op") allocs = $(i - 1)
		}
		if (sep) printf ",\n"
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
			name, $2, ns, b, allocs
		sep = 1
	}
	END { printf "\n" }
')"

if [ -f "$out" ]; then
	# Append mode: drop the closing brace and splice in a timestamped
	# section (the leading comma keeps the JSON valid).
	run="run_$(date +%H%M%S)"
	tmp="${out}.tmp"
	sed '$d' "$out" > "$tmp"
	{
		printf '  ,"%s": {\n' "$run"
		printf '    "go": "%s",\n' "$(go env GOVERSION)"
		printf '    "host_cpus": %s,\n' "$(nproc)"
		printf '    "results": [\n'
		printf '%s' "$results"
		printf '    ]\n'
		printf '  }\n'
		printf '}\n'
	} >> "$tmp"
	mv "$tmp" "$out"
else
	{
		printf '{\n'
		printf '  "date": "%s",\n' "$date"
		printf '  "go": "%s",\n' "$(go env GOVERSION)"
		printf '  "host_cpus": %s,\n' "$(nproc)"
		printf '  "results": [\n'
		printf '%s' "$results"
		printf '  ]\n'
		printf '}\n'
	} > "$out"
fi
echo "wrote $out"
