#!/bin/sh
# CI gate: vet, build, race-enabled tests, then a short fuzz pass over
# every fuzz target. FUZZTIME (default 30s) scales the fuzz budget.
set -eux

FUZZTIME="${FUZZTIME:-30s}"

# Formatting gate: the tree must be gofmt-clean.
fmt_dirty="$(gofmt -l .)"
if [ -n "$fmt_dirty" ]; then
	echo "gofmt needed:" >&2
	echo "$fmt_dirty" >&2
	exit 1
fi
go vet ./...
go build ./...
# -shuffle=on randomizes test order so inter-test state dependencies
# (shared registries, leaked globals) fail loudly instead of by luck.
go test -race -shuffle=on ./...
# Host-shape gate: the engine and root packages again at GOMAXPROCS 1, 2
# and 4, so a test whose outcome depends on the CPU count fails on every
# host instead of only on the ones whose shape happens to expose it.
go test -cpu 1,2,4 ./internal/engine/ .
# Benchmark smoke: one iteration of every benchmark, so a broken or
# crashing benchmark fails CI even though nothing is being measured.
go test -bench=. -benchtime=1x -run='^$' ./...
# Event-inflation gate: the parallel engine's events/op relative to the
# sequential engine, measured deterministically (no timing, safe on a
# loaded box) at worker counts 1/2/4/8 under GOMAXPROCS 1 and 2. The
# threshold sits just above the value measured when sender-side
# coalescing landed (worst point: 8 workers under GOMAXPROCS=2 at
# 2.045x); the pre-coalescing engine measured 3.34x at every worker
# count, so a regression that reopens the gap fails loudly.
go run ./cmd/megabench -inflation-gate "${INFLATION_MAX:-2.10}"
go test -run='^$' -fuzz=FuzzLoadEdgeList -fuzztime="$FUZZTIME" ./internal/gen/
go test -run='^$' -fuzz=FuzzNewWindowFromParts -fuzztime="$FUZZTIME" ./internal/evolve/
go test -run='^$' -fuzz=FuzzCheckpointDecode -fuzztime="$FUZZTIME" ./internal/engine/
go test -run='^$' -fuzz=FuzzParseTenantSpec -fuzztime="$FUZZTIME" ./internal/serve/
go test -run='^$' -fuzz=FuzzManifestDecode -fuzztime="$FUZZTIME" ./internal/ckptstore/
go test -run='^$' -fuzz=FuzzQueryResponseDecode -fuzztime="$FUZZTIME" ./internal/httpfront/
# Metrics smoke: a snapshot written by megasim must round-trip through
# its own validator — required families present, every audit passed.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
# wait_addr FILE PID LOG WHAT: poll until megaserve (PID) writes its
# listen address to FILE; after 10s, report WHAT, dump LOG, kill PID and
# fail.
wait_addr() {
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "$4 never wrote its addr file" >&2
			cat "$3" >&2
			kill "$2" 2>/dev/null || true
			exit 1
		fi
		sleep 0.1
	done
}
go run ./cmd/megasim -snapshots 4 -metrics "$tmpdir/metrics.json" >/dev/null
go run ./cmd/megasim -verify-metrics "$tmpdir/metrics.json"
# Invariant-audit sweep with strict mode forced on.
MEGA_AUDIT=1 go test -race -run 'Audit|Attribution|StatsMatchMetrics|Conservation' \
	./internal/metrics/ ./internal/engine/ ./internal/sim/ ./internal/uarch/
# Chaos gate: the full crash-equivalence sweep — kill the run at EVERY
# round boundary, resume from the checkpoint, demand bit-identical
# results — for both engines and all three schedule modes, under -race.
# MEGA_CHAOS also forces strict audits, so resumed runs re-prove the
# conservation laws too.
MEGA_CHAOS=full go test -race -run 'CrashEquivalence|Audit|Attribution' \
	./internal/engine/ ./internal/sim/ ./internal/uarch/
# Disk-fault chaos gate: the durable checkpoint store's crash-equivalence
# sweep — an injected crash at EVERY store.write / store.rename protocol
# boundary, restart against the same state directory, values identical to
# an uninterrupted run, books audited strict — plus the torn-write table
# (segment truncated and bit-flipped at every byte offset must quarantine
# and fall back to the previous generation) and the service-level
# restart/orphan-recovery tests.
MEGA_CHAOS=full go test -race -run 'Durable|ServeRecoverOrphans|TornSegment|CrashResidue|Quarantine' \
	. ./internal/ckptstore/
# Query-service soak: hundreds of concurrent mixed-priority queries with
# injected transients, worker panics, and latency spikes under -race, with
# strict audits (MEGA_CHAOS) so the Close-time accounting conservation
# law — admitted == completed + failed + canceled + shed — fails loudly,
# per tenant and in aggregate. The Tenant soak floods one tenant with
# chaos queries and proves the well-behaved tenant keeps its goodput; the
# HTTPFront variants re-run the same chaos through the loopback HTTP
# stack, including a mid-flight graceful drain.
MEGA_CHAOS=soak go test -race -run 'QueryService|Serve|Tenant|HTTPFront' .
MEGA_CHAOS=soak go test -race -count=1 ./internal/serve/ ./internal/httpfront/
# HTTP end-to-end smoke: build megaserve, start it on an ephemeral port,
# run one real query through the retrying client binary, then SIGTERM the
# server and require a clean drained exit (code 0).
go build -o "$tmpdir/megaserve" ./cmd/megaserve
"$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr" \
	-snapshots 4 >/dev/null 2>"$tmpdir/serve.log" &
serve_pid=$!
wait_addr "$tmpdir/addr" "$serve_pid" "$tmpdir/serve.log" megaserve
addr="$(cat "$tmpdir/addr")"
# Cross-query sharing smoke: the same query twice — the first is a real
# engine run, the second must be answered from the result cache (the
# client prints the report's cache status, and /stats must account
# exactly one hit over exactly one engine run).
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -q 'cache=none'
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -q 'engine=cache cache=hit'
"$tmpdir/megaserve" -server "http://$addr" -stats | tee "$tmpdir/stats.out"
grep -q 'cache hits=1 misses=1 lookups=2' "$tmpdir/stats.out"
grep -q 'engine_runs=1' "$tmpdir/stats.out"
kill -TERM "$serve_pid"
wait "$serve_pid"
# Crash-restart smoke, megasim: SIGKILL an eval run that is spooling
# checkpoints into -state-dir, rerun the same command, and require the
# rerun to report a durable resume and finish cleanly with the store's
# accounting audit strict (MEGA_CHAOS).
go build -o "$tmpdir/megasim" ./cmd/megasim
"$tmpdir/megasim" -mode eval -snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/simstate" \
	-fault 'engine.round:latency=250ms@6x1' >/dev/null 2>&1 &
sim_pid=$!
i=0
until ls "$tmpdir/simstate"/q-*/ckpt-*.seg >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megasim never promoted a durable checkpoint" >&2
		kill "$sim_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
kill -KILL "$sim_pid"
wait "$sim_pid" || true
MEGA_CHAOS=1 "$tmpdir/megasim" -mode eval -snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/simstate" | tee "$tmpdir/resume.out"
grep -q '^resumed:' "$tmpdir/resume.out"
# Crash-restart smoke, megaserve: SIGKILL the server mid-query (the query
# slowed by injected latency so checkpoints outnumber rounds survived),
# restart it on the same -state-dir, and require (a) the cold start to
# re-admit the orphan, (b) the store books to drain to zero live queries
# with at least one durable resume, and (c) a repeat of the killed query
# to come back resumed or cache-served — never recomputed from scratch.
"$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr2" \
	-snapshots 4 -checkpoint-every 1 -allow-faults \
	-state-dir "$tmpdir/srvstate" >/dev/null 2>"$tmpdir/serve2.log" &
serve_pid=$!
wait_addr "$tmpdir/addr2" "$serve_pid" "$tmpdir/serve2.log" "megaserve (state-dir)"
addr="$(cat "$tmpdir/addr2")"
("$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	-fault 'engine.round:latency=250ms@6x1' >/dev/null 2>&1 || true) &
i=0
until ls "$tmpdir/srvstate"/q-*/ckpt-*.seg >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megaserve never promoted a durable checkpoint" >&2
		cat "$tmpdir/serve2.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
kill -KILL "$serve_pid"
wait "$serve_pid" || true
rm -f "$tmpdir/addr2"
MEGA_CHAOS=1 "$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr2" \
	-snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/srvstate" >/dev/null 2>"$tmpdir/serve3.log" &
serve_pid=$!
wait_addr "$tmpdir/addr2" "$serve_pid" "$tmpdir/serve3.log" "restarted megaserve"
addr="$(cat "$tmpdir/addr2")"
grep -q 'recovered 1 orphaned' "$tmpdir/serve3.log"
i=0
until "$tmpdir/megaserve" -server "http://$addr" -stats \
	| grep -q 'store queries=0 .* resumes=1'; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "recovered orphan never completed" >&2
		"$tmpdir/megaserve" -server "http://$addr" -stats >&2 || true
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -Eq 'resumed=true|engine=cache cache=hit'
kill -TERM "$serve_pid"
wait "$serve_pid"
