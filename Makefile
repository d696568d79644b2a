# Development entry points for the CSS reproduction.

GO ?= go
BENCH_LABEL ?= local

.PHONY: all check build vet test race cover bench bench-publish bench-details bench-smoke bench-gate bench-baseline bench-sharded bench-tables chaos chaos-smoke overload-smoke shard-smoke repl-smoke trace-smoke lint-traceid lint-hotpath examples fuzz clean

all: check

# The default gate: compile, vet+gofmt+trace-ID+hot-path lints, unit
# tests, the race detector over the whole tree, a short fault-injected
# smoke, an overload-storm smoke, the distributed-tracing smoke (one
# flow across three processes must yield one parent-linked span tree;
# also runs the mixed-codec fan-out check), a 1-iteration smoke of
# every benchmark (catches benchmarks broken by refactors without the
# cost of a measured run), the allocation-regression
# gate over the E1 publish benchmarks, the 3-shard cluster smoke
# (cross-shard publish/inquire plus one live split), and the
# replication failover smoke (1 primary + 2 replica processes, kill
# the primary, the promoted replica serves).
check: build vet lint-traceid lint-hotpath test race chaos-smoke overload-smoke trace-smoke shard-smoke repl-smoke bench-smoke bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || (gofmt -l . && exit 1)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Measured benchmark runs, 5 samples each, appended as labeled runs to
# the JSON logs: `make bench BENCH_LABEL=after-my-change`. Together the
# two suites produce every timing number in EXPERIMENTS.md. The publish
# and storage side (E1 publish/fan-out/saturation/sharding/replication,
# E5 index, E6 audit, E8 inquiry, E10-E16) goes to BENCH_publish.json;
# the details read path (E2 end-to-end with its stage split, E3 PDP,
# ED_* request shapes) goes to BENCH_details.json.
bench: bench-publish bench-details

bench-publish:
	$(GO) test -run '^$$' -bench 'E1[0-9]*_|E5_|E6_|E8_' -benchmem -count 5 . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	@cat bench.out
	$(GO) run ./cmd/css-benchlog -label "$(BENCH_LABEL)" -out BENCH_publish.json < bench.out
	@rm -f bench.out

bench-details:
	$(GO) test -run '^$$' -bench 'E2_|E3_|ED_' -benchmem -count 5 . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	@cat bench.out
	$(GO) run ./cmd/css-benchlog -label "$(BENCH_LABEL)" -out BENCH_details.json < bench.out
	@rm -f bench.out

# One iteration of every benchmark, as a compile-and-run smoke.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . > /dev/null

# Allocation-regression gate: allocs/op of the E1 publish benchmarks
# must stay within 5% of the committed BENCH_baseline.json. Allocation
# counts are deterministic for a fixed code path (unlike ns/op), so a
# short fixed-iteration run gates reliably on any machine.
bench-gate:
	$(GO) test -run '^$$' -bench 'E1_PublishRoute' -benchtime 2000x -benchmem . > benchgate.out \
		|| (cat benchgate.out; rm -f benchgate.out; exit 1)
	$(GO) run ./cmd/css-benchgate -baseline BENCH_baseline.json < benchgate.out
	@rm -f benchgate.out

# Rewrite the allocation baseline from a fresh run (after an intentional
# change; the diff is reviewed like any other).
bench-baseline:
	$(GO) test -run '^$$' -bench 'E1_PublishRoute' -benchtime 2000x -benchmem . > benchgate.out \
		|| (cat benchgate.out; rm -f benchgate.out; exit 1)
	$(GO) run ./cmd/css-benchgate -baseline BENCH_baseline.json -update < benchgate.out
	@rm -f benchgate.out

# Sharded saturation run plus the same-run rate gates: the 1-shard row
# must stay within 5% of the unsharded binary saturation row (the
# sharding tax), on machines with ≥4 CPUs the 4-shard row must clear 3x
# the 1-shard row (the scale-out claim), and — also ≥4 CPUs, since the
# follower's apply+fsync work needs a core to overlap onto — async WAL
# shipping must stay within 5% of the standalone publish path (the
# replication tax), and the heartbeat-active async row must stay within
# 5% of plain async (failure detection must be free on the publish
# path; quorum mode is measured but not gated: its fsync round-trip is
# the price of durable failover, not a regression). Not part of
# `check`: a measured multi-minute run.
bench-sharded:
	$(GO) test -run '^$$' -bench 'E1_Saturation|E1_ShardedSaturation|E1_ReplicatedPublish' -benchmem . > bench.out \
		|| (cat bench.out; rm -f bench.out; exit 1)
	@cat bench.out
	$(GO) run ./cmd/css-benchgate -baseline BENCH_baseline.json -rates < bench.out
	$(GO) run ./cmd/css-benchlog -label "$(BENCH_LABEL)" -out BENCH_publish.json < bench.out
	@rm -f bench.out

# The non-timing characterization tables of EXPERIMENTS.md (bytes
# exposed, fields delivered, artifacts, outcomes). A few seconds.
bench-tables:
	$(GO) run ./cmd/css-bench

# Fault-injected integration suite under the race detector: 20%
# connection failures on the consumer/producer hop, 10% on the
# controller→gateway hop, a scripted 5-second controller blackout, a
# 3-second asymmetric shard partition (kill-a-shard and mid-reshard),
# the overload storm stretched to 5 fixed seeds with 12 hot producers —
# plus the self-healing failover storms: kill-primary auto-election
# (exactly one winner, exactly-once on it, deposed shipper fenced,
# byte-identical rejoin) and partition-during-campaign (zero promotions
# until the partition heals). Seeds are fixed and logged (-v), so a
# failure is replayable.
chaos:
	CHAOS_BLACKOUT=5s CHAOS_PARTITION=3s CHAOS_STORM_SEEDS=1,2,3,4,5 CHAOS_STORM_N=12 \
		$(GO) test -race -count 1 -v -run 'TestChaos' ./internal/transport/

# The same harness with its default sub-second blackout — fast enough
# for the `make check` gate.
chaos-smoke:
	$(GO) test -count 1 -run 'TestChaos' ./internal/transport/

# Overload-protection smoke: the storm chaos test (admission sheds,
# bounded queues, drain-under-wedge) and the SIGTERM kill-under-load
# scenario against the built binaries, both under the race detector.
overload-smoke:
	$(GO) test -race -count 1 -run 'TestChaosOverloadStorm' ./internal/transport/
	$(GO) test -race -count 1 -run 'TestKillUnderLoad' ./integration/

# Multi-shard cluster smoke: boots a 3-shard controller cluster in one
# process, publishes across shards through the shard-routing client,
# scatter-gathers an inquiry, and performs one live split onto a cold
# fourth shard — the sharded bring-up path end to end.
shard-smoke:
	SHARD_SMOKE=1 $(GO) test -count 1 -run 'TestShardSmoke' ./integration/

# Replication failover smoke: one primary ships WALs in quorum mode to
# two replica processes running election managers; the primary is
# killed without warning and NO promote call is made — the replicas
# must auto-elect exactly one winner, which serves reads and writes
# while feeding the survivor; the deposed primary then restarts as a
# replica, rejoins the winner's fan-out, and css-audit -compare must
# show the chains converged.
repl-smoke:
	REPL_SMOKE=1 $(GO) test -count 1 -run 'TestReplSmoke' ./integration/

# Distributed-tracing smoke: a publish→notify→detail flow across
# controller, gateway and consumer processes must produce ONE trace
# whose spans form a parent-linked tree (no orphans) covering every
# pipeline stage, reconstructable by css-trace from the merged export.
trace-smoke:
	TRACE_SMOKE=1 $(GO) test -count 1 -run 'TestTraceSmoke' ./integration/

# Flow traces must be minted only at the two sanctioned flow roots
# (publish, detail-request — both in internal/core/flows.go) or inside
# the telemetry package itself. A NewTraceID call anywhere else splits
# flows into disconnected traces; reject it.
lint-traceid:
	@bad=$$(grep -rn 'telemetry\.NewTraceID(' --include='*.go' \
		internal cmd examples 2>/dev/null \
		| grep -v '_test\.go' \
		| grep -v '^internal/core/flows\.go:' \
		| grep -v '^internal/telemetry/'); \
	if [ -n "$$bad" ]; then \
		echo "trace IDs may be minted only at sanctioned flow roots:"; \
		echo "$$bad"; exit 1; \
	fi

# The publish hot path must stay free of reflection-driven formatting
# and the XML encoder: no fmt.Sprintf and no encoding/xml import in the
# files the E1 benchmarks flow through. Test files are exempt.
HOTPATH_FILES = internal/event/codec.go internal/core/flows.go internal/audit/audit.go \
	internal/index/index.go internal/idmap/idmap.go \
	$(filter-out %_test.go,$(wildcard internal/bus/*.go))
lint-hotpath:
	@bad=$$(grep -n 'fmt\.Sprintf\|"encoding/xml"' $(HOTPATH_FILES) /dev/null | grep -v '_test\.go'); \
	if [ -n "$$bad" ]; then \
		echo "hot-path files must not use fmt.Sprintf or encoding/xml:"; \
		echo "$$bad"; exit 1; \
	fi

examples:
	@for e in quickstart homecare statistics audittrail distributed phr monitoring accountability; do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzDecodeDetail -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzDecodeNotification -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzBinaryNotification -fuzztime=15s ./internal/event/
	$(GO) test -fuzz='^FuzzBinaryDetail$$' -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzBinaryDetailRequest -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=15s ./internal/store/
	$(GO) test -fuzz=FuzzShardMapFrame -fuzztime=15s ./internal/cluster/
	$(GO) test -fuzz=FuzzReplicationFrames -fuzztime=15s ./internal/replication/
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/xacml/

# git clean keeps the committed seed corpus and removes only the
# crasher inputs the fuzzer writes next to it.
clean:
	$(GO) clean ./...
	git clean -qfd internal/*/testdata/ 2>/dev/null || rm -rf internal/*/testdata/fuzz
