# Interval-Based Memory Reclamation — reproduction workflow
# (the artifact appendix's `make` / test-script / plot pipeline, in Go)

GO ?= go

.PHONY: all build vet lint lintdebug test testdebug race stress bench benchscan figs plots examples serve loadtest obssmoke chaossmoke tracesmoke rangesmoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ibrlint: the go/analysis suite enforcing the IBR reservation protocol
# (the guard-facade boundary outside core/mem/guard, atomic/plain access
# discipline, handle lifecycle typestate, directive hygiene). See DESIGN.md
# §5b and cmd/ibrlint. The binary is a real file target: it rebuilds only when
# its sources change, so repeated `make lint` runs ride go vet's cache.
LINT_SRCS := go.mod $(shell find cmd/ibrlint internal/analysis vendor/golang.org/x/tools -name '*.go' -not -path '*/testdata/*')

bin/ibrlint: $(LINT_SRCS)
	$(GO) build -o $@ ./cmd/ibrlint

lint: bin/ibrlint
	$(GO) vet -vettool=$(CURDIR)/bin/ibrlint ./...

# The same suite over the ibrdebug build: the debug-only files (pool
# assertions, guard liveness checks) get linted too.
lintdebug: bin/ibrlint
	$(GO) vet -tags ibrdebug -vettool=$(CURDIR)/bin/ibrlint ./...

test:
	$(GO) test ./...

# Full suite with the ibrdebug assertions compiled into mem.Pool.Get:
# use-after-free and stale-epoch dereferences become deterministic panics.
testdebug:
	$(GO) test -tags ibrdebug ./...

race:
	$(GO) test -race ./...

# Correctness soak across every (structure × scheme) pair.
stress:
	$(GO) run ./cmd/ibrstress -all -i 2

# testing.B benchmarks: one family per paper figure + ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Scan-efficiency snapshot: short write-heavy and read-heavy cells, one JSON
# line each in BENCH_scan.json (ops/s + scan stats; see cmd/ibrbench -json).
# The fifth cell repeats the first with the observability hooks live, so the
# recording overhead is priced in the same file it can be diffed from. The
# last two cells are the post-paper engines (hyaline, debra) on the write
# path — the head-to-head EXPERIMENTS.md reads from this file. The first run
# is a discarded warm-up (it writes no record), so the first recorded cell
# is not measured cold.
benchscan:
	rm -f BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=tagibr -t 4 -m write -i 1 > /dev/null
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=tagibr -t 4 -m write -i 1 -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=tagibr-wcas -t 4 -m write -i 1 -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=ebr -t 4 -m write -i 1 -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=tagibr -t 4 -m read -i 1 -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=tagibr -t 4 -m write -i 1 -obs -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=hyaline -t 4 -m write -i 1 -json BENCH_scan.json
	$(GO) run ./cmd/ibrbench -r hashmap -d tracker=debra -t 4 -m write -i 1 -json BENCH_scan.json
	@cat BENCH_scan.json

# Regenerate every figure's data (CSV + ASCII tables + stall curves)…
figs:
	$(GO) run ./cmd/ibrfigs -fig all -i 0.5 -o data

# …and render the SVG charts from it.
plots:
	$(GO) run ./cmd/ibrplot -i data -o data

# Run the KV daemon in the foreground (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/ibrd -r hashmap -d tagibr -shards 4 -workers 2

# End-to-end smoke: start ibrd, hammer it with ibrload for 2s, show the
# per-shard ops/unreclaimed/epoch-lag series from /metrics mid-run, and drain
# the daemon with SIGTERM.
loadtest:
	$(GO) build -o bin/ibrd ./cmd/ibrd
	$(GO) build -o bin/ibrload ./cmd/ibrload
	@./bin/ibrd -addr 127.0.0.1:4100 -http 127.0.0.1:4101 -r hashmap -d tagibr -shards 4 -workers 2 & \
	pid=$$!; sleep 0.5; \
	( sleep 1; curl -s http://127.0.0.1:4101/metrics | grep -E '^ibr_(ops_total|unreclaimed|epoch_lag)[{]' || true ) & \
	./bin/ibrload -addr 127.0.0.1:4100 -c 8 -p 4 -i 2; rc=$$?; \
	kill -TERM $$pid; wait $$pid; exit $$rc

# Telemetry smoke: boot ibrd, load it for a few seconds, and assert the
# paper-critical series are present and non-empty on /metrics and that
# /debug/trace serves a Perfetto document before draining.
obssmoke:
	$(GO) build -o bin/ibrd ./cmd/ibrd
	$(GO) build -o bin/ibrload ./cmd/ibrload
	@./bin/ibrd -addr 127.0.0.1:4200 -http 127.0.0.1:4201 -r hashmap -d tagibr -shards 4 -workers 2 & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4200 -c 8 -p 4 -i 3 & load=$$!; \
	sleep 2; curl -sf http://127.0.0.1:4201/metrics > /tmp/obssmoke_metrics.txt; \
	curl -sf http://127.0.0.1:4201/debug/trace > /tmp/obssmoke_trace.json; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	head -c 14 /tmp/obssmoke_trace.json | grep -q '^{"traceEvents"' && \
	grep -q '^ibr_unreclaimed{shard="0"}' /tmp/obssmoke_metrics.txt && \
	grep -q '^ibr_epoch_lag{shard="0"}' /tmp/obssmoke_metrics.txt && \
	grep -q '^ibr_retire_age_bucket{' /tmp/obssmoke_metrics.txt && \
	awk -F' ' '/^ibr_retire_age_count/ { sum += $$2 } END { exit sum > 0 ? 0 : 1 }' /tmp/obssmoke_metrics.txt && \
	echo "obssmoke: key series present and non-empty, /debug/trace serves a trace"

# Degradation smoke, three legs (see DESIGN.md §7–§8).
# Leg 1: EBR with injected stallers pinning reservations for 3s and a 300ms
# quarantine threshold — assert tids actually get quarantined mid-stall
# (metrics scrape + exit summary) and SIGTERM still drains to 0 blocks
# unreclaimed even though stalls are in flight when it lands.
# Leg 2: the leak scheme on a tiny pool — exhaustion must surface as BUSY
# (typed backpressure the retrying client absorbs; ibrload exits 0), with
# ibr_pool_exhausted_total counting it and no shard panic.
# Leg 3: leg 1 under debra — the quarantine is a real DEBRA+ neutralization
# (reservation cleared, neutralize flag latched, bags adopted) and the
# stalled backlog must still drain to 0 without the staller resuming.
chaossmoke:
	$(GO) build -o bin/ibrd ./cmd/ibrd
	$(GO) build -o bin/ibrload ./cmd/ibrload
	@./bin/ibrd -addr 127.0.0.1:4300 -http 127.0.0.1:4301 -r hashmap -d ebr \
	  -shards 2 -workers 2 -stalled 2 -stallfor 3s \
	  -quarantine-after 300ms -remedy-interval 25ms > /tmp/chaossmoke_ibrd.txt & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4300 -c 4 -p 4 -i 3 & load=$$!; \
	sleep 2; curl -sf http://127.0.0.1:4301/metrics > /tmp/chaossmoke_metrics.txt; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	awk '/^ibr_tid_quarantines_total/ { sum += $$2 } END { exit sum > 0 ? 0 : 1 }' /tmp/chaossmoke_metrics.txt && \
	grep -q 'degradation: .* tid quarantines' /tmp/chaossmoke_ibrd.txt && \
	grep -q ' 0 blocks unreclaimed after final scan' /tmp/chaossmoke_ibrd.txt && \
	echo "chaossmoke leg 1: quarantined mid-stall, drained to 0 with stalls in flight"
	@./bin/ibrd -addr 127.0.0.1:4310 -http 127.0.0.1:4311 -r hashmap -d none \
	  -shards 2 -workers 2 -poolslots 2048 > /tmp/chaossmoke_ibrd2.txt & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4310 -c 4 -p 4 -i 2 -prefill 0 & load=$$!; \
	sleep 1; curl -sf http://127.0.0.1:4311/metrics > /tmp/chaossmoke_metrics2.txt; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	awk '/^ibr_pool_exhausted_total/ { sum += $$2 } END { exit sum > 0 ? 0 : 1 }' /tmp/chaossmoke_metrics2.txt && \
	echo "chaossmoke leg 2: pool exhaustion absorbed as BUSY, load exited clean"
	@./bin/ibrd -addr 127.0.0.1:4320 -http 127.0.0.1:4321 -r hashmap -d debra \
	  -shards 2 -workers 2 -stalled 2 -stallfor 3s \
	  -quarantine-after 300ms -remedy-interval 25ms > /tmp/chaossmoke_ibrd3.txt & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4320 -c 4 -p 4 -i 3 & load=$$!; \
	sleep 2; curl -sf http://127.0.0.1:4321/metrics > /tmp/chaossmoke_metrics3.txt; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	awk '/^ibr_tid_quarantines_total/ { sum += $$2 } END { exit sum > 0 ? 0 : 1 }' /tmp/chaossmoke_metrics3.txt && \
	grep -q 'degradation: .* tid quarantines' /tmp/chaossmoke_ibrd3.txt && \
	grep -q ' 0 blocks unreclaimed after final scan' /tmp/chaossmoke_ibrd3.txt && \
	echo "chaossmoke leg 3: debra staller neutralized mid-stall, backlog drained to 0"

# Causal-tracing smoke (see DESIGN.md §9): boot ibrd with one injected
# staller under traced load, capture /debug/trace with curl mid-stall,
# and assert (a) the Perfetto JSON parses and holds a complete
# alloc→retire→freed block span plus wire-propagated op spans, and (b)
# ibr_pinned_blocks charges the plurality of pinned blocks to the staller's
# tid. With -workers 2 -stalled 1 the staller deterministically leases tid 2
# (workers take 0..1, injected stallers follow). -quarantine-after 30s keeps
# the remediator from clearing the stalled reservation mid-test, and the
# scrape lands ~4.5s in — inside the staller's SECOND park, when blocks born
# before its reservation epoch exist to be pinned (the first park starts at
# boot, before any block it could conflict with).
tracesmoke:
	$(GO) build -o bin/ibrd ./cmd/ibrd
	$(GO) build -o bin/ibrload ./cmd/ibrload
	@./bin/ibrd -addr 127.0.0.1:4400 -http 127.0.0.1:4401 -r hashmap -d tagibr \
	  -shards 1 -workers 2 -stalled 1 -stallfor 3s -quarantine-after 30s \
	  -obs-sample 4 -obs-trace 4 -obs-ring 65536 > /tmp/tracesmoke_ibrd.txt & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4400 -c 4 -p 4 -i 6 > /tmp/tracesmoke_load.txt & load=$$!; \
	sleep 4.5; \
	curl -sf http://127.0.0.1:4401/debug/trace -o /tmp/tracesmoke_trace.json; \
	curl -sf http://127.0.0.1:4401/metrics > /tmp/tracesmoke_metrics.txt; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	python3 scripts/check_trace.py /tmp/tracesmoke_trace.json /tmp/tracesmoke_metrics.txt 2 && \
	grep -q 'trace=0x' /tmp/tracesmoke_load.txt && \
	echo "tracesmoke: complete spans present, blame names the staller tid"

# Range/TTL smoke (see DESIGN.md §10): boot ibrd on the skiplist under an
# interval scheme and drive the mixed range workload with TTL'd writes.
# Asserts: (a) every scan validated client-side — sorted, in-bounds, no
# duplicates; ibrload exits nonzero otherwise — (b) TTL expirations occurred
# and retired through the normal scheme path (ibr_retired_total{source=
# "expiry"} > 0 on /metrics, i.e. the expiry wheel feeds Scheme.Retire, not a
# side channel), (c) retired-but-unreclaimed stayed bounded while scans were
# in flight (max ibr_unreclaimed_under_scan <= 8192), and (d) the SIGTERM
# drain still reaches 0 blocks unreclaimed with expiry traffic in the mix.
# The scrape is mid-run, so in-flight scans have only some legs counted: the
# leg count is checked for > 0, not for scans x shards.
rangesmoke:
	$(GO) build -o bin/ibrd ./cmd/ibrd
	$(GO) build -o bin/ibrload ./cmd/ibrload
	@./bin/ibrd -addr 127.0.0.1:4500 -http 127.0.0.1:4501 -r skiplist -d tagibr \
	  -shards 4 -workers 2 -remedy-interval 25ms > /tmp/rangesmoke_ibrd.txt & \
	pid=$$!; sleep 0.5; \
	./bin/ibrload -addr 127.0.0.1:4500 -c 8 -p 4 -i 3 -m range -span 4096 \
	  -ttl 300ms > /tmp/rangesmoke_load.txt & load=$$!; \
	sleep 2.5; curl -sf http://127.0.0.1:4501/metrics > /tmp/rangesmoke_metrics.txt; \
	wait $$load; rc=$$?; kill -TERM $$pid; wait $$pid; \
	test $$rc -eq 0 && \
	grep -q 'ranges: .* scans validated' /tmp/rangesmoke_load.txt && \
	grep -q ' 0 blocks unreclaimed after final scan' /tmp/rangesmoke_ibrd.txt && \
	awk '/^ibr_range_legs_total[{]/ { legs += $$2 } \
	  /^ibr_expired_total[{]/ { expired += $$2 } \
	  /^ibr_retired_total[{].*source="user"/ { user += $$2 } \
	  /^ibr_retired_total[{].*source="expiry"/ { expiry += $$2 } \
	  /^ibr_unreclaimed_under_scan[{]/ { if ($$2 > hw) hw = $$2 } \
	  END { printf "rangesmoke: %d range legs, %d expired, retired user/expiry %d/%d, under-scan max %d (bound 8192)\n", legs, expired, user, expiry, hw; \
	    exit (legs > 0 && expired > 0 && user > 0 && expiry > 0 && hw <= 8192) ? 0 : 1 }' /tmp/rangesmoke_metrics.txt && \
	echo "rangesmoke: scans validated, expiry retires through the scheme, unreclaimed bounded"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pstack
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/stallrobust
	$(GO) run ./examples/kvstore -ms 150

clean:
	rm -f data/*.csv data/*.svg data/*.txt
