# Interval-Based Memory Reclamation — reproduction workflow
# (the artifact appendix's `make` / test-script / plot pipeline, in Go)

GO ?= go

.PHONY: all build vet lint lintdebug test testdebug race stress bench benchscan figs serve loadtest obssmoke chaossmoke tracesmoke rangesmoke clean

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

# Scan-efficiency snapshot: short write-heavy and read-heavy cells, one
# record each in BENCH_scan.json (ops/s + scan stats; cmd/ibrbench -json
# writes the harness.Record line that data/<fig>.jsonl holds too).
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

# Regenerate every figure: one record per cell (data/<fig>.jsonl), its two
# SVG charts, the stall curves, the ASCII tables (data/figs_tables.txt) and
# the progress log (data/figs_log.txt).
figs:
	$(GO) run ./cmd/ibrfigs -fig all -i 0.5 -o data > data/figs_tables.txt 2> data/figs_log.txt

# Run the KV daemon in the foreground (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/ibrd -r hashmap -d tagibr -shards 4 -workers 2

# End-to-end legs of cmd/ibrd's TestDaemon: each boots the daemon in-process
# on port 0, drives it with ibrload's load loop, polls /metrics (and
# /debug/trace) until the leg's claims hold, then drains it and checks the
# drain. Each target runs the legs named after it (chaossmoke has three);
# `make test` runs them all.
loadtest obssmoke chaossmoke tracesmoke rangesmoke:
	$(GO) test -count=1 -v -run 'TestDaemon/$@' ./cmd/ibrd

# Removes only the ignored build outputs: bin/ (ibrlint, go build -o bin/)
# and the benchmark's .bench_build/. The records, charts, tables and log
# under data/ are committed results that make figs regenerates, so clean
# leaves them alone.
clean:
	rm -rf bin .bench_build
