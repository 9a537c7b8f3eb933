GO ?= go
BIN := bin

.PHONY: build test race vet respctvet psan clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

$(BIN)/respctvet: $(wildcard cmd/respctvet/*.go internal/analysis/*/*.go)
	$(GO) build -o $(BIN)/respctvet ./cmd/respctvet

respctvet: $(BIN)/respctvet

# vet runs the ResPCT crash-consistency analyzers (rawstore, preventpair,
# persistorder, atomicmix, linefit) over the whole module through the go vet
# unitchecker protocol. It fails on any finding that is not suppressed by a
# justified //respct:allow directive.
vet: $(BIN)/respctvet
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/respctvet ./...

# psan reruns the persistence-touching suites with the runtime persistency
# sanitizer (internal/psan) attached in panic mode, then runs the crash
# explorer's workloads sanitized: the reference runs must be violation-free
# and the seeded commit-before-flush workload must be caught by the
# sanitizer (exit 5) rather than by crash-point exploration.
psan:
	RESPCT_SANITIZE=panic $(GO) test -race ./internal/core/... ./internal/pmem/... ./internal/kv/...
	RESPCT_SANITIZE=panic $(GO) test -race ./internal/shard/
	$(GO) test -race ./internal/psan/
	$(GO) build -o $(BIN)/respct-crash ./cmd/respct-crash
	$(BIN)/respct-crash -explore map-sync -budget 250 -sanitize
	$(BIN)/respct-crash -explore map-async -budget 250 -sanitize
	$(BIN)/respct-crash -explore kv-frames -budget 250 -sanitize
	$(BIN)/respct-crash -explore map-sync-badcommit -sanitize; test $$? -eq 5

clean:
	rm -rf $(BIN)
