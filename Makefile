# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go
SIMLINT := $(CURDIR)/bin/simlint

.PHONY: all build test race simbench fleet fleet-update lint simlint vet-simlint fmt clean

all: build test simlint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness (cmd/simbench, BENCHMARK.json): six workloads,
# end-to-end and per-layer metrics, one clustersim-bench/1 document. About
# 70 s on 2 cores. Compare two commits' documents with
# `go run ./cmd/simbench -compare a.json b.json`.
simbench:
	$(GO) run ./cmd/simbench -seed 1 -out results/simbench.json

# Scenario regression fleet: run the committed manifest and check every
# canonical fingerprint against testdata/fleet/golden.json (what CI's
# fleet-smoke job gates on). After an intentional behaviour change, re-record
# with fleet-update and commit the golden diff for review.
fleet:
	$(GO) run ./cmd/simfleet -manifest testdata/fleet/manifest.json -v

fleet-update:
	$(GO) run ./cmd/simfleet -manifest testdata/fleet/manifest.json -update -v

# simlint smoke: the determinism analyzer suite over the whole module.
# Exits non-zero on any finding that is not covered by a justified
# //simlint:<category> directive.
simlint:
	$(GO) run ./cmd/simlint ./...

# The same analyzers driven through go vet's unitchecker protocol — what
# editors and `go vet -vettool` users exercise.
vet-simlint: $(SIMLINT)
	$(GO) vet -vettool=$(SIMLINT) ./...

$(SIMLINT): FORCE
	$(GO) build -o $(SIMLINT) ./cmd/simlint

FORCE:

# lint = everything static that CI gates on and that runs offline.
lint: simlint
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

fmt:
	gofmt -w .

clean:
	rm -rf bin
