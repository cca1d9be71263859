# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race simbench results fleet fleet-update lint simlint loc fmt

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

# The paper's evaluation as committed artifacts: every table as text in
# paperfigs_full.txt and as one CSV each under results/ (about 5 s on 2
# cores). The output is deterministic and independent of -workers, so CI's
# results job regenerates it and fails on any diff: a change that moves a
# number has to commit the moved number (and the EXPERIMENTS.md line quoting it).
results:
	$(GO) run ./cmd/paperfigs -fig all -csv results > paperfigs_full.txt

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

# lint = everything static that CI gates on and that runs offline. go vet's
# copylocks owns by-value lock copies; simlint has no analyzer for them.
lint: simlint
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

fmt:
	gofmt -w .

# Non-test Go lines (wc -l) of the six largest subsystems and the host
# model — the table ROADMAP asks every PR to report before/after.
loc:
	@for dirs in "internal/cluster" "internal/analysis cmd/simlint" "cmd/simbench" \
		"internal/experiments cmd/paperfigs" "internal/obs internal/prof" \
		"internal/guest internal/msg internal/mpi" "internal/host"; do \
		printf '%-30s %6d\n' "$$dirs" "$$(find $$dirs -name '*.go' -not -name '*_test.go' \
			-not -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)"; \
	done
