package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
)

// poller GETs the served report once, from the QuantumEnd hook of quantum
// at: the controller is mid-run, and node goroutines still fire NodePhase
// into the profiler.
type poller struct {
	obs.Base
	url  string
	at   int
	end  int64 // guest ns at the end of quantum at
	body []byte
	err  error
}

func (p *poller) QuantumEnd(rec obs.QuantumRecord) {
	if rec.Index == p.at {
		p.end = int64(rec.Start.Add(rec.Q))
		p.body, p.err = get(p.url)
	}
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// -metrics-addr serves the report document while the goroutine runner
// executes: partway through, one labelled run whose clustersim-prof/2 report
// is partial; after RunEnd, exactly the bytes -report would write. Run with
// -race.
func TestServeReportLive(t *testing.T) {
	sc := experiments.Scenario{Workload: "phases", Scale: 1, Nodes: 4, Quantum: "1us"}
	rc, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	profiles := &prof.Sweep{}
	label := rc.Env.Label(rc.Workload, sc.Nodes, rc.Policy().Name())
	profiler := profiles.New(label)
	stop := serveReport(ln, profiles)
	defer stop()
	url := "http://" + ln.Addr().String() + "/"

	const at = 20
	mid := &poller{url: url, at: at}
	cfg := rc.Env.Config(rc.Workload, sc.Nodes, rc.Policy)
	cfg.Observer = obs.Multi(profiler, mid)
	res, err := cluster.RunParallel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Quanta <= at {
		t.Fatalf("premise: the run has %d quanta, want more than %d", res.Stats.Quanta, at)
	}
	if mid.err != nil {
		t.Fatalf("GET mid-run: %v", mid.err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Runs   []struct {
			Label  string `json:"label"`
			Report struct {
				Schema   string `json:"schema"`
				Complete bool   `json:"complete"`
				Quanta   int64  `json:"quanta"`
				GuestNS  int64  `json:"guest_ns"`
			} `json:"report"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(mid.body, &doc); err != nil {
		t.Fatalf("mid-run body is not JSON: %v\n%s", err, mid.body)
	}
	if doc.Schema != prof.SweepSchema || len(doc.Runs) != 1 || doc.Runs[0].Label != "synthetic.phases/4/Q=1µs" {
		t.Fatalf("mid-run document: schema %q, %d runs, want %s and one run labelled %q:\n%s",
			doc.Schema, len(doc.Runs), prof.SweepSchema, label, mid.body)
	}
	if live := doc.Runs[0].Report; live.Schema != prof.Schema || live.Complete || live.Quanta != at+1 || live.GuestNS != mid.end {
		t.Errorf("mid-run report: schema %q, complete %v, %d quanta to guest %dns; want %s, false and %d to %dns",
			live.Schema, live.Complete, live.Quanta, live.GuestNS, prof.Schema, at+1, mid.end)
	}
	final, err := get(url)
	if err != nil {
		t.Fatalf("GET after RunEnd: %v", err)
	}
	if want := profiles.Report().JSON(); !bytes.Equal(final, want) {
		t.Errorf("served document after RunEnd differs from Report().JSON():\n%s\nvs\n%s", final, want)
	}
}
