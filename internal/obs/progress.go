package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"clustersim/internal/simtime"
)

// Progress is an Observer that periodically reports how far a long run has
// advanced: guest time, quanta per wall-clock second, the current quantum
// size, the share of quanta whose partitioning left every node loose, and the
// frames routed and stragglers delivered so far. The two counts stay apart:
// a duplicated frame is routed once and may straggle twice, so their ratio is
// no rate. Updates are rate-limited by wall time so the hook itself is cheap
// on runs with millions of quanta.
//
// Reports go to a single writer (conventionally stderr, so piped stdout
// output such as CSV or charts stays clean).
type Progress struct {
	Base // the hooks a status line has no use for
	mu   sync.Mutex
	w    io.Writer

	start      time.Time
	lastReport time.Time
	lastQuanta int64

	nodes         int  // cluster size, from RunStart
	engaged       bool // the open quantum's partitioning leaves every node loose
	quanta        int64
	engagedQuanta int64
	quiet         int64 // quanta the engine fast-forwarded; known at RunEnd only
	quietNodes    int64 // node-quanta it fast-forwarded, skipped nodes included
	packets       int64
	stragglers    int64
	guest         simtime.Guest
	curQ          simtime.Duration
}

// progressInterval is the minimum wall time between two progress lines.
const progressInterval = 500 * time.Millisecond

// NewProgress returns a reporter writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{w: w} }

// RunStart starts the wall clock.
func (p *Progress) RunStart(info RunInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = time.Now() //simlint:wallclock progress reporting is rate-limited by real time; it renders to stderr and never feeds results
	p.lastReport = p.start
	p.nodes = info.Nodes
}

// RunEnd emits the final report.
func (p *Progress) RunEnd(sum RunSummary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.guest = sum.GuestTime
	p.quiet = int64(sum.QuietQuanta)
	p.quietNodes = int64(sum.QuietNodeQuanta)
	if sum.Err != nil {
		p.report("aborted")
		return
	}
	p.report("finished")
}

// QuantumStart tracks the live quantum size.
func (p *Progress) QuantumStart(index int, start simtime.Guest, q simtime.Duration, hostStart simtime.Host) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.curQ = q
	p.engaged = false
}

// QuantumPartition notes whether the quantum leaves every node loose.
func (p *Progress) QuantumPartition(_ int, part *Partitioning) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.engaged = part.Loose == p.nodes
}

// QuantumEnd advances the counters and reports if enough wall time passed.
func (p *Progress) QuantumEnd(rec QuantumRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quanta++
	if p.engaged {
		p.engagedQuanta++
	}
	p.packets += int64(rec.Packets)
	p.stragglers += int64(rec.Stragglers)
	p.guest = rec.Start.Add(rec.Q)
	if time.Since(p.lastReport) >= progressInterval { //simlint:wallclock report rate limiting compares real elapsed time; results are unaffected
		p.report("progress")
	}
}

// report writes one status line, the final one unless label is "progress".
// Callers hold p.mu.
func (p *Progress) report(label string) {
	now := time.Now() //simlint:wallclock quanta/sec rate in the status line is measured against the real clock
	wall := now.Sub(p.lastReport)
	rate := 0.0
	if wall > 0 {
		rate = float64(p.quanta-p.lastQuanta) / wall.Seconds()
	}
	p.lastReport = now
	p.lastQuanta = p.quanta

	final := label != "progress"
	if final {
		elapsed := now.Sub(p.start)
		rate = 0
		if elapsed > 0 {
			rate = float64(p.quanta) / elapsed.Seconds()
		}
	}
	engaged := 0.0
	if p.quanta > 0 {
		engaged = 100 * float64(p.engagedQuanta) / float64(p.quanta)
	}
	quiet := ""
	if final {
		quiet = fmt.Sprintf(" | quiet %d | quiet node-quanta %d", p.quiet, p.quietNodes)
	}
	fmt.Fprintf(p.w, "%s: guest %v | %d quanta (%.0f/s) | Q=%v | engaged %.0f%%%s | packets %d | stragglers %d\n",
		label, p.guest, p.quanta, rate, p.curQ, engaged, quiet, p.packets, p.stragglers)
}
