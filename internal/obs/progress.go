package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"clustersim/internal/simtime"
)

// Progress is an Observer that periodically reports how far a long run has
// advanced: guest time (and percentage of the target, when one is known),
// quanta per wall-clock second, the current quantum size, and the straggler
// rate. Updates are rate-limited by wall time so the hook itself is cheap on
// runs with millions of quanta.
//
// Reports go to a single writer (conventionally stderr, so piped stdout
// output such as CSV or charts stays clean).
type Progress struct {
	Base // the hooks a status line has no use for
	mu   sync.Mutex
	w    io.Writer
	// target is the guest time treated as 100%; zero reports absolute guest
	// time only.
	target simtime.Guest
	// interval is the minimum wall time between reports.
	interval time.Duration

	start      time.Time
	lastReport time.Time
	lastQuanta int64

	quanta     int64
	fastQuanta int64 // quanta whose partitioning left every node loose
	quiet      int64 // quanta the engine fast-forwarded; known at RunEnd only
	quietNodes int64 // node-quanta it fast-forwarded, skipped nodes included
	packets    int64
	stragglers int64
	guest      simtime.Guest
	curQ       simtime.Duration
}

// NewProgress returns a reporter writing to w. target is the guest time
// treated as 100% (zero if unknown). Updates are emitted at most every
// interval; interval <= 0 uses a 500ms default.
func NewProgress(w io.Writer, target simtime.Guest, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Progress{w: w, target: target, interval: interval}
}

// RunStart starts the wall clock.
func (p *Progress) RunStart(info RunInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = time.Now() //simlint:wallclock progress reporting is rate-limited by real time; it renders to stderr and never feeds results
	p.lastReport = p.start
	if p.target == 0 {
		p.target = info.MaxGuest
	}
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
}

// QuantumEnd advances the counters and reports if enough wall time passed.
func (p *Progress) QuantumEnd(rec QuantumRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quanta++
	if rec.FastEligible {
		p.fastQuanta++
	}
	p.packets += int64(rec.Packets)
	p.stragglers += int64(rec.Stragglers)
	p.guest = rec.Start.Add(rec.Q)
	if time.Since(p.lastReport) >= p.interval { //simlint:wallclock report rate limiting compares real elapsed time; results are unaffected
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
	pct := ""
	if p.target > 0 {
		pct = fmt.Sprintf(" (%.1f%%)", 100*float64(p.guest)/float64(p.target))
	}
	strag := 0.0
	if p.packets > 0 {
		strag = 100 * float64(p.stragglers) / float64(p.packets)
	}
	fast := 0.0
	if p.quanta > 0 {
		fast = 100 * float64(p.fastQuanta) / float64(p.quanta)
	}
	quiet := ""
	if final {
		quiet = fmt.Sprintf(" | quiet %d | quiet node-quanta %d", p.quiet, p.quietNodes)
	}
	fmt.Fprintf(p.w, "%s: guest %v%s | %d quanta (%.0f/s) | Q=%v | fast %.0f%%%s | stragglers %.1f%%\n",
		label, p.guest, pct, p.quanta, rate, p.curQ, fast, quiet, strag)
}
