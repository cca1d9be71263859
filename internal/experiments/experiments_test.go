package experiments

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

func TestNASSuiteScaling(t *testing.T) {
	full := NASSuite(1.0)
	half := NASSuite(0.5)
	if len(full) != 5 || len(half) != 5 {
		t.Fatalf("suite sizes %d/%d", len(full), len(half))
	}
	names := map[string]bool{}
	for _, w := range full {
		names[w.Name] = true
	}
	for _, want := range []string{"nas.ep", "nas.is", "nas.cg", "nas.mg", "nas.lu"} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

func TestSpecLabels(t *testing.T) {
	specs := StandardSpecs()
	if len(specs) != 5 {
		t.Fatalf("expected 5 standard specs, got %d", len(specs))
	}
	want := []string{"10", "100", "1k", "dyn 1k 1.03:0.02", "dyn 1k 1.05:0.02"}
	for i, s := range specs {
		if s.Label != want[i] {
			t.Errorf("spec %d label %q, want %q", i, s.Label, want[i])
		}
		if s.Policy == nil || s.Policy() == nil {
			t.Errorf("spec %q has no policy", s.Label)
		}
	}
	if GroundTruth().Label != "1" {
		t.Error("ground truth label")
	}
}

func TestGridComputesBaselinesAndCells(t *testing.T) {
	env := DefaultEnv()
	w := workloads.Phases(3, 200*simtime.Microsecond, 16<<10)
	cells, err := Grid(env, []workloads.Workload{w}, []int{2, 4},
		[]Spec{FixedSpec("100", 100*simtime.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Speedup <= 1 {
			t.Errorf("n=%d speedup %v not above 1", c.Nodes, c.Speedup)
		}
		if c.BaseMetric <= 0 || c.Metric <= 0 {
			t.Errorf("n=%d missing metrics", c.Nodes)
		}
	}
}

// findCell picks the (workload, nodes, config) cell out of a study's cells.
func findCell(t *testing.T, cells []Cell, workload string, nodes int, config string) Cell {
	t.Helper()
	for _, c := range cells {
		if c.Workload == workload && c.Nodes == nodes && c.Config == config {
			return c
		}
	}
	t.Fatalf("no cell %s ×%d %q", workload, nodes, config)
	return Cell{}
}

func TestFig8ParetoFromRows(t *testing.T) {
	nas := []AggRow{
		{Config: "1k", Nodes: 8, AccErr: 0.8, Speedup: 60},
		{Config: "dyn 1k 1.03:0.02", Nodes: 8, AccErr: 0.01, Speedup: 25},
		{Config: "10", Nodes: 8, AccErr: 0.02, Speedup: 8},
	}
	namd := []AggRow{
		{Config: "dyn 1k 1.03:0.02", Nodes: 8, AccErr: 0.02, Speedup: 30},
		{Config: "other", Nodes: 4, AccErr: 0.5, Speedup: 2}, // wrong node count: excluded
	}
	out := Fig8(nas, namd, 8)
	if len(out.Points) != 4 {
		t.Fatalf("expected 4 points, got %d", len(out.Points))
	}
	if len(out.Front) == 0 {
		t.Fatal("empty front")
	}
	foundDyn := false
	for name, d := range out.NearFront {
		if !strings.Contains(name, "dyn") {
			t.Errorf("non-adaptive point %q in NearFront", name)
		}
		if d == 0 {
			foundDyn = true
		}
	}
	if !foundDyn {
		t.Error("no adaptive point on the front in this synthetic setup")
	}
}

func TestFig9CaseSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out case is slow")
	}
	env := DefaultEnv()
	w := NASSuite(0.05)[0] // EP, tiny
	out, err := Fig9Case(env, w, 8,
		DynSpec("dyn", simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.1),
		[]Spec{FixedSpec("10", 10*simtime.Microsecond)}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(out.Rows))
	}
	if out.Rows[0].Config != "dyn" {
		t.Errorf("first row %q, want the adaptive one", out.Rows[0].Config)
	}
	if out.TrafficChart == "" || len(out.SpeedupCharts) != 2 {
		t.Error("missing charts")
	}
	if out.Rows[0].Stats.MeanQ <= 0 {
		t.Error("missing adaptive mean quantum")
	}
	for _, r := range out.Rows {
		if r.Speedup <= 0 || r.ExecRatio() <= 0 {
			t.Errorf("row %q has nonsense values: %+v", r.Config, r)
		}
	}
}

func TestAblationIncDecSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	env := DefaultEnv()
	w := workloads.Phases(3, 300*simtime.Microsecond, 16<<10)
	rows, err := AblationIncDec(env, w, 4, []float64{1.03, 1.2}, []float64{0.02, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Stats.MeanQ <= 0 {
			t.Errorf("row %q broken: %+v", r.Config, r)
		}
	}
}

func TestAblationHostBarrierDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	env := DefaultEnv()
	w := workloads.Silent(2 * simtime.Millisecond)
	rows, err := AblationHost(env, w, 4,
		[]simtime.Duration{100 * simtime.Microsecond, 1300 * simtime.Microsecond},
		[]float64{0.22})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Config != "barrier=100µs σ=0.22" || rows[1].Config != "barrier=1.3ms σ=0.22" {
		t.Fatalf("rows are not barrier-major: %+v", rows)
	}
	if lo, hi := rows[0].Speedup, rows[1].Speedup; hi <= lo {
		t.Errorf("Q=1000µs speedup should grow with barrier cost: %v vs %v", lo, hi)
	}
}

// The host ablation runs one workload, node count and ground-truth spec under
// every host it sweeps: each run's label names its host, so the sweep holds
// one run per label and reads back, and the default host's run keeps the
// plain label every other study gives it.
func TestAblationHostSweepLabels(t *testing.T) {
	env := DefaultEnv()
	env.Profiles = &prof.Sweep{}
	w := workloads.Silent(200 * simtime.Microsecond)
	if _, err := AblationHost(env, w, 2, []simtime.Duration{100 * simtime.Microsecond, 1300 * simtime.Microsecond}, []float64{0, 0.22}); err != nil {
		t.Fatal(err)
	}
	rep := env.Profiles.Report()
	var labels []string
	for _, r := range rep.Runs {
		labels = append(labels, r.Label)
	}
	truths := []string{"synthetic.silent/2/Q=1µs", "synthetic.silent/2/Q=1µs/host:barrier=100µs", "synthetic.silent/2/Q=1µs/host:barrier=100µs σ=0", "synthetic.silent/2/Q=1µs/host:σ=0"}
	if len(labels) != 8 || !slices.IsSorted(labels) || len(slices.Compact(slices.Clone(labels))) != 8 {
		t.Fatalf("sweep labels %q, want 8 distinct sorted runs", labels)
	}
	for _, want := range truths {
		if !slices.Contains(labels, want) {
			t.Errorf("no ground truth labelled %q in %q", want, labels)
		}
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := rep.WriteFiles(path); err != nil {
		t.Fatal(err)
	}
	if back, err := prof.Read(path); err != nil || len(back.Runs) != 8 {
		t.Fatalf("Read = %v", err)
	}
}

func TestOptimisticEstimateFavorsConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("optimistic estimate is slow")
	}
	env := DefaultEnv()
	w := workloads.Phases(4, 300*simtime.Microsecond, 32<<10)
	rows, err := OptimisticEstimate(env, w, 4,
		[]Spec{FixedSpec("100", 100*simtime.Microsecond)}, PaperOptimistic())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Stragglers == 0 {
		t.Fatal("no stragglers; the estimate degenerates")
	}
	if r.Ratio <= 1 {
		t.Errorf("with 30s checkpoints the optimistic scheme should lose; ratio %.2f", r.Ratio)
	}
}

func TestAblationOracleBeatsBlindAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle ablation is slow")
	}
	env := DefaultEnv()
	w := workloads.Phases(5, 500*simtime.Microsecond, 32<<10)
	rows, err := AblationOracle(env, w, 4, simtime.Microsecond, simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dyn := findCell(t, rows, w.Name, 4, "dyn 1.03:0.02")
	oracle := findCell(t, rows, w.Name, 4, "oracle")
	if oracle.Speedup <= dyn.Speedup {
		t.Errorf("oracle %.1fx not above blind adaptive %.1fx", oracle.Speedup, dyn.Speedup)
	}
	if oracle.AccErr > 0.05 {
		t.Errorf("oracle accuracy error %.2f%% unexpectedly large", oracle.AccErr*100)
	}
}

func TestSamplingStudyMultipliesOnComputeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling study is slow")
	}
	env := DefaultEnv()
	w := NASSuite(0.05)[0] // EP
	rows, err := SamplingStudy(env, w, 4, DefaultSampling())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Cell{}
	for _, r := range rows {
		byLabel[r.Config] = r
	}
	if byLabel["adaptive + sampling"].Speedup <= byLabel["adaptive"].Speedup {
		t.Errorf("sampling did not add speedup on a compute-bound workload: %.1fx vs %.1fx",
			byLabel["adaptive + sampling"].Speedup, byLabel["adaptive"].Speedup)
	}
	// Sampling must not hurt accuracy in this framework (timing comes from
	// the workload model, not from the sampled detail).
	for _, r := range rows {
		if r.AccErr > 0.05 {
			t.Errorf("%s accuracy error %.2f%%", r.Config, r.AccErr*100)
		}
	}
}

func TestFiguresEndToEndTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure integration is slow")
	}
	env := DefaultEnv()
	nas, nasCells, err := Fig6(env, 0.04, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(nas) != 5 {
		t.Fatalf("Fig6 rows: %d", len(nas))
	}
	if len(nasCells) != 25 { // 5 kernels × 5 configs
		t.Fatalf("Fig6 cells: %d", len(nasCells))
	}
	namd, namdCells, err := Fig7(env, 0.04, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(namd) != 5 || len(namdCells) != 5 {
		t.Fatalf("Fig7 rows/cells: %d/%d", len(namd), len(namdCells))
	}
	out := Fig8(nas, namd, 2)
	if len(out.Points) != 10 {
		t.Fatalf("Fig8 points: %d", len(out.Points))
	}
	if len(out.Front) == 0 {
		t.Fatal("Fig8 empty front")
	}
	// Sanity on the aggregate rows: every config present, speedups positive.
	for _, r := range append(nas, namd...) {
		if r.Speedup <= 0 {
			t.Errorf("row %q nodes %d has speedup %v", r.Config, r.Nodes, r.Speedup)
		}
	}
}

func TestFig9EndToEndTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig9 integration is slow")
	}
	env := DefaultEnv()
	cases := Fig9Cases(0.04)
	if len(cases) != 3 {
		t.Fatalf("Fig9 cases: %d", len(cases))
	}
	names := []string{"nas.ep", "nas.is", "namd"}
	for i, c := range cases {
		o, err := Fig9Case(env, c.Workload, 4, c.Dyn, c.Fixed, 40)
		if err != nil {
			t.Fatal(err)
		}
		if o.Benchmark != names[i] {
			t.Errorf("case %d is %q, want %q", i, o.Benchmark, names[i])
		}
		if len(o.Rows) != 3 {
			t.Errorf("%s: %d rows", o.Benchmark, len(o.Rows))
		}
		if o.TrafficChart == "" {
			t.Errorf("%s: missing traffic chart", o.Benchmark)
		}
	}
}

func TestScalingCurveMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling curve is slow")
	}
	env := DefaultEnv()
	rows, err := Grid(env, []workloads.Workload{NAMDWorkload(0.1)}, []int{2, 8},
		[]Spec{DynSpec("dyn", simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[1].Speedup >= rows[0].Speedup {
		t.Errorf("speedup should erode with scale: %v -> %v", rows[0].Speedup, rows[1].Speedup)
	}
	if rows[1].PacketsPerGuestMS() <= rows[0].PacketsPerGuestMS() {
		t.Errorf("traffic density should grow with scale: %v -> %v",
			rows[0].PacketsPerGuestMS(), rows[1].PacketsPerGuestMS())
	}
	if rows[1].Stats.MeanQ >= rows[0].Stats.MeanQ {
		t.Errorf("settled quantum should shrink with scale: %v -> %v", rows[0].Stats.MeanQ, rows[1].Stats.MeanQ)
	}
}

// TestGridProfileSweep: with Env.Profiles attached, every run of the grid
// (ground truths included) lands in the sweep under its canonical label,
// and the sweep's JSON is byte-identical whatever the worker count —
// registration order is erased by sorting, and the memoized baseline's
// duplicate profiles collapse.
func TestGridProfileSweep(t *testing.T) {
	run := func(workers int) ([]byte, *prof.SweepReport) {
		env := DefaultEnv()
		env.Workers = workers
		env.Profiles = &prof.Sweep{}
		w := workloads.Phases(3, 200*simtime.Microsecond, 16<<10)
		if _, err := Grid(env, []workloads.Workload{w}, []int{2, 4},
			[]Spec{FixedSpec("100", 100*simtime.Microsecond)}); err != nil {
			t.Fatal(err)
		}
		rep := env.Profiles.Report()
		return rep.JSON(), rep
	}
	seqJSON, rep := run(1)
	labels := map[string]bool{}
	for _, r := range rep.Runs {
		labels[r.Label] = true
	}
	for _, want := range []string{"synthetic.phases/2/Q=1µs", "synthetic.phases/2/Q=100µs", "synthetic.phases/4/Q=1µs", "synthetic.phases/4/Q=100µs"} {
		if !labels[want] {
			t.Errorf("sweep missing run %q (have %v)", want, labels)
		}
	}
	parJSON, _ := run(4)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("sweep report bytes differ between Workers=1 and Workers=4")
	}
}
