package mpi_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/mpi"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// run executes the same program on n ranks under quantum q.
func run(t *testing.T, n int, q simtime.Duration, prog func(c *mpi.Comm) error) {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Nodes: n,
		Guest: guest.DefaultConfig(),
		Net:   netmodel.Paper(),
		Host:  host.DefaultParams(),
		Policy: func() quantum.Policy {
			return quantum.Fixed{Q: q}
		},
		Program: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				return prog(mpi.New(p))
			}
		},
		MaxGuest: simtime.Guest(60 * simtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

// quanta to exercise: ground truth and a deliberately sloppy large quantum —
// collectives must compute identical results under both (the paper's
// functional-correctness-despite-skew property).
var testQuanta = []simtime.Duration{simtime.Microsecond, 700 * simtime.Microsecond}

func TestAllreduceSumCorrectAllSizesAllQuanta(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, q := range testQuanta {
			n, q := n, q
			t.Run(fmt.Sprintf("n%d_q%v", n, q), func(t *testing.T) {
				var mu sync.Mutex
				results := map[int][]float64{}
				run(t, n, q, func(c *mpi.Comm) error {
					in := []float64{float64(c.Rank() + 1), float64(c.Rank() * c.Rank()), 1}
					out := c.AllreduceSum(in)
					mu.Lock()
					results[c.Rank()] = out
					mu.Unlock()
					return nil
				})
				wantA, wantB, wantC := 0.0, 0.0, float64(n)
				for r := 0; r < n; r++ {
					wantA += float64(r + 1)
					wantB += float64(r * r)
				}
				for r := 0; r < n; r++ {
					got := results[r]
					if len(got) != 3 || got[0] != wantA || got[1] != wantB || got[2] != wantC {
						t.Fatalf("rank %d got %v, want [%v %v %v]", r, got, wantA, wantB, wantC)
					}
				}
			})
		}
	}
}

func TestBcastPayloadAllRanksReceive(t *testing.T) {
	for _, n := range []int{2, 3, 6, 8} {
		for root := 0; root < n; root += n/2 + 1 {
			var mu sync.Mutex
			got := map[int]string{}
			n, root := n, root
			run(t, n, simtime.Microsecond, func(c *mpi.Comm) error {
				var payload []byte
				if c.Rank() == root {
					payload = []byte(fmt.Sprintf("hello from %d", root))
				}
				out := c.BcastPayload(root, payload)
				mu.Lock()
				got[c.Rank()] = string(out)
				mu.Unlock()
				return nil
			})
			want := fmt.Sprintf("hello from %d", root)
			for r := 0; r < n; r++ {
				if got[r] != want {
					t.Fatalf("n=%d root=%d rank=%d got %q", n, root, r, got[r])
				}
			}
		}
	}
}

func TestBarrierSeparatesPhases(t *testing.T) {
	// Every rank records its guest time before and after the barrier; no
	// rank's "after" may precede any rank's "before" — the defining barrier
	// property, and it must hold even under a huge quantum.
	for _, q := range testQuanta {
		var mu sync.Mutex
		before := map[int]simtime.Guest{}
		after := map[int]simtime.Guest{}
		run(t, 6, q, func(c *mpi.Comm) error {
			// Stagger the ranks so the barrier has work to do.
			c.Proc().Compute(simtime.Duration(c.Rank()) * 50 * simtime.Microsecond)
			mu.Lock()
			before[c.Rank()] = c.Proc().Now()
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			after[c.Rank()] = c.Proc().Now()
			mu.Unlock()
			return nil
		})
		maxBefore := simtime.Guest(0)
		for _, b := range before {
			maxBefore = simtime.MaxGuest(maxBefore, b)
		}
		for r, a := range after {
			if a < maxBefore {
				t.Errorf("q=%v: rank %d left the barrier at %v before rank entered at %v", q, r, a, maxBefore)
			}
		}
	}
}

func TestAlltoallCompletesAllPairs(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		n := n
		run(t, n, simtime.Microsecond, func(c *mpi.Comm) error {
			c.Alltoall(1000)
			// A second one immediately after must not cross-talk with the
			// first (tag isolation).
			c.Alltoall(500)
			return nil
		})
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	run(t, 2, simtime.Microsecond, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 42, 1234)
			m := c.Recv(1, 43)
			if m.Size != 4321 {
				return fmt.Errorf("got %d bytes", m.Size)
			}
		} else {
			m := c.Recv(0, 42)
			if m.Size != 1234 {
				return fmt.Errorf("got %d bytes", m.Size)
			}
			c.Send(0, 43, 4321)
		}
		return nil
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, 2, simtime.Microsecond, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		m := c.Sendrecv(peer, 9, 2048)
		if m.Size != 2048 || m.Src != peer {
			return fmt.Errorf("sendrecv got %d bytes from %d", m.Size, m.Src)
		}
		return nil
	})
}

func TestInvalidPeerPanics(t *testing.T) {
	run(t, 2, simtime.Microsecond, func(c *mpi.Comm) error {
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			c.Send(5, 1, 10)
		}()
		if !panicked {
			return fmt.Errorf("out-of-range peer did not panic")
		}
		return nil
	})
}

// Property: AllreduceSum is correct for arbitrary vectors and cluster sizes.
func TestPropertyAllreduceSum(t *testing.T) {
	f := func(vals []float64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		if len(vals) > 16 {
			vals = vals[:16]
		}
		if len(vals) == 0 {
			vals = []float64{1}
		}
		for i, v := range vals {
			// Keep values exactly representable across additions.
			vals[i] = float64(int64(v) % 1000)
		}
		var mu sync.Mutex
		bad := false
		run(t, n, simtime.Microsecond, func(c *mpi.Comm) error {
			in := make([]float64, len(vals))
			for i, v := range vals {
				in[i] = v + float64(c.Rank())
			}
			out := c.AllreduceSum(in)
			for i := range out {
				want := vals[i]*float64(n) + float64(n*(n-1)/2)
				if out[i] != want {
					mu.Lock()
					bad = true
					mu.Unlock()
				}
			}
			return nil
		})
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCollectivesUnderAdaptivePolicy(t *testing.T) {
	// The adaptive policy must not affect functional results either.
	res, err := cluster.Run(cluster.Config{
		Nodes: 5,
		Guest: guest.DefaultConfig(),
		Net:   netmodel.Paper(),
		Host:  host.DefaultParams(),
		Policy: func() quantum.Policy {
			return quantum.NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)
		},
		Program: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				c := mpi.New(p)
				out := c.AllreduceSum([]float64{float64(rank)})
				if out[0] != 10 { // 0+1+2+3+4
					return fmt.Errorf("rank %d got %v", rank, out[0])
				}
				p.Compute(300 * simtime.Microsecond)
				out = c.AllreduceSum([]float64{1})
				if out[0] != 5 {
					return fmt.Errorf("rank %d second allreduce got %v", rank, out[0])
				}
				return nil
			}
		},
		MaxGuest: simtime.Guest(10 * simtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets == 0 {
		t.Error("no traffic observed")
	}
}
