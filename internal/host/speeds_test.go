package host

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"clustersim/internal/simtime"
)

// TestSpeedsMatchPrivateDraws: a model reading a shared table returns, bit
// for bit, what a model without one computes — inside the table's bounds, past
// its window horizon and node count, from a table drawn for another seed or
// sigma (which it must ignore), and while several models fill one table at
// once, cell by cell and block by block (run with -race: that is the
// data-race proof for the lock-free cells).
func TestSpeedsMatchPrivateDraws(t *testing.T) {
	const nodes = 8
	p := testParams()
	private := NewModel(p)
	private.Reserve(nodes)

	type key struct {
		node   int
		window int64
	}
	rnd := rand.New(rand.NewSource(1))
	const horizon = speedsChunks * speedsChunkLen
	var keys []key
	for i := 0; i < 4000; i++ {
		keys = append(keys, key{rnd.Intn(nodes + 2), rnd.Int63n(horizon + 2*speedsChunkLen)})
	}
	// Both edges of the horizon and of a chunk, for every kind of node.
	for _, w := range []int64{0, speedsChunkLen - 1, speedsChunkLen, horizon - 1, horizon, horizon + 1} {
		keys = append(keys, key{0, w}, key{nodes - 1, w}, key{nodes, w})
	}
	want := make([]float64, len(keys))
	for i, k := range keys {
		want[i] = lognormal(p.Seed, p.JitterSigma, k.node, k.window)
	}
	// The models checked here reserve no node, so each speed is a block of
	// one read through the table.
	check := func(t *testing.T, label string, m *Model, order []int) {
		for _, i := range order {
			k := keys[i]
			// Twice: the draw that fills the cell, then the read of it.
			for pass := 0; pass < 2; pass++ {
				if got := m.speed(k.node, k.window); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("%s: node %d window %d pass %d: shared draw %v, private draw %v", label, k.node, k.window, pass, got, want[i])
					return
				}
			}
		}
	}
	inOrder := rnd.Perm(len(keys))

	t.Run("matching table", func(t *testing.T) {
		s := NewSpeeds(p, nodes)
		m := NewModel(p)
		m.Share(s)
		if m.shared != s {
			t.Fatal("a table drawn for the model's own seed and sigma was not adopted")
		}
		check(t, "filling", m, inOrder)
		reader := NewModel(p)
		reader.Share(s)
		check(t, "reading", reader, inOrder)
		filled := 0
		for i := range s.index {
			if s.index[i].Load() != nil {
				filled++
			}
		}
		if filled == 0 || filled > nodes*speedsChunks {
			t.Errorf("%d chunks published, want between 1 and %d", filled, nodes*speedsChunks)
		}
	})

	t.Run("mismatched table", func(t *testing.T) {
		for name, mod := range map[string]func(q *Params){
			"seed":  func(q *Params) { q.Seed++ },
			"sigma": func(q *Params) { q.JitterSigma *= 2 },
		} {
			q := p
			mod(&q)
			s := NewSpeeds(q, nodes)
			other := NewModel(q)
			other.Share(s)
			for _, k := range keys[:200] {
				other.speed(k.node, k.window) // another sweep's draws, not ours
			}
			m := NewModel(p)
			m.Share(s)
			if m.shared != nil {
				t.Errorf("%s: a table drawn for another %s was adopted", name, name)
			}
			check(t, name, m, inOrder)
		}
	})

	t.Run("concurrent fill", func(t *testing.T) {
		s := NewSpeeds(p, nodes)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			order := rand.New(rand.NewSource(int64(g))).Perm(len(keys))
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := NewModel(p)
				m.Share(s)
				check(t, "concurrent", m, order)
			}()
		}
		wg.Wait()
	})

	// Six models publish blocks of one chunk at once: each walks the chunk
	// with its own offset and stride, so their blocks interleave and
	// overlap; half of them reserve the nodes (a whole block per miss), half
	// do not (a block of one).
	t.Run("concurrent blocks", func(t *testing.T) {
		s := NewSpeeds(p, nodes)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := NewModel(p)
				m.Share(s)
				if g%2 == 0 {
					m.Reserve(nodes)
				}
				for w := int64(g); w < speedsChunkLen; w += int64(1 + g) {
					for node := 0; node < 2; node++ {
						want := lognormal(p.Seed, p.JitterSigma, node, w)
						if got := m.speed(node, w); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("model %d: node %d window %d: shared draw %v, private draw %v", g, node, w, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})

	// Through the public conversions: costs over a stretch crossing many
	// windows, and their inverse, agree with and without the table.
	t.Run("HostCost and GuestAt", func(t *testing.T) {
		shared := NewModel(p)
		shared.Reserve(nodes)
		shared.Share(NewSpeeds(p, nodes))
		for i := 0; i < 200; i++ {
			node := rnd.Intn(nodes)
			g0 := simtime.Guest(rnd.Int63n(int64(50 * simtime.Millisecond)))
			g1 := g0 + simtime.Guest(rnd.Int63n(int64(2*simtime.Millisecond))+1)
			a, b := private.HostCost(node, g0, g1, Busy), shared.HostCost(node, g0, g1, Busy)
			if a != b {
				t.Fatalf("HostCost(%d, %v, %v): private %v, shared %v", node, g0, g1, a, b)
			}
			if x, y := private.GuestAt(node, g0, a/2, Busy, g1), shared.GuestAt(node, g0, a/2, Busy, g1); x != y {
				t.Fatalf("GuestAt(%d, %v, %v): private %v, shared %v", node, g0, a/2, x, y)
			}
		}
	})
}

// The memoised window's bounds must answer exactly like the divisions they
// replace: a model with a reservation (bounds fast path) and one without
// (division path) agree on every conversion, window edges included.
func TestHostCostMemoBoundsMatchDivision(t *testing.T) {
	p := testParams()
	memo, plain := NewModel(p), NewModel(p)
	memo.Reserve(4)
	per := simtime.Guest(p.JitterPeriod)
	rnd := rand.New(rand.NewSource(2))
	g := simtime.Guest(0)
	for i := 0; i < 20000; i++ {
		// Mostly short steps forward, as a run of quanta makes them; now and
		// then a jump back, a window edge, or a multi-window stretch.
		var g0, g1 simtime.Guest
		switch rnd.Intn(10) {
		case 0:
			g0 = (g/per + 1) * per
			g1 = g0 + simtime.Guest(rnd.Int63n(int64(per))+1)
		case 1:
			g0 = g
			g1 = (g/per + 1) * per // ends exactly on the edge
		case 2:
			g0 = simtime.Guest(rnd.Int63n(int64(g) + 1))
			g1 = g0 + simtime.Guest(rnd.Int63n(int64(3*per))+1)
		default:
			g0 = g
			g1 = g + simtime.Guest(rnd.Int63n(int64(per)/4)+1)
		}
		node := rnd.Intn(6) // nodes 4 and 5 lie outside the reservation
		mode := Mode(rnd.Intn(2))
		if a, b := memo.HostCost(node, g0, g1, mode), plain.HostCost(node, g0, g1, mode); a != b {
			t.Fatalf("HostCost(%d, %v, %v, %v): %v with the memo, %v without", node, g0, g1, mode, a, b)
		}
		g = g1
	}
}
