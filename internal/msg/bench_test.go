package msg_test

import (
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

const streamMsgs, streamSize = 32, 32 << 10

// streamConfig builds the message-stream fixture shared by the throughput
// benchmarks and the allocation-regression test: 1 MiB of 32 KiB messages
// from rank 0 to rank 1, size-only or carrying real payload bytes, over
// reliable endpoints (the sender then Flushes) or unreliable ones. Each rank
// adds the switches into its workload to *resumes as it finishes.
func streamConfig(payload, reliable bool, resumes *int) cluster.Config {
	return cluster.Config{
		Nodes: 2,
		Guest: guest.DefaultConfig(),
		Net:   netmodel.Paper(),
		Host:  host.DefaultParams(),
		Policy: func() quantum.Policy {
			return quantum.Fixed{Q: 100 * simtime.Microsecond}
		},
		Program: func(rank, clusterSize int) guest.Program {
			return func(p *guest.Proc) error {
				ep := msg.NewWithConfig(p, msg.Config{Reliable: reliable})
				if rank == 0 {
					var buf []byte
					if payload {
						buf = make([]byte, streamSize)
						for i := range buf {
							buf[i] = byte(i)
						}
					}
					for i := 0; i < streamMsgs; i++ {
						if payload {
							ep.SendPayload(1, 1, buf)
						} else {
							ep.Send(1, 1, streamSize)
						}
					}
					if err := ep.Flush(); err != nil {
						return err
					}
				} else {
					for i := 0; i < streamMsgs; i++ {
						ep.Recv(0, 1)
					}
				}
				*resumes += p.Resumes()
				return nil
			}
		},
		MaxGuest: simtime.Guest(10 * simtime.Second),
	}
}

func benchStream(b *testing.B, payload, reliable bool) {
	resumes, frames := 0, 0
	cfg := streamConfig(payload, reliable, &resumes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Stats.Packets
	}
	b.SetBytes(streamMsgs * streamSize)
	b.ReportMetric(float64(resumes)/float64(frames), "resumes/frame")
}

// BenchmarkMessageStream measures end-to-end message-layer throughput
// through the full simulator: 1 MiB of 32 KiB messages per run.
func BenchmarkMessageStream(b *testing.B) { benchStream(b, false, false) }

// BenchmarkMessageStreamPayload is the same stream carrying actual payload
// bytes, exercising the per-fragment wire-byte path end to end.
func BenchmarkMessageStreamPayload(b *testing.B) { benchStream(b, true, false) }

// BenchmarkMessageStreamReliable is the size-only stream through reliable
// endpoints: every message is tracked, acknowledged and checked for
// duplicates, and the sender Flushes at the end.
func BenchmarkMessageStreamReliable(b *testing.B) { benchStream(b, false, true) }
