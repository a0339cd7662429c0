package sim

import (
	"testing"
	"time"
)

func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	k.Run(0)
}

func BenchmarkPipeTransfers(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	pipe := NewPipe("d", 1e9)
	k.Spawn("xfer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pipe.Transfer(p, 4096, 1, Foreground)
		}
	})
	b.ResetTimer()
	k.Run(0)
}

// One Spawn + Run per op: the shape of service.Runner.Do, once per RPC.
func BenchmarkSpawnRun(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	body := func(p *Proc) {}
	for i := 0; i < b.N; i++ {
		k.Spawn("op", body)
		k.Run(0)
	}
}

// Two processes alternating over a pair of mailboxes, so every event
// switches to a different process than the one that just ran.
func BenchmarkMailboxPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	ping, pong := NewMailbox[int]("ping"), NewMailbox[int]("pong")
	k.Spawn("server", func(p *Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(p, v)
		}
	})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
		ping.Close()
	})
	b.ResetTimer()
	k.Run(0)
}
