package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/order.golden from this kernel")

const orderSeeds = 200

// orderProgram runs a random program drawn from seed and returns its
// log: one "<now> <proc> <step>" line per step a process takes, one line
// per Run slice. The processes share one RNG, so the first event
// dispatched out of order changes every draw after it.
func orderProgram(seed int64) string {
	var log strings.Builder
	g := NewRNG(seed)
	k := NewKernel()
	res := []*Resource{NewResource("r1", 1), NewResource("r3", 3)}
	boxes := []*Mailbox[int]{NewMailbox[int]("m0"), NewMailbox[int]("m1")}
	var procs []*Proc
	ms := func(n int) time.Duration { return time.Duration(g.Intn(n)) * time.Millisecond }

	var body func(depth int) func(p *Proc)
	spawn := func(depth int) {
		name := fmt.Sprintf("p%d", len(procs))
		procs = append(procs, k.Spawn(name, body(depth)))
	}
	body = func(depth int) func(p *Proc) {
		return func(p *Proc) {
			step := func(format string, args ...any) {
				fmt.Fprintf(&log, "%d %s %s\n", p.Now(), p.Name(), fmt.Sprintf(format, args...))
			}
			step("start")
			for n := 1 + g.Intn(12); n > 0; n-- {
				switch op := g.Intn(20); {
				case op < 4:
					d := ms(6)
					p.Sleep(d)
					step("slept %v", d)
				case op < 7:
					d := ms(6)
					step("wait %v woken=%v", d, p.Wait(d))
				case op < 10:
					q := procs[g.Intn(len(procs))]
					q.WakeUp()
					step("wake %s state=%d", q.Name(), q.State())
				case op < 13:
					r := res[g.Intn(len(res))]
					n := 1 + g.Intn(r.Capacity())
					r.Acquire(p, n)
					step("acquired %d of %s", n, r.Name())
					p.Sleep(ms(4))
					r.Release(p, n)
					step("released %s queue=%d", r.Name(), r.QueueLen())
				case op < 15:
					m := boxes[g.Intn(len(boxes))]
					if !m.Closed() {
						m.Put(p, int(p.ID()))
					}
					step("put %s len=%d", m.Name(), m.Len())
				case op < 17:
					m := boxes[g.Intn(len(boxes))]
					d := ms(8)
					v, ok := m.GetTimeout(p, d)
					step("gettimeout %s %v -> %d %v", m.Name(), d, v, ok)
				case op < 18 && depth < 3:
					spawn(depth + 1)
					step("spawned %s", procs[len(procs)-1].Name())
				case op < 19:
					m := boxes[g.Intn(len(boxes))]
					if g.Intn(4) == 0 {
						m.Close()
						step("closed %s", m.Name())
					} else {
						v, ok := m.Get(p)
						step("get %s -> %d %v", m.Name(), v, ok)
					}
				default:
					step("wait forever woken=%v", p.Wait(-1))
				}
			}
			step("done")
		}
	}

	for n := 2 + g.Intn(39); n > 0; n-- {
		spawn(0)
	}
	for slices := g.Intn(4); slices > 0; slices-- {
		r := k.Run(k.Now() + time.Millisecond + ms(10))
		fmt.Fprintf(&log, "run until -> %d %d %v depth=%d\n", r.End, r.Events, r.Stranded, k.QueueDepth())
	}
	r := k.Run(0)
	fmt.Fprintf(&log, "run -> %d %d %v\n", r.End, r.Events, r.Stranded)
	return log.String()
}

// TestEventOrderPinned holds the kernel to the event order recorded in
// testdata/order.golden ("<seed> <sha256 of the seed's log>" per line),
// which was written on the channel-baton kernel before processes became
// coroutines. A changed hash is a changed (at, seq) order, tie-break,
// Run(until) boundary or Stranded report.
func TestEventOrderPinned(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= orderSeeds; seed++ {
		fmt.Fprintf(&got, "%d %x\n", seed, sha256.Sum256([]byte(orderProgram(seed))))
	}
	if *updateOrder {
		if err := os.WriteFile("testdata/order.golden", []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile("testdata/order.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(blob), "\n")
	lines := strings.Split(got.String(), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden holds %d lines, want %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("log hashes to %q, golden %q", lines[i], want[i])
		}
	}
}
