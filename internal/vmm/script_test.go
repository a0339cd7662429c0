package vmm

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// sameAction reports whether two actions carry the same op, target and
// parameters.
func sameAction(a, b dag.Action) bool {
	return a.Op == b.Op && a.Target == b.Target && maps.Equal(a.Params, b.Params)
}

// A parameter past bufio.Scanner's 64 KiB line limit round-trips, and a
// script cut off inside a line is refused rather than read as the lines
// before the cut.
func TestLongParamRoundTrips(t *testing.T) {
	a := act(actions.OpCreateUser, "name", strings.Repeat("n", 70<<10), "shell", "/bin/sh")
	script := AppendScript(nil, a)
	got, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAction(got, a) {
		t.Fatalf("70 KiB name came back with %d params, name of %d bytes", len(got.Params), len(got.Params["name"]))
	}
	cut := bytes.Index(script, []byte("param.name=")) + 1000
	if got, err := ParseScript(script[:cut]); err == nil {
		t.Errorf("script cut at byte %d of %d parsed as %d params", cut, len(script), len(got.Params))
	}
	if _, err := ParseScript(script[:len(script)-1]); err == nil {
		t.Error("script without its last newline parsed")
	}
}

// Past a thousand guest actions the agent still reads the scripts in
// plan order.
func TestConfigCDOrderPast1000Actions(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		plan := make([]dag.Action, 1002)
		for i := range plan {
			plan[i] = act(actions.OpCreateUser, "name", fmt.Sprint("u", i))
		}
		cd, err := BuildConfigCD(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.AttachCD(p, cd); err != nil {
			t.Fatal(err)
		}
		got := vm.CDActions()
		if len(got) != len(plan) {
			t.Fatalf("agent read %d scripts of %d", len(got), len(plan))
		}
		for i := range plan {
			if !sameAction(got[i], plan[i]) {
				t.Fatalf("position %d runs %v, want %v", i, got[i].Params, plan[i].Params)
			}
		}
	})
}

// invigoResidual is the six guest actions a cold In-VIGO workspace
// creation still runs over its golden image (Figure 3's D–I).
func invigoResidual() []dag.Action {
	return []dag.Action{
		act(actions.OpConfigureNetwork, "mac", "00:50:56:00:00:01", "ip", "10.1.0.2"),
		act(actions.OpCreateUser, "name", "user0001"),
		act(actions.OpMountFS, "source", "nfs:/home/user0001", "mountpoint", "/home/user0001"),
		act(actions.OpConfigureService, "name", "vnc"),
		act(actions.OpStartService, "name", "file-manager"),
		act(actions.OpStartService, "name", "vnc"),
	}
}

// Burning the In-VIGO residual's CD and the guest agent's parse of it
// take at most 30 allocations together (183 when the CD went through a
// map-backed image and the agent through bufio.Scanner).
func TestConfigCDAllocationBudget(t *testing.T) {
	plan := invigoResidual()
	n := testing.AllocsPerRun(100, func() {
		cd, err := BuildConfigCD(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readCD(cd)
		if err != nil || len(got) != len(plan) {
			t.Fatalf("%d actions, %v", len(got), err)
		}
	})
	t.Logf("config CD build + parse: %.0f allocations", n)
	if n > 30 {
		t.Errorf("config CD build + parse: %.0f allocations, want ≤ 30", n)
	}
}

// A guest action writes one config block to the redo log without
// allocating a block for it: the block is built on the stack and stored
// trimmed. TotalAlloc is process-wide, so a stray allocation on another
// goroutine can inflate one reading; the least of several calls, each
// creating a fresh user, cannot be raised by that, while a block
// allocated per call would still show in every one of them.
func TestExecGuestActionAllocatesNoBlock(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 8; i++ {
			a := act(actions.OpCreateUser, "name", fmt.Sprint("arijit", i))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = vm.ExecGuestAction(p, a)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("ExecGuestAction allocated at least %d bytes a call", least)
		if least >= vdisk.BlockSize {
			t.Errorf("ExecGuestAction allocated %d bytes, want < %d", least, vdisk.BlockSize)
		}
	})
}

// FuzzScript holds the guest-script codec to two properties: no input
// panics ParseScript, and a script it accepts re-encodes to bytes that
// parse back to the same action (and re-encode to the same bytes).
func FuzzScript(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	salt := []string{"=", `\`, "\r", "\n", `\e`, `\n`, "\r\n=", ""}
	for i := 0; i < 16; i++ {
		v, _ := quick.Value(reflect.TypeOf(map[string]string(nil)), rng)
		a := dag.Action{Op: fmt.Sprint("op", salt[i%len(salt)], i), Target: dag.Target(i % 2), Params: map[string]string{}}
		j := i
		for k, v := range v.Interface().(map[string]string) {
			a.Params[k+salt[j%len(salt)]] = salt[(j+3)%len(salt)] + v
			j++
		}
		f.Add(AppendScript(nil, a))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := ParseScript(b)
		if err != nil {
			return
		}
		enc := AppendScript(nil, a)
		back, err := ParseScript(enc)
		if err != nil {
			t.Fatalf("%+v re-encodes to %q, which does not parse: %v", a, enc, err)
		}
		if !sameAction(back, a) {
			t.Fatalf("%+v re-encodes to %q, which parses as %+v", a, enc, back)
		}
		if again := AppendScript(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("%q re-encodes as %q", enc, again)
		}
	})
}
