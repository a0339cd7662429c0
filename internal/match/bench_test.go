package match

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
)

func BenchmarkEvaluateFigure3(b *testing.B) {
	g := invigoGraph(b)
	perf := cachedABC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Evaluate(g, perf)
		if !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

func BenchmarkBestOver32Candidates(b *testing.B) {
	g := invigoGraph(b)
	var cands []Candidate
	for i := 0; i < 32; i++ {
		n := i % 4
		cands = append(cands, Candidate{
			ID:        string(rune('a' + i)),
			Hardware:  hw(64, 4096),
			Performed: cachedABC()[:n],
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Best(hw(64, 4096), g, cands); !ok {
			b.Fatal("no match")
		}
	}
}

// catalogCandidates mirrors what a plant of the benchmark's catalog
// workload ranks per bid (bench/inproc.go): the three golden machines,
// of which one has the requested memory size; 30 seed images — one OS
// install (two in five another distribution, rejected at once), up to
// two packages of the request's own prefix, up to two extras the
// request does not want (rejected after the shared prefix); and 34
// images published back from other users' workspaces, which share the
// request's first three operations and diverge at the fourth. Keys are
// set, as the warehouse sets them.
func catalogCandidates() []Candidate {
	rng := rand.New(rand.NewSource(1))
	var cands []Candidate
	add := func(id string, memMB int, hist []dag.Action) {
		cands = append(cands, Candidate{ID: id, Hardware: hw(memMB, 4096), Performed: hist, Keys: dag.Keys(hist)})
	}
	for _, mem := range []int{32, 64, 256} {
		add(fmt.Sprintf("golden-%d", mem), mem, cachedABC())
	}
	distros := []string{"redhat-8.0", "redhat-8.0", "redhat-8.0", "debian-3.0", "suse-9.0"}
	prefix := []string{"vnc-server", "web-file-manager"}
	extras := []string{"gcc", "matlab", "octave", "gaussian", "namd", "blast", "globus", "condor"}
	for i := 0; i < 30; i++ {
		hist := []dag.Action{act(actions.OpInstallOS, "distro", distros[rng.Intn(len(distros))])}
		for _, pkg := range prefix[:rng.Intn(len(prefix)+1)] {
			hist = append(hist, act(actions.OpInstallPackage, "name", pkg))
		}
		for _, j := range rng.Perm(len(extras))[:rng.Intn(3)] {
			hist = append(hist, act(actions.OpInstallPackage, "name", extras[j]))
		}
		add(fmt.Sprintf("seed-%02d", i), 64, hist)
	}
	for u := 0; u < 34; u++ {
		user := fmt.Sprintf("user%02d", u)
		add("derived-"+user, 64, append(cachedABC(),
			act(actions.OpConfigureNetwork, "mac", "00:50:56:"+user, "ip", "10.1.0."+user),
			act(actions.OpCreateUser, "name", user),
			act(actions.OpMountFS, "source", "nfs:/home/"+user, "mountpoint", "/home/"+user)))
	}
	return cands
}

func BenchmarkBestCatalog67(b *testing.B) {
	g, cands := invigoGraph(b), catalogCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Best(hw(64, 4096), g, cands); !ok {
			b.Fatal("no match")
		}
	}
}

// BenchmarkIndexCold is the daemons' shape: every RPC decodes its own
// graph, so Validate and the one plan that follows build the index and
// use it once. Three candidates, as on the tcp workload.
func BenchmarkIndexCold(b *testing.B) {
	var doc bytes.Buffer
	if err := invigoGraph(b).Encode(&doc); err != nil {
		b.Fatal(err)
	}
	cands := catalogCandidates()[:3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := dag.Decode(bytes.NewReader(doc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, ok := Best(hw(64, 4096), g, cands); !ok {
			b.Fatal("no match")
		}
	}
}
