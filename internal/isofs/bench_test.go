package isofs

import (
	"fmt"
	"testing"
)

func BenchmarkWriteRead32Scripts(b *testing.B) {
	script := []byte("#!vmplant-action\nop=create-user\nparam.name=u\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(2048)
		for j := 0; j < 32; j++ {
			w.Add(fmt.Appendf(nil, "scripts/%03d.sh", j), appendBytes(script))
		}
		if _, err := Read(w.Finish()); err != nil {
			b.Fatal(err)
		}
	}
}
