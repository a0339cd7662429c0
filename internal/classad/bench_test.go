package classad

import "testing"

func BenchmarkParseExpr(b *testing.B) {
	src := `TARGET.FreeMemory >= MY.Memory && member("vnc", TARGET.Packages) && (MY.Rank * 2 + 1) > 3`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseExpr(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	job := MustParse(`[ Memory = 64; OS = "linux"; Requirements = TARGET.FreeMemory >= MY.Memory && TARGET.OS == MY.OS ]`)
	machine := MustParse(`[ FreeMemory = 256; OS = "linux"; MaxJobs = 4; RunningJobs = 1; Requirements = MY.RunningJobs < MY.MaxJobs ]`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Match(job, machine) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkAdString(b *testing.B) {
	ad := MustParse(`[ VMID = "vm-1"; Memory = 64; Tags = {"a","b","c"}; Req = TARGET.X > 1 ]`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ad.String()
	}
}

// resourceAd builds the ten attributes of Plant.ResourceAd.
func resourceAd() *Ad {
	return New().Grow(10).
		SetString("Plant", "plantA").
		SetString("Arch", "x86").
		SetInt("FreeMemoryMB", 4096).
		SetInt("VMs", 3).
		SetInt("MaxVMs", 16).
		SetInt("FreeNetworks", 4).
		SetInt("CloneSlots", 2).
		SetInt("InflightClones", 0).
		SetBool("Draining", false).
		SetValue("GoldenImages", Strings("golden-32", "golden-64", "golden-256"))
}

// vmAd builds the ad a plant serves for an In-VIGO workspace: the
// creation's twenty attributes, one per action output among them, and
// the uptime a query states.
func vmAd() *Ad {
	return New().Grow(21).
		SetString("VMID", "vm-shop-17").SetString("Name", "lc-1000001-3").SetString("State", "running").
		SetInt("MemoryMB", 64).SetInt("DiskMB", 2048).SetString("Arch", "x86").SetString("Domain", "ufl.edu").
		SetString("Plant", "plant2").SetString("Backend", "vmware").SetString("HostOnlyNetwork", "plant2/vmnet3").
		SetString("GoldenImage", "invigo-64-vmware").SetInt("MatchedOps", 3).SetReal("CloneSecs", 16.47597397).
		SetInt("CreatedAt", 1287).SetString("IP", "10.3.0.4").SetString("MAC", "00:50:56:00:00:11").
		SetString("Out_ip", "10.3.0.4").SetString("Out_mac", "00:50:56:0f:42:44").SetString("Out_os", "redhat-8.0").
		SetString("Out_user", "user1000004").SetInt("UptimeSecs", 12)
}

// BenchmarkWith is what each query costs a plant: one UptimeSecs
// replacement on its frozen VM ad.
func BenchmarkWith(b *testing.B) {
	ad := vmAd().Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ad.With("UptimeSecs", Int(13+int64(i)))
	}
}

func BenchmarkAdBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resourceAd()
	}
}

func BenchmarkAdClone(b *testing.B) {
	ad := resourceAd()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ad.Clone()
	}
}

func BenchmarkAdGetInt(b *testing.B) {
	ad := resourceAd()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ad.GetInt("CloneSlots", 0) != 2 {
			b.Fatal("wrong value")
		}
	}
}

func BenchmarkAdDecodeXML(b *testing.B) {
	doc := resourceAd().AppendXML(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scanAd(doc); err != nil {
			b.Fatal(err)
		}
	}
}
