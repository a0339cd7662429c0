// Command vmctl is the VMShop client: it submits XML creation requests
// and queries or destroys VMs.
//
// Usage:
//
//	vmctl -shop localhost:7000 create -spec request.xml
//	vmctl -shop localhost:7000 create -example > request.xml
//	vmctl -shop localhost:7000 query vm-shop-1
//	vmctl -shop localhost:7000 destroy vm-shop-1
//	vmctl stats -debug localhost:7070
//	vmctl trace vm-shop-1 -debug localhost:7070,localhost:7071
//	vmctl queue -debug localhost:7070,localhost:7071
//	vmctl fleet -debug localhost:7070
package main

import (
	"encoding/json"
	"encoding/xml"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/telemetry"
	"vmplants/internal/workload"
)

func main() {
	shopAddr := flag.String("shop", "localhost:7000", "VMShop address")
	timeout := flag.Duration("timeout", 60*time.Second, "request timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "create":
		doCreate(*shopAddr, *timeout, args[1:])
	case "query":
		requireID(args)
		doSimple(*shopAddr, *timeout, &proto.Message{Kind: proto.KindQueryRequest,
			Query: &proto.QueryRequest{VMID: args[1]}})
	case "destroy":
		requireID(args)
		doSimple(*shopAddr, *timeout, &proto.Message{Kind: proto.KindDestroyRequest,
			Destroy: &proto.DestroyRequest{VMID: args[1]}})
	case "suspend", "resume":
		requireID(args)
		doSimple(*shopAddr, *timeout, &proto.Message{Kind: proto.KindLifecycleRequest,
			Lifecycle: &proto.LifecycleRequest{VMID: args[1], Op: args[0]}})
	case "ping":
		doSimple(*shopAddr, *timeout, &proto.Message{Kind: proto.KindPingRequest,
			Ping: &proto.PingRequest{}})
	case "dot":
		doDot(args[1:])
	case "stats":
		doStats(args[1:])
	case "trace":
		requireID(args)
		doTrace(args[1], args[2:])
	case "queue":
		doQueue(args[1:])
	case "warehouse":
		doWarehouse(args[1:])
	case "scrub":
		doScrub(args[1:])
	case "journal":
		doJournal(args[1:])
	case "federation":
		doFederation(args[1:])
	case "fleet":
		doFleet(args[1:])
	case "publish":
		if len(args) < 3 {
			usage()
		}
		doSimple(*shopAddr, *timeout, &proto.Message{Kind: proto.KindPublishRequest,
			Publish: &proto.PublishRequest{VMID: args[1], Image: args[2]}})
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vmctl [-shop addr] create [-spec file | -example] | query <vmid> | destroy <vmid> | suspend <vmid> | resume <vmid> | publish <vmid> <image> | ping | dot [-spec file] | stats [-debug addr] [-traces n] | trace <vmid> [-debug addr,addr...] | queue [-debug addr,addr...] | warehouse [-debug addr,addr...] | scrub [-debug addr,addr...] | journal [-debug addr,addr...] [-n k] [-verify] | federation [-debug addr,addr...] | fleet [-debug addr,addr...]")
	os.Exit(2)
}

func requireID(args []string) {
	if len(args) < 2 {
		usage()
	}
}

func doCreate(shopAddr string, timeout time.Duration, args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	specPath := fs.String("spec", "-", "XML creation request file ('-' = stdin)")
	example := fs.Bool("example", false, "print an example request and exit")
	fs.Parse(args)

	if *example {
		printExample()
		return
	}
	req := readRequest(*specPath)
	if _, err := req.Spec(); err != nil {
		log.Fatalf("vmctl: invalid spec: %v", err)
	}
	doSimple(shopAddr, timeout, &proto.Message{Kind: proto.KindCreateRequest, Create: req})
}

// readRequest parses the XML creation request at path ('-' = stdin).
func readRequest(path string) *proto.CreateRequest {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("vmctl: %v", err)
		}
		defer f.Close()
		src = f
	}
	blob, err := io.ReadAll(src)
	if err != nil {
		log.Fatalf("vmctl: read spec: %v", err)
	}
	req := new(proto.CreateRequest)
	if err := xml.Unmarshal(blob, req); err != nil {
		log.Fatalf("vmctl: parse spec: %v", err)
	}
	return req
}

func doSimple(shopAddr string, timeout time.Duration, m *proto.Message) {
	c, err := proto.Dial(shopAddr, timeout)
	if err != nil {
		log.Fatalf("vmctl: %v", err)
	}
	defer c.Close()
	// Idempotent requests (query, ping) ride the standard retry policy;
	// mutating kinds are never retransmitted.
	c.Retry = service.DefaultRetry
	resp, err := c.Call(m)
	if err != nil {
		log.Fatalf("vmctl: %v", err)
	}
	switch resp.Kind {
	case proto.KindLifecycleResponse:
		fmt.Printf("%s is now %s\n", resp.Lifecycled.VMID, resp.Lifecycled.State)
	case proto.KindPublishResponse:
		fmt.Printf("published %s as image %q\n", resp.Published.VMID, resp.Published.Image)
	case proto.KindCreateResponse:
		fmt.Printf("created %s\n%s\n", resp.Created.VMID, resp.Created.Ad)
	case proto.KindQueryResponse:
		fmt.Printf("%s\n", resp.Queried.Ad)
	case proto.KindDestroyResponse:
		fmt.Printf("destroyed %s\n", resp.Destroyed.VMID)
	case proto.KindPingResponse:
		fmt.Printf("%s is alive\n", resp.Pong.Service)
	default:
		log.Fatalf("vmctl: unexpected response %q", resp.Kind)
	}
}

// doStats fetches a daemon's /metrics snapshot and pretty-prints it;
// with -traces N it also dumps the N most recent spans from
// /debug/traces.
func doStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	debugAddr := fs.String("debug", "localhost:7070", "daemon debug HTTP address (vmshopd :7070, vmplantd :7071)")
	traces := fs.Int("traces", 0, "also print the N most recent trace spans (0 = none)")
	fs.Parse(args)

	var snap map[string]any
	if err := getJSON(*debugAddr, "/metrics", &snap); err != nil {
		log.Fatalf("vmctl: %v", err)
	}
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		switch v := snap[n].(type) {
		case map[string]any:
			fmt.Printf("%-32s count=%v mean=%s p50=%s p90=%s p99=%s max=%s\n", n,
				v["count"], num(v["mean"]), num(v["p50"]), num(v["p90"]), num(v["p99"]), num(v["max"]))
		default:
			fmt.Printf("%-32s %v\n", n, v)
		}
	}
	// Span-ring accounting rides the /debug/traces meta line; limit=0
	// fetches the header without the span payload.
	if body, err := httpGet(fmt.Sprintf("http://%s/debug/traces?limit=0", *debugAddr)); err == nil {
		var meta telemetry.TraceMeta
		line, _, _ := strings.Cut(string(body), "\n")
		if json.Unmarshal([]byte(line), &meta) == nil && meta.Meta {
			fmt.Printf("%-32s %d\n", "tracer.dropped", meta.Dropped)
		}
	}
	var hr telemetry.HealthReport
	if getJSON(*debugAddr, "/debug/health", &hr) == nil {
		fmt.Printf("\n# slo health at %.3fs virtual: healthy=%v\n", hr.VSecs, hr.Healthy)
		for _, o := range hr.Objectives {
			fmt.Printf("%-32s ok=%-5v value=%s bound=%s burn=%s samples=%d\n",
				o.Name, o.OK, num(o.Value), num(o.Bound), num(o.Burn), o.Samples)
		}
	}
	if *traces > 0 {
		body, err := httpGet(fmt.Sprintf("http://%s/debug/traces?limit=%d", *debugAddr, *traces))
		if err != nil {
			log.Fatalf("vmctl: %v", err)
		}
		meta, rest, _ := strings.Cut(string(body), "\n")
		var tm telemetry.TraceMeta
		if json.Unmarshal([]byte(meta), &tm) == nil && tm.Meta {
			fmt.Printf("\n# %d most recent spans (%d evicted from ring, JSONL)\n%s", tm.Spans, tm.Dropped, rest)
		} else {
			fmt.Printf("\n# most recent %d spans (JSONL)\n%s", *traces, body)
		}
	}
}

// doTrace reconstructs one creation's end-to-end timeline by merging
// the /debug/creation/<id> payloads of every listed daemon: the
// flight-recorder events in virtual-time order, then the span tree
// rooted at shop.create with the plant-side subtree — joined across the
// process boundary by the propagated trace context — attached beneath.
func doTrace(vmid string, args []string) {
	addrs := debugAddrs(flag.NewFlagSet("trace", flag.ExitOnError), "localhost:7070,localhost:7071", args)
	var (
		events  []telemetry.FlightRecord
		spans   []telemetry.SpanRecord
		dropped uint64
		seen    = map[uint64]bool{}
		daemons int
	)
	for _, addr := range addrs {
		var rep telemetry.CreationReport
		if err := getJSON(addr, "/debug/creation/"+vmid, &rep); err != nil {
			log.Fatalf("vmctl: %v", err)
		}
		daemons++
		events = append(events, rep.Events...)
		for _, s := range rep.Spans {
			if !seen[s.ID] {
				seen[s.ID] = true
				spans = append(spans, s)
			}
		}
		dropped += rep.Dropped
	}
	if len(events) == 0 && len(spans) == 0 {
		log.Fatalf("vmctl: no trace for %s on %d daemon(s)", vmid, daemons)
	}

	fmt.Printf("creation %s: %d flight events, %d spans from %d daemon(s)\n",
		vmid, len(events), len(spans), daemons)
	if dropped > 0 {
		fmt.Printf("warning: %d spans evicted from daemon rings; the tree may be incomplete\n", dropped)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].VSecs != events[j].VSecs {
			return events[i].VSecs < events[j].VSecs
		}
		return events[i].Seq < events[j].Seq
	})
	for _, ev := range events {
		fmt.Printf("  %10.3fs  %-14s %s\n", ev.VSecs, ev.Kind, ev.Detail)
	}

	// Parents referencing spans no daemon returned (evicted, or the
	// daemon was not listed) degrade to roots instead of vanishing.
	children := map[uint64][]telemetry.SpanRecord{}
	for _, s := range spans {
		parent := s.Parent
		if !seen[parent] {
			parent = 0
		}
		children[parent] = append(children[parent], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].VStart != kids[j].VStart {
				return kids[i].VStart < kids[j].VStart
			}
			return kids[i].ID < kids[j].ID
		})
	}
	fmt.Println("span tree:")
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, s := range children[id] {
			status := ""
			if s.Err != "" {
				status = "  ERR: " + s.Err
			}
			fmt.Printf("  %10.3fs  %s%s (%.3fs)%s\n",
				s.VStart, strings.Repeat("  ", depth), s.Name, s.VSecs, status)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
}

// doQueue summarizes the creation pipeline's admission state across one
// or more daemons: per-plant in-flight clones and admission queue depth,
// plus the shop-side batch backlog where those gauges exist.
func doQueue(args []string) {
	// Only the admission-control surface; everything else is `stats`.
	gauges := []string{
		"shop.batch_queue_depth",
		"shop.inflight_creates",
		"plant.clone_inflight",
		"plant.clone_inflight_max",
		"plant.admission_queue",
	}
	metricsView(debugAddrs(flag.NewFlagSet("queue", flag.ExitOnError), "localhost:7070", args), gauges, 26,
		"no pipeline metrics (daemon runs neither a shop nor a plant?)",
		func(_ string, snap map[string]any) bool {
			v, ok := snap["plant.admission_wait_secs"].(map[string]any)
			if ok {
				fmt.Printf("  %-26s count=%v mean=%s p99=%s max=%s\n",
					"plant.admission_wait_secs", v["count"], num(v["mean"]), num(v["p99"]), num(v["max"]))
			}
			return ok
		})
}

// doWarehouse summarizes the image store across one or more daemons:
// published and derived image counts, byte accounting against the
// capacity budget, retirement churn, and the hot clone cache.
func doWarehouse(args []string) {
	instruments := []string{
		"warehouse.images",
		"warehouse.derived_images",
		"warehouse.bytes_used",
		"warehouse.publishes",
		"warehouse.retirements",
		"plant.publish_backs",
		"warehouse.cache_size",
		"warehouse.cache_hits",
		"warehouse.cache_misses",
		"warehouse.corruptions_detected",
		"warehouse.quarantined",
		"warehouse.quarantine_size",
	}
	metricsView(debugAddrs(flag.NewFlagSet("warehouse", flag.ExitOnError), "localhost:7070", args), instruments, 26,
		"no warehouse metrics (daemon runs no plant?)", nil)
}

// doScrub summarizes the warehouse's data-integrity state across one or
// more daemons: scrub cadence and verification counts, detected
// corruptions, quarantine and repair activity, plus the current
// quarantine list from /debug/warehouse where the daemon exposes it.
func doScrub(args []string) {
	instruments := []string{
		"warehouse.scrub_passes",
		"warehouse.scrub_verified",
		"warehouse.corruptions_detected",
		"warehouse.quarantined",
		"warehouse.quarantine_size",
		"warehouse.repairs",
		"warehouse.repair_bytes",
		"warehouse.scrub_retirements",
		"plant.verified_clones",
		"fault.injections.corrupt-extent",
		"fault.injections.torn-write",
	}
	metricsView(debugAddrs(flag.NewFlagSet("scrub", flag.ExitOnError), "localhost:7071", args), instruments, 32,
		"no integrity metrics (daemon runs no warehouse?)",
		func(addr string, _ map[string]any) bool {
			// The quarantine list lives on its own endpoint; daemons
			// without a warehouse simply do not serve it.
			var state struct {
				Quarantine []struct {
					Image  string `json:"image"`
					Reason string `json:"reason"`
				} `json:"quarantine"`
			}
			if getJSON(addr, "/debug/warehouse", &state) != nil {
				return false
			}
			if len(state.Quarantine) == 0 {
				fmt.Println("  quarantine: empty")
			}
			for _, q := range state.Quarantine {
				fmt.Printf("  quarantine: %s (%s)\n", q.Image, q.Reason)
			}
			return false
		})
}

// doJournal tails and verifies each daemon's control-plane event log
// over its /debug/journal endpoint.
func doJournal(args []string) {
	fs := flag.NewFlagSet("journal", flag.ExitOnError)
	tail := fs.Int("n", 20, "records to tail per daemon (0 = all)")
	verify := fs.Bool("verify", false, "only print checksum verification counts")
	addrs := debugAddrs(fs, "localhost:7070,localhost:7071", args)

	bad := 0
	for _, addr := range addrs {
		var st struct {
			Dir      string `json:"dir"`
			Seq      uint64 `json:"seq"`
			Segments int    `json:"segments"`
			Bytes    int64  `json:"bytes"`
			Good     int    `json:"good_records"`
			Bad      int    `json:"bad_records"`
			Records  []struct {
				Seq    uint64            `json:"seq"`
				Kind   string            `json:"kind"`
				Key    string            `json:"key"`
				Fields map[string]string `json:"fields"`
			} `json:"records"`
		}
		if err := getJSON(addr, fmt.Sprintf("/debug/journal?n=%d", *tail), &st); err != nil {
			fmt.Printf("%s: no journal (%v)\n", addr, err)
			continue
		}
		fmt.Printf("%s: %s seq=%d segments=%d bytes=%d verified %d good / %d bad\n",
			addr, st.Dir, st.Seq, st.Segments, st.Bytes, st.Good, st.Bad)
		bad += st.Bad
		if *verify {
			continue
		}
		for _, r := range st.Records {
			line := fmt.Sprintf("  %6d %-18s %s", r.Seq, r.Kind, r.Key)
			keys := make([]string, 0, len(r.Fields))
			for k := range r.Fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf(" %s=%q", k, r.Fields[k])
			}
			fmt.Println(line)
		}
	}
	if bad > 0 {
		log.Fatalf("vmctl: %d journal records failed checksum verification", bad)
	}
}

// doFederation summarizes each shop daemon's federation state from its
// /debug/federation endpoint: the cell's peers, cross-cell forwarding
// routes, and the forwarding counters from /metrics.
func doFederation(args []string) {
	counters := []string{
		"shop.peer_bid_rounds",
		"shop.forwarded_creates",
		"shop.forward_failures",
		"shop.served_forwards",
	}
	for _, addr := range debugAddrs(flag.NewFlagSet("federation", flag.ExitOnError), "localhost:7070", args) {
		var st struct {
			Shop      string `json:"shop"`
			Peers     []string
			Forwarded []struct {
				LocalID  string `json:"local_id"`
				Peer     string `json:"peer"`
				RemoteID string `json:"remote_id"`
			} `json:"forwarded"`
		}
		if err := getJSON(addr, "/debug/federation", &st); err != nil {
			fmt.Printf("%s: no federation state (%v)\n", addr, err)
			continue
		}
		fmt.Printf("%s: cell %q, peers %s\n", addr, st.Shop, strings.Join(st.Peers, ","))
		for _, f := range st.Forwarded {
			fmt.Printf("  %s -> %s as %s\n", f.LocalID, f.Peer, f.RemoteID)
		}
		var snap map[string]any
		if getJSON(addr, "/metrics", &snap) == nil {
			printInstruments(snap, counters, 26)
		}
	}
}

// doFleet summarizes each shop daemon's elastic-fleet state from its
// /debug/fleet endpoint: every plant's drain state, VM and in-flight
// counts, plus the admission gate and overload/retirement counters.
func doFleet(args []string) {
	for _, addr := range debugAddrs(flag.NewFlagSet("fleet", flag.ExitOnError), "localhost:7070", args) {
		var st struct {
			Shop   string `json:"shop"`
			Plants []struct {
				Name      string `json:"name"`
				State     string `json:"state"`
				ActiveVMs int    `json:"active_vms"`
				Inflight  int    `json:"inflight"`
			} `json:"plants"`
			AdmissionQueue int   `json:"admission_queue"`
			InflightAtGate int   `json:"inflight_at_gate"`
			ShedCreates    int64 `json:"shed_creates"`
			StaleBids      int64 `json:"stale_bids"`
			Drains         int64 `json:"drains"`
			Retirements    int64 `json:"retirements"`
		}
		if err := getJSON(addr, "/debug/fleet", &st); err != nil {
			fmt.Printf("%s: no fleet state (%v)\n", addr, err)
			continue
		}
		fmt.Printf("%s: shop %q, gate queue=%d inflight=%d, shed=%d stale_bids=%d drains=%d retired=%d\n",
			addr, st.Shop, st.AdmissionQueue, st.InflightAtGate,
			st.ShedCreates, st.StaleBids, st.Drains, st.Retirements)
		for _, pl := range st.Plants {
			vms := fmt.Sprintf("%d", pl.ActiveVMs)
			if pl.ActiveVMs < 0 {
				vms = "?"
			}
			fmt.Printf("  %-12s %-9s vms=%-4s inflight=%d\n", pl.Name, pl.State, vms, pl.Inflight)
		}
	}
}

// debugAddrs parses a debug subcommand's flags — each takes -debug, a
// comma-separated list of daemon debug HTTP addresses (vmshopd :7070,
// vmplantd :7071), beside whatever the caller already defined on fs —
// and returns the addresses.
func debugAddrs(fs *flag.FlagSet, def string, args []string) []string {
	list := fs.String("debug", def, "comma-separated daemon debug HTTP addresses")
	fs.Parse(args)
	var addrs []string
	for _, addr := range strings.Split(*list, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// getJSON fetches http://addr/path and decodes the JSON body into v; a
// daemon that answers with something else is fatal.
func getJSON(addr, path string, v any) error {
	body, err := httpGet("http://" + addr + path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatalf("vmctl: bad %s response from %s: %v", path, addr, err)
	}
	return nil
}

// printInstruments prints the named instruments a /metrics snapshot
// holds, reporting whether there were any.
func printInstruments(snap map[string]any, names []string, width int) (found bool) {
	for _, n := range names {
		if v, ok := snap[n]; ok {
			fmt.Printf("  %-*s %v\n", width, n, v)
			found = true
		}
	}
	return found
}

// metricsView prints one slice of every daemon's /metrics snapshot:
// the named instruments, whatever extra adds, or the empty notice.
func metricsView(addrs, instruments []string, width int, empty string, extra func(addr string, snap map[string]any) bool) {
	for _, addr := range addrs {
		var snap map[string]any
		if err := getJSON(addr, "/metrics", &snap); err != nil {
			log.Fatalf("vmctl: %v", err)
		}
		fmt.Printf("%s:\n", addr)
		found := printInstruments(snap, instruments, width)
		if extra != nil {
			found = extra(addr, snap) || found
		}
		if !found {
			fmt.Println("  " + empty)
		}
	}
}

func num(v any) string {
	f, ok := v.(float64)
	if !ok {
		return fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("%.4g", f)
}

func httpGet(url string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// doDot renders a request's configuration DAG in Graphviz dot syntax.
func doDot(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	specPath := fs.String("spec", "-", "XML creation request file ('-' = stdin)")
	fs.Parse(args)
	req := readRequest(*specPath)
	if req.Graph == nil {
		log.Fatal("vmctl: spec has no DAG")
	}
	fmt.Print(req.Graph.DOT())
}

// printExample emits a complete In-VIGO-style workspace request.
func printExample() {
	g, err := workload.InVigoDAG("alice", "00:50:56:00:00:2a", "10.1.0.42")
	if err != nil {
		log.Fatalf("vmctl: %v", err)
	}
	req := proto.CreateRequest{
		Name:     "workspace-alice",
		Arch:     "x86",
		MemoryMB: 64,
		DiskMB:   2048,
		Domain:   "ufl.edu",
		Graph:    g,
	}
	enc := xml.NewEncoder(os.Stdout)
	enc.Indent("", "  ")
	if err := enc.Encode(req); err != nil {
		log.Fatalf("vmctl: %v", err)
	}
	fmt.Println()
}
