// Command vmctl is the VMShop client: it submits XML creation requests,
// queries or destroys VMs, and reads the daemons' debug endpoints.
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
//
// The requests go through service.ShopClient; every /debug payload is
// decoded into the type the daemon encoded it from.
package main

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one invocation: where its output goes, how it reaches the
// shop, and how it will exit — 0, 1 once anything failed, 2 for a
// command line it cannot use. A subcommand reports a failure and
// returns; nothing after a failure prints results.
type cli struct {
	out, err io.Writer
	shop     string
	timeout  time.Duration
	code     int
}

// fail reports err on the error stream and marks the invocation failed.
func (c *cli) fail(err error) {
	fmt.Fprintf(c.err, "vmctl: %v\n", err)
	c.code = max(c.code, 1)
}

// command is one subcommand: what follows its name on the command line
// (for the usage text), how many of those are required operands, and
// what it does with them.
type command struct {
	name, synopsis string
	operands       int
	run            func(c *cli, args []string)
}

var commands = []command{
	{"create", "[-spec file | -example]", 0, create},
	{"query", "<vmid>", 1, rpc(func(sc *service.ShopClient, args []string) (string, error) {
		ad, err := sc.Query(core.VMID(args[0]))
		if err != nil {
			return "", err
		}
		return ad.String(), nil
	})},
	{"destroy", "<vmid>", 1, rpc(func(sc *service.ShopClient, args []string) (string, error) {
		return "destroyed " + args[0], sc.Destroy(core.VMID(args[0]))
	})},
	{"suspend", "<vmid>", 1, rpc(lifecycle(proto.LifecycleSuspend))},
	{"resume", "<vmid>", 1, rpc(lifecycle(proto.LifecycleResume))},
	{"publish", "<vmid> <image>", 2, rpc(func(sc *service.ShopClient, args []string) (string, error) {
		return fmt.Sprintf("published %s as image %q", args[0], args[1]), sc.Publish(core.VMID(args[0]), args[1])
	})},
	{"ping", "", 0, rpc(func(sc *service.ShopClient, _ []string) (string, error) {
		name, err := sc.Ping()
		return name + " is alive", err
	})},
	{"dot", "[-spec file]", 0, dot},
	{"stats", "[-debug addr] [-traces n]", 0, stats},
	{"trace", "<vmid> [-debug addr,addr...]", 1, trace},
	{"queue", "[-debug addr,addr...]", 0, queue},
	{"warehouse", "[-debug addr,addr...]", 0, warehouseView},
	{"scrub", "[-debug addr,addr...]", 0, scrub},
	{"journal", "[-debug addr,addr...] [-n k] [-verify]", 0, journalView},
	{"federation", "[-debug addr,addr...]", 0, federation},
}

// run is main without the process around it: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, err: stderr}
	fs := c.flags("vmctl")
	fs.StringVar(&c.shop, "shop", "localhost:7000", "VMShop address")
	fs.DurationVar(&c.timeout, "timeout", 60*time.Second, "request timeout")
	fs.Usage = func() {
		var forms []string
		for _, cmd := range commands {
			forms = append(forms, strings.TrimSpace(cmd.name+" "+cmd.synopsis))
		}
		fmt.Fprintln(stderr, "usage: vmctl [-shop addr] "+strings.Join(forms, " | "))
	}
	if fs.Parse(args) != nil {
		return 2
	}
	args = fs.Args()
	i := slices.IndexFunc(commands, func(cmd command) bool { return len(args) > 0 && cmd.name == args[0] })
	if i < 0 || len(args)-1 < commands[i].operands {
		fs.Usage()
		return 2
	}
	commands[i].run(c, args[1:])
	return c.code
}

// flags starts a flag set that reports a bad command line on the error
// stream, not by exiting.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.err)
	return fs
}

// parse reports whether args are a command line fs can use.
func (c *cli) parse(fs *flag.FlagSet, args []string) bool {
	if fs.Parse(args) != nil {
		c.code = 2
		return false
	}
	return true
}

// rpc makes a subcommand of one call on the shop: dial, call, print the
// line the call answers with.
func rpc(call func(sc *service.ShopClient, args []string) (string, error)) func(*cli, []string) {
	return func(c *cli, args []string) {
		sc, err := service.DialShop(c.shop, c.timeout)
		if err != nil {
			c.fail(err)
			return
		}
		defer sc.Close()
		if line, err := call(sc, args); err != nil {
			c.fail(err)
		} else {
			fmt.Fprintln(c.out, line)
		}
	}
}

func lifecycle(op string) func(*service.ShopClient, []string) (string, error) {
	return func(sc *service.ShopClient, args []string) (string, error) {
		state, err := sc.Lifecycle(core.VMID(args[0]), op)
		return args[0] + " is now " + state, err
	}
}

func create(c *cli, args []string) {
	fs := c.flags("create")
	specPath := fs.String("spec", "-", "XML creation request file ('-' = stdin)")
	example := fs.Bool("example", false, "print an example request and exit")
	if !c.parse(fs, args) {
		return
	}
	if *example {
		printExample(c)
		return
	}
	req, err := readRequest(*specPath)
	if err != nil {
		c.fail(err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		c.fail(fmt.Errorf("invalid spec: %v", err))
		return
	}
	rpc(func(sc *service.ShopClient, _ []string) (string, error) {
		id, ad, err := sc.Create(spec)
		return fmt.Sprintf("created %s\n%s", id, ad), err
	})(c, nil)
}

// readRequest parses the XML creation request at path ('-' = stdin).
func readRequest(path string) (*proto.CreateRequest, error) {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	blob, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("read spec: %v", err)
	}
	req := new(proto.CreateRequest)
	if err := xml.Unmarshal(blob, req); err != nil {
		return nil, fmt.Errorf("parse spec: %v", err)
	}
	return req, nil
}

// dot renders a request's configuration DAG in Graphviz dot syntax.
func dot(c *cli, args []string) {
	fs := c.flags("dot")
	specPath := fs.String("spec", "-", "XML creation request file ('-' = stdin)")
	if !c.parse(fs, args) {
		return
	}
	switch req, err := readRequest(*specPath); {
	case err != nil:
		c.fail(err)
	case req.Graph == nil:
		c.fail(errors.New("spec has no DAG"))
	default:
		fmt.Fprint(c.out, req.Graph.DOT())
	}
}

// printExample emits a complete In-VIGO-style workspace request.
func printExample(c *cli) {
	g, err := workload.InVigoDAG("alice", "00:50:56:00:00:2a", "10.1.0.42")
	if err != nil {
		c.fail(err)
		return
	}
	enc := xml.NewEncoder(c.out)
	enc.Indent("", "  ")
	err = enc.Encode(proto.CreateRequest{
		Name:     "workspace-alice",
		Arch:     "x86",
		MemoryMB: 64,
		DiskMB:   2048,
		Domain:   "ufl.edu",
		Graph:    g,
	})
	if err != nil {
		c.fail(err)
	}
	fmt.Fprintln(c.out)
}

// daemons parses a debug subcommand's flags — each takes -debug, a
// comma-separated list of daemon debug HTTP addresses (vmshopd :7070,
// vmplantd :7071), beside whatever the caller already defined on fs —
// and returns the addresses: none when the command line is no use.
func (c *cli) daemons(fs *flag.FlagSet, def string, args []string) (addrs []string) {
	list := fs.String("debug", def, "comma-separated daemon debug HTTP addresses")
	if !c.parse(fs, args) {
		return nil
	}
	for _, addr := range strings.Split(*list, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

func httpGet(addr, path string) ([]byte, error) {
	url := "http://" + addr + path
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

// fetch GETs http://addr/path and decodes the JSON body into a T — the
// type the daemon encoded it from.
func fetch[T any](addr, path string) (v T, err error) {
	body, err := httpGet(addr, path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("bad %s response from %s: %v", path, addr, err)
	}
	return v, nil
}

// each is what the debug subcommands are made of: fetch path from every
// daemon listed and render what it serves. A daemon without the
// endpoint gets a line saying what it lacks — or, when lacks is empty,
// fails the command there and then (false).
func each[T any](c *cli, addrs []string, path, lacks string, render func(addr string, v T)) bool {
	for _, addr := range addrs {
		v, err := fetch[T](addr, path)
		switch {
		case err == nil:
			render(addr, v)
		case lacks == "":
			c.fail(err)
			return false
		default:
			fmt.Fprintf(c.out, "%s: no %s (%v)\n", addr, lacks, err)
		}
	}
	return true
}

// instruments prints one slice of every daemon's /metrics snapshot: the
// named instruments, whatever extra adds, or the notice that there are
// none.
func instruments(c *cli, addrs, names []string, width int, none string, extra func(addr string, snap map[string]any) bool) {
	each(c, addrs, "/metrics", "", func(addr string, snap map[string]any) {
		fmt.Fprintf(c.out, "%s:\n", addr)
		found := printInstruments(c.out, snap, names, width)
		if extra != nil {
			found = extra(addr, snap) || found
		}
		if !found {
			fmt.Fprintln(c.out, "  "+none)
		}
	})
}

// printInstruments prints the named instruments a /metrics snapshot
// holds, reporting whether there were any.
func printInstruments(w io.Writer, snap map[string]any, names []string, width int) (found bool) {
	for _, n := range names {
		if v, ok := snap[n]; ok {
			fmt.Fprintf(w, "  %-*s %v\n", width, n, v)
			found = true
		}
	}
	return found
}

func num(v any) string {
	f, ok := v.(float64)
	if !ok {
		return fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("%.4g", f)
}

// traceMeta reads the ring accounting off the first line of a
// /debug/traces body and returns the span lines after it.
func traceMeta(body []byte) (meta telemetry.TraceMeta, spans string) {
	line, spans, _ := strings.Cut(string(body), "\n")
	if json.Unmarshal([]byte(line), &meta) != nil || !meta.Meta {
		return telemetry.TraceMeta{}, string(body)
	}
	return meta, spans
}

// stats fetches a daemon's /metrics snapshot and pretty-prints it, then
// its SLO health; with -traces N it also dumps the N most recent spans
// from /debug/traces.
func stats(c *cli, args []string) {
	fs := c.flags("stats")
	addr := fs.String("debug", "localhost:7070", "daemon debug HTTP address (vmshopd :7070, vmplantd :7071)")
	traces := fs.Int("traces", 0, "also print the N most recent trace spans (0 = none)")
	if !c.parse(fs, args) {
		return
	}
	snap, err := fetch[map[string]any](*addr, "/metrics")
	if err != nil {
		c.fail(err)
		return
	}
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		switch v := snap[n].(type) {
		case map[string]any:
			fmt.Fprintf(c.out, "%-32s count=%v mean=%s p50=%s p90=%s p99=%s max=%s\n", n,
				v["count"], num(v["mean"]), num(v["p50"]), num(v["p90"]), num(v["p99"]), num(v["max"]))
		default:
			fmt.Fprintf(c.out, "%-32s %v\n", n, v)
		}
	}
	// Span-ring accounting rides the /debug/traces meta line; limit=0
	// fetches the header without the span payload.
	if body, err := httpGet(*addr, "/debug/traces?limit=0"); err == nil {
		if meta, _ := traceMeta(body); meta.Meta {
			fmt.Fprintf(c.out, "%-32s %d\n", "tracer.dropped", meta.Dropped)
		}
	}
	if hr, err := fetch[telemetry.HealthReport](*addr, "/debug/health"); err == nil {
		fmt.Fprintf(c.out, "\n# slo health at %.3fs virtual: healthy=%v\n", hr.VSecs, hr.Healthy)
		for _, o := range hr.Objectives {
			fmt.Fprintf(c.out, "%-32s ok=%-5v value=%s bound=%s burn=%s samples=%d\n",
				o.Name, o.OK, num(o.Value), num(o.Bound), num(o.Burn), o.Samples)
		}
	}
	if *traces > 0 {
		body, err := httpGet(*addr, fmt.Sprintf("/debug/traces?limit=%d", *traces))
		if err != nil {
			c.fail(err)
			return
		}
		if meta, spans := traceMeta(body); meta.Meta {
			fmt.Fprintf(c.out, "\n# %d most recent spans (%d evicted from ring, JSONL)\n%s", meta.Spans, meta.Dropped, spans)
		} else {
			fmt.Fprintf(c.out, "\n# most recent %d spans (JSONL)\n%s", *traces, body)
		}
	}
}

// trace reconstructs one creation's end-to-end timeline by merging the
// /debug/creation/<id> payloads of every listed daemon: the
// flight-recorder events in virtual-time order, then the span tree
// rooted at shop.create with the plant-side subtree — joined across the
// process boundary by the propagated trace context — attached beneath.
func trace(c *cli, args []string) {
	vmid := args[0]
	addrs := c.daemons(c.flags("trace"), "localhost:7070,localhost:7071", args[1:])
	var (
		events  []telemetry.FlightRecord
		spans   []telemetry.SpanRecord
		dropped uint64
		seen    = map[uint64]bool{}
	)
	ok := each(c, addrs, "/debug/creation/"+vmid, "", func(_ string, rep telemetry.CreationReport) {
		events = append(events, rep.Events...)
		for _, s := range rep.Spans {
			if !seen[s.ID] {
				seen[s.ID] = true
				spans = append(spans, s)
			}
		}
		dropped += rep.Dropped
	})
	if !ok || len(addrs) == 0 {
		return
	}
	if len(events) == 0 && len(spans) == 0 {
		c.fail(fmt.Errorf("no trace for %s on %d daemon(s)", vmid, len(addrs)))
		return
	}

	fmt.Fprintf(c.out, "creation %s: %d flight events, %d spans from %d daemon(s)\n",
		vmid, len(events), len(spans), len(addrs))
	if dropped > 0 {
		fmt.Fprintf(c.out, "warning: %d spans evicted from daemon rings; the tree may be incomplete\n", dropped)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].VSecs != events[j].VSecs {
			return events[i].VSecs < events[j].VSecs
		}
		return events[i].Seq < events[j].Seq
	})
	for _, ev := range events {
		fmt.Fprintf(c.out, "  %10.3fs  %-14s %s\n", ev.VSecs, ev.Kind, ev.Detail)
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
	fmt.Fprintln(c.out, "span tree:")
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, s := range children[id] {
			status := ""
			if s.Err != "" {
				status = "  ERR: " + s.Err
			}
			fmt.Fprintf(c.out, "  %10.3fs  %s%s (%.3fs)%s\n",
				s.VStart, strings.Repeat("  ", depth), s.Name, s.VSecs, status)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
}

// queue summarizes the creation pipeline's admission state across one
// or more daemons: per-plant in-flight clones and admission queue depth,
// plus the shop-side batch backlog where those gauges exist.
func queue(c *cli, args []string) {
	// Only the admission-control surface; everything else is `stats`.
	gauges := []string{
		"shop.batch_queue_depth",
		"shop.inflight_creates",
		"plant.clone_inflight",
		"plant.clone_inflight_max",
		"plant.admission_queue",
	}
	instruments(c, c.daemons(c.flags("queue"), "localhost:7070", args), gauges, 26,
		"no pipeline metrics (daemon runs neither a shop nor a plant?)",
		func(_ string, snap map[string]any) bool {
			v, ok := snap["plant.admission_wait_secs"].(map[string]any)
			if ok {
				fmt.Fprintf(c.out, "  %-26s count=%v mean=%s p99=%s max=%s\n",
					"plant.admission_wait_secs", v["count"], num(v["mean"]), num(v["p99"]), num(v["max"]))
			}
			return ok
		})
}

// warehouseView summarizes the image store across one or more daemons:
// published and derived image counts, byte accounting against the
// capacity budget, retirement churn, and the hot clone cache.
func warehouseView(c *cli, args []string) {
	instruments(c, c.daemons(c.flags("warehouse"), "localhost:7070", args), []string{
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
	}, 26, "no warehouse metrics (daemon runs no plant?)", nil)
}

// scrub summarizes the warehouse's data-integrity state across one or
// more daemons: scrub cadence and verification counts, detected
// corruptions, quarantine and repair activity, plus the current
// quarantine list from /debug/warehouse where the daemon exposes it.
func scrub(c *cli, args []string) {
	instruments(c, c.daemons(c.flags("scrub"), "localhost:7071", args), []string{
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
	}, 32, "no integrity metrics (daemon runs no warehouse?)",
		func(addr string, _ map[string]any) bool {
			// The quarantine list lives on its own endpoint; daemons
			// without a warehouse simply do not serve it.
			state, err := fetch[warehouse.DebugState](addr, "/debug/warehouse")
			if err != nil {
				return false
			}
			if len(state.Quarantine) == 0 {
				fmt.Fprintln(c.out, "  quarantine: empty")
			}
			for _, q := range state.Quarantine {
				fmt.Fprintf(c.out, "  quarantine: %s (%s)\n", q.Image, q.Reason)
			}
			return false
		})
}

// journalView tails and verifies each daemon's control-plane event log
// over its /debug/journal endpoint.
func journalView(c *cli, args []string) {
	fs := c.flags("journal")
	tail := fs.Int("n", 20, "records to tail per daemon (0 = all)")
	verify := fs.Bool("verify", false, "only print checksum verification counts")
	addrs := c.daemons(fs, "localhost:7070,localhost:7071", args)
	bad := 0
	each(c, addrs, fmt.Sprintf("/debug/journal?n=%d", *tail), "journal", func(addr string, st journal.DebugState) {
		fmt.Fprintf(c.out, "%s: %s seq=%d segments=%d bytes=%d verified %d good / %d bad\n",
			addr, st.Dir, st.Seq, st.Segments, st.Bytes, st.Good, st.Bad)
		bad += st.Bad
		if *verify {
			return
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
			fmt.Fprintln(c.out, line)
		}
	})
	if bad > 0 {
		c.fail(fmt.Errorf("%d journal records failed checksum verification", bad))
	}
}

// federation summarizes each shop daemon's federation state from its
// /debug/federation endpoint: the cell's peers, cross-cell forwarding
// routes, and the forwarding counters from /metrics.
func federation(c *cli, args []string) {
	addrs := c.daemons(c.flags("federation"), "localhost:7070", args)
	counters := []string{
		"shop.peer_bid_rounds",
		"shop.forwarded_creates",
		"shop.forward_failures",
		"shop.served_forwards",
	}
	each(c, addrs, "/debug/federation", "federation state", func(addr string, st shop.FederationStatus) {
		fmt.Fprintf(c.out, "%s: cell %q, peers %s\n", addr, st.Shop, strings.Join(st.Peers, ","))
		for _, f := range st.Forwarded {
			fmt.Fprintf(c.out, "  %s -> %s as %s\n", f.LocalID, f.Peer, f.RemoteID)
		}
		if snap, err := fetch[map[string]any](addr, "/metrics"); err == nil {
			printInstruments(c.out, snap, counters, 26)
		}
	})
}
