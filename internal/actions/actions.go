// Package actions is the catalog of configuration operations that DAG
// nodes can name. Each operation has a semantic effect on the simulated
// guest operating-system state (install a package, create a user, …), a
// calibrated duration model used by the discrete-event substrate, and
// validation rules (a user cannot be created twice; guest actions other
// than the OS install require an installed OS).
//
// The catalog covers the operations in the paper's Figure 3 In-VIGO
// virtual-workspace walk-through (install Red Hat, install VNC server,
// install web file manager, configure MAC/IP, create user, mount home
// directory, configure/start services) plus generic host-side device
// operations and custom scripts.
package actions

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"vmplants/internal/dag"
)

// Operation names in the catalog.
const (
	OpInstallOS        = "install-os"        // params: distro
	OpInstallPackage   = "install-package"   // params: name [, seconds]
	OpConfigureNetwork = "configure-network" // params: mac, ip
	OpCreateUser       = "create-user"       // params: name [, password]
	OpMountFS          = "mount-fs"          // params: source, mountpoint
	OpConfigureService = "configure-service" // params: name
	OpStartService     = "start-service"     // params: name
	OpRunScript        = "run-script"        // params: script [, seconds]
	OpSetCredential    = "set-credential"    // params: kind (ssh|x509), user
	OpAttachDevice     = "attach-device"     // host; params: device, image
	OpDetachDevice     = "detach-device"     // host; params: device
)

// State is the configuration-relevant state of a guest operating system.
// Golden images record a State snapshot; executing actions mutates it.
type State struct {
	OS          string            // installed distribution, "" for a blank machine
	Packages    map[string]bool   // installed packages
	Users       map[string]bool   // local user accounts
	Mounts      map[string]string // mountpoint → source
	Services    map[string]string // service → "configured" or "running"
	MAC, IP     string            // network identity
	Credentials map[string]string // credential kind → principal
	Devices     map[string]string // host-attached devices: device → image
	Outputs     map[string]string // accumulated action outputs (→ classad)
}

// NewState returns the state of a blank machine (the DAG START node).
func NewState() *State {
	return &State{
		Packages:    make(map[string]bool),
		Users:       make(map[string]bool),
		Mounts:      make(map[string]string),
		Services:    make(map[string]string),
		Credentials: make(map[string]string),
		Devices:     make(map[string]string),
		Outputs:     make(map[string]string),
	}
}

// Clone returns an independent deep copy.
func (s *State) Clone() *State {
	c := NewState()
	c.OS, c.MAC, c.IP = s.OS, s.MAC, s.IP
	for k, v := range s.Packages {
		c.Packages[k] = v
	}
	for k, v := range s.Users {
		c.Users[k] = v
	}
	for k, v := range s.Mounts {
		c.Mounts[k] = v
	}
	for k, v := range s.Services {
		c.Services[k] = v
	}
	for k, v := range s.Credentials {
		c.Credentials[k] = v
	}
	for k, v := range s.Devices {
		c.Devices[k] = v
	}
	for k, v := range s.Outputs {
		c.Outputs[k] = v
	}
	return c
}

// Summary renders a deterministic one-line description, for logs/tests.
func (s *State) Summary() string {
	pkgs := keys(s.Packages)
	users := keys(s.Users)
	return fmt.Sprintf("os=%s pkgs=%v users=%v ip=%s", orDash(s.OS), pkgs, users, orDash(s.IP))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// spec is one catalog entry.
type spec struct {
	target   dag.Target
	baseSecs float64 // mean duration in seconds
	jitter   float64 // lognormal sigma applied by Duration
	apply    func(st *State, p map[string]string) error
}

// catalog maps operation name → behaviour. Durations follow DESIGN.md
// §4: cheap identity operations are seconds; package installs tens of
// seconds; a full OS install is ~20 minutes and is only ever paid when
// partial matching misses entirely.
var catalog = map[string]spec{
	OpInstallOS: {target: dag.Guest, baseSecs: 1200, jitter: 0.10, apply: func(st *State, p map[string]string) error {
		distro := p["distro"]
		if distro == "" {
			return fmt.Errorf("install-os: missing distro parameter")
		}
		if st.OS != "" {
			return fmt.Errorf("install-os: OS %q already installed", st.OS)
		}
		st.OS = distro
		st.Outputs["os"] = distro
		return nil
	}},
	OpInstallPackage: {target: dag.Guest, baseSecs: 25, jitter: 0.20, apply: func(st *State, p map[string]string) error {
		name := p["name"]
		if name == "" {
			return fmt.Errorf("install-package: missing name parameter")
		}
		if st.OS == "" {
			return fmt.Errorf("install-package %q: no operating system installed", name)
		}
		if st.Packages[name] {
			return fmt.Errorf("install-package: %q already installed", name)
		}
		st.Packages[name] = true
		return nil
	}},
	OpConfigureNetwork: {target: dag.Guest, baseSecs: 2, jitter: 0.15, apply: func(st *State, p map[string]string) error {
		if st.OS == "" {
			return fmt.Errorf("configure-network: no operating system installed")
		}
		if p["ip"] == "" {
			return fmt.Errorf("configure-network: missing ip parameter")
		}
		st.MAC, st.IP = p["mac"], p["ip"]
		st.Outputs["ip"] = p["ip"]
		if p["mac"] != "" {
			st.Outputs["mac"] = p["mac"]
		}
		return nil
	}},
	OpCreateUser: {target: dag.Guest, baseSecs: 1, jitter: 0.15, apply: func(st *State, p map[string]string) error {
		name := p["name"]
		if name == "" {
			return fmt.Errorf("create-user: missing name parameter")
		}
		if st.OS == "" {
			return fmt.Errorf("create-user %q: no operating system installed", name)
		}
		if st.Users[name] {
			return fmt.Errorf("create-user: %q already exists", name)
		}
		st.Users[name] = true
		st.Outputs["user"] = name
		return nil
	}},
	OpMountFS: {target: dag.Guest, baseSecs: 3, jitter: 0.25, apply: func(st *State, p map[string]string) error {
		src, mp := p["source"], p["mountpoint"]
		if src == "" || mp == "" {
			return fmt.Errorf("mount-fs: need source and mountpoint parameters")
		}
		if st.OS == "" {
			return fmt.Errorf("mount-fs: no operating system installed")
		}
		if prev, busy := st.Mounts[mp]; busy {
			return fmt.Errorf("mount-fs: %q already mounts %q", mp, prev)
		}
		st.Mounts[mp] = src
		return nil
	}},
	OpConfigureService: {target: dag.Guest, baseSecs: 2, jitter: 0.15, apply: func(st *State, p map[string]string) error {
		name := p["name"]
		if name == "" {
			return fmt.Errorf("configure-service: missing name parameter")
		}
		if st.OS == "" {
			return fmt.Errorf("configure-service %q: no operating system installed", name)
		}
		st.Services[name] = "configured"
		return nil
	}},
	OpStartService: {target: dag.Guest, baseSecs: 2, jitter: 0.20, apply: func(st *State, p map[string]string) error {
		name := p["name"]
		if name == "" {
			return fmt.Errorf("start-service: missing name parameter")
		}
		if st.OS == "" {
			return fmt.Errorf("start-service %q: no operating system installed", name)
		}
		if st.Services[name] == "running" {
			return fmt.Errorf("start-service: %q already running", name)
		}
		st.Services[name] = "running"
		return nil
	}},
	OpRunScript: {target: dag.Guest, baseSecs: 5, jitter: 0.30, apply: func(st *State, p map[string]string) error {
		if p["script"] == "" {
			return fmt.Errorf("run-script: missing script parameter")
		}
		if st.OS == "" {
			return fmt.Errorf("run-script: no operating system installed")
		}
		st.Outputs["script:"+p["script"]] = "ok"
		return nil
	}},
	OpSetCredential: {target: dag.Guest, baseSecs: 1, jitter: 0.10, apply: func(st *State, p map[string]string) error {
		kind, user := p["kind"], p["user"]
		if kind != "ssh" && kind != "x509" {
			return fmt.Errorf("set-credential: kind must be ssh or x509, got %q", kind)
		}
		if st.OS == "" {
			return fmt.Errorf("set-credential: no operating system installed")
		}
		st.Credentials[kind] = user
		st.Outputs["credential:"+kind] = user
		return nil
	}},
	OpAttachDevice: {target: dag.Host, baseSecs: 1, jitter: 0.10, apply: func(st *State, p map[string]string) error {
		dev := p["device"]
		if dev == "" {
			return fmt.Errorf("attach-device: missing device parameter")
		}
		if _, busy := st.Devices[dev]; busy {
			return fmt.Errorf("attach-device: %q already attached", dev)
		}
		st.Devices[dev] = p["image"]
		return nil
	}},
	OpDetachDevice: {target: dag.Host, baseSecs: 0.5, jitter: 0.10, apply: func(st *State, p map[string]string) error {
		dev := p["device"]
		if _, ok := st.Devices[dev]; !ok {
			return fmt.Errorf("detach-device: %q not attached", dev)
		}
		delete(st.Devices, dev)
		return nil
	}},
}

// Known reports whether op is in the catalog.
func Known(op string) bool {
	_, ok := catalog[op]
	return ok
}

// Ops returns every catalog operation name, sorted.
func Ops() []string {
	out := make([]string, 0, len(catalog))
	for op := range catalog {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// DefaultTarget reports where the catalog says op runs.
func DefaultTarget(op string) (dag.Target, error) {
	s, ok := catalog[op]
	if !ok {
		return dag.Guest, fmt.Errorf("actions: unknown operation %q", op)
	}
	return s.target, nil
}

// Apply executes the action's semantic effect on st, validating
// preconditions. It does not model time; see Duration.
func Apply(st *State, a dag.Action) error {
	s, ok := catalog[a.Op]
	if !ok {
		return fmt.Errorf("actions: unknown operation %q", a.Op)
	}
	return s.apply(st, a.Params) // a nil map reads as empty; no apply writes to it
}

// Sampler is the subset of sim.RNG the duration model needs.
type Sampler interface {
	LogNormalMean(mean, sigma float64) float64
}

// Duration samples how long the action takes. A "seconds" parameter
// overrides the catalog's base duration (the paper's DAG actions carry
// client-provided scripts of arbitrary cost). A nil sampler returns the
// mean deterministically.
func Duration(a dag.Action, rng Sampler) (time.Duration, error) {
	s, ok := catalog[a.Op]
	if !ok {
		return 0, fmt.Errorf("actions: unknown operation %q", a.Op)
	}
	mean := s.baseSecs
	if ov := a.Params["seconds"]; ov != "" {
		f, err := strconv.ParseFloat(ov, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("actions: bad seconds override %q", ov)
		}
		mean = f
	}
	if rng == nil {
		return time.Duration(mean * float64(time.Second)), nil
	}
	return time.Duration(rng.LogNormalMean(mean, s.jitter) * float64(time.Second)), nil
}

// Validate checks that every action node in g names a known catalog
// operation and runs on the catalog's target.
func Validate(g *dag.Graph) error {
	for _, id := range g.ActionIDs() {
		n, _ := g.Node(id)
		s, ok := catalog[n.Action.Op]
		if !ok {
			return fmt.Errorf("actions: node %q: unknown operation %q", id, n.Action.Op)
		}
		if n.Action.Target != s.target {
			return fmt.Errorf("actions: node %q: operation %q runs on %s, not %s",
				id, n.Action.Op, s.target, n.Action.Target)
		}
		for _, h := range n.OnError.Handler {
			if !Known(h.Op) {
				return fmt.Errorf("actions: node %q: unknown handler operation %q", id, h.Op)
			}
		}
	}
	return nil
}

// Replay applies a sequence of actions to a fresh blank state, returning
// the resulting state. It is how golden-image states are reconstructed
// from their recorded action history.
func Replay(seq []dag.Action) (*State, error) {
	st := NewState()
	for i, a := range seq {
		if err := Apply(st, a); err != nil {
			return nil, fmt.Errorf("actions: replay step %d (%s): %w", i, a.Op, err)
		}
	}
	return st, nil
}
