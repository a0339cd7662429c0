// Package registry is the discovery substrate of the service
// architecture (paper §3, Figure 1): services publish bindings, clients
// discover them and bind. The paper delegates this to "standard
// mechanisms … (e.g. UDDI)" and scopes the underlying machinery out;
// this package provides the minimal equivalent the rest of the system
// needs — leased publish/discover/bind with explicit clock injection so
// it works identically under the simulation kernel and wall time.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Binding is one published service endpoint.
type Binding struct {
	// Service is the service type, e.g. "vmshop" or "vmplant".
	Service string
	// Name is the instance name, unique within a service.
	Name string
	// Addr is the endpoint description (host:port, or an in-process key).
	Addr string
	// Expires is when the lease lapses (zero means no expiry).
	Expires time.Time
}

// Registry is a leased service directory, safe for concurrent use.
type Registry struct {
	// Now supplies the registry's notion of time; defaults to time.Now.
	// Simulations inject a virtual clock.
	Now func() time.Time

	mu       sync.Mutex
	bindings map[string]map[string]Binding // service → name → binding
}

// New returns an empty registry using wall time.
func New() *Registry {
	return &Registry{Now: time.Now, bindings: make(map[string]map[string]Binding)}
}

// Publish registers (or refreshes) a binding with the given lease
// duration; ttl <= 0 means the binding does not expire.
func (r *Registry) Publish(b Binding, ttl time.Duration) error {
	if b.Service == "" || b.Name == "" {
		return fmt.Errorf("registry: binding needs service and name, got %q/%q", b.Service, b.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ttl > 0 {
		b.Expires = r.Now().Add(ttl)
	} else {
		b.Expires = time.Time{}
	}
	m := r.bindings[b.Service]
	if m == nil {
		m = make(map[string]Binding)
		r.bindings[b.Service] = m
	}
	m[b.Name] = b
	return nil
}

// live reports whether b's lease is current.
func (r *Registry) live(b Binding) bool {
	return b.Expires.IsZero() || r.Now().Before(b.Expires)
}

// Discover returns every live binding of a service, sorted by name.
// Expired bindings encountered during the scan are compacted away in
// place, so the directory does not grow without bound under plant
// churn even when nobody runs an explicit Sweep.
func (r *Registry) Discover(service string) []Binding {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Binding
	m := r.bindings[service]
	for name, b := range m {
		if !r.live(b) {
			delete(m, name)
			continue
		}
		out = append(out, b)
	}
	if len(m) == 0 {
		delete(r.bindings, service)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bind resolves one named instance. A lapsed binding is compacted away
// on the spot.
func (r *Registry) Bind(service, name string) (Binding, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[service][name]
	if ok && !r.live(b) {
		delete(r.bindings[service], name)
		ok = false
	}
	if !ok {
		return Binding{}, fmt.Errorf("registry: no live binding %s/%s", service, name)
	}
	return b, nil
}

// Size reports how many bindings (live or lapsed) the registry holds —
// the compaction tests' window into map growth.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.bindings {
		n += len(m)
	}
	return n
}

// Sweep drops expired bindings and returns how many were removed.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.bindings {
		for name, b := range m {
			if !r.live(b) {
				delete(m, name)
				n++
			}
		}
	}
	return n
}
