// Package registry is the discovery substrate of the service
// architecture (paper §3, Figure 1): services publish bindings, clients
// discover them and bind. The paper delegates this to "standard
// mechanisms … (e.g. UDDI)" and scopes the underlying machinery out;
// this package provides the minimal equivalent the rest of the system
// needs — leased publish and discover on wall time. Binding is the
// client's: service.DiscoverPlants turns each binding into a handle.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Binding is one published service endpoint.
type Binding struct {
	// Service is the service type, e.g. "vmplant".
	Service string
	// Name is the instance name, unique within a service.
	Name string
	// Addr is the endpoint's host:port.
	Addr string
	// Expires is when the lease lapses (zero means no expiry).
	Expires time.Time
}

// Registry is a leased service directory, safe for concurrent use.
type Registry struct {
	now func() time.Time // time.Now; the package's tests turn it by hand

	mu       sync.Mutex
	bindings map[string]map[string]Binding // service → name → binding
}

// New returns an empty registry using wall time.
func New() *Registry {
	return &Registry{now: time.Now, bindings: make(map[string]map[string]Binding)}
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
		b.Expires = r.now().Add(ttl)
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
	return b.Expires.IsZero() || r.now().Before(b.Expires)
}

// Discover returns every live binding of a service, sorted by name.
// Expired bindings encountered during the scan are compacted away in
// place, so the directory does not grow without bound under plant
// churn.
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
