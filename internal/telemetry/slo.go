package telemetry

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// The SLO engine evaluates named service-level objectives over the
// instruments already in the registry — no second measurement pipeline.
// Two objective shapes cover the stack's needs: a latency bound on a
// histogram quantile ("create.p99 < 120s") and a success-ratio floor
// over a good/bad counter pair ("clone.success > 99.9%"). Evaluation is
// in virtual time, so a simulated deployment and a live daemon share
// one definition of "healthy".

// Objective is one declared SLO. Exactly one of the two forms is used:
// the latency form when Hist is set, otherwise the ratio form.
type Objective struct {
	Name string `json:"name"`

	// Latency form: the Quantile of histogram Hist must not exceed
	// MaxSeconds.
	Hist       string  `json:"hist,omitempty"`
	Quantile   float64 `json:"quantile,omitempty"`
	MaxSeconds float64 `json:"max_seconds,omitempty"`

	// Ratio form: Good/(Good+Bad) must be at least MinRatio, over the
	// named counters.
	Good     string  `json:"good,omitempty"`
	Bad      string  `json:"bad,omitempty"`
	MinRatio float64 `json:"min_ratio,omitempty"`
}

// Kind reports "latency" or "ratio".
func (o Objective) Kind() string {
	if o.Hist != "" {
		return "latency"
	}
	return "ratio"
}

// String renders the objective the way operators read it.
func (o Objective) String() string {
	if o.Kind() == "latency" {
		return fmt.Sprintf("%s: %s.p%g <= %gs", o.Name, o.Hist, o.Quantile*100, o.MaxSeconds)
	}
	return fmt.Sprintf("%s: %s/(%s+%s) >= %g", o.Name, o.Good, o.Good, o.Bad, o.MinRatio)
}

// ObjectiveStatus is one objective's evaluation.
type ObjectiveStatus struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	OK      bool    `json:"ok"`
	Value   float64 `json:"value"`   // measured quantile (seconds) or ratio
	Bound   float64 `json:"bound"`   // MaxSeconds or MinRatio
	Samples int64   `json:"samples"` // observations behind the verdict
	// Burn is the error-budget burn: the fraction of allowed bad events
	// actually observed. 1.0 means the budget is exactly spent; above
	// 1.0 the objective is (or is about to be) violated. Reported as a
	// plain ratio, not a rate — virtual time makes windows explicit.
	Burn  float64 `json:"burn"`
	VSecs float64 `json:"vsecs"` // virtual time of evaluation
}

// SLOEngine evaluates a set of objectives against one registry. A nil
// *SLOEngine accepts every call as a no-op.
type SLOEngine struct {
	mu   sync.Mutex
	reg  *Registry
	objs []Objective
}

// NewSLOEngine returns an engine over reg with the given objectives.
func NewSLOEngine(reg *Registry, objs ...Objective) *SLOEngine {
	return &SLOEngine{reg: reg, objs: append([]Objective(nil), objs...)}
}

// Add declares another objective.
func (e *SLOEngine) Add(obj Objective) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.objs = append(e.objs, obj)
	e.mu.Unlock()
}

// Evaluate measures every objective at virtual time vnow. An objective
// with no observations yet evaluates OK with zero burn — an idle
// service has not violated anything.
func (e *SLOEngine) Evaluate(vnow time.Duration) []ObjectiveStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	reg := e.reg
	objs := append([]Objective(nil), e.objs...)
	e.mu.Unlock()

	out := make([]ObjectiveStatus, 0, len(objs))
	for _, o := range objs {
		st := ObjectiveStatus{Name: o.Name, Kind: o.Kind(), VSecs: vnow.Seconds()}
		if o.Kind() == "latency" {
			h := reg.Histogram(o.Hist)
			st.Bound = o.MaxSeconds
			st.Samples = h.Count()
			st.Value = h.Quantile(o.Quantile)
			st.OK = st.Samples == 0 || st.Value <= o.MaxSeconds
			st.Burn = burn(h.FractionAbove(o.MaxSeconds), 1-o.Quantile)
		} else {
			good := reg.Counter(o.Good).Value()
			bad := reg.Counter(o.Bad).Value()
			total := good + bad
			st.Bound = o.MinRatio
			st.Samples = total
			if total == 0 {
				st.Value = 1
				st.OK = true
			} else {
				st.Value = float64(good) / float64(total)
				st.OK = st.Value >= o.MinRatio
				st.Burn = burn(1-st.Value, 1-o.MinRatio)
			}
		}
		out = append(out, st)
	}
	return out
}

// Healthy reports whether every objective holds at vnow.
func (e *SLOEngine) Healthy(vnow time.Duration) bool {
	for _, st := range e.Evaluate(vnow) {
		if !st.OK {
			return false
		}
	}
	return true
}

// burn divides the observed bad fraction by the allowed bad fraction.
// A zero allowance means any bad event is an immediate violation.
func burn(actual, allowed float64) float64 {
	if actual == 0 {
		return 0
	}
	if allowed <= 0 {
		return math.Inf(1)
	}
	return actual / allowed
}
