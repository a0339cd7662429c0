package telemetry

// FlightRecorder is pinned: the frozen bench module still reads Hub.F,
// its Events("") and the last event's Seq. Nothing records a flight
// event — a creation's timeline is its span tree — so the recorder is
// always empty. Delete this file once the bench module drops that read.
type FlightRecorder struct{}

// FlightEvent is the element type of Events.
type FlightEvent struct{ Seq uint64 }

// F returns nil, and Events nothing.
func (*Hub) F() *FlightRecorder                     { return nil }
func (*FlightRecorder) Events(string) []FlightEvent { return nil }
