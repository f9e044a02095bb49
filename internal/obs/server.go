package obs

// ---- Wire server (internal/wire) ----

// ServerStats counts the network front door: connection lifecycle,
// pipeline-window batching, and byte traffic. BatchSize feeds the
// batching→epoch story of DESIGN.md §18 — its mean is the number of
// requests each durability fence amortizes over.
type ServerStats struct {
	ConnsAccepted Counter // connections accepted
	ConnsClosed   Counter // connections closed (any reason)
	ConnErrors    Counter // connections dropped on protocol or I/O error

	Requests    Counter   // requests decoded
	Batches     Counter   // pipeline windows executed
	BatchSize   Histogram // requests per window
	WriteFences Counter   // per-window durability waits (async commit mode)
	Drains      Counter   // graceful-drain conn teardowns

	BytesIn  Counter
	BytesOut Counter
}

// ServerSnapshot is an immutable copy of ServerStats.
type ServerSnapshot struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsClosed   uint64 `json:"conns_closed"`
	ConnErrors    uint64 `json:"conn_errors"`

	Requests    uint64            `json:"requests"`
	Batches     uint64            `json:"batches"`
	BatchSize   HistogramSnapshot `json:"batch_size"`
	WriteFences uint64            `json:"write_fences"`
	Drains      uint64            `json:"drains"`

	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
}

// Snapshot captures the current values.
func (s *ServerStats) Snapshot() ServerSnapshot { return load[ServerSnapshot](s) }

// Sub returns the delta since prev.
func (s ServerSnapshot) Sub(prev ServerSnapshot) ServerSnapshot { return sub(s, prev) }
