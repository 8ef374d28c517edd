package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one protocol occurrence in a Trace: the acting node (its
// address, or "" when not applicable), a dotted kind ("chunk.serve",
// "breaker.open", ...), and free-form detail.
type Event struct {
	At     time.Time `json:"at"`
	Node   string    `json:"node,omitempty"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Trace is a bounded ring buffer of protocol events with per-kind counts
// that survive eviction. It is the live stack's flight recorder: cheap
// enough to leave on, dumpable on demand over HTTP (/debug/trace). A nil
// *Trace ignores all calls, so instrumentation sites never branch on
// configuration.
//
// Recording takes a short mutex (events are per-RPC, not per-byte; the
// lock-free hot-path budget belongs to Counter and Histogram).
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	total   uint64
	kinds   map[string]uint64
	clock   func() time.Time // SetClock; time.Now when nil
}

// NewTrace returns a trace retaining the last capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, 0, capacity), kinds: make(map[string]uint64)}
}

// SetClock makes the trace stamp events with clock instead of time.Now —
// the simulator's virtual time. Call it before the first Record.
func (t *Trace) SetClock(clock func() time.Time) { t.clock = clock }

func (t *Trace) now() time.Time {
	if t.clock != nil {
		return t.clock()
	}
	return time.Now()
}

// Record appends an event. Safe on a nil receiver.
func (t *Trace) Record(kind, node, detail string) {
	if t == nil {
		return
	}
	e := Event{Kind: kind, Node: node, Detail: detail}
	t.mu.Lock()
	e.At = t.now()
	t.total++
	t.kinds[kind]++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % cap(t.buf)
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Recordf is Record with a formatted detail. The format arguments are only
// evaluated after the nil check, but callers on hot paths should still
// prefer Record with a precomputed string when the event fires per chunk.
func (t *Trace) Recordf(kind, node, format string, args ...any) {
	if t == nil {
		return
	}
	t.Record(kind, node, fmt.Sprintf(format, args...))
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, cap(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Total returns how many events were ever recorded (including evicted).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Count returns how many events of kind were ever recorded.
func (t *Trace) Count(kind string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kinds[kind]
}

// Counts returns a copy of the per-kind totals.
func (t *Trace) Counts() map[string]uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.kinds))
	for k, v := range t.kinds {
		out[k] = v
	}
	return out
}

// KindsByCount orders the kinds of a Counts map for a summary: most frequent
// first, ties by name.
func KindsByCount(counts map[string]uint64) []string {
	kinds := make([]string, 0, len(counts))
	for kind := range counts {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if ci, cj := counts[kinds[i]], counts[kinds[j]]; ci != cj {
			return ci > cj
		}
		return kinds[i] < kinds[j]
	})
	return kinds
}

// Dump writes a human-readable listing: per-kind totals (most frequent
// first), then the retained events oldest first.
func (t *Trace) Dump(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "# %d events total, %d retained\n", t.Total(), len(t.Events()))
	counts := t.Counts()
	for _, kind := range KindsByCount(counts) {
		fmt.Fprintf(w, "# %10d  %s\n", counts[kind], kind)
	}
	for _, e := range t.Events() {
		fmt.Fprintf(w, "%s node=%s %-24s %s\n", e.At.Format(time.RFC3339Nano), e.Node, e.Kind, e.Detail)
	}
}

// traceJSON is the /debug/trace?format=json document.
type traceJSON struct {
	Total  uint64            `json:"total"`
	Counts map[string]uint64 `json:"counts"`
	Events []Event           `json:"events"`
}

// WriteJSON writes the retained events and per-kind totals as one JSON
// document.
func (t *Trace) WriteJSON(w io.Writer) error {
	doc := traceJSON{Total: t.Total(), Counts: t.Counts(), Events: t.Events()}
	if doc.Counts == nil {
		doc.Counts = map[string]uint64{}
	}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
