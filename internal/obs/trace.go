package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Field is one key/value pair of a trace event. Fields are emitted in the
// order given, so event lines are deterministic.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Tracer emits structured progress events as JSON lines: one object per
// event with a monotonic sequence number, the event name, and the caller's
// fields in order. Long-running loops (sim.RunLifetime, experiment grids)
// consult Every() for the emission cadence.
//
// Emit is safe for concurrent use; lines are written atomically under a
// lock. A write error is latched: subsequent Emits become no-ops and Err
// reports the first failure, so hot loops need not check every call.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer // set once at construction; writes happen under mu
	every uint64    // immutable after construction
	seq   uint64    //twl:guardedby mu
	err   error     //twl:guardedby mu
}

// DefaultProgressEvery is the progress cadence used when the caller passes
// every == 0: one event per 65536 requests keeps even multi-hour runs to a
// few thousand lines.
const DefaultProgressEvery = 1 << 16

// NewTracer returns a tracer writing JSONL events to w, with progress
// events requested every `every` units of work (0 selects
// DefaultProgressEvery).
func NewTracer(w io.Writer, every uint64) *Tracer {
	if every == 0 {
		every = DefaultProgressEvery
	}
	return &Tracer{w: w, every: every}
}

// Every returns the progress-event cadence the tracer was built with.
func (t *Tracer) Every() uint64 { return t.every }

// Seq returns the sequence number of the most recently emitted event (0 if
// none). Checkpointing persists it so a resumed run's trace continues the
// numbering of the interrupted one.
func (t *Tracer) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// SetSeq overwrites the event sequence counter. Used when resuming from a
// checkpoint: the next Emit produces seq+1, so a resumed trace appended to
// the truncated original forms one gapless stream.
func (t *Tracer) SetSeq(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq = seq
}

// Err returns the first write or encoding error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit writes one event line. The sequence number and event name come
// first, then the fields in order. Failures are latched rather than
// returned — Err reports the first one — so emission sites in hot loops
// stay single statements and cannot silently drop an error.
func (t *Tracer) Emit(event string, fields ...Field) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"seq":%d,"event":`, t.seq)
	if err := t.appendJSON(&buf, event); err != nil {
		return
	}
	for _, f := range fields {
		buf.WriteByte(',')
		if err := t.appendJSON(&buf, f.Key); err != nil {
			return
		}
		buf.WriteByte(':')
		if err := t.appendJSON(&buf, f.Value); err != nil {
			return
		}
	}
	buf.WriteString("}\n")
	if _, err := t.w.Write(buf.Bytes()); err != nil {
		t.err = err
	}
}

// appendJSON marshals v onto buf, latching encoding errors. Called from
// Emit with the tracer lock held.
//
//twl:locked mu
func (t *Tracer) appendJSON(buf *bytes.Buffer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		t.err = fmt.Errorf("obs: unencodable trace field: %w", err)
		return t.err
	}
	buf.Write(b)
	return nil
}
