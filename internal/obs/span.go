package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed region of work. Spans nest explicitly: a root span
// comes from Observer.StartSpan, children from Span.Child, so parentage
// stays correct across goroutines without context plumbing. A nil *Span
// ignores all operations. End must be called exactly once per non-nil
// span (usually deferred); spans are not shared between goroutines.
type Span struct {
	obs     *Observer
	name    string
	id      int64
	parent  int64
	start   time.Time
	attrs   map[string]any
	ended   bool
	capture *SpanCapture
}

// StartSpan opens a root span. Returns nil on a nil Observer.
func (o *Observer) StartSpan(name string, attrs ...Attr) *Span {
	if o == nil {
		return nil
	}
	return o.newSpan(name, 0, nil, attrs)
}

// Child opens a sub-span of s. Returns nil on a nil span. The child
// inherits s's capture, so a captured root collects its whole subtree.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.obs.newSpan(name, s.id, s.capture, attrs)
}

func (o *Observer) newSpan(name string, parent int64, capture *SpanCapture, attrs []Attr) *Span {
	s := &Span{
		obs:     o,
		name:    name,
		id:      o.seq.Add(1),
		parent:  parent,
		capture: capture,
		start:   o.now(),
	}
	if len(attrs) > 0 {
		s.attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			s.attrs[a.Key] = a.Value
		}
	}
	return s
}

// SetAttr attaches an attribute to a live span (no-op on nil).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 1)
	}
	s.attrs[key] = value
}

// End closes the span and returns its duration. The duration is
// observed into the span name's histogram (Observer.SpanHistogram) and,
// with a sink configured, a span event is emitted. Events therefore
// appear in end order — children before their parents. Safe on nil; a
// second End is ignored. Both return 0.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	o := s.obs
	dur := o.now().Sub(s.start)
	o.SpanHistogram(s.name).Observe(dur.Seconds())

	if sink := o.sink; sink != nil || s.capture != nil {
		e := Event{
			Type:    "span",
			Name:    s.name,
			ID:      s.id,
			Parent:  s.parent,
			StartUS: o.sinceStartUS(s.start),
			DurUS:   dur.Microseconds(),
			Attrs:   s.attrs,
		}
		if sink != nil {
			sink.Emit(e)
		}
		s.capture.add(e)
	}
	return dur
}

// SpanCapture collects the span events of one subtree in memory. Built
// by Span.Capture; the serving layer uses it to retain the slowest
// requests' span trees without requiring a sink to be configured.
type SpanCapture struct {
	mu     sync.Mutex
	events []Event
}

// Capture turns on subtree capture rooted at s: s's own end event and
// every descendant's (spans created via Child after this call) are
// retained in the returned capture. Returns nil on a nil span.
func (s *Span) Capture() *SpanCapture {
	if s == nil {
		return nil
	}
	s.capture = &SpanCapture{}
	return s.capture
}

func (c *SpanCapture) add(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns the captured events in end order (nil on nil).
func (c *SpanCapture) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Attr is one span annotation. Values must be JSON-encodable.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one structured observability record — the JSONL schema.
// StartUS is microseconds since the observer was created; span events
// carry DurUS, counter/gauge events carry Value.
type Event struct {
	Type    string         `json:"type"`
	Name    string         `json:"name"`
	ID      int64          `json:"id,omitempty"`
	Parent  int64          `json:"parent,omitempty"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us,omitempty"`
	Value   float64        `json:"value,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// EventSink receives events. Implementations must be safe for
// concurrent Emit calls.
type EventSink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per line to an io.Writer.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit marshals the event and appends a newline. Marshal errors are
// impossible for the Event shape we emit (primitive attr values);
// write errors are dropped — observability must not fail the pipeline.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	s.w.Write(b)
	s.mu.Unlock()
}
