package telemetry

import (
	"sync"
	"time"
)

// Tracer records a tree of timing spans over named pipeline stages
// (per-day: generate → resolve → collect → classify). Start opens a
// span as a child of the innermost still-open span on the tracer's
// stack; StartRoot opens a top-level span regardless of the stack (for
// concurrent stages, which must not share the stack). A nil *Tracer
// ignores everything, so instrumented code passes tracers around
// unconditionally.
//
// The stack-based Start/End discipline assumes a single driving
// goroutine — exactly the runner's day loop. StartRoot and every Span
// method are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	now    func() time.Time // test seam
	parent *Span            // where top-level spans go instead of roots (Span.Tracer)
	roots  []*Span
	stack  []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now}
}

// Span is one timed stage. End it exactly once; AddItems accumulates a
// work-unit count (queries resolved, rows appended) reported next to
// the wall time.
type Span struct {
	tr       *Tracer
	name     string
	start    time.Time
	mu       sync.Mutex
	dur      time.Duration
	items    int64
	ended    bool
	children []*Span
}

// Start opens a span nested under the innermost open span (or at the
// root) and pushes it on the tracer's stack.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now()}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	} else {
		t.addRoot(sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

// StartRoot opens a top-level span without touching the nesting stack,
// so concurrent stages can each own one. End on such a span only stops
// its clock.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now()}
	t.addRoot(sp)
	return sp
}

// addRoot files a top-level span. Called with t.mu held.
func (t *Tracer) addRoot(sp *Span) {
	if p := t.parent; p != nil {
		p.mu.Lock()
		p.children = append(p.children, sp)
		p.mu.Unlock()
		return
	}
	t.roots = append(t.roots, sp)
}

// Tracer returns a tracer with a nesting stack of its own whose top-level
// spans hang under s: concurrent runners (a fleet's PoPs) each get one
// under their own StartRoot span, and the parent tracer's Roots shows
// them all in one tree. A nil span yields a nil tracer.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return &Tracer{now: s.tr.now, parent: s}
}

// AddItems adds n to the span's processed-item count.
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.items += n
	s.mu.Unlock()
}

// End stops the span's clock and pops any ended spans off the tracer's
// stack. Ending an already-ended span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	now := t.now()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
	s.mu.Unlock()
	// Pop every trailing ended span: children ended out of order keep
	// the stack consistent once their ancestors end.
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		top.mu.Lock()
		ended := top.ended
		top.mu.Unlock()
		if !ended {
			break
		}
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// SpanNode is the exported form of a span tree, as serialized into run
// reports.
type SpanNode struct {
	Name            string      `json:"name"`
	Start           time.Time   `json:"start"`
	DurationSeconds float64     `json:"duration_seconds"`
	Items           int64       `json:"items,omitempty"`
	Running         bool        `json:"running,omitempty"`
	Children        []*SpanNode `json:"children,omitempty"`
}

// Roots snapshots the tracer's span forest. Spans still open report
// their duration so far and Running=true. A nil tracer yields nil.
func (t *Tracer) Roots() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]*SpanNode, 0, len(t.roots))
	for _, sp := range t.roots {
		out = append(out, sp.node(now))
	}
	return out
}

func (s *Span) node(now time.Time) *SpanNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &SpanNode{
		Name:            s.name,
		Start:           s.start,
		DurationSeconds: s.dur.Seconds(),
		Items:           s.items,
	}
	if !s.ended {
		n.Running = true
		n.DurationSeconds = now.Sub(s.start).Seconds()
	}
	for _, child := range s.children {
		n.Children = append(n.Children, child.node(now))
	}
	return n
}
