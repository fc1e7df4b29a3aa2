package main

import (
	"sort"
	"sync"
	"time"
)

// span is one benchmark-recorded interval: a top-level call the
// benchmark made, or one layer call of a replayed request. Spans of one
// request share req; parent links a layer call to the call that caused
// it.
type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Time
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

func (l *spanLog) add(req, parent uint64, name string, start, end time.Time) {
	l.put(span{id: l.reserve(), parent: parent, req: req, name: name, start: start, end: end})
}

// reserve allocates a span ID ahead of the span's end, so children can
// name their parent while it is still open.
func (l *spanLog) reserve() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) put(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// byRequest returns the spans of one request.
func (l *spanLog) byRequest(req uint64) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.req == req {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the union of its children's intervals clipped to the span, so
// overlapping children (a parallel fan-out) are not counted twice.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.end.Sub(s.start) - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of children's intervals within p.
func covered(p span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// replayer times one sampled request's replay through the layers'
// public functions. Every call becomes a span under the request's root
// span (or under an explicit parent, for the calls of a fan-out).
type replayer struct {
	log  *spanLog
	req  uint64
	root uint64
	// frames and bytes count the wire frames the replayed request
	// encodes, and their size.
	frames, bytes int
	// lookups and matches count coverage lookups and their matches.
	lookups, matches int
	// sent keeps the replayed frames and xmls the serialized components,
	// for the allocation and heap measurements made after the replay.
	sent []frame
	xmls []string
	// redirects counts redirect replies the replay's own resolves met.
	redirects int
}

// merge folds the counts of a fan-out branch's replayer into r.
func (r *replayer) merge(sub *replayer) {
	r.frames += sub.frames
	r.bytes += sub.bytes
	r.sent = append(r.sent, sub.sent...)
	r.xmls = append(r.xmls, sub.xmls...)
}

// topLevel times fn as a span of its own (no parent): a call that
// contains several layers, kept out of the root's breakdown.
func (r *replayer) topLevel(name string, fn func()) {
	start := time.Now()
	fn()
	r.log.add(r.req, 0, name, start, time.Now())
}

// timed runs fn as a span named name under parent (the root when 0).
func (r *replayer) timed(parent uint64, name string, fn func()) {
	if parent == 0 {
		parent = r.root
	}
	start := time.Now()
	fn()
	r.log.add(r.req, parent, name, start, time.Now())
}

// group runs fn as a span whose children fn records under the returned
// parent ID — a fan-out whose children may overlap.
func (r *replayer) group(name string, fn func(parent uint64)) {
	id := r.log.reserve()
	start := time.Now()
	fn(id)
	r.log.put(span{id: id, parent: r.root, req: r.req, name: name, start: start, end: time.Now()})
}

// opLedger is one replayed request's breakdown: self time per layer
// call name, and the part of the root the layer calls cover.
type opLedger struct {
	self       map[string]time.Duration
	attributed time.Duration
}

// ledgerOf computes a replayed request's breakdown from its spans.
func ledgerOf(spans []span, root uint64) opLedger {
	self := selfTimes(spans)
	led := opLedger{self: make(map[string]time.Duration)}
	for _, s := range spans {
		if s.id == root {
			led.attributed = s.end.Sub(s.start) - self[s.id]
			continue
		}
		led.self[s.name] += self[s.id]
	}
	return led
}
