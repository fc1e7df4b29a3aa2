package main

import (
	"bytes"
	"fmt"
	"time"

	"gupster/internal/trace"
	"gupster/internal/wire"
)

// sampleTrace is the span context a traced client stamps on every
// request frame, and sampleSpan a span a store piggybacks on its reply:
// the program keeps tracing on, so real frames carry both.
var (
	sampleTrace = &trace.Info{TraceID: "00000000000000000000000000000000", SpanID: 1 << 40, Hop: 1}
	sampleSpan  = trace.Span{TraceID: sampleTrace.TraceID, SpanID: 1 << 41, Parent: 1 << 40, Hop: 1,
		Site: "store", Name: "store.fetch", Entry: true, Start: time.Now().UnixNano(), DurMicros: 42}
)

// frame is one wire message of a replayed request: the payload value,
// and a constructor of the value it decodes into.
type frame struct {
	typ     string
	reply   bool
	payload any
	into    func() any
	spans   bool
	// refusal, when set, makes the frame an error reply with no payload.
	refusal string
}

func (f frame) message() *wire.Message {
	m := &wire.Message{Type: f.typ, ID: 7, Error: f.refusal}
	if f.refusal == "" {
		m.Payload = wire.Marshal(f.payload)
	}
	if f.reply {
		if f.spans {
			m.Spans = []trace.Span{sampleSpan}
		}
	} else {
		m.Trace = sampleTrace
	}
	return m
}

// roundTrip encodes f the way a sender does and decodes it the way the
// receiver does, returning the frame's size.
func roundTrip(f frame, enc func(func()), dec func(func())) (int, error) {
	var buf bytes.Buffer
	var err error
	enc(func() { err = wire.WriteFrame(&buf, f.message()) })
	if err != nil {
		return 0, err
	}
	n := buf.Len()
	dec(func() {
		var m *wire.Message
		m, err = wire.ReadFrame(&buf)
		if err == nil && f.refusal == "" {
			err = wire.Unmarshal(m.Payload, f.into())
		}
	})
	if err != nil {
		return 0, fmt.Errorf("replay %s frame: %w", f.typ, err)
	}
	return n, nil
}

// frame replays one wire hop under parent and counts it.
func (r *replayer) frame(parent uint64, f frame) error {
	n, err := roundTrip(f,
		func(fn func()) { r.timed(parent, "wire.encode", fn) },
		func(fn func()) { r.timed(parent, "wire.decode", fn) })
	r.frames++
	r.bytes += n
	r.sent = append(r.sent, f)
	return err
}

func into[T any]() func() any { return func() any { return new(T) } }
