package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gupster/internal/xmltree"
)

// layerLedger aggregates the replayed requests of a traced run.
type layerLedger struct {
	reads, writes int
	// readSelf and writeSelf hold, per span name, each replayed
	// request's self time in that layer (µs; 0 when the request never
	// reached it).
	readSelf, writeSelf         map[string][]float64
	frames, bytes               int
	lookups, matches, redirects int
	attributedUS                float64
	allocsPerFrame, heapPerByte float64
}

// timedLayers are the layer calls whose mean self time per replayed read
// is reported as <name>_us.
var timedLayers = []string{
	"wire.encode", "wire.decode", "xmltree.parse", "xmltree.serialize", "xmltree.merge",
	"xpath.parse", "schema.validate", "policy.decide", "coverage.lookup", "token.sign", "token.verify",
	"core.mdm_resolve", "store.get", "store.fetch",
}

// readLayers are the span names every replayed read records, zero or
// not, so per-request means stay comparable across requests.
var readLayers = append([]string{"shard.via_router", "shard.direct"}, timedLayers...)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayAll replays the sampled requests one at a time, each under a
// root span, and folds each request's breakdown into the ledger.
func (b *bench) replayAll(r rig, log *spanLog, sampled []op) (*layerLedger, error) {
	led := &layerLedger{readSelf: map[string][]float64{}, writeSelf: map[string][]float64{}}
	var attributed []float64
	var sent []frame
	var xmls []string
	runtime.GC()
	for i, o := range sampled {
		if (o.kind.write() && led.writes >= replayWrites) || (!o.kind.write() && led.reads >= replayReads) {
			continue
		}
		req := uint64(1<<40 + i)
		rp := &replayer{log: log, req: req, root: log.reserve()}
		start := time.Now()
		if err := r.replay(context.Background(), o, rp); err != nil {
			return nil, fmt.Errorf("replay of %s request for %s: %w", kindName(o.kind), ownerID(o.owner), err)
		}
		log.put(span{id: rp.root, req: req, name: "replay", start: start, end: time.Now()})
		ol := ledgerOf(log.byRequest(req), rp.root)
		if o.kind.write() {
			led.writes++
			for name, d := range ol.self {
				led.writeSelf[name] = append(led.writeSelf[name], us(d))
			}
			continue
		}
		led.reads++
		for _, name := range readLayers {
			led.readSelf[name] = append(led.readSelf[name], us(ol.self[name]))
		}
		attributed = append(attributed, us(ol.attributed))
		led.frames += rp.frames
		led.bytes += rp.bytes
		led.lookups += rp.lookups
		led.matches += rp.matches
		led.redirects += rp.redirects
		sent = append(sent, rp.sent...)
		xmls = append(xmls, rp.xmls...)
	}
	if led.reads == 0 {
		return nil, errNoSamples
	}
	led.attributedUS = median(attributed)
	led.allocsPerFrame = allocsPerFrame(sent)
	led.heapPerByte = heapPerXMLByte(xmls)
	return led, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// metrics reports the replay-derived per-layer metrics.
func (l *layerLedger) metrics() map[string]metric {
	m := map[string]metric{}
	for _, name := range timedLayers {
		m[name+"_us"] = metric{mean(l.readSelf[name]), "us"}
	}
	m["shard.forward_us"] = metric{mean(l.readSelf["shard.via_router"]) - mean(l.readSelf["shard.direct"]), "us"}
	m["journal.append_us"] = metric{mean(l.writeSelf["journal.append"]), "us"}
	m["replication.commit_us"] = metric{mean(l.writeSelf["replication.commit"]), "us"}
	reads := float64(l.reads)
	m["wire.frames_per_op"] = metric{float64(l.frames) / reads, "count"}
	m["wire.bytes_per_op"] = metric{float64(l.bytes) / reads, "bytes"}
	m["wire.allocs_per_frame"] = metric{l.allocsPerFrame, "count"}
	m["xmltree.heap_per_xml_byte"] = metric{l.heapPerByte, "ratio"}
	m["coverage.matches_per_lookup"] = metric{ratio(uint64(l.matches), uint64(l.lookups)), "count"}
	m["shard.redirects_per_op"] = metric{float64(l.redirects) / reads, "count"}
	return m
}

// allocsPerFrame re-encodes and decodes every replayed frame, counting
// heap allocations.
func allocsPerFrame(fs []frame) float64 {
	if len(fs) == 0 {
		return 0
	}
	run := func(fn func()) { fn() }
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, f := range fs {
		_, _ = roundTrip(f, run, run)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(fs))
}

// heapXMLBytes is how much XML heapPerXMLByte parses: enough that the
// trees dwarf what other goroutines allocate meanwhile.
const heapXMLBytes = 4 << 20

// heapPerXMLByte parses the serialized components the replay saw, over
// and over up to heapXMLBytes, keeps the trees, and returns live heap
// bytes per byte of XML.
func heapPerXMLByte(xmls []string) float64 {
	size := 0
	for _, s := range xmls {
		size += len(s)
	}
	if size == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	var trees []*xmltree.Node
	total := 0
	for total < heapXMLBytes {
		for _, s := range xmls {
			if t, err := xmltree.ParseString(s); err == nil {
				trees = append(trees, t)
				total += len(s)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(trees)
	return float64(int64(b.HeapAlloc)-int64(a.HeapAlloc)) / float64(total)
}
