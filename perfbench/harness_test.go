package main

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gupster/internal/xmltree"
)

func TestSameSeedSameRequestSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := newGenerator(w.mix, 42), newGenerator(w.mix, 42)
		ra, rb := newArrivals(42, w.rate), newArrivals(42, w.rate)
		other := newGenerator(w.mix, 43)
		differs := false
		for i := 0; i < 20000; i++ {
			x, y := a.next(), b.next()
			if x != y {
				t.Fatalf("%s: request %d differs under one seed: %+v vs %+v", w.name, i, x, y)
			}
			if ta, tb := ra.next(), rb.next(); ta != tb {
				t.Fatalf("%s: send time %d differs under one seed: %v vs %v", w.name, i, ta, tb)
			}
			if other.next() != x {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 gave the same sequence", w.name)
		}
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	var out []outcome
	first := true
	exec := func(ctx context.Context, c int, o op) error {
		mu.Lock()
		slow := first
		first = false
		mu.Unlock()
		if slow {
			time.Sleep(stall)
		}
		return nil
	}
	m := mix{owners: 10, zipf: 1.2}
	gen := newGenerator(m, 1)
	// One slot: while the first request stalls, nothing else can be sent.
	openLoop(context.Background(), 150*time.Millisecond, gen.next, newArrivals(1, 1000), 1, 1, exec, func(oc outcome) {
		mu.Lock()
		out = append(out, oc)
		mu.Unlock()
	})
	if len(out) < 50 {
		t.Fatalf("only %d requests sent", len(out))
	}
	var stalled outcome
	for _, oc := range out {
		if oc.end.Sub(oc.start) >= stall {
			stalled = oc
		}
	}
	if stalled.end.IsZero() {
		t.Fatal("no request saw the stall")
	}
	behind := 0
	for _, oc := range out {
		if !oc.due.After(stalled.due) || !oc.due.Before(stalled.end) {
			continue
		}
		behind++
		// Timed from its due time, a request scheduled during the stall
		// carries the wait until the stall ended.
		if lat, wait := oc.end.Sub(oc.due), stalled.end.Sub(oc.due); lat < wait {
			t.Errorf("request due %v into the stall reports %v, less than the %v it waited", oc.due.Sub(stalled.due), lat, wait)
		}
		if oc.start.Before(stalled.end) {
			t.Errorf("request sent at %v, before the stall ended", oc.start.Sub(stalled.due))
		}
	}
	if behind < 10 {
		t.Fatalf("only %d requests were scheduled behind the stall", behind)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, start: at(0), end: at(100), name: "root"},
		{id: 2, parent: 1, start: at(10), end: at(40)},
		{id: 3, parent: 1, start: at(30), end: at(60)},  // overlaps 2
		{id: 4, parent: 1, start: at(80), end: at(120)}, // runs past the parent
		{id: 5, parent: 3, start: at(35), end: at(55)},  // grandchild: not the root's child
		{id: 6, parent: 1, start: at(20), end: at(25)},  // inside 2
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 30 * time.Millisecond, // 100 - |[10,60] ∪ [80,100]|
		2: 30 * time.Millisecond,
		3: 10 * time.Millisecond, // 30 - 20
		4: 40 * time.Millisecond,
		5: 20 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	led := ledgerOf(spans, 1)
	if led.attributed != 70*time.Millisecond {
		t.Errorf("attributed %v, want 70ms", led.attributed)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 99, 100, 500, 999, 1000, 1001, 4321, 100000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p := tailPercentile(n)
		v := percentile(s, p)
		beyond := n - int(v)
		if beyond < minBeyond {
			t.Errorf("n=%d: p%.3f has %d samples beyond it", n, p, beyond)
		}
		if p > 99 {
			t.Errorf("n=%d: tail p%.3f above p99", n, p)
		}
		if p < 99 && beyond != minBeyond {
			t.Errorf("n=%d: p%.3f has %d samples beyond, a higher percentile would still have %d", n, p, beyond, minBeyond)
		}
	}
	// Below 20 samples no percentile above the median has ten beyond it;
	// the median stands in.
	if p := tailPercentile(11); p != 50 {
		t.Errorf("n=11: tail p%.3f, want the median", p)
	}
}

func TestCanonicalIgnoresSiblingOrderOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	book := makeProfile(1, 3, 30)["address-book"]
	shuffled := book.Clone()
	rng.Shuffle(len(shuffled.Children), func(i, j int) {
		shuffled.Children[i], shuffled.Children[j] = shuffled.Children[j], shuffled.Children[i]
	})
	if canonical(book) != canonical(shuffled) {
		t.Fatal("reordered items compare unequal")
	}
	changed := book.Clone()
	changed.Children[7].Children[0].Text += "0"
	if canonical(book) == canonical(changed) {
		t.Fatal("a changed phone number compares equal")
	}
	fewer := book.Clone()
	fewer.Children = fewer.Children[1:]
	if canonical(book) == canonical(fewer) {
		t.Fatal("a dropped item compares equal")
	}
}

func TestOracleJudgesAnswers(t *testing.T) {
	or := newOracle(4)
	p := makeProfile(9, 2, 12)
	or.learn(2, p)
	owner := ownerID(2)
	read := op{kind: opRead, owner: 2, section: "calendar", role: roleFriend, requester: ownerID(1)}
	if err := or.checkRead(read, spine(owner, p["calendar"]), nil, 0, 0); err != nil {
		t.Fatalf("seeded answer rejected: %v", err)
	}
	if err := or.checkRead(read, spine(owner, p["devices"]), nil, 0, 0); err == nil {
		t.Fatal("another component accepted")
	}
	denied := op{kind: opRead, owner: 2, section: "calendar", role: roleStranger, requester: "stranger-1"}
	if err := or.checkRead(denied, spine(owner, p["calendar"]), nil, 0, 0); err == nil {
		t.Fatal("an answer to an expected denial accepted")
	}
	pres := op{kind: opRead, owner: 2, section: "presence", role: roleSelf, requester: owner}
	if err := or.checkRead(pres, spine(owner, presence(owner, 3)), nil, 2, 4); err != nil {
		t.Fatalf("presence inside the version window rejected: %v", err)
	}
	if err := or.checkRead(pres, spine(owner, presence(owner, 1)), nil, 2, 4); err == nil {
		t.Fatal("stale presence accepted")
	}
	// A read that may join an identical read still in flight may see what
	// that read saw; a read on another client may not.
	_ = or.writePresence(2, func(*xmltree.Node) error { return nil })
	first, doneFirst := or.beginPresenceRead(0, pres)
	_ = or.writePresence(2, func(*xmltree.Node) error { return nil })
	joined, doneJoined := or.beginPresenceRead(0, pres)
	other, doneOther := or.beginPresenceRead(1, pres)
	doneFirst()
	doneJoined()
	doneOther()
	if first != 1 || joined != 1 || other != 2 {
		t.Fatalf("read windows start at %d, %d, %d; want 1, 1, 2", first, joined, other)
	}
	if later, done := or.beginPresenceRead(0, pres); later != 2 {
		t.Fatalf("after the reads ended a new read starts at %d, want 2", later)
	} else {
		done()
	}
}
