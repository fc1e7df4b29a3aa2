package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/core"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/xmltree"
)

// rig is one workload's running fabric.
type rig interface {
	// exec runs one request on load client c and checks the answer.
	exec(ctx context.Context, c int, o op) error
	// counters reads the counters the program exports.
	counters() progCounters
	// replay re-runs a sampled request through each layer's public
	// functions, timing every call.
	replay(ctx context.Context, o op, rp *replayer) error
	close()
}

// progCounters sums the program's own counters over a rig's
// directories and clients.
type progCounters struct {
	resolves, denied              uint64
	cacheHits, cacheMisses, bytes uint64
	flights, coalesced            uint64
	retries                       uint64
	admitted, queued, shed        uint64
	journalAppends, journalSyncs  uint64
}

func (p *progCounters) addMDM(m *core.MDM) {
	s := m.Snapshot()
	p.resolves += s.Resolves
	p.denied += s.Denied
	p.cacheHits += s.CacheHits
	p.cacheMisses += s.CacheMisses
	p.bytes += s.BytesProxied
	p.flights += s.Flights
	p.coalesced += s.CoalesceHits
	p.retries += s.Retries
	p.admitted += s.AdmissionAdmitted
	p.queued += s.AdmissionQueued
	p.shed += s.ShedHigh + s.ShedNormal
	p.journalAppends += s.JournalAppends
	p.journalSyncs += s.JournalSyncs
}

func (p *progCounters) addClients(cs []*core.Client) {
	for _, c := range cs {
		p.retries += c.Resilience.Snapshot().Retries
		ps := c.Pipeline().Snapshot()
		p.flights += ps.Flights
		p.coalesced += ps.CoalesceHits
	}
}

// signerKey is the HMAC key every component of a rig shares.
var signerKey = []byte("perfbench-key")

// mdmConfig is a directory configured as gupsterd configures it, with
// admission control at gupsterd's documented example setting so the
// overload layer is on the request path.
func mdmConfig(signer *token.Signer, cacheEntries int) core.Config {
	return core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     30 * time.Second,
		CacheEntries: cacheEntries,
		Adjuncts:     schema.GUPAdjuncts(),
		Overload:     overload.Config{MaxConcurrency: 64, QueueDepth: 128},
	}
}

// storeNode is one data store, configured as datastored configures it.
type storeNode struct {
	id  string
	eng *store.Engine
	srv *store.Server

	mu  sync.Mutex
	cli *store.Client // the replay's own connection
}

// client returns the replay's connection to the store.
func (s *storeNode) client() (*store.Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cli == nil {
		c, err := store.DialClient(s.srv.Addr())
		if err != nil {
			return nil, err
		}
		s.cli = c
	}
	return s.cli, nil
}

func closeStores(ss []*storeNode) {
	for _, s := range ss {
		if s.cli != nil {
			s.cli.Close()
		}
		s.srv.Close()
	}
}

func startStore(id string, signer *token.Signer) (*storeNode, error) {
	eng := store.NewEngine(id)
	eng.Schema = schema.GUP()
	srv := store.NewServer(eng, signer)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start store %s: %w", id, err)
	}
	return &storeNode{id: id, eng: eng, srv: srv}, nil
}

func dialClients(addr string, n int) ([]*core.Client, error) {
	var cs []*core.Client
	for i := 0; i < n; i++ {
		c, err := core.DialMDM(addr, gatewayID, roleGateway)
		if err != nil {
			closeClients(cs)
			return nil, fmt.Errorf("dial directory: %w", err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*core.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// oracle holds what every permitted answer must be: a hash of the
// canonical form of each seeded component, and the presence versions
// written so far.
type oracle struct {
	canon [][]uint64 // owner → section index → hash
	// exact remembers the hash of the exact serialization an answer
	// already passed the canonical check with, so repeated answers skip
	// the costlier canonical form (owner × section; 0 = none yet).
	exact []atomic.Uint64
	pres  []presenceState

	// reading holds, per coalescing key, the presence version committed
	// when each read in flight was sent. core.Client coalesces identical
	// concurrent GetAs calls (same client, path and request context), and
	// a call that joins a flight gets the flight's answer, which can
	// predate a write acknowledged before the joining call was sent.
	readMu  sync.Mutex
	reading map[readKey][]int
}

type readKey struct {
	client, owner   int
	requester, role string
}

type presenceState struct {
	mu                 sync.Mutex // serialises one owner's writes
	started, committed atomic.Int64
}

func newOracle(owners int) *oracle {
	return &oracle{canon: make([][]uint64, owners), exact: make([]atomic.Uint64, owners*len(sections)),
		pres: make([]presenceState, owners), reading: make(map[readKey][]int)}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// spine wraps a component in its owner's <user> element, the shape a
// store answers with.
func spine(owner string, comp *xmltree.Node) *xmltree.Node {
	return xmltree.New("user").SetAttr("id", owner).Add(comp.Clone())
}

func (or *oracle) learn(i int, p profile) {
	h := make([]uint64, len(sections))
	for k, s := range sections {
		h[k] = hashString(canonical(spine(ownerID(i), p[s])))
	}
	or.canon[i] = h
}

func sectionIndex(s string) int {
	for i, x := range sections {
		if x == s {
			return i
		}
	}
	return -1
}

// committed and started bound the presence versions a read may see: at
// least the last write committed before it (or an identical read it may
// have joined) was sent, at most the last write started before it was
// answered.
func (or *oracle) committed(i int) int { return int(or.pres[i].committed.Load()) }

// beginPresenceRead returns the lowest version a presence read sent now
// on client c may see, and the call that marks the read answered.
func (or *oracle) beginPresenceRead(c int, o op) (int, func()) {
	k := readKey{client: c, owner: o.owner, requester: o.requester, role: o.role}
	or.readMu.Lock()
	defer or.readMu.Unlock()
	own := or.committed(o.owner)
	lo := own
	for _, v := range or.reading[k] {
		lo = min(lo, v)
	}
	or.reading[k] = append(or.reading[k], own)
	return lo, func() {
		or.readMu.Lock()
		defer or.readMu.Unlock()
		vs := or.reading[k]
		for i, v := range vs {
			if v == own {
				vs = append(vs[:i], vs[i+1:]...)
				break
			}
		}
		if len(vs) == 0 {
			delete(or.reading, k)
		} else {
			or.reading[k] = vs
		}
	}
}

func (or *oracle) started(i int) int { return int(or.pres[i].started.Load()) }

// writePresence installs owner i's next presence version through write,
// one write per owner at a time.
func (or *oracle) writePresence(i int, write func(frag *xmltree.Node) error) error {
	st := &or.pres[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	v := st.started.Add(1)
	if err := write(presence(ownerID(i), int(v))); err != nil {
		return err
	}
	st.committed.Store(v)
	return nil
}

var errWrongAnswer = errors.New("wrong answer")

// checkRead judges one read: an expected denial must be refused, a
// permitted read must return the seeded component (presence: any
// version in [lo, hi]).
func (or *oracle) checkRead(o op, got *xmltree.Node, err error, lo, hi int) error {
	if !permitted(o.role, o.section) {
		if err != nil && strings.Contains(err.Error(), "access denied") {
			return nil
		}
		return fmt.Errorf("%w: %s read by %s was not denied (err=%v)", errWrongAnswer, o.section, o.role, err)
	}
	if err != nil {
		return fmt.Errorf("%s read by %s: %w", o.section, o.role, err)
	}
	if got == nil {
		return fmt.Errorf("%w: %s read by %s answered nothing", errWrongAnswer, o.section, o.role)
	}
	owner := ownerID(o.owner)
	if o.section == "presence" {
		got := got.String()
		for v := lo; v <= hi; v++ {
			if got == spine(owner, presence(owner, v)).String() {
				return nil
			}
		}
		return fmt.Errorf("%w: presence of %s outside versions %d..%d", errWrongAnswer, owner, lo, hi)
	}
	slot := &or.exact[o.owner*len(sections)+sectionIndex(o.section)]
	h := hashString(got.String())
	if h == slot.Load() {
		return nil
	}
	if hashString(canonical(got)) != or.canon[o.owner][sectionIndex(o.section)] {
		return fmt.Errorf("%w: %s of %s differs from the seeded component", errWrongAnswer, o.section, owner)
	}
	slot.Store(h)
	return nil
}

func readContext(o op) policy.Context {
	return policy.Context{Requester: o.requester, Role: o.role, Purpose: policy.PurposeQuery}
}

// parallel runs fn(i) for i in [0, n) on w workers and returns the first
// error.
func parallel(n, w int, fn func(i int) error) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
