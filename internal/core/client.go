package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/flight"
	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/resilience"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Client is a GUPster client application's view of the converged network:
// it resolves requests at the MDM and follows referrals to data stores,
// handling the choice ("||") and merge semantics of §4.3 transparently.
// Safe for concurrent use.
type Client struct {
	mdm     *wire.Client
	mdmAddr string
	// Identity stamps the request context.
	Identity string
	// Role is the asserted relationship to profile owners.
	Role string
	// Keys drives client-side merges.
	Keys xmltree.KeySpec

	poolMu sync.Mutex
	pool   map[string]*store.Client

	// Subscription state. Push subscriptions are server-side, in-memory,
	// per-node objects: they die with the serving node (leader failover)
	// and are cancelled with a tombstone when the node discards its
	// directory (snapshot install) or hands the owner to another shard.
	// The client therefore keeps its own durable record of every
	// subscription — path and handler, keyed by a stable client-side
	// handle — and re-establishes them on reconnect or tombstone, chasing
	// not-leader and wrong-shard redirects. Callers see the stable handle
	// in every notification, never the server's per-incarnation ID.
	subMu       sync.Mutex
	subRecs     map[uint64]*subRecord // stable handle → record
	subByServer map[uint64]uint64     // current server sub ID → stable handle
	subNextID   uint64
	subConn     *wire.Client // dedicated notification connection
	subConnAddr string
	subAddrs    []string // extra re-home candidates (constellation members)
	subRehoming bool     // one re-home loop at a time
	subClosed   bool

	// DisableLatencyRouting turns off closest-replica ordering of
	// alternatives, leaving the MDM's (deterministic) order — the ablation
	// measured by benchmark E14.
	DisableLatencyRouting bool

	// latMu guards lat, the per-store-address EWMA fetch latency used to
	// prefer the closest replica among referral alternatives (§5.3:
	// "requests … will be routed to the closest store available").
	latMu sync.Mutex
	lat   map[string]time.Duration

	// Resilience guards store fetches and updates: per-attempt timeouts,
	// capped exponential backoff with jitter, and a per-store circuit
	// breaker. DialMDM installs defaults; replace it before the first
	// request to tune budgets.
	Resilience *resilience.Group

	// FanOut bounds the worker pool fetching the referrals of one
	// alternative; 0 means flight.DefaultWorkers.
	FanOut int
	// DisableCoalescing turns off client-side coalescing of identical
	// concurrent Gets (the benchmark ablation).
	DisableCoalescing bool

	// flights coalesces identical concurrent referral-pattern Gets: many
	// goroutines asking for the same path at the same moment cost one
	// resolve + fetch. pipe counts flights/hits/fan-outs client-side.
	flights *flight.Group
	pipe    *metrics.PipelineStats
	// writeGen counts this client's completed writes (Update, PutRule,
	// DeleteRule, SyncDeviceComponent). It is part of the coalescing key,
	// so a Get issued after a write never joins a flight that may have
	// read the data before it.
	writeGen atomic.Uint64

	// Tracer records request traces. DialMDM installs a default collector
	// (tracing is cheap enough to stay on); set nil to disable.
	Tracer *trace.Collector

	// Budgets collects the client's deadline knobs; DialMDM installs
	// defaults. Every timeout the client imposes on its own derives from
	// here — no hard-coded durations on any call path.
	Budgets Budgets

	// leaderConn is a lazily dialed connection to the constellation
	// leader a follower redirected a mutation to (DESIGN.md §11.3). It is
	// kept for the next mutation; leadership moving again just re-chases.
	leaderMu   sync.Mutex
	leaderConn *wire.Client
	leaderAddr string

	// traceConn is a lazily dialed out-of-band connection for trace
	// reports: telemetry frames must never queue ahead of request frames
	// on the request connection (on a slow link one report delays the next
	// resolve by a full store-and-forward hop). traceQ feeds one reporter
	// goroutine; when it backs up reports are dropped — tracing is lossy
	// under pressure by design, never a brake on requests.
	traceMu   sync.Mutex
	traceConn *wire.Client
	traceQ    chan []trace.Span
	traceQuit chan struct{}
	traceOnce sync.Once
}

// Budgets configures the client's deadline behavior. Budgets stamp
// requests with a wire-level budget (Message.BudgetMillis) that every
// downstream hop decrements and honors.
type Budgets struct {
	// TraceReport bounds the fire-and-forget trace-report write; 0 means
	// the 2s default. Telemetry must never wedge the reporter goroutine
	// behind a dead connection.
	TraceReport time.Duration
	// Op, when positive, is a default end-to-end deadline applied to
	// high-level operations (GetAs, GetBatch, GetVia, Update) whose
	// context carries no deadline of its own. A caller-supplied deadline
	// always wins. Zero leaves undeadlined contexts untimed (the
	// pre-budget behavior).
	Op time.Duration
}

// DialMDM connects a client identity to the MDM.
func DialMDM(addr, identity, role string) (*Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	pipe := &metrics.PipelineStats{}
	return &Client{
		mdm:         c,
		mdmAddr:     addr,
		Identity:    identity,
		Role:        role,
		Keys:        xmltree.DefaultKeys,
		pool:        make(map[string]*store.Client),
		subRecs:     make(map[uint64]*subRecord),
		subByServer: make(map[uint64]uint64),
		lat:         make(map[string]time.Duration),
		Resilience:  resilience.NewGroup(resilience.Policy{}, resilience.BreakerConfig{}, nil),
		flights:     flight.NewGroup(pipe),
		pipe:        pipe,
		Tracer:      trace.NewCollector("client", 0, 0),
		Budgets:     Budgets{TraceReport: 2 * time.Second},
		traceQ:      make(chan []trace.Span, 64),
		traceQuit:   make(chan struct{}),
	}, nil
}

// withBudget applies the default operation deadline when the caller's
// context has none.
func (c *Client) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok || c.Budgets.Op <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.Budgets.Op)
}

// startRoot begins a trace for a client operation: a fresh trace unless
// ctx already carries one (nested client calls join the outer trace). The
// returned finish closure completes the span and, when this call minted
// the trace, reports the finished span set to the MDM so the whole
// constellation's trace directory holds the tree.
func (c *Client) startRoot(ctx context.Context, name string) (context.Context, func(err error)) {
	tctx, sp, rr := trace.StartRoot(ctx, c.Tracer, name)
	return tctx, func(err error) {
		sp.Finish(err)
		if rr != nil {
			c.queueReport(rr.Drain())
		}
	}
}

// queueReport hands a finished trace to the background reporter,
// non-blocking: marshalling and writing the report on the request path
// would tax every resolve (E17 measures this).
func (c *Client) queueReport(spans []trace.Span) {
	if len(spans) == 0 {
		return
	}
	c.traceOnce.Do(func() {
		go func() {
			for {
				select {
				case spans := <-c.traceQ:
					c.reportTrace(spans)
				case <-c.traceQuit:
					return
				}
			}
		}()
	})
	select {
	case c.traceQ <- spans:
	case <-c.traceQuit:
	default: // reporter backed up; drop the trace
	}
}

// reportTrace delivers a finished trace to the MDM, fire-and-forget: a
// one-way frame, no response, errors ignored (tracing must never fail a
// request). Reports go over a dedicated connection, dialed on first use,
// so telemetry never queues ahead of request frames.
func (c *Client) reportTrace(spans []trace.Span) {
	if len(spans) == 0 {
		return
	}
	conn, err := c.traceConnection()
	if err != nil {
		return
	}
	d := c.Budgets.TraceReport
	if d <= 0 {
		d = 2 * time.Second
	}
	rctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := conn.Send(rctx, wire.TypeTraceReport, wire.TraceReportRequest{Spans: spans}); err != nil {
		// Drop the dead connection; the next report redials.
		c.traceMu.Lock()
		if c.traceConn == conn {
			c.traceConn = nil
		}
		c.traceMu.Unlock()
		conn.Close()
	}
}

// traceConnection returns the out-of-band reporting connection, dialing it
// on first use.
func (c *Client) traceConnection() (*wire.Client, error) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	if c.traceConn != nil {
		return c.traceConn, nil
	}
	conn, err := wire.Dial(c.mdmAddr)
	if err != nil {
		return nil, err
	}
	c.traceConn = conn
	return conn, nil
}

// NewTrace explicitly begins a traced operation for callers (like gupctl)
// that want the trace ID. finish completes the root span and reports the
// trace to the MDM.
func (c *Client) NewTrace(ctx context.Context, name string) (tctx context.Context, traceID string, finish func(err error)) {
	tctx, sp, rr := trace.StartRoot(ctx, c.Tracer, name)
	return tctx, sp.TraceID(), func(err error) {
		sp.Finish(err)
		if rr != nil {
			c.reportTrace(rr.Drain())
		}
	}
}

// TraceSpans fetches one trace's spans from the MDM's trace directory.
func (c *Client) TraceSpans(ctx context.Context, traceID string) ([]trace.Span, error) {
	var resp wire.TraceResponse
	if err := c.mdm.Call(ctx, wire.TypeTrace, &wire.TraceRequest{TraceID: traceID}, &resp); err != nil {
		return nil, err
	}
	return resp.Spans, nil
}

// SlowTraces fetches recent slow-query traces from the MDM.
func (c *Client) SlowTraces(ctx context.Context, max int) ([]trace.SlowTrace, error) {
	var resp wire.SlowResponse
	if err := c.mdm.Call(ctx, wire.TypeSlow, &wire.SlowRequest{Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Pipeline exposes the client's resolve-pipeline counters.
func (c *Client) Pipeline() *metrics.PipelineStats { return c.pipe }

// observeLatency folds a fetch duration into the address's EWMA.
func (c *Client) observeLatency(addr string, d time.Duration) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if prev, ok := c.lat[addr]; ok {
		c.lat[addr] = (3*prev + d) / 4
	} else {
		c.lat[addr] = d
	}
}

// latencyScore estimates an alternative's cost: the worst known EWMA among
// its referrals. Unknown addresses score zero, so fresh replicas get tried
// (and measured) ahead of known-slow ones.
func (c *Client) latencyScore(alt wire.Alternative) time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	var worst time.Duration
	for _, ref := range alt.Referrals {
		if d := c.lat[ref.Address]; d > worst {
			worst = d
		}
	}
	return worst
}

// Close tears down the MDM connection and pooled store connections.
func (c *Client) Close() error {
	c.poolMu.Lock()
	for addr, sc := range c.pool {
		sc.Close()
		delete(c.pool, addr)
	}
	c.poolMu.Unlock()
	c.leaderMu.Lock()
	if c.leaderConn != nil {
		c.leaderConn.Close()
		c.leaderConn = nil
	}
	c.leaderMu.Unlock()
	c.subMu.Lock()
	c.subClosed = true
	if c.subConn != nil {
		c.subConn.Close()
		c.subConn = nil
	}
	c.subMu.Unlock()
	c.traceMu.Lock()
	if c.traceConn != nil {
		c.traceConn.Close()
		c.traceConn = nil
	}
	if c.traceQuit != nil {
		select {
		case <-c.traceQuit:
		default:
			close(c.traceQuit)
		}
	}
	c.traceMu.Unlock()
	return c.mdm.Close()
}

func (c *Client) contextFor(purpose policy.Purpose) policy.Context {
	return policy.Context{Requester: c.Identity, Role: c.Role, Purpose: purpose}
}

// callMutate issues a directory mutation, chasing redirects: on a
// quorum-replicated constellation a follower refuses mutations and names
// the leader; on a sharded directory the wrong shard refuses and names
// the owner's home. The client follows both transparently instead of
// surfacing the refusal. Three hops bound the chase (wrong shard, then
// not-leader inside the target constellation, then one leadership move);
// beyond that the topology is churning and the caller should see the
// error.
func (c *Client) callMutate(ctx context.Context, typ string, req, resp any) error {
	return c.callDirectory(ctx, typ, req, resp)
}

func (c *Client) callDirectory(ctx context.Context, typ string, req, resp any) error {
	err := c.mdm.Call(ctx, typ, req, resp)
	for hops := 0; hops < 3; hops++ {
		var addr string
		var nl *wire.NotLeaderError
		var ws *wire.WrongShardError
		switch {
		case errors.As(err, &nl) && nl.LeaderAddr != "":
			addr = nl.LeaderAddr
		case errors.As(err, &ws) && ws.Addr != "":
			addr = ws.Addr
		default:
			return err
		}
		lc, derr := c.leaderClient(addr)
		if derr != nil {
			return err
		}
		err = lc.Call(ctx, typ, req, resp)
	}
	return err
}

// leaderClient returns (dialing or re-dialing on demand) the cached
// connection to the redirected-to leader.
func (c *Client) leaderClient(addr string) (*wire.Client, error) {
	c.leaderMu.Lock()
	defer c.leaderMu.Unlock()
	if c.leaderConn != nil && c.leaderAddr == addr {
		return c.leaderConn, nil
	}
	lc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if c.leaderConn != nil {
		c.leaderConn.Close()
	}
	c.leaderConn, c.leaderAddr = lc, addr
	return lc, nil
}

// Resolve asks the MDM for referrals (or data, for chaining/recruiting),
// following a wrong-shard redirect when the dialed MDM is not the owner's
// home shard.
func (c *Client) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	var resp wire.ResolveResponse
	if err := c.callDirectory(ctx, wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) storeClient(addr string) (*store.Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("gupster: referral without store address")
	}
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if sc, ok := c.pool[addr]; ok {
		return sc, nil
	}
	sc, err := store.DialClient(addr)
	if err != nil {
		return nil, err
	}
	c.pool[addr] = sc
	return sc, nil
}

func (c *Client) dropStoreClient(addr string) {
	c.poolMu.Lock()
	if sc, ok := c.pool[addr]; ok {
		sc.Close()
		delete(c.pool, addr)
	}
	c.poolMu.Unlock()
}

// Get resolves and fetches a profile component with the referral pattern:
// alternatives are tried in order (the choice operator), and within an
// alternative every referral is fetched and the pieces deep-unioned.
func (c *Client) Get(ctx context.Context, path string) (*xmltree.Node, error) {
	return c.GetAs(ctx, path, c.contextFor(policy.PurposeQuery))
}

// GetAs is Get with an explicit request context. Identical concurrent
// calls (same path and context) coalesce into one resolve + fetch;
// followers receive an independent clone of the shared tree, so callers
// may mutate their result freely. A call never joins a flight that began
// before this client's last completed write, so the client reads its
// own writes.
func (c *Client) GetAs(ctx context.Context, path string, reqCtx policy.Context) (*xmltree.Node, error) {
	ctx, cancel := c.withBudget(ctx)
	defer cancel()
	ctx, finish := c.startRoot(ctx, "client.get")
	doc, err := c.getAs(ctx, path, reqCtx)
	finish(err)
	return doc, err
}

func (c *Client) getAs(ctx context.Context, path string, reqCtx policy.Context) (*xmltree.Node, error) {
	do := func() (*xmltree.Node, error) {
		resp, err := c.Resolve(ctx, &wire.ResolveRequest{
			Path:    path,
			Context: reqCtx,
			Verb:    token.VerbFetch,
		})
		if err != nil {
			return nil, err
		}
		return c.FollowReferrals(ctx, resp)
	}
	if c.DisableCoalescing {
		return do()
	}
	v, shared, err := c.flights.Do(ctx, c.getKey(path, reqCtx), func() (any, error) { return do() })
	if err != nil {
		return nil, err
	}
	doc, _ := v.(*xmltree.Node)
	if shared && doc != nil {
		doc = doc.Clone()
	}
	return doc, nil
}

// getKey is the coalescing key of a GetAs: the request plus the client's
// write generation.
func (c *Client) getKey(path string, reqCtx policy.Context) string {
	return path + "\x00" + reqCtx.Requester + "\x00" + reqCtx.Role + "\x00" + string(reqCtx.Purpose) +
		"\x00" + strconv.FormatUint(c.writeGen.Load(), 10)
}

// BatchResolve sends several resolves in one frame; the MDM answers the
// entries concurrently and positionally (Results[i] ↔ Requests[i]).
func (c *Client) BatchResolve(ctx context.Context, req *wire.BatchResolveRequest) (*wire.BatchResolveResponse, error) {
	var resp wire.BatchResolveResponse
	if err := c.mdm.Call(ctx, wire.TypeBatchResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// BatchResult is the outcome of one path of a GetBatch.
type BatchResult struct {
	Doc *xmltree.Node
	Err error
}

// GetBatch fetches several profile paths through one batch-resolve frame
// (amortizing framing and MDM round trips) and follows each entry's
// referrals on the client's bounded fan-out pool. Results are positional
// and independent — one denied path does not fail its siblings.
func (c *Client) GetBatch(ctx context.Context, paths []string) ([]BatchResult, error) {
	ctx, cancel := c.withBudget(ctx)
	defer cancel()
	ctx, finish := c.startRoot(ctx, "client.get-batch")
	out, err := c.getBatch(ctx, paths)
	finish(err)
	return out, err
}

func (c *Client) getBatch(ctx context.Context, paths []string) ([]BatchResult, error) {
	reqs := make([]wire.ResolveRequest, len(paths))
	for i, p := range paths {
		reqs[i] = wire.ResolveRequest{
			Path:    p,
			Context: c.contextFor(policy.PurposeQuery),
			Verb:    token.VerbFetch,
		}
	}
	resp, err := c.BatchResolve(ctx, &wire.BatchResolveRequest{Requests: reqs})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(paths) {
		return nil, fmt.Errorf("gupster: batch answered %d of %d entries", len(resp.Results), len(paths))
	}
	out := make([]BatchResult, len(paths))
	if len(paths) > 1 {
		c.pipe.FanOuts.Add(1)
		c.pipe.FanOutCalls.Add(uint64(len(paths)))
	}
	_ = flight.ForEach(ctx, len(paths), c.FanOut, func(i int) error {
		entry := resp.Results[i]
		if entry.Error != "" {
			out[i].Err = fmt.Errorf("gupster: %s", entry.Error)
			return nil
		}
		if entry.Response == nil {
			out[i].Err = fmt.Errorf("gupster: batch entry %d has no response", i)
			return nil
		}
		out[i].Doc, out[i].Err = c.FollowReferrals(ctx, entry.Response)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GetVia fetches through a server-side pattern (chaining or recruiting):
// one round trip, data comes back from the MDM.
func (c *Client) GetVia(ctx context.Context, path string, pattern wire.QueryPattern) (*xmltree.Node, error) {
	ctx, cancel := c.withBudget(ctx)
	defer cancel()
	ctx, finish := c.startRoot(ctx, "client.resolve")
	doc, err := c.getVia(ctx, path, pattern)
	finish(err)
	return doc, err
}

func (c *Client) getVia(ctx context.Context, path string, pattern wire.QueryPattern) (*xmltree.Node, error) {
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeQuery),
		Verb:    token.VerbFetch,
		Pattern: pattern,
	})
	if err != nil {
		return nil, err
	}
	if resp.Data == "" {
		return nil, nil
	}
	return xmltree.ParseString(resp.Data)
}

// FollowReferrals executes a referral-pattern response: alternatives are
// tried in ascending order of observed store latency (closest replica
// first, §5.3), pieces within an alternative fetched concurrently and
// merged. Alternatives whose stores have tripped circuit breakers sink
// to the back of the order — they stay reachable as a last resort, but a
// healthy replica is always preferred (fallback-to-next-covering-store).
func (c *Client) FollowReferrals(ctx context.Context, resp *wire.ResolveResponse) (*xmltree.Node, error) {
	if resp.Data != "" {
		return xmltree.ParseString(resp.Data)
	}
	alts := append([]wire.Alternative(nil), resp.Alternatives...)
	if !c.DisableLatencyRouting {
		sort.SliceStable(alts, func(i, j int) bool {
			return c.latencyScore(alts[i]) < c.latencyScore(alts[j])
		})
	}
	var ready, tripped []wire.Alternative
	for _, alt := range alts {
		if c.altAvailable(alt) {
			ready = append(ready, alt)
		} else {
			tripped = append(tripped, alt)
		}
	}
	alts = append(ready, tripped...)
	var lastErr error
	for i, alt := range alts {
		merged, err := c.fetchAlternative(ctx, alt)
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			c.Resilience.Stats.Fallbacks.Add(1)
		}
		return merged, nil
	}
	if lastErr == nil {
		lastErr = ErrNoCoverage
	}
	return nil, lastErr
}

// altAvailable reports whether every store of an alternative currently
// accepts traffic according to its breaker.
func (c *Client) altAvailable(alt wire.Alternative) bool {
	for _, ref := range alt.Referrals {
		if !c.Resilience.Available(ref.Address) {
			return false
		}
	}
	return true
}

// fetchAlternative fetches an alternative's pieces on a bounded worker
// pool (Client.FanOut) and deep-unions them in referral order.
func (c *Client) fetchAlternative(ctx context.Context, alt wire.Alternative) (*xmltree.Node, error) {
	pieces := make([]*xmltree.Node, len(alt.Referrals))
	if len(alt.Referrals) > 1 {
		c.pipe.FanOuts.Add(1)
		c.pipe.FanOutCalls.Add(uint64(len(alt.Referrals)))
	}
	// No per-fetch client span: the store's own span rides back on the
	// fetch reply and the EWMA latency map already times each store from
	// this side, so a span here would only duplicate both at measurable
	// per-request cost (E17).
	err := flight.ForEach(ctx, len(alt.Referrals), c.FanOut, func(i int) error {
		ref := alt.Referrals[i]
		// Each attempt re-resolves the pooled connection so a retry
		// after a failure dials afresh.
		return c.Resilience.Do(ctx, ref.Address, func(actx context.Context) error {
			sc, err := c.storeClient(ref.Address)
			if err != nil {
				return err
			}
			start := time.Now()
			d, _, err := sc.Fetch(actx, ref.Query)
			if err != nil {
				c.dropStoreClient(ref.Address)
				return err
			}
			c.observeLatency(ref.Address, time.Since(start))
			pieces[i] = d
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return xmltree.MergeAll(c.Keys, pieces...), nil
}

// Update resolves an update grant and writes the fragment to every store
// fully covering the component (profile data is stored redundantly, §2.3
// requirement 4; a write must reach all replicas). It returns the number of
// stores written.
func (c *Client) Update(ctx context.Context, path string, frag *xmltree.Node) (int, error) {
	defer c.writeGen.Add(1) // even a failed update may have written some stores
	ctx, cancel := c.withBudget(ctx)
	defer cancel()
	ctx, finish := c.startRoot(ctx, "client.update")
	n, err := c.update(ctx, path, frag)
	finish(err)
	return n, err
}

func (c *Client) update(ctx context.Context, path string, frag *xmltree.Node) (int, error) {
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeProvision),
		Verb:    token.VerbUpdate,
	})
	if err != nil {
		return 0, err
	}
	written := 0
	seen := map[string]bool{}
	for _, alt := range resp.Alternatives {
		for _, ref := range alt.Referrals {
			key := ref.Query.Store + "\x00" + ref.Query.Path
			if seen[key] {
				continue
			}
			seen[key] = true
			// For partial referrals the store only holds a piece: extract
			// the matching piece of the fragment if possible.
			toWrite := frag
			if alt.Merge != "" {
				if sub := extractForReferral(frag, ref, c.Keys); sub != nil {
					toWrite = sub
				}
			}
			// Component writes are scoped replaces, so retrying one is
			// idempotent.
			err := c.Resilience.Do(ctx, ref.Address, func(actx context.Context) error {
				sc, err := c.storeClient(ref.Address)
				if err != nil {
					return err
				}
				if _, err := sc.Update(actx, ref.Query, toWrite); err != nil {
					c.dropStoreClient(ref.Address)
					return err
				}
				return nil
			})
			if err != nil {
				return written, err
			}
			written++
		}
	}
	if written == 0 {
		return 0, ErrNoCoverage
	}
	return written, nil
}

// extractForReferral narrows an update fragment to the piece a
// partial-cover store is responsible for: the container pruned to the
// children matching the referral's granted path (the store applies it as a
// scoped replace). frag is rooted at the component element; the granted
// path ends inside it. An empty container (all matching items removed)
// is a valid result.
func extractForReferral(frag *xmltree.Node, ref wire.Referral, keys xmltree.KeySpec) *xmltree.Node {
	p, err := ref.Query.ParsedPath()
	if err != nil || len(p.Steps) == 0 {
		return nil
	}
	// Find the suffix of the granted path starting at the fragment's
	// element name.
	for i, s := range p.Steps {
		if s.Name == frag.Name || s.Name == "*" {
			sub := xpath.Path{Steps: p.Steps[i:]}
			if len(sub.Steps) == 1 {
				return frag
			}
			if got := xpath.Extract(frag, sub); got != nil {
				return got
			}
			// No children match: send the bare container so the store
			// clears its piece.
			shell := &xmltree.Node{Name: frag.Name, Text: frag.Text}
			for k, v := range frag.Attrs {
				shell.SetAttr(k, v)
			}
			return shell
		}
	}
	return nil
}

// subRecord is the client's durable record of one push subscription: what
// was subscribed and where notifications go. id is the stable handle the
// caller holds; serverID is the serving node's ID for the current
// incarnation and changes on every re-subscribe.
type subRecord struct {
	id       uint64
	path     string
	handler  func(wire.Notification)
	serverID uint64
}

// SetReconnectAddrs supplies extra addresses (constellation members, shard
// peers) the client may try when re-homing subscriptions after losing its
// notification connection. The learned leader address and the original
// MDM address are always tried first.
func (c *Client) SetReconnectAddrs(addrs []string) {
	c.subMu.Lock()
	c.subAddrs = append([]string(nil), addrs...)
	c.subMu.Unlock()
}

// Subscribe registers a push subscription; handler runs on the client's
// notification loop and must not block. The returned handle stays valid
// across leader failovers and shard handoffs: when the serving node dies
// or cancels the subscription with a tombstone, the client re-subscribes
// on the constellation transparently and keeps delivering under the same
// handle.
func (c *Client) Subscribe(ctx context.Context, path string, handler func(wire.Notification)) (uint64, error) {
	c.subMu.Lock()
	conn, err := c.subConnLocked()
	if err != nil {
		c.subMu.Unlock()
		return 0, err
	}
	c.subNextID++
	rec := &subRecord{id: c.subNextID, path: path, handler: handler}
	c.subMu.Unlock()

	if err := c.subscribeOn(ctx, conn, rec); err != nil {
		return 0, err
	}
	c.subMu.Lock()
	c.subRecs[rec.id] = rec
	c.subByServer[rec.serverID] = rec.id
	c.subMu.Unlock()
	return rec.id, nil
}

// Unsubscribe cancels a subscription.
func (c *Client) Unsubscribe(ctx context.Context, subID uint64) error {
	c.subMu.Lock()
	rec, ok := c.subRecs[subID]
	var conn *wire.Client
	if ok {
		delete(c.subRecs, subID)
		delete(c.subByServer, rec.serverID)
		conn = c.subConn
	}
	c.subMu.Unlock()
	if !ok || conn == nil {
		return nil
	}
	return conn.Call(ctx, wire.TypeUnsubscribe, &wire.UnsubscribeRequest{SubID: rec.serverID}, nil)
}

// subConnLocked returns the dedicated notification connection, dialing it
// on first use. Caller holds subMu. Notifications ride a connection of
// their own so a re-home never disturbs the request connection, and vice
// versa.
func (c *Client) subConnLocked() (*wire.Client, error) {
	if c.subConn != nil {
		return c.subConn, nil
	}
	return c.adoptSubConnLocked(c.mdmAddr)
}

// adoptSubConnLocked dials addr and installs it as the notification
// connection, wiring the dispatch and disconnect hooks. Caller holds subMu.
func (c *Client) adoptSubConnLocked(addr string) (*wire.Client, error) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if c.subConn != nil {
		c.subConn.Close()
	}
	c.subConn, c.subConnAddr = conn, addr
	conn.OnNotify(func(msgType string, payload []byte) {
		if msgType != wire.TypeNotify {
			return
		}
		var n wire.Notification
		if err := wire.Unmarshal(payload, &n); err != nil {
			return
		}
		c.dispatchNotification(n)
	})
	conn.OnDisconnect(func(error) { c.rehomeSubs(conn) })
	return conn, nil
}

// dispatchNotification routes a server notification to the caller's
// handler under the stable handle. A tombstone (the serving node reset its
// directory or handed the owner to another shard) triggers a background
// re-subscribe instead of reaching the handler.
func (c *Client) dispatchNotification(n wire.Notification) {
	c.subMu.Lock()
	id, ok := c.subByServer[n.SubID]
	rec := c.subRecs[id]
	if ok && n.Canceled {
		delete(c.subByServer, n.SubID)
		rec.serverID = 0
	}
	c.subMu.Unlock()
	if !ok || rec == nil {
		return
	}
	if n.Canceled {
		go c.resubscribe(rec)
		return
	}
	n.SubID = rec.id
	rec.handler(n)
}

// resubscribe re-establishes one tombstoned subscription on the current
// notification connection (chasing redirects). Failure is retried by the
// next disconnect/re-home cycle, not here: a tombstone arrives on a live
// connection, so one attempt is the common case.
func (c *Client) resubscribe(rec *subRecord) {
	c.subMu.Lock()
	conn := c.subConn
	closed := c.subClosed
	c.subMu.Unlock()
	if closed || conn == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.subscribeOn(ctx, conn, rec); err != nil {
		return
	}
	c.subMu.Lock()
	if _, live := c.subRecs[rec.id]; live {
		c.subByServer[rec.serverID] = rec.id
	}
	c.subMu.Unlock()
}

// subscribeOn issues one subscribe for rec on conn, chasing a not-leader
// or wrong-shard redirect (two hops) by re-homing the notification
// connection to the named address. On success rec.serverID holds the new
// server-side ID.
func (c *Client) subscribeOn(ctx context.Context, conn *wire.Client, rec *subRecord) error {
	req := &wire.SubscribeRequest{Path: rec.path, Context: c.contextFor(policy.PurposeSubscribe)}
	var resp wire.SubscribeResponse
	err := conn.Call(ctx, wire.TypeSubscribe, req, &resp)
	for hops := 0; hops < 2 && err != nil; hops++ {
		addr := ""
		var nl *wire.NotLeaderError
		var ws *wire.WrongShardError
		switch {
		case errors.As(err, &nl) && nl.LeaderAddr != "":
			addr = nl.LeaderAddr
		case errors.As(err, &ws) && ws.Addr != "":
			addr = ws.Addr
		default:
			return err
		}
		c.subMu.Lock()
		next, derr := c.adoptSubConnLocked(addr)
		c.subMu.Unlock()
		if derr != nil {
			return err
		}
		conn = next
		err = conn.Call(ctx, wire.TypeSubscribe, req, &resp)
	}
	if err != nil {
		return err
	}
	rec.serverID = resp.SubID
	return nil
}

// rehomeSubs runs when the notification connection dies with live
// subscriptions outstanding: it re-dials the constellation — the learned
// leader first, then the original address, then any SetReconnectAddrs
// candidates — and re-subscribes every record there. Without it a leader
// failover silently orphans every push subscription: the client keeps a
// dead handle and the next change is never delivered.
func (c *Client) rehomeSubs(dead *wire.Client) {
	c.subMu.Lock()
	if c.subClosed || c.subConn != dead || len(c.subRecs) == 0 || c.subRehoming {
		c.subMu.Unlock()
		return
	}
	c.subRehoming = true
	c.subMu.Unlock()
	defer func() {
		c.subMu.Lock()
		c.subRehoming = false
		c.subMu.Unlock()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.subMu.Lock()
		if c.subClosed || len(c.subRecs) == 0 {
			c.subMu.Unlock()
			return
		}
		c.leaderMu.Lock()
		leader := c.leaderAddr
		c.leaderMu.Unlock()
		candidates := make([]string, 0, 2+len(c.subAddrs))
		if leader != "" {
			candidates = append(candidates, leader)
		}
		candidates = append(candidates, c.mdmAddr)
		candidates = append(candidates, c.subAddrs...)
		c.subMu.Unlock()

		for _, addr := range candidates {
			if c.rehomeSubsTo(addr) {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// rehomeSubsTo tries to move every live subscription to addr; it reports
// whether all of them re-established (possibly elsewhere, via redirects).
func (c *Client) rehomeSubsTo(addr string) bool {
	c.subMu.Lock()
	conn, err := c.adoptSubConnLocked(addr)
	recs := make([]*subRecord, 0, len(c.subRecs))
	for _, rec := range c.subRecs {
		recs = append(recs, rec)
	}
	c.subMu.Unlock()
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, rec := range recs {
		c.subMu.Lock()
		delete(c.subByServer, rec.serverID)
		conn = c.subConn // subscribeOn may have re-homed the connection
		c.subMu.Unlock()
		if err := c.subscribeOn(ctx, conn, rec); err != nil {
			return false
		}
		c.subMu.Lock()
		if _, live := c.subRecs[rec.id]; live {
			c.subByServer[rec.serverID] = rec.id
		}
		c.subMu.Unlock()
	}
	return true
}

// PutRule provisions a privacy-shield rule for owner (self-provisioning —
// "enter once, use everywhere" requires the owner to stay in control).
func (c *Client) PutRule(ctx context.Context, owner string, rule policy.Rule) error {
	defer c.writeGen.Add(1)
	return c.callMutate(ctx, wire.TypePutRule, &wire.PutRuleRequest{
		Owner: owner,
		Rule:  encodeRule(rule),
	}, nil)
}

// DeleteRule removes a rule.
func (c *Client) DeleteRule(ctx context.Context, owner, ruleID string) error {
	defer c.writeGen.Add(1)
	return c.callMutate(ctx, wire.TypeDeleteRule, &wire.DeleteRuleRequest{Owner: owner, RuleID: ruleID}, nil)
}

// SyncDeviceComponent resolves an update grant for path and runs one sync
// session for the device against the first fully-covering store.
func (c *Client) SyncDeviceComponent(ctx context.Context, path string, dev *syncml.Device, pol syncml.Policy) (syncml.Stats, error) {
	defer c.writeGen.Add(1)
	resp, err := c.Resolve(ctx, &wire.ResolveRequest{
		Path:    path,
		Context: c.contextFor(policy.PurposeSync),
		Verb:    token.VerbUpdate,
	})
	if err != nil {
		return syncml.Stats{}, err
	}
	for _, alt := range resp.Alternatives {
		if len(alt.Referrals) != 1 {
			continue // sync needs a single authoritative store
		}
		ref := alt.Referrals[0]
		sc, err := c.storeClient(ref.Address)
		if err != nil {
			return syncml.Stats{}, err
		}
		return dev.Sync(ctx, sc.SyncTransport(ref.Query), pol)
	}
	return syncml.Stats{}, fmt.Errorf("gupster: no single-store referral to sync %s against", path)
}

// Provenance fetches the caller's own disclosure ledger (who accessed what
// of my profile) — the §7 data-provenance challenge. Only the owner may
// read it.
func (c *Client) Provenance(ctx context.Context, sinceSeq uint64) ([]wire.ProvenanceRecord, error) {
	var resp wire.ProvenanceResponse
	err := c.mdm.Call(ctx, wire.TypeProvenance, &wire.ProvenanceRequest{
		Owner: c.Identity, Requester: c.Identity, SinceSeq: sinceSeq,
	}, &resp)
	return resp.Records, err
}

// ProvenanceSummary fetches the per-requester disclosure rollup.
func (c *Client) ProvenanceSummary(ctx context.Context) ([]wire.ProvenanceSummary, error) {
	var resp wire.ProvenanceResponse
	err := c.mdm.Call(ctx, wire.TypeProvenance, &wire.ProvenanceRequest{
		Owner: c.Identity, Requester: c.Identity, Summarize: true,
	}, &resp)
	return resp.Summaries, err
}

// Stats fetches the MDM's counters.
func (c *Client) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var resp wire.StatsResponse
	if err := c.mdm.Call(ctx, wire.TypeStats, wire.Empty{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
