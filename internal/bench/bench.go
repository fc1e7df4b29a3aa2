// Package bench contains the experiment drivers behind cmd/gupbench: each
// Run* function executes one experiment from EXPERIMENTS.md against live
// components (real TCP between client, MDM and stores) and renders the
// result table with derived columns (ratios, hit rates, bytes). E16, E17
// and E19 are committed scenarios run through internal/scenario; CPU and
// allocation cost per operation is measured by perfbench/.
package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/federation"
	"gupster/internal/hlr"
	"gupster/internal/metrics"
	"gupster/internal/policy"
	"gupster/internal/presence"
	"gupster/internal/reachme"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

var benchKey = []byte("gupbench-shared-key")

// Options tune experiment sizes.
type Options struct {
	// Iters is the per-cell iteration count.
	Iters int
}

func (o Options) iters(def int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	return def
}

// rig is one MDM plus k stores holding a split component.
type rig struct {
	mdm    *core.MDM
	mdmSrv *core.Server
	stores []*store.Server
	client *core.Client
}

func newRig(k, sizeBytes, cacheEntries int) (*rig, error) {
	signer := token.NewSigner(benchKey)
	mdm := core.New(core.Config{
		Schema: schema.GUP(), Signer: signer,
		GrantTTL: time.Minute, CacheEntries: cacheEntries,
	})
	srv := core.NewServer(mdm)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r := &rig{mdm: mdm, mdmSrv: srv}

	book := workload.AddressBookOfSize(sizeBytes, workload.Rand(1))
	pieces := make([]*xmltree.Node, k)
	for i := range pieces {
		pieces[i] = xmltree.New("address-book")
	}
	for i, item := range book.ChildrenNamed("item") {
		it := item.Clone()
		it.SetAttr("type", fmt.Sprintf("t%d", i%k))
		pieces[i%k].Add(it)
	}
	for i := 0; i < k; i++ {
		eng := store.NewEngine(fmt.Sprintf("store-%d", i))
		ssrv := store.NewServer(eng, signer)
		if err := ssrv.Start("127.0.0.1:0"); err != nil {
			r.close()
			return nil, err
		}
		r.stores = append(r.stores, ssrv)
		if _, err := eng.Put("u", xpath.MustParse("/user[@id='u']/address-book"), pieces[i]); err != nil {
			r.close()
			return nil, err
		}
		reg := "/user[@id='u']/address-book"
		if k > 1 {
			reg = fmt.Sprintf("/user[@id='u']/address-book/item[@type='t%d']", i)
		}
		if err := mdm.Register(coverage.StoreID(eng.ID()), ssrv.Addr(), xpath.MustParse(reg)); err != nil {
			r.close()
			return nil, err
		}
	}
	cli, err := core.DialMDM(srv.Addr(), "u", "self")
	if err != nil {
		r.close()
		return nil, err
	}
	r.client = cli
	return r, nil
}

func (r *rig) close() {
	if r.client != nil {
		r.client.Close()
	}
	if r.mdm != nil {
		r.mdm.Close()
	}
	if r.mdmSrv != nil {
		r.mdmSrv.Close()
	}
	for _, s := range r.stores {
		s.Close()
	}
}

// RunE1 — distributed query patterns: latency and MDM data volume.
func RunE1(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E1 — query patterns: referral vs chaining vs recruiting (§5.2)",
		"stores", "size", "pattern", "p50", "p99", "MDM B/op")
	iters := o.iters(200)
	for _, k := range []int{1, 2, 4, 8} {
		for _, size := range []int{1 << 10, 16 << 10} {
			for _, pattern := range []wire.QueryPattern{
				wire.PatternReferral, wire.PatternChaining, wire.PatternRecruiting,
			} {
				r, err := newRig(k, size, 0)
				if err != nil {
					return nil, err
				}
				h := metrics.NewHistogram()
				before := r.mdm.Stats.BytesProxied.Load()
				ctx := context.Background()
				for i := 0; i < iters; i++ {
					start := time.Now()
					if pattern == wire.PatternReferral {
						_, err = r.client.Get(ctx, "/user[@id='u']/address-book")
					} else {
						_, err = r.client.GetVia(ctx, "/user[@id='u']/address-book", pattern)
					}
					if err != nil {
						r.close()
						return nil, err
					}
					h.Record(time.Since(start))
				}
				proxied := r.mdm.Stats.BytesProxied.Load() - before
				t.AddRow(k, fmt.Sprintf("%dKiB", size>>10), string(pattern),
					h.Percentile(50), h.Percentile(99), int(proxied)/iters)
				r.close()
			}
		}
	}
	return t, nil
}

// RunE2 — MDM overhead against direct store access.
func RunE2(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E2 — MDM mediation overhead (§5.3 scalability)",
		"access", "clients", "p50", "p99", "ops/s")
	iters := o.iters(300)
	r, err := newRig(1, 4<<10, 0)
	if err != nil {
		return nil, err
	}
	defer r.close()
	signer := token.NewSigner(benchKey)
	path := xpath.MustParse("/user[@id='u']/address-book")

	// Direct.
	sc, err := store.DialClient(r.stores[0].Addr())
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	q := signer.Sign("store-0", "u", path, token.VerbFetch, "u", time.Hour)
	h := metrics.NewHistogram()
	tp := metrics.StartThroughput()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, _, err := sc.Fetch(context.Background(), q); err != nil {
			return nil, err
		}
		h.Record(time.Since(start))
	}
	tp.Add(iters)
	t.AddRow("direct-to-store", 1, h.Percentile(50), h.Percentile(99), tp.PerSecond())

	// Via MDM, at growing concurrency.
	for _, clients := range []int{1, 8, 32} {
		h := metrics.NewHistogram()
		tp := metrics.StartThroughput()
		var wg sync.WaitGroup
		perClient := iters / clients
		if perClient == 0 {
			perClient = 1
		}
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cli, err := core.DialMDM(r.mdmSrv.Addr(), "u", "self")
				if err != nil {
					errCh <- err
					return
				}
				defer cli.Close()
				for i := 0; i < perClient; i++ {
					start := time.Now()
					if _, err := cli.Get(context.Background(), "/user[@id='u']/address-book"); err != nil {
						errCh <- err
						return
					}
					h.Record(time.Since(start))
				}
			}()
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
		tp.Add(clients * perClient)
		t.AddRow("via-mdm-referral", clients, h.Percentile(50), h.Percentile(99), tp.PerSecond())
	}
	return t, nil
}

// RunE3 — access-control placement.
func RunE3(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E3 — access-control placement: MDM vs store replicas (§5.3)",
		"variant", "rules", "replicas", "decision p50", "sync msgs/change")
	iters := o.iters(2000)
	mkRepo := func(rules int) *policy.Repository {
		repo := policy.NewRepository()
		s := &policy.Shield{Owner: "alice"}
		for i := 0; i < rules; i++ {
			s.Rules = append(s.Rules, policy.Rule{
				ID:     fmt.Sprintf("r%04d", i),
				Path:   xpath.MustParse(fmt.Sprintf("/user[@id='alice']/address-book/item[@name='c%d']", i)),
				Cond:   policy.RequesterIs(fmt.Sprintf("u%d", i)),
				Effect: policy.Permit,
			})
		}
		s.Rules = append(s.Rules, policy.Rule{
			ID: "family", Path: xpath.MustParse("/user[@id='alice']/presence"),
			Cond: policy.RoleIs("family"), Effect: policy.Permit,
		})
		repo.Put(s)
		return repo
	}
	req := xpath.MustParse("/user[@id='alice']/presence")
	ctx := policy.Context{Requester: "mom", Role: "family"}

	for _, rules := range []int{10, 100, 1000} {
		repo := mkRepo(rules)
		pdp := &policy.DecisionPoint{Repo: repo}
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			pdp.Decide("alice", req, ctx)
			h.Record(time.Since(start))
		}
		t.AddRow("mdm-side", rules, "-", h.Percentile(50), 0)
	}
	for _, replicas := range []int{1, 8, 64} {
		repo := mkRepo(100)
		reps := make([]*policy.Replica, replicas)
		for i := range reps {
			reps[i] = policy.NewReplica()
			reps[i].SyncFrom(repo)
		}
		h := metrics.NewHistogram()
		transferred := 0
		changes := o.iters(100)
		for i := 0; i < changes; i++ {
			repo.Put(&policy.Shield{Owner: "alice"})
			for _, rp := range reps {
				transferred += rp.SyncFrom(repo)
			}
			start := time.Now()
			reps[0].Decide("alice", req, ctx)
			h.Record(time.Since(start))
		}
		t.AddRow("store-side", 100, replicas, h.Percentile(50), transferred/changes)
	}
	return t, nil
}

// RunE4 — MDM caching under Zipf access.
func RunE4(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E4 — MDM component cache under Zipf(1.2) access (§5.2)",
		"cache entries", "p50", "p99", "hit %")
	iters := o.iters(500)
	const users = 64
	for _, cacheEntries := range []int{0, 8, 32, 64} {
		signer := token.NewSigner(benchKey)
		mdm := core.New(core.Config{
			Schema: schema.GUP(), Signer: signer,
			GrantTTL: time.Minute, CacheEntries: cacheEntries,
		})
		srv := core.NewServer(mdm)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		eng := store.NewEngine("s1")
		ssrv := store.NewServer(eng, signer)
		if err := ssrv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		rng := workload.Rand(2)
		for i := 0; i < users; i++ {
			u := workload.UserID(i)
			eng.Put(u, xpath.MustParse(fmt.Sprintf("/user[@id='%s']/address-book", u)), workload.AddressBook(20, rng))
		}
		mdm.Register("s1", ssrv.Addr(), xpath.MustParse("/user/address-book"))
		cli, err := core.DialMDM(srv.Addr(), "self", "self")
		if err != nil {
			return nil, err
		}
		pop := workload.NewPopulation(users, 1.2, 3)
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			u := pop.Next()
			cli.Identity = u
			start := time.Now()
			if _, err := cli.GetVia(context.Background(), fmt.Sprintf("/user[@id='%s']/address-book", u), wire.PatternChaining); err != nil {
				return nil, err
			}
			h.Record(time.Since(start))
		}
		hits, misses := mdm.Stats.CacheHits.Load(), mdm.Stats.CacheMisses.Load()
		hitPct := 0.0
		if hits+misses > 0 {
			hitPct = 100 * float64(hits) / float64(hits+misses)
		}
		t.AddRow(cacheEntries, h.Percentile(50), h.Percentile(99), hitPct)
		cli.Close()
		mdm.Close()
		srv.Close()
		ssrv.Close()
	}
	return t, nil
}

// RunE5 — synchronization: fast vs slow across sizes and change rates.
func RunE5(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E5 — device sync: fast (delta) vs slow (full) (§2.3 req 7)",
		"entries", "changed", "mode", "p50", "bytes down/op")
	iters := o.iters(50)
	for _, entries := range []int{100, 1000} {
		for _, changePct := range []int{1, 10, 50} {
			for _, slow := range []bool{false, true} {
				eng := store.NewEngine("s1")
				srv := &syncml.Server{Store: eng, Keys: xmltree.DefaultKeys}
				path := xpath.MustParse("/user[@id='u']/address-book")
				rng := workload.Rand(7)
				eng.Put("u", path, workload.AddressBook(entries, rng))
				tr := &localTransport{srv: srv, user: "u", path: path}
				dev := syncml.NewDevice(xmltree.DefaultKeys)
				if _, err := dev.Sync(context.Background(), tr, syncml.ServerWins); err != nil {
					return nil, err
				}
				changes := entries * changePct / 100
				if changes == 0 {
					changes = 1
				}
				h := metrics.NewHistogram()
				var bytesDown int64
				for i := 0; i < iters; i++ {
					comp, _, err := eng.GetComponent("u", path)
					if err != nil {
						return nil, err
					}
					items := comp.ChildrenNamed("item")
					for c := 0; c < changes; c++ {
						items[(i*13+c)%len(items)].Children[0].Text = fmt.Sprintf("908-%06d", i*1000+c)
					}
					eng.Put("u", path, comp)
					if slow {
						dev.Anchor = 0
					}
					start := time.Now()
					st, err := dev.Sync(context.Background(), tr, syncml.ServerWins)
					if err != nil {
						return nil, err
					}
					h.Record(time.Since(start))
					bytesDown += int64(st.BytesDown)
				}
				mode := "fast"
				if slow {
					mode = "slow"
				}
				t.AddRow(entries, fmt.Sprintf("%d%%", changePct), mode, h.Percentile(50), int(bytesDown)/iters)
			}
		}
	}
	return t, nil
}

type localTransport struct {
	srv  *syncml.Server
	user string
	path xpath.Path
}

func (t *localTransport) SyncStart(_ context.Context, lastAnchor uint64) (*wire.SyncStartResponse, error) {
	return t.srv.HandleStart(t.user, t.path, lastAnchor)
}

func (t *localTransport) SyncDelta(_ context.Context, req *wire.SyncDeltaRequest) (*wire.SyncDeltaResponse, error) {
	return t.srv.HandleDelta(t.user, t.path, req)
}

// RunE6 — coverage lookup scalability.
func RunE6(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E6 — coverage lookup: indexed vs linear scan (§4.5)",
		"registrations", "indexed p50", "linear p50", "speedup")
	iters := o.iters(500)
	sections := []string{"presence", "calendar", "address-book", "devices", "self"}
	for _, n := range []int{100, 1000, 10000, 100000} {
		reg := coverage.New()
		users := n / len(sections)
		if users == 0 {
			users = 1
		}
		for u := 0; u < users; u++ {
			for s, sec := range sections {
				reg.Register(xpath.MustParse(fmt.Sprintf("/user[@id='%s']/%s", workload.UserID(u), sec)),
					coverage.StoreID(fmt.Sprintf("store-%d", s)))
			}
		}
		q := xpath.MustParse(fmt.Sprintf("/user[@id='%s']/presence", workload.UserID(users/2)))
		hi := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			reg.Lookup(q)
			hi.Record(time.Since(start))
		}
		linIters := iters
		if n >= 100000 {
			linIters = iters / 10
		}
		hl := metrics.NewHistogram()
		for i := 0; i < linIters; i++ {
			start := time.Now()
			reg.LinearLookup(q)
			hl.Record(time.Since(start))
		}
		speedup := float64(hl.Percentile(50)) / float64(hi.Percentile(50))
		t.AddRow(reg.Len(), hi.Percentile(50), hl.Percentile(50), speedup)
	}
	return t, nil
}

// RunE7 — the reach-me decision over the full converged testbed.
func RunE7(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E7 — selective reach-me decision latency (§2.2: budget 'a few seconds')",
		"gathering", "p50", "p99", "max", "in budget (<2s)")
	iters := o.iters(100)
	tb, err := workload.NewTestbed(workload.TestbedOptions{
		Users: 8, BookEntries: 40, Seed: 5, AllowRole: "reachme",
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cli, err := tb.Client("reachme-svc", "reachme")
	if err != nil {
		return nil, err
	}
	getter := reachme.GetterFunc(func(ctx context.Context, path string) (*xmltree.Node, error) {
		return cli.Get(ctx, path)
	})
	at := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	for _, seq := range []bool{false, true} {
		svc := &reachme.Service{Profile: getter, Sequential: seq}
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := svc.Decide(context.Background(), tb.Users[i%len(tb.Users)], at); err != nil {
				return nil, err
			}
			h.Record(time.Since(start))
		}
		name := "parallel fan-out"
		if seq {
			name = "sequential"
		}
		t.AddRow(name, h.Percentile(50), h.Percentile(99), h.Max(), h.Max() < 2*time.Second)
	}
	return t, nil
}

// RunE8 — push subscriptions vs polling.
func RunE8(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E8 — presence: push subscription vs polling (§5.2)",
		"mode", "events observed", "shield evals", "msgs", "evals/event")
	iters := o.iters(200)

	// Poll: the watcher polls; presence changes only every 10th poll.
	{
		tb, err := workload.NewTestbed(workload.TestbedOptions{Users: 1, Seed: 9})
		if err != nil {
			return nil, err
		}
		user := tb.Users[0]
		tb.WatchPresence(user)
		cli, err := tb.Client(user, "self")
		if err != nil {
			tb.Close()
			return nil, err
		}
		before := tb.MDM.Stats.ShieldEvals.Load()
		changes := 0
		for i := 0; i < iters; i++ {
			if i%10 == 0 {
				tb.Presence.Set(user, presence.Status([]string{"available", "busy"}[changes%2]), "")
				changes++
			}
			if _, err := cli.Get(context.Background(), fmt.Sprintf("/user[@id='%s']/presence", user)); err != nil {
				tb.Close()
				return nil, err
			}
		}
		evals := tb.MDM.Stats.ShieldEvals.Load() - before
		t.AddRow("poll (10:1 polls:changes)", changes, evals, iters, float64(evals)/float64(changes))
		tb.Close()
	}
	// Push: one subscription; the shield is evaluated only per change.
	{
		tb, err := workload.NewTestbed(workload.TestbedOptions{Users: 1, Seed: 9})
		if err != nil {
			return nil, err
		}
		user := tb.Users[0]
		tb.WatchPresence(user)
		cli, err := tb.Client(user, "self")
		if err != nil {
			tb.Close()
			return nil, err
		}
		var delivered atomic.Int64
		done := make(chan struct{})
		changes := max(iters/10, 1) // at least one, or done never closes
		if _, err := cli.Subscribe(context.Background(),
			fmt.Sprintf("/user[@id='%s']/presence", user),
			func(wire.Notification) {
				if delivered.Add(1) == int64(changes) {
					close(done)
				}
			}); err != nil {
			tb.Close()
			return nil, err
		}
		before := tb.MDM.Stats.ShieldEvals.Load()
		for i := 0; i < changes; i++ {
			tb.Presence.Set(user, presence.Status([]string{"available", "busy"}[i%2]), "")
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			tb.Close()
			return nil, fmt.Errorf("bench: push notifications stalled at %d/%d", delivered.Load(), changes)
		}
		evals := tb.MDM.Stats.ShieldEvals.Load() - before
		t.AddRow("push (subscription)", changes, evals, int64(changes)+1, float64(evals)/float64(changes))
		tb.Close()
	}
	return t, nil
}

// RunE9 — MDM architecture variants.
func RunE9(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E9 — meta-data architectures (§5.1)",
		"architecture", "hops", "p50", "p99")
	iters := o.iters(300)
	signer := token.NewSigner(benchKey)
	eng := store.NewEngine("s1")
	ssrv := store.NewServer(eng, signer)
	if err := ssrv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer ssrv.Close()
	p := xpath.MustParse("/user[@id='alice']/presence")
	eng.Put("alice", p, xmltree.MustParse(`<presence status="on"/>`))
	req := &wire.ResolveRequest{
		Path:    "/user[@id='alice']/presence",
		Context: policy.Context{Requester: "alice"},
		Verb:    token.VerbFetch,
	}
	mkMDM := func() (*core.MDM, *core.Server, error) {
		m := core.New(core.Config{Schema: schema.GUP(), Signer: signer, GrantTTL: time.Minute})
		s := core.NewServer(m)
		if err := s.Start("127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		return m, s, nil
	}

	// Centralized.
	{
		m, s, err := mkMDM()
		if err != nil {
			return nil, err
		}
		m.Register("s1", ssrv.Addr(), p)
		cli, err := core.DialMDM(s.Addr(), "alice", "self")
		if err != nil {
			return nil, err
		}
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := cli.Resolve(context.Background(), req); err != nil {
				return nil, err
			}
			h.Record(time.Since(start))
		}
		t.AddRow("centralized", 0, h.Percentile(50), h.Percentile(99))
		cli.Close()
		m.Close()
		s.Close()
	}
	// User-level distributed through white pages.
	{
		m, s, err := mkMDM()
		if err != nil {
			return nil, err
		}
		m.Register("s1", ssrv.Addr(), p)
		wp := federation.NewWhitePages()
		wp.Set("alice", s.Addr(), false)
		wpSrv, err := wp.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		loc, err := federation.NewLocator(wpSrv.Addr())
		if err != nil {
			return nil, err
		}
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := loc.Resolve(context.Background(), "alice", req); err != nil {
				return nil, err
			}
			h.Record(time.Since(start))
		}
		t.AddRow("user-distributed (white pages)", 0, h.Percentile(50), h.Percentile(99))
		loc.Close()
		wpSrv.Close()
		m.Close()
		s.Close()
	}
	// Hierarchical at depths 1 and 2.
	for _, depth := range []int{1, 2} {
		leafMDM, leafSrvRaw, err := mkMDM()
		if err != nil {
			return nil, err
		}
		leafSrvRaw.Close() // the node serves instead
		leafMDM.Register("s1", ssrv.Addr(), p)
		leaf := federation.NewNode(leafMDM)
		lsrv, err := leaf.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := lsrv.Addr()
		closers := []func(){func() { lsrv.Close(); leaf.Close(); leafMDM.Close() }}
		for d := 1; d < depth; d++ {
			midMDM, midSrvRaw, err := mkMDM()
			if err != nil {
				return nil, err
			}
			midSrvRaw.Close()
			mid := federation.NewNode(midMDM)
			mid.Delegate(p, addr)
			msrv, err := mid.Serve("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addr = msrv.Addr()
			closers = append(closers, func() { msrv.Close(); mid.Close(); midMDM.Close() })
		}
		topMDM, topSrvRaw, err := mkMDM()
		if err != nil {
			return nil, err
		}
		topSrvRaw.Close()
		top := federation.NewNode(topMDM)
		top.Delegate(p, addr)
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			resp, err := top.Resolve(context.Background(), req)
			if err != nil {
				return nil, err
			}
			if resp.Hops != depth {
				return nil, fmt.Errorf("bench: hops = %d, want %d", resp.Hops, depth)
			}
			h.Record(time.Since(start))
		}
		t.AddRow("hierarchical", depth, h.Percentile(50), h.Percentile(99))
		top.Close()
		topMDM.Close()
		for _, c := range closers {
			c()
		}
	}
	return t, nil
}

// RunE10 — reconciliation throughput.
func RunE10(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E10 — address-book reconciliation: deep union (§2.3 req 6)",
		"items/side", "overlap", "p50", "merged items")
	iters := o.iters(100)
	for _, items := range []int{100, 1000} {
		for _, overlapPct := range []int{0, 50, 100} {
			rng := workload.Rand(11)
			a := workload.AddressBook(items, rng)
			shared := items * overlapPct / 100
			c := xmltree.New("address-book")
			for i, item := range a.ChildrenNamed("item") {
				if i >= shared {
					break
				}
				dup := item.Clone()
				dup.Add(xmltree.NewText("note", "other"))
				c.Add(dup)
			}
			for i := shared; i < items; i++ {
				it := xmltree.New("item").SetAttr("name", fmt.Sprintf("other-%d", i))
				it.Add(xmltree.NewText("phone", "555"))
				c.Add(it)
			}
			h := metrics.NewHistogram()
			merged := 0
			for i := 0; i < iters; i++ {
				start := time.Now()
				u := xmltree.DeepUnion(a, c, xmltree.DefaultKeys)
				h.Record(time.Since(start))
				merged = len(u.ChildrenNamed("item"))
			}
			t.AddRow(items, fmt.Sprintf("%d%%", overlapPct), h.Percentile(50), merged)
		}
	}
	return t, nil
}

// RunE11 — HLR load.
func RunE11(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E11 — HLR: location updates vs call deliveries (§3.1.2)",
		"subscribers", "mix (upd:del)", "p50", "ops/s")
	iters := o.iters(20000)
	for _, subs := range []int{10000, 100000} {
		h := hlr.New()
		for i := 0; i < 8; i++ {
			h.AddVLR(fmt.Sprintf("vlr-%d", i), fmt.Sprintf("msc-%d", i), true)
		}
		for i := 0; i < subs; i++ {
			h.AddSubscriber(hlr.Subscriber{IMSI: fmt.Sprintf("imsi-%d", i), MSISDN: fmt.Sprintf("555-%07d", i)})
			h.LocationUpdate(fmt.Sprintf("imsi-%d", i), fmt.Sprintf("vlr-%d", i%8), "cell")
		}
		for _, mix := range []struct {
			name    string
			updates int
		}{{"1:4", 1}, {"4:1", 4}} {
			hist := metrics.NewHistogram()
			tp := metrics.StartThroughput()
			for i := 0; i < iters; i++ {
				n := i % subs
				start := time.Now()
				if i%5 < mix.updates {
					h.LocationUpdate(fmt.Sprintf("imsi-%d", n), fmt.Sprintf("vlr-%d", i%8), "cell")
				} else {
					h.CallDelivery("caller", fmt.Sprintf("555-%07d", n))
				}
				hist.Record(time.Since(start))
			}
			tp.Add(iters)
			t.AddRow(subs, mix.name, hist.Percentile(50), tp.PerSecond())
		}
	}
	return t, nil
}

// RunE12 — spurious-query filtering.
func RunE12(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("E12 — spurious-query filtering at the MDM (§5.3)",
		"request", "outcome", "p50")
	iters := o.iters(5000)
	s := schema.GUP()
	cases := []struct {
		name, path, outcome string
	}{
		{"valid component path", "/user[@id='a']/address-book/item[@type='personal']", "accepted"},
		{"unknown element", "/user[@id='a']/shoe-size", "rejected"},
		{"unknown attribute", "/user/address-book/item[@colour='red']", "rejected"},
		{"wrong root", "/person/presence", "rejected"},
	}
	for _, c := range cases {
		p := xpath.MustParse(c.path)
		h := metrics.NewHistogram()
		for i := 0; i < iters; i++ {
			start := time.Now()
			err := s.ValidatePath(p)
			h.Record(time.Since(start))
			if (err == nil) != (c.outcome == "accepted") {
				return nil, fmt.Errorf("bench: %s: unexpected outcome", c.name)
			}
		}
		t.AddRow(c.name, c.outcome, h.Percentile(50))
	}
	return t, nil
}

// RunFig5 prints the profile placement the testbed realizes — the paper's
// Figure 5 table, as actually registered with the MDM.
func RunFig5() (*metrics.Table, error) {
	tb, err := workload.NewTestbed(workload.TestbedOptions{Users: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	t := metrics.NewTable("Figure 5 — where profile data is stored (as registered coverage)",
		"network", "store", "coverage path")
	network := map[string]string{
		workload.StoreHLR:        "Wireless",
		workload.StorePSTN:       "PSTN",
		workload.StoreSIP:        "VoIP",
		workload.StorePortal:     "Web (portal)",
		workload.StoreEnterprise: "Web (enterprise)",
	}
	for _, reg := range tb.MDM.Registry.Snapshot() {
		t.AddRow(network[string(reg.Store)], string(reg.Store), reg.Path.String())
	}
	return t, nil
}
