package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/shard"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// chainingRig is thin clients reaching two directory shards through one
// data-less router. Each owner's address book is split across two
// stores as partial covers, so a cache miss fans out and deep-unions.
type chainingRig struct {
	signer  *token.Signer
	schema  *schema.Schema
	shards  []*shardNode
	ring    *shard.Ring
	router  *wire.Server
	stores  []*storeNode
	clients []*core.Client
	or      *oracle

	// relaying gates the stores' change-notice relay: off while seeding.
	relaying atomic.Bool
	// direct are the replay's connections: to the router and to each
	// shard, for the forward-hop cost.
	direct map[string]*wire.Client
	dmu    sync.Mutex
}

type shardNode struct {
	id   string
	mdm  *core.MDM
	node *shard.Node
	srv  *wire.Server
	addr string
	// relay carries change notices from the stores to this shard, as a
	// datastored's directory connection does.
	relay *wire.Client
}

const (
	chainingOwners = 2000
	chainingShards = 2
	chainingStores = 4
	// chainingBook gives a ~4 KB address book.
	chainingBook = 50
	// chainingCache is each shard's component cache, below its share of
	// the working set (1,000 owners).
	chainingCache = 200
)

func newChaining(seed int64, clients int) (rig, error) {
	r := &chainingRig{signer: token.NewSigner(signerKey), schema: schema.GUP(), or: newOracle(chainingOwners), direct: map[string]*wire.Client{}}
	if err := r.build(seed, clients); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *chainingRig) build(seed int64, clients int) error {
	m := wire.ShardMap{Version: 1}
	for i := 0; i < chainingShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mdm := core.New(mdmConfig(r.signer, chainingCache))
		id := fmt.Sprintf("shard-%d", i)
		sn := &shardNode{id: id, mdm: mdm, addr: ln.Addr().String()}
		sn.node = shard.NewNode(shard.NodeConfig{ShardID: id, MDM: mdm, Inner: wire.HandlerFunc(core.NewServer(mdm).Handle)})
		sn.srv = wire.ServeListener(ln, sn.node)
		r.shards = append(r.shards, sn)
		m.Shards = append(m.Shards, wire.ShardInfo{ID: id, Addr: sn.addr})
	}
	for _, sn := range r.shards {
		if _, err := sn.node.Install(&wire.ShardInstallRequest{Map: m}); err != nil {
			return err
		}
		c, err := wire.Dial(sn.addr)
		if err != nil {
			return err
		}
		sn.relay = c
	}
	ring, err := shard.BuildRing(m)
	if err != nil {
		return err
	}
	r.ring = ring
	router, err := shard.NewRouter(m, shard.RouterConfig{})
	if err != nil {
		return err
	}
	if r.router, err = wire.Serve("127.0.0.1:0", router); err != nil {
		return err
	}
	for k := 0; k < chainingStores; k++ {
		st, err := startStore(fmt.Sprintf("store-%d", k), r.signer)
		if err != nil {
			return err
		}
		st.eng.OnChange(func(u string, p xpath.Path, frag *xmltree.Node, v uint64) {
			if r.relaying.Load() {
				r.relayChange(st.id, u, p, frag, v)
			}
		})
		r.stores = append(r.stores, st)
	}
	if err := parallel(chainingOwners, runtime.NumCPU(), func(i int) error { return r.seedOwner(seed, i) }); err != nil {
		return err
	}
	r.relaying.Store(true)
	cs, err := dialClients(r.router.Addr(), clients)
	if err != nil {
		return err
	}
	r.clients = cs
	return nil
}

// seedOwner splits owner i's address book into its personal and
// corporate halves on a pair of stores and registers both halves, the
// presence component and the shield at the owner's home shard.
func (r *chainingRig) seedOwner(seed int64, i int) error {
	p := makeProfile(seed, i, chainingBook)
	r.or.learn(i, p)
	u := ownerID(i)
	personal, corporate := workload.SplitAddressBook(p["address-book"])
	a, b := r.stores[2*(i%2)], r.stores[2*(i%2)+1]
	book := xpath.MustParse(sectionPath(u, "address-book"))
	if _, err := a.eng.Put(u, book, personal); err != nil {
		return err
	}
	if _, err := b.eng.Put(u, book, corporate); err != nil {
		return err
	}
	if _, err := a.eng.Put(u, xpath.MustParse(sectionPath(u, "presence")), p["presence"]); err != nil {
		return err
	}
	home := r.home(u).mdm
	regs := []struct {
		st   *storeNode
		path string
	}{
		{a, sectionPath(u, "address-book") + "/item[@type='personal']"},
		{b, sectionPath(u, "address-book") + "/item[@type='corporate']"},
		{a, sectionPath(u, "presence")},
	}
	for _, reg := range regs {
		if err := home.Register(coverage.StoreID(reg.st.id), reg.st.srv.Addr(), xpath.MustParse(reg.path)); err != nil {
			return err
		}
	}
	for _, rule := range shield {
		req := rulePayload(u, rule)
		if err := home.PutRule(u, &req); err != nil {
			return err
		}
	}
	return nil
}

func (r *chainingRig) home(owner string) *shardNode {
	id := r.ring.Owner(owner).ID
	for _, s := range r.shards {
		if s.id == id {
			return s
		}
	}
	return r.shards[0]
}

// relayChange forwards a store's change notice to the owner's home
// shard, which invalidates the owner's cached components.
func (r *chainingRig) relayChange(storeID, u string, p xpath.Path, frag *xmltree.Node, v uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.home(u).relay.Call(ctx, wire.TypeChanged, &wire.ChangedNotice{
		Store: storeID, User: u, Path: p.String(), XML: frag.String(), Version: v,
	}, nil)
}

func (r *chainingRig) exec(ctx context.Context, c int, o op) error {
	cl := r.clients[c]
	switch o.kind {
	case opRead:
		doc, err := cl.GetVia(ctx, sectionPath(ownerID(o.owner), o.section), wire.PatternChaining)
		return r.or.checkRead(o, doc, err, 0, 0)
	case opPresence:
		return updatePresence(ctx, cl, r.or, o.owner)
	}
	return fmt.Errorf("chaining_routed: unexpected op kind %d", o.kind)
}

func (r *chainingRig) counters() progCounters {
	var p progCounters
	for _, s := range r.shards {
		p.addMDM(s.mdm)
	}
	p.addClients(r.clients)
	return p
}

func (r *chainingRig) conn(addr string) (*wire.Client, error) {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if c, ok := r.direct[addr]; ok {
		return c, nil
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	r.direct[addr] = c
	return c, nil
}

// replay replays a chaining read in blocking order: the client-to-router
// and router-to-shard request frames, the MDM's parse, schema check,
// shield decision and coverage lookup, and — when the answer is not
// cached — the parallel fetch of both halves, their merge and
// serialization; then both reply frames and the client's parse. The
// in-process MDM.Resolve and the same resolve sent through the router
// and straight to the home shard are separate top-level calls.
func (r *chainingRig) replay(ctx context.Context, o op, rp *replayer) error {
	owner := ownerID(o.owner)
	path := sectionPath(owner, o.section)
	home := r.home(owner)
	req := wire.ResolveRequest{Path: path, Context: policy.Context{Requester: gatewayID, Role: roleGateway, Purpose: policy.PurposeQuery},
		Verb: token.VerbFetch, Pattern: wire.PatternChaining}
	var resolved *wire.ResolveResponse
	rp.topLevel("core.mdm_resolve", func() { resolved, _ = home.mdm.Resolve(ctx, &req) })
	if resolved == nil {
		return fmt.Errorf("replay: chaining resolve of %s failed", path)
	}
	for _, hop := range []struct{ name, addr string }{{"shard.via_router", r.router.Addr()}, {"shard.direct", home.addr}} {
		c, err := r.conn(hop.addr)
		if err != nil {
			return err
		}
		var resp wire.ResolveResponse
		rp.topLevel(hop.name, func() { err = c.Call(ctx, wire.TypeResolve, &req, &resp) })
		var ws *wire.WrongShardError
		switch {
		case errors.As(err, &ws):
			rp.redirects++
		case err != nil:
			return fmt.Errorf("replay: resolve via %s: %w", hop.name, err)
		}
	}
	for hop := 0; hop < 2; hop++ {
		if err := rp.frame(0, frame{typ: wire.TypeResolve, payload: req, into: into[wire.ResolveRequest]()}); err != nil {
			return err
		}
	}
	var p xpath.Path
	var err error
	rp.timed(0, "xpath.parse", func() { p, err = xpath.Parse(path) })
	if err != nil {
		return err
	}
	rp.timed(0, "schema.validate", func() { err = r.schema.ValidatePath(p) })
	if err != nil {
		return err
	}
	var d policy.Decision
	rp.timed(0, "policy.decide", func() { d = home.mdm.PDP.Decide(owner, p, req.Context) })
	if !d.Granted() {
		return fmt.Errorf("replay: gateway read of %s denied", path)
	}
	var matches []coverage.Match
	rp.timed(0, "coverage.lookup", func() { matches = home.mdm.Registry.Lookup(d.Grants[0]) })
	rp.lookups++
	rp.matches += len(matches)
	xml := resolved.Data
	if !resolved.Cached {
		if xml, err = r.replayFanOut(ctx, rp, owner, d.Grants[0], matches); err != nil {
			return err
		}
	}
	for hop := 0; hop < 2; hop++ {
		if err := rp.frame(0, frame{typ: wire.TypeResolve, reply: true, payload: wire.ResolveResponse{Data: xml}, into: into[wire.ResolveResponse]()}); err != nil {
			return err
		}
	}
	rp.timed(0, "xmltree.parse", func() { _, err = xmltree.ParseString(xml) })
	return err
}

// replayFanOut replays a cache miss: sign a referral per half, fetch
// both halves in parallel as the MDM does, merge and serialize.
func (r *chainingRig) replayFanOut(ctx context.Context, rp *replayer, owner string, grant xpath.Path, matches []coverage.Match) (string, error) {
	type piece struct {
		st  *storeNode
		q   token.SignedQuery
		doc *xmltree.Node
		err error
	}
	pieces := make([]*piece, 0, len(matches))
	for _, mt := range matches {
		cut, ok := xpath.Intersect(grant, mt.Path)
		if !ok {
			continue
		}
		pc := &piece{st: storeByID(r.stores, string(mt.Store))}
		rp.timed(0, "token.sign", func() {
			pc.q = r.signer.Sign(pc.st.id, owner, cut, token.VerbFetch, gatewayID, 30*time.Second)
		})
		pieces = append(pieces, pc)
	}
	// The loopback fetches run before the fan-out so their time stays
	// out of its interval.
	for _, pc := range pieces {
		if err := loopbackFetch(ctx, rp, pc.st, pc.q); err != nil {
			return "", err
		}
	}
	var mu sync.Mutex
	rp.group("core.fanout", func(parent uint64) {
		var wg sync.WaitGroup
		for _, pc := range pieces {
			wg.Add(1)
			go func(pc *piece) {
				defer wg.Done()
				sub := &replayer{log: rp.log, req: rp.req, root: rp.root}
				var xml string
				xml, pc.err = replayStoreLayers(sub, parent, r.signer, pc.st, pc.q)
				if pc.err == nil {
					sub.timed(parent, "xmltree.parse", func() { pc.doc, pc.err = xmltree.ParseString(xml) })
				}
				mu.Lock()
				rp.merge(sub)
				mu.Unlock()
			}(pc)
		}
		wg.Wait()
	})
	docs := make([]*xmltree.Node, 0, len(pieces))
	for _, pc := range pieces {
		if pc.err != nil {
			return "", pc.err
		}
		docs = append(docs, pc.doc)
	}
	var merged *xmltree.Node
	rp.timed(0, "xmltree.merge", func() { merged = xmltree.MergeAll(xmltree.DefaultKeys, docs...) })
	var xml string
	rp.timed(0, "xmltree.serialize", func() { xml = merged.String() })
	return xml, nil
}

func (r *chainingRig) close() {
	closeClients(r.clients)
	r.dmu.Lock()
	for _, c := range r.direct {
		c.Close()
	}
	r.dmu.Unlock()
	if r.router != nil {
		r.router.Close()
	}
	for _, s := range r.shards {
		if s.relay != nil {
			s.relay.Close()
		}
		s.srv.Close()
		s.node.Close()
		s.mdm.Close()
	}
	closeStores(r.stores)
}
