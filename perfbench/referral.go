package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// referralRig is one MDM (no journal, replication, shard or cache) in
// front of four stores; each owner's whole profile lives in one store.
type referralRig struct {
	signer  *token.Signer
	schema  *schema.Schema
	mdm     *core.MDM
	srv     *core.Server
	stores  []*storeNode
	clients []*core.Client
	or      *oracle
}

const (
	referralOwners = 5000
	referralStores = 4
	// referralBook gives a ~1 KB address book.
	referralBook = 12
)

func newReferral(seed int64, clients int) (rig, error) {
	r := &referralRig{signer: token.NewSigner(signerKey), schema: schema.GUP(), or: newOracle(referralOwners)}
	r.mdm = core.New(mdmConfig(r.signer, 0))
	r.srv = core.NewServer(r.mdm)
	if err := r.srv.Start("127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	if err := seedWholeProfiles(seed, referralOwners, referralBook, referralStores, r.signer, r.mdm, r.or, &r.stores); err != nil {
		r.close()
		return nil, err
	}
	cs, err := dialClients(r.srv.Addr(), clients)
	if err != nil {
		r.close()
		return nil, err
	}
	r.clients = cs
	return r, nil
}

// seedWholeProfiles starts nStores stores and places owner i's whole
// profile in store i mod nStores, registering it and its shield at m.
func seedWholeProfiles(seed int64, owners, book, nStores int, signer *token.Signer, m *core.MDM, or *oracle, stores *[]*storeNode) error {
	for k := 0; k < nStores; k++ {
		st, err := startStore(fmt.Sprintf("store-%d", k), signer)
		if err != nil {
			return err
		}
		*stores = append(*stores, st)
	}
	return parallel(owners, runtime.NumCPU(), func(i int) error {
		p := makeProfile(seed, i, book)
		or.learn(i, p)
		u := ownerID(i)
		st := (*stores)[i%nStores]
		whole := xpath.MustParse(fmt.Sprintf("/user[@id='%s']", u))
		if _, err := st.eng.Put(u, whole, p.document(u)); err != nil {
			return err
		}
		if err := m.Register(coverage.StoreID(st.id), st.srv.Addr(), whole); err != nil {
			return err
		}
		for _, rule := range shield {
			req := rulePayload(u, rule)
			if err := m.PutRule(u, &req); err != nil {
				return err
			}
		}
		return nil
	})
}

func (r *referralRig) exec(ctx context.Context, c int, o op) error {
	cl := r.clients[c]
	path := sectionPath(ownerID(o.owner), o.section)
	switch o.kind {
	case opRead:
		if o.section != "presence" {
			doc, err := cl.GetAs(ctx, path, readContext(o))
			return r.or.checkRead(o, doc, err, 0, 0)
		}
		lo, done := r.or.beginPresenceRead(c, o)
		doc, err := cl.GetAs(ctx, path, readContext(o))
		done()
		return r.or.checkRead(o, doc, err, lo, r.or.started(o.owner))
	case opPresence:
		return updatePresence(ctx, cl, r.or, o.owner)
	}
	return fmt.Errorf("referral: unexpected op kind %d", o.kind)
}

// updatePresence writes owner i's next presence version through the
// gateway client.
func updatePresence(ctx context.Context, cl *core.Client, or *oracle, i int) error {
	path := sectionPath(ownerID(i), "presence")
	return or.writePresence(i, func(frag *xmltree.Node) error {
		n, err := cl.Update(ctx, path, frag)
		if err == nil && n != 1 {
			err = fmt.Errorf("%w: presence update wrote %d stores, want 1", errWrongAnswer, n)
		}
		return err
	})
}

func (r *referralRig) counters() progCounters {
	var p progCounters
	p.addMDM(r.mdm)
	p.addClients(r.clients)
	return p
}

func (r *referralRig) replay(ctx context.Context, o op, rp *replayer) error {
	return replayReferralRead(ctx, o, rp, r.mdm, r.schema, r.signer, r.stores)
}

// replayReferralRead replays a referral read in blocking order: the
// resolve hop (request frame, path parse, schema check, shield decision,
// coverage lookup, signing, reply frame), then the direct store fetch
// (request frame, token check, engine read, serialization, reply frame)
// and the client's parse and merge. The in-process MDM.Resolve and the
// loopback store fetch are timed as separate top-level calls: they
// contain the layer calls above.
func replayReferralRead(ctx context.Context, o op, rp *replayer, m *core.MDM, sc *schema.Schema, signer *token.Signer, stores []*storeNode) error {
	owner := ownerID(o.owner)
	path := sectionPath(owner, o.section)
	req := wire.ResolveRequest{Path: path, Context: readContext(o), Verb: token.VerbFetch}
	rp.topLevel("core.mdm_resolve", func() { _, _ = m.Resolve(ctx, &req) })
	if err := rp.frame(0, frame{typ: wire.TypeResolve, payload: req, into: into[wire.ResolveRequest]()}); err != nil {
		return err
	}
	var p xpath.Path
	var err error
	rp.timed(0, "xpath.parse", func() { p, err = xpath.Parse(path) })
	if err != nil {
		return err
	}
	rp.timed(0, "schema.validate", func() { err = sc.ValidatePath(p) })
	if err != nil {
		return err
	}
	var d policy.Decision
	rp.timed(0, "policy.decide", func() { d = m.PDP.Decide(owner, p, req.Context) })
	if !d.Granted() {
		return rp.frame(0, frame{typ: wire.TypeResolve, reply: true, refusal: fmt.Sprintf("%v: %s for %s", core.ErrDenied, path, o.requester)})
	}
	var matches []coverage.Match
	rp.timed(0, "coverage.lookup", func() { matches = m.Registry.Lookup(d.Grants[0]) })
	rp.lookups++
	rp.matches += len(matches)
	if len(matches) == 0 {
		return fmt.Errorf("replay: no coverage for %s", path)
	}
	st := storeByID(stores, string(matches[0].Store))
	var q token.SignedQuery
	rp.timed(0, "token.sign", func() {
		q = signer.Sign(st.id, owner, d.Grants[0], token.VerbFetch, o.requester, 30*time.Second)
	})
	resp := wire.ResolveResponse{Alternatives: []wire.Alternative{{Referrals: []wire.Referral{{Query: q, Address: st.srv.Addr()}}}}}
	if err := rp.frame(0, frame{typ: wire.TypeResolve, reply: true, payload: resp, into: into[wire.ResolveResponse]()}); err != nil {
		return err
	}
	if err := loopbackFetch(ctx, rp, st, q); err != nil {
		return err
	}
	xml, err := replayStoreLayers(rp, 0, signer, st, q)
	if err != nil {
		return err
	}
	var got *xmltree.Node
	rp.timed(0, "xmltree.parse", func() { got, err = xmltree.ParseString(xml) })
	if err != nil {
		return err
	}
	rp.timed(0, "xmltree.merge", func() { _ = xmltree.MergeAll(xmltree.DefaultKeys, got) })
	return nil
}

// loopbackFetch times a real fetch from the store over loopback.
func loopbackFetch(ctx context.Context, rp *replayer, st *storeNode, q token.SignedQuery) error {
	sc, err := st.client()
	if err != nil {
		return err
	}
	rp.topLevel("store.fetch", func() { _, _, err = sc.Fetch(ctx, q) })
	return err
}

// replayStoreLayers replays one store fetch under parent: request frame,
// token check, engine read, serialization and reply frame.
func replayStoreLayers(rp *replayer, parent uint64, signer *token.Signer, st *storeNode, q token.SignedQuery) (string, error) {
	if err := rp.frame(parent, frame{typ: wire.TypeFetch, payload: wire.FetchRequest{Query: q}, into: into[wire.FetchRequest]()}); err != nil {
		return "", err
	}
	var err error
	rp.timed(parent, "token.verify", func() { err = signer.Verify(&q, st.id, token.VerbFetch) })
	if err != nil {
		return "", err
	}
	p, err := q.ParsedPath()
	if err != nil {
		return "", err
	}
	var doc *xmltree.Node
	rp.timed(parent, "store.get", func() { doc, _, err = st.eng.Get(q.Owner, p) })
	if err != nil {
		return "", err
	}
	var xml string
	rp.timed(parent, "xmltree.serialize", func() { xml = doc.String() })
	rp.xmls = append(rp.xmls, xml)
	err = rp.frame(parent, frame{typ: wire.TypeFetch, reply: true, spans: true, payload: wire.FetchResponse{XML: xml, Version: 1}, into: into[wire.FetchResponse]()})
	return xml, err
}

func storeByID(stores []*storeNode, id string) *storeNode {
	for _, s := range stores {
		if s.id == id {
			return s
		}
	}
	return stores[0]
}

func (r *referralRig) close() {
	closeClients(r.clients)
	if r.srv != nil {
		r.srv.Close()
	}
	if r.mdm != nil {
		r.mdm.Close()
	}
	closeStores(r.stores)
}
