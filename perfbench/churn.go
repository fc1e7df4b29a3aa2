package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/journal"
	"gupster/internal/policy"
	"gupster/internal/replication"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xpath"
)

// churnRig is a three-member quorum constellation with fsynced journals
// (as gupsterd -data-dir -peers runs) in front of two data stores, plus
// a joining store whose coverage comes and goes.
type churnRig struct {
	signer  *token.Signer
	schema  *schema.Schema
	members []*member
	leader  *member
	stores  []*storeNode
	joiner  *storeNode
	clients []*core.Client
	// dir carries the coverage churn: core.Client has no registration
	// call, so registrations go over a plain directory connection per
	// load client, as a store's registrar sends them.
	dir []*wire.Client
	or  *oracle
	// shieldOn and coverOn track each owner's churn state, so every
	// delete finds what it deletes; locks serialise one owner's edits.
	locks    []sync.Mutex
	shieldOn []bool
	coverOn  []bool
	// scratch is a journal of the replay's own, for the append cost.
	scratch *journal.Journal
	workdir string
}

type member struct {
	mdm  *core.MDM
	node *replication.Node
	addr string
}

const (
	churnOwners  = 1000
	churnStores  = 2
	churnBook    = 12
	churnRuleID  = "churn"
	churnStoreID = "store-join"
	// churnTTL is the constellation's election TTL, gupsterd's default.
	churnTTL = 2 * time.Second
)

func newChurn(seed int64, clients int, workdir string) (rig, error) {
	r := &churnRig{signer: token.NewSigner(signerKey), schema: schema.GUP(), or: newOracle(churnOwners),
		locks: make([]sync.Mutex, churnOwners), shieldOn: make([]bool, churnOwners), coverOn: make([]bool, churnOwners),
		workdir: workdir}
	if err := r.build(seed, clients); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// build seeds the stores, writes the seeded directory as the snapshot
// every member's journal starts from, boots the members from it (the
// crash-recovery path gupsterd takes at start) and waits for a leader.
func (r *churnRig) build(seed int64, clients int) error {
	if err := os.RemoveAll(r.workdir); err != nil {
		return err
	}
	seedMDM := core.New(mdmConfig(r.signer, 0))
	defer seedMDM.Close()
	if err := seedWholeProfiles(seed, churnOwners, churnBook, churnStores, r.signer, seedMDM, r.or, &r.stores); err != nil {
		return err
	}
	joiner, err := startStore(churnStoreID, r.signer)
	if err != nil {
		return err
	}
	r.joiner = joiner
	snap := journal.Snapshot{Coverage: seedMDM.CoverageSnapshot(), Shields: seedMDM.ShieldSnapshot()}

	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range lns {
		dir := filepath.Join(r.workdir, fmt.Sprintf("member-%d", i))
		if err := installSnapshot(dir, &snap); err != nil {
			return err
		}
		m := core.New(mdmConfig(r.signer, 0))
		if _, err := core.OpenDurable(m, dir, journal.Options{}); err != nil {
			m.Close()
			return err
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := replication.NewNode(m, replication.Config{ID: addrs[i], Peers: peers, TTL: churnTTL})
		if err != nil {
			m.Close()
			return err
		}
		node.StartListener(lns[i])
		r.members = append(r.members, &member{mdm: m, node: node, addr: addrs[i]})
	}
	if r.leader = r.waitLeader(20 * churnTTL); r.leader == nil {
		return fmt.Errorf("directory_churn: no leader within %s", 20*churnTTL)
	}
	cs, err := dialClients(r.leader.addr, clients)
	if err != nil {
		return err
	}
	r.clients = cs
	for i := 0; i < clients; i++ {
		c, err := wire.Dial(r.leader.addr)
		if err != nil {
			return err
		}
		r.dir = append(r.dir, c)
	}
	j, _, err := journal.Open(filepath.Join(r.workdir, "scratch"), journal.Options{CompactEvery: -1})
	if err != nil {
		return err
	}
	r.scratch = j
	return nil
}

func installSnapshot(dir string, s *journal.Snapshot) error {
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	if err := j.InstallSnapshot(s); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

func (r *churnRig) waitLeader(timeout time.Duration) *member {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range r.members {
			if m.node.Status().Role == "leader" {
				return m
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// settle ends set-up with every member's journal freshly compacted,
// once the followers hold the leader's whole log. A leader compaction
// makes a lagging follower catch up by snapshot, a burst of work;
// starting every measurement at the same point of the compaction cycle
// puts the same number of those bursts in every run.
func (r *churnRig) settle(ctx context.Context) error {
	deadline := time.Now().Add(20 * churnTTL)
	for {
		want := r.leader.node.Status().LastIndex
		caught := true
		for _, m := range r.members {
			if m.node.Status().LastIndex != want {
				caught = false
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("directory_churn: followers did not catch up within %s", 20*churnTTL)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range r.members {
		if err := m.mdm.Journal().Compact(); err != nil {
			return fmt.Errorf("directory_churn: compact: %w", err)
		}
	}
	return nil
}

func churnRule(owner string) policy.Rule {
	return policy.Rule{ID: churnRuleID, Path: xpath.MustParse(sectionPath(owner, "wallet")), Cond: policy.RoleIs("bank"), Effect: policy.Permit, Priority: 1}
}

// joinPath is the coverage the joining store registers for an owner: a
// component no read asks for, so reads stay checkable while the
// registry's write path works.
func joinPath(owner string) string { return sectionPath(owner, "buddy-list") }

func (r *churnRig) exec(ctx context.Context, c int, o op) error {
	owner := ownerID(o.owner)
	switch o.kind {
	case opRead:
		doc, err := r.clients[c].GetAs(ctx, sectionPath(owner, o.section), readContext(o))
		return r.or.checkRead(o, doc, err, 0, 0)
	case opShield:
		r.locks[o.owner].Lock()
		defer r.locks[o.owner].Unlock()
		var err error
		if r.shieldOn[o.owner] {
			err = r.clients[c].DeleteRule(ctx, owner, churnRuleID)
		} else {
			err = r.clients[c].PutRule(ctx, owner, churnRule(owner))
		}
		if err == nil {
			r.shieldOn[o.owner] = !r.shieldOn[o.owner]
		}
		return err
	case opCoverage:
		r.locks[o.owner].Lock()
		defer r.locks[o.owner].Unlock()
		var err error
		if r.coverOn[o.owner] {
			err = r.dir[c].Call(ctx, wire.TypeUnregister, &wire.UnregisterRequest{Store: churnStoreID, Path: joinPath(owner)}, nil)
		} else {
			err = r.dir[c].Call(ctx, wire.TypeRegister, &wire.RegisterRequest{Store: churnStoreID, Address: r.joiner.srv.Addr(), Path: joinPath(owner)}, nil)
		}
		if err == nil {
			r.coverOn[o.owner] = !r.coverOn[o.owner]
		}
		return err
	}
	return fmt.Errorf("directory_churn: unexpected op kind %d", o.kind)
}

func (r *churnRig) counters() progCounters {
	var p progCounters
	p.addMDM(r.leader.mdm)
	p.addClients(r.clients)
	return p
}

// replay replays reads as referral does. A directory mutation replays
// its request frame, path parse and schema check, appends its journal
// record to the scratch journal (fsync on), and commits a replay-only
// mutation through the leader in-process — apply, journal, quorum ack —
// which is then withdrawn untimed.
func (r *churnRig) replay(ctx context.Context, o op, rp *replayer) error {
	if o.kind == opRead {
		return replayReferralRead(ctx, o, rp, r.leader.mdm, r.schema, r.signer, r.stores)
	}
	owner := ownerID(o.owner)
	var rec journal.Record
	var path, typ string
	var commit, undo func() error
	switch o.kind {
	case opShield:
		req := wire.PutRuleRequest{Owner: owner, Rule: wire.RulePayload{ID: "replay", Path: sectionPath(owner, "wallet"), Effect: "permit", Priority: 1,
			Cond: policy.Encode(policy.RoleIs("bank"))}}
		rec = journal.Record{Op: journal.OpPutRule, PutRule: &req}
		path, typ = req.Rule.Path, wire.TypePutRule
		if err := rp.frame(0, frame{typ: typ, payload: req, into: into[wire.PutRuleRequest]()}); err != nil {
			return err
		}
		commit = func() error { return r.leader.mdm.PutRule(owner, &req) }
		undo = func() error { return r.leader.mdm.DeleteRule(owner, "replay") }
	case opCoverage:
		req := wire.RegisterRequest{Store: "store-replay", Address: r.joiner.srv.Addr(), Path: sectionPath(owner, "wallet")}
		rec = journal.Record{Op: journal.OpRegister, Register: &req}
		path, typ = req.Path, wire.TypeRegister
		if err := rp.frame(0, frame{typ: typ, payload: req, into: into[wire.RegisterRequest]()}); err != nil {
			return err
		}
		p := xpath.MustParse(path)
		commit = func() error { return r.leader.mdm.Register("store-replay", req.Address, p) }
		undo = func() error { return r.leader.mdm.Unregister("store-replay", p) }
	default:
		return fmt.Errorf("directory_churn: unexpected op kind %d", o.kind)
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
	rp.timed(0, "journal.append", func() { err = r.scratch.Append(rec) })
	if err != nil {
		return err
	}
	rp.topLevel("replication.commit", func() { err = commit() })
	if err != nil {
		return err
	}
	if err := undo(); err != nil {
		return err
	}
	return rp.frame(0, frame{typ: typ, reply: true, payload: struct{}{}, into: into[struct{}]()})
}

func (r *churnRig) close() {
	closeClients(r.clients)
	for _, c := range r.dir {
		c.Close()
	}
	for _, m := range r.members {
		m.node.Close()
		m.mdm.Close()
	}
	if r.scratch != nil {
		r.scratch.Close()
	}
	if r.joiner != nil {
		r.joiner.srv.Close()
	}
	closeStores(r.stores)
	os.RemoveAll(r.workdir)
}
