package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gupster/internal/core"
	"gupster/internal/flight"
	"gupster/internal/resilience"
	"gupster/internal/trace"
	"gupster/internal/wire"
)

// This file implements the paper's reliability architecture (§4.2: the
// central repository "may be implemented as a constellation of connected
// servers … a family of mirrored servers"; §5.3: "Reliability will be
// achieved by having the logical single entry point be implemented by a
// constellation of GUPster servers"):
//
//   - Mirror fronts a local MDM and replicates every meta-data mutation
//     (coverage registrations, privacy-shield rules, change notices) to its
//     peer mirrors, so any mirror can answer any resolve,
//   - MirrorClient gives applications the logical single entry point: it
//     talks to one mirror and fails over to the next when it dies.
//
// Replication is best-effort fan-out on the mutation path — exactly the
// UDDI-style mirroring the paper invokes; peers that are down miss updates
// until re-registration (stores re-announce coverage on reconnect, so the
// registry is self-healing).

// peerHello marks a connection as a mirror-to-mirror link so forwarded
// mutations are not forwarded again (no loops).
const typePeerHello = "peer-hello"

// mutating message types that replicate across the constellation.
var mirroredTypes = map[string]bool{
	wire.TypeRegister:   true,
	wire.TypeUnregister: true,
	wire.TypePutRule:    true,
	wire.TypeDeleteRule: true,
	wire.TypeChanged:    true,
	// A heartbeat to any mirror renews the store's lease constellation-wide;
	// otherwise each mirror would quarantine every store heartbeating a
	// different member.
	wire.TypeHeartbeat: true,
}

// Mirror is one member of an MDM constellation.
type Mirror struct {
	mdm   *core.MDM
	local *core.Server

	mu    sync.Mutex
	peers map[string]*wire.Client // address → connection

	// peering orders client mutations against AddPeer: handle holds it
	// shared from reading the peer set until its local apply is done,
	// AddPeer exclusively across installing a peer and replaying the
	// snapshot. Every mutation is therefore either forwarded to the new
	// peer or already in the snapshot it receives.
	peering sync.RWMutex
	// beforeApply, when set, runs between a client mutation's peer read
	// and its local apply (tests force interleavings with it).
	beforeApply func()

	// peerConns tracks inbound connections that identified as peers.
	peerMu    sync.Mutex
	peerConns map[*wire.ServerConn]bool

	// keepers are the KeepPeer anti-entropy goroutines.
	keepStop chan struct{}
	keepOnce sync.Once
	keepG    sync.WaitGroup

	ws *wire.Server
}

// NewMirror fronts a local MDM.
func NewMirror(local *core.MDM) *Mirror {
	return &Mirror{
		mdm:       local,
		local:     core.NewServer(local),
		peers:     make(map[string]*wire.Client),
		peerConns: make(map[*wire.ServerConn]bool),
		keepStop:  make(chan struct{}),
	}
}

// Serve starts the mirror's listener.
func (m *Mirror) Serve(addr string) (*wire.Server, error) {
	ws, err := wire.Serve(addr, wire.HandlerFunc(m.handle))
	if err != nil {
		return nil, err
	}
	m.ws = ws
	return ws, nil
}

// AddPeer connects this mirror to a peer mirror; mutations will be
// forwarded there, and this mirror's current meta-data (coverage and
// shields) is replayed to the peer so late joiners catch up. Peering is
// directional — call on both sides (or use Join).
func (m *Mirror) AddPeer(addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	if err := c.Call(context.Background(), typePeerHello, wire.Empty{}, nil); err != nil {
		c.Close()
		return err
	}
	// Taking peering waits out every mutation that read the old peer set,
	// so the snapshot holds them all; mutations after the install forward
	// to the new peer. Holding it through the replay also keeps a
	// forwarded delete from being overtaken by the replayed state it
	// deletes.
	m.peering.Lock()
	defer m.peering.Unlock()
	m.mu.Lock()
	if old, ok := m.peers[addr]; ok {
		old.Close()
	}
	m.peers[addr] = c
	m.mu.Unlock()
	for _, reg := range m.mdm.CoverageSnapshot() {
		_ = c.Call(context.Background(), wire.TypeRegister, &reg, nil)
	}
	for _, rule := range m.mdm.ShieldSnapshot() {
		_ = c.Call(context.Background(), wire.TypePutRule, &rule, nil)
	}
	return nil
}

// KeepPeer maintains the peering with anti-entropy: it establishes the
// link as soon as the peer is reachable, probes it every interval, and —
// when the probe fails (the peer died or restarted) — re-peers and
// replays this mirror's full meta-data snapshot, so a restarted peer
// recovers the directory it lost without waiting for stores to
// re-register. Runs until Close.
func (m *Mirror) KeepPeer(addr string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.keepG.Add(1)
	go func() {
		defer m.keepG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			m.ensurePeer(addr, interval)
			select {
			case <-m.keepStop:
				return
			case <-t.C:
			}
		}
	}()
}

// ensurePeer probes an existing peer link, or (re-)establishes it. A dead
// link is dropped and re-peered via AddPeer, whose snapshot replay is the
// anti-entropy: idempotent at the receiver, complete for a peer that
// restarted empty.
func (m *Mirror) ensurePeer(addr string, timeout time.Duration) {
	m.mu.Lock()
	c := m.peers[addr]
	m.mu.Unlock()
	if c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := c.Call(ctx, typePeerHello, wire.Empty{}, nil)
		cancel()
		if err == nil {
			return
		}
		m.mu.Lock()
		if m.peers[addr] == c {
			delete(m.peers, addr)
		}
		m.mu.Unlock()
		c.Close()
	}
	_ = m.AddPeer(addr)
}

// Join wires a set of mirrors into a full mesh.
func Join(mirrors []*Mirror, addrs []string) error {
	if len(mirrors) != len(addrs) {
		return errors.New("federation: mirrors/addrs length mismatch")
	}
	for i, m := range mirrors {
		for j, addr := range addrs {
			if i == j {
				continue
			}
			if err := m.AddPeer(addr); err != nil {
				return fmt.Errorf("federation: peering %d→%d: %w", i, j, err)
			}
		}
	}
	return nil
}

// Close stops the KeepPeer goroutines and shuts down peer links (the
// listener is closed by its owner).
func (m *Mirror) Close() {
	m.keepOnce.Do(func() { close(m.keepStop) })
	m.keepG.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, c := range m.peers {
		c.Close()
		delete(m.peers, addr)
	}
}

func (m *Mirror) handle(c *wire.ServerConn, msg *wire.Message) {
	if msg.Type == typePeerHello {
		m.peerMu.Lock()
		m.peerConns[c] = true
		m.peerMu.Unlock()
		c.OnClose(func() {
			m.peerMu.Lock()
			delete(m.peerConns, c)
			m.peerMu.Unlock()
		})
		_ = c.Reply(msg, wire.Empty{})
		return
	}
	// Replicate mutations that originated from clients or stores — not
	// ones that arrived over a peer link — synchronously, before the local
	// apply replies to the caller: when the caller's acknowledgement
	// arrives, the constellation has converged.
	if mirroredTypes[msg.Type] {
		m.peerMu.Lock()
		fromPeer := m.peerConns[c]
		m.peerMu.Unlock()
		if !fromPeer {
			m.peering.RLock()
			defer m.peering.RUnlock()
			m.mu.Lock()
			peers := make([]*wire.Client, 0, len(m.peers))
			for _, p := range m.peers {
				peers = append(peers, p)
			}
			m.mu.Unlock()
			// A traced mutation records the replication fan-out as a span in
			// the local MDM's collector (recording directly there, not on the
			// request frame — the local apply below owns the reply).
			rctx := context.Background()
			var rsp *trace.Active
			if msg.Trace != nil {
				rctx = trace.WithRemote(rctx, msg.Trace, "mirror", m.mdm.Tracer())
				rctx, rsp = trace.Start(rctx, "mirror.replicate")
			}
			// Fan the mutation out to all peers concurrently (bounded pool)
			// instead of peer by peer: convergence latency is the slowest
			// peer, not the sum. Best-effort: a dead peer misses the update;
			// stores re-register on reconnect.
			_ = flight.ForEach(rctx, len(peers), flight.DefaultWorkers, func(i int) error {
				_ = peers[i].Call(rctx, msg.Type, msg.Payload, nil)
				return nil
			})
			rsp.Finish(nil)
			if m.beforeApply != nil {
				m.beforeApply()
			}
		}
	}
	// Apply locally (the local core server replies to the caller).
	m.local.Handle(c, msg)
}

// ErrAllMirrorsDown reports that no member of the constellation answered.
var ErrAllMirrorsDown = errors.New("federation: all mirrors unreachable")

// MirrorClient is the application's logical single entry point to a
// constellation: calls go to the current mirror and fail over to the next
// on connection errors. Per-mirror circuit breakers remember which
// members are dead so reconnects skip them while any peer is healthy,
// and full failover passes are separated by capped, jittered backoff so
// a blinking constellation is not hammered. Safe for concurrent use.
type MirrorClient struct {
	addrs []string
	res   *resilience.Group

	mu       sync.Mutex
	cur      int
	conn     *wire.Client
	connAddr string
}

// DialMirrors creates a failover client over the constellation's addresses.
func DialMirrors(addrs []string) (*MirrorClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("federation: no mirror addresses")
	}
	mc := &MirrorClient{
		addrs: append([]string(nil), addrs...),
		res: resilience.NewGroup(
			resilience.Policy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			resilience.BreakerConfig{},
			nil,
		),
	}
	if _, _, err := mc.connection(); err != nil {
		return nil, err
	}
	return mc, nil
}

// Resilience exposes the failover client's breaker states and retry
// counters.
func (mc *MirrorClient) Resilience() *resilience.Group { return mc.res }

// connection returns the live connection, dialing forward through the
// address list as needed. Mirrors whose breakers are open are skipped
// while at least one member still accepts traffic.
func (mc *MirrorClient) connection() (*wire.Client, string, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.conn != nil {
		return mc.conn, mc.connAddr, nil
	}
	anyAvailable := false
	for _, a := range mc.addrs {
		if mc.res.Available(a) {
			anyAvailable = true
			break
		}
	}
	for range mc.addrs {
		addr := mc.addrs[mc.cur%len(mc.addrs)]
		if anyAvailable && !mc.res.Available(addr) {
			mc.cur++
			continue
		}
		c, err := wire.Dial(addr)
		if err == nil {
			mc.conn, mc.connAddr = c, addr
			return c, addr, nil
		}
		mc.res.Failure(addr)
		mc.cur++
	}
	return nil, "", ErrAllMirrorsDown
}

// drop discards the current connection and advances to the next mirror.
func (mc *MirrorClient) drop() {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.conn != nil {
		mc.conn.Close()
		mc.conn = nil
		mc.connAddr = ""
	}
	mc.cur++
}

// rehome points the client at the constellation's current leader after a
// not-leader redirect. A leader address outside the configured list is
// adopted (the constellation knows its membership better than our
// config); an empty one — mid-election — just advances to the next
// member like a failed connection would.
func (mc *MirrorClient) rehome(leaderAddr string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.conn != nil {
		mc.conn.Close()
		mc.conn = nil
		mc.connAddr = ""
	}
	if leaderAddr == "" {
		mc.cur++
		return
	}
	for i, a := range mc.addrs {
		if a == leaderAddr {
			mc.cur = i
			return
		}
	}
	mc.addrs = append(mc.addrs, leaderAddr)
	mc.cur = len(mc.addrs) - 1
}

// Call invokes one MDM operation with failover: connection-level failures
// advance to the next mirror and retry (once per mirror and pass, with
// backoff between passes). Application-level errors (denials, spurious
// queries) are returned as-is — they would fail identically everywhere.
func (mc *MirrorClient) Call(ctx context.Context, msgType string, req, resp any) error {
	var lastErr error
	for pass := 0; pass < mc.res.Policy.MaxAttempts; pass++ {
		if pass > 0 {
			mc.res.Stats.Retries.Add(1)
			if resilience.Sleep(ctx, mc.res.Backoff(pass-1)) != nil {
				return lastErr
			}
		}
		for range mc.addrs {
			c, addr, err := mc.connection()
			if err != nil {
				lastErr = err
				break // everyone down this pass; back off and re-try
			}
			mc.res.Stats.Attempts.Add(1)
			err = c.Call(ctx, msgType, req, resp)
			if err == nil {
				mc.res.Success(addr)
				return nil
			}
			var notLeader *wire.NotLeaderError
			if errors.As(err, &notLeader) {
				// A replicated constellation redirected us: re-home to the
				// leader and retry there. The member that answered is
				// healthy — no breaker failure.
				mc.res.Success(addr)
				mc.rehome(notLeader.LeaderAddr)
				lastErr = err
				continue
			}
			var wrongShard *wire.WrongShardError
			if errors.As(err, &wrongShard) && wrongShard.Addr != "" {
				// A sharded directory redirected us to the owner's home
				// shard: same treatment as a leader redirect.
				mc.res.Success(addr)
				mc.rehome(wrongShard.Addr)
				lastErr = err
				continue
			}
			var remote *wire.RemoteError
			if errors.As(err, &remote) {
				return err // the MDM answered; failing over cannot help
			}
			lastErr = err
			mc.res.Failure(addr)
			mc.drop()
		}
		if err := ctx.Err(); err != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrAllMirrorsDown
	}
	return lastErr
}

// Resolve is the common operation, with failover.
func (mc *MirrorClient) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	var resp wire.ResolveResponse
	if err := mc.Call(ctx, wire.TypeResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close tears down the current connection.
func (mc *MirrorClient) Close() {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.conn != nil {
		mc.conn.Close()
		mc.conn = nil
	}
}
