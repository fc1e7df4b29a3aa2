package federation

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/schema"
	"gupster/internal/token"
	"gupster/internal/wire"
)

// TestAddPeerRacingMutationReachesPeer forces the lost-update
// interleaving: a client registration reads the mirror's (empty) peer
// set, AddPeer installs a peer and snapshots the directory, and only then
// does the registration apply locally. Without ordering between the two
// the registration reaches no peer and misses the snapshot, so the new
// peer never learns it.
func TestAddPeerRacingMutationReachesPeer(t *testing.T) {
	newMirror := func(beforeApply func()) (*core.MDM, *Mirror, string) {
		mdm := core.New(core.Config{
			Schema:   schema.GUP(),
			Signer:   token.NewSigner([]byte("mirror-peering-key")),
			GrantTTL: time.Minute,
		})
		m := NewMirror(mdm)
		m.beforeApply = beforeApply
		srv, err := m.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); m.Close(); mdm.Close() })
		return mdm, m, srv.Addr()
	}

	inWindow := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, a, addrA := newMirror(func() {
		once.Do(func() { close(inWindow) })
		<-release
	})
	mdmB, _, addrB := newMirror(nil)

	const path = "/user[@id='alice']/presence"
	registered := make(chan error, 1)
	go func() {
		c, err := wire.Dial(addrA)
		if err != nil {
			registered <- err
			return
		}
		defer c.Close()
		registered <- c.Call(context.Background(), wire.TypeRegister,
			&wire.RegisterRequest{Store: "s1", Address: "127.0.0.1:1", Path: path}, nil)
	}()
	<-inWindow // the registration has read the empty peer set

	peered := make(chan error, 1)
	go func() { peered <- a.AddPeer(addrB) }()
	// Let AddPeer run until it either finishes or waits for the
	// registration in the window.
	peerDone := false
	for !peerDone && !writerQueued(&a.peering) {
		select {
		case err := <-peered:
			if err != nil {
				t.Fatal(err)
			}
			peerDone = true
		default:
			runtime.Gosched()
		}
	}
	close(release)
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if !peerDone {
		if err := <-peered; err != nil {
			t.Fatal(err)
		}
	}

	for _, reg := range mdmB.CoverageSnapshot() {
		if reg.Path == path {
			return
		}
	}
	t.Fatalf("registration racing AddPeer never reached the new peer: %+v", mdmB.CoverageSnapshot())
}

// writerQueued reports whether a writer holds mu or waits for it.
func writerQueued(mu *sync.RWMutex) bool {
	if mu.TryRLock() {
		mu.RUnlock()
		return false
	}
	return true
}
