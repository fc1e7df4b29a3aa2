package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gupster/internal/policy"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// TestGetAfterUpdateSkipsOlderFlight: a Get issued after the client's
// acknowledged Update must not join a flight that began before the write
// (and so may carry the pre-write tree). The older flight is held open
// by hand, the way a slow fetch holds it open in production.
func TestGetAfterUpdateSkipsOlderFlight(t *testing.T) {
	const path = "/user[@id='arnaud']/presence"
	signer := token.NewSigner([]byte("read-your-writes-key"))
	m := New(Config{Schema: schema.GUP(), Signer: signer, GrantTTL: time.Minute})
	srv := NewServer(m)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	eng := store.NewEngine("a.gup.spcs.com")
	eng.Schema = schema.GUP()
	st := store.NewServer(eng, signer)
	if err := st.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(); srv.Close(); st.Close() })
	if _, err := eng.Put("arnaud", xpath.MustParse(path), xmltree.MustParse(`<presence status="available"/>`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a.gup.spcs.com", st.Addr(), xpath.MustParse(path)); err != nil {
		t.Fatal(err)
	}
	c, err := DialMDM(srv.Addr(), "arnaud", "self")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// A flight that read the component before the write.
	ctx := context.Background()
	reqCtx := c.contextFor(policy.PurposeQuery)
	release := make(chan struct{})
	staleDone := make(chan struct{})
	key := c.getKey(path, reqCtx)
	go func() {
		defer close(staleDone)
		c.flights.Do(ctx, key, func() (any, error) {
			<-release
			return xmltree.MustParse(`<stale/>`), nil
		})
	}()
	for !c.flights.InFlight(key) {
		runtime.Gosched()
	}

	if _, err := c.Update(ctx, path, xmltree.MustParse(`<presence status="busy"/>`)); err != nil {
		t.Fatal(err)
	}
	type result struct {
		doc *xmltree.Node
		err error
	}
	got := make(chan result, 1)
	go func() {
		doc, err := c.Get(ctx, path)
		got <- result{doc, err}
	}()
	// Release the old flight once the Get has either joined it or
	// finished on its own.
	var res result
	done := false
	for !done && c.pipe.CoalesceHits.Load() == 0 {
		select {
		case res = <-got:
			done = true
		default:
			runtime.Gosched()
		}
	}
	close(release)
	if !done {
		res = <-got
	}
	<-staleDone
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.doc.Name == "stale" {
		t.Fatal("Get after an acknowledged Update joined a flight from before the write")
	}
	if p := res.doc.Child("presence"); p == nil {
		t.Fatalf("no presence in %s", res.doc)
	} else if s, _ := p.Attr("status"); s != "busy" {
		t.Fatalf("Get after Update read status %q, want busy", s)
	}
}
