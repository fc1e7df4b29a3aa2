package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"gupster/internal/policy"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
)

// Roles a request can carry. Strangers hold no rule in any shield, so
// their requests are expected denials.
const (
	roleSelf     = "self"
	roleFriend   = "friend"
	roleCoworker = "co-worker"
	roleStranger = "third-party"
	// roleGateway is the network-side service every load client speaks
	// as: it fetches address books for thin devices (chaining) and
	// relays device presence changes (the writes of referral and
	// chaining_routed).
	roleGateway = "gateway"
)

// gatewayID is the identity of every load client; one identity lets the
// MDM coalesce identical concurrent chaining resolves across clients.
const gatewayID = "gateway"

// sections are the components a read may ask for.
var sections = []string{"self", "devices", "address-book", "calendar", "preferences", "presence"}

// shieldRule is one seeded privacy-shield rule: role may see section.
type shieldRule struct {
	id      string
	section string
	role    string
}

// shield is every owner's rule set: about eight rules, none of them time
// dependent, so the expected decision is a pure function of role and
// section.
var shield = []shieldRule{
	{"friend-presence", "presence", roleFriend},
	{"friend-devices", "devices", roleFriend},
	{"friend-calendar", "calendar", roleFriend},
	{"coworker-presence", "presence", roleCoworker},
	{"coworker-calendar", "calendar", roleCoworker},
	{"coworker-self", "self", roleCoworker},
	{"gateway-book", "address-book", roleGateway},
	{"gateway-presence", "presence", roleGateway},
}

// permitted is the oracle's access decision.
func permitted(role, section string) bool {
	if role == roleSelf {
		return true
	}
	for _, r := range shield {
		if r.role == role && r.section == section {
			return true
		}
	}
	return false
}

func ownerID(i int) string { return workload.UserID(i) }

func sectionPath(owner, section string) string {
	return fmt.Sprintf("/user[@id='%s']/%s", owner, section)
}

func rulePayload(owner string, r shieldRule) wire.PutRuleRequest {
	return wire.PutRuleRequest{Owner: owner, Rule: wire.RulePayload{
		ID: r.id, Path: sectionPath(owner, r.section), Effect: "permit", Priority: 1,
		Cond: policy.Encode(policy.RoleIs(r.role)),
	}}
}

// ownerRand is owner i's private stream, so a profile does not depend on
// the order profiles are generated in.
func ownerRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// profile is one owner's seeded components, keyed by section.
type profile map[string]*xmltree.Node

// makeProfile generates owner i's full profile. bookItems sizes the
// address book (about 80 bytes per item).
func makeProfile(seed int64, i, bookItems int) profile {
	rng := ownerRand(seed, i)
	u := ownerID(i)
	self := xmltree.New("self")
	self.Add(xmltree.NewText("name", workload.ContactName(rng)))
	self.Add(xmltree.NewText("email", u+"@example.com"))
	self.Add(xmltree.NewText("employer", fmt.Sprintf("org-%02d", rng.Intn(50))))
	return profile{
		"self":         self,
		"devices":      workload.Devices(u),
		"address-book": workload.AddressBook(bookItems, rng),
		"calendar":     workload.Calendar(4, rng),
		"preferences":  workload.ReachMePreferences(),
		"presence":     presence(u, 0),
	}
}

// document assembles a profile into one <user> tree, as a store holds it.
func (p profile) document(owner string) *xmltree.Node {
	doc := xmltree.New("user").SetAttr("id", owner)
	for _, s := range sections {
		doc.Add(p[s].Clone())
	}
	return doc
}

// presence is the v-th presence state of owner: version 0 is seeded,
// every write installs the next one.
func presence(owner string, v int) *xmltree.Node {
	n := xmltree.New("presence").SetAttr("status", []string{"available", "busy", "away"}[v%3])
	n.Add(xmltree.NewText("note", fmt.Sprintf("%s v%d", owner, v)))
	return n
}

// canonical serializes a tree with every child list sorted, so two trees
// that differ only in sibling order (a deep-union reorders items)
// compare equal.
func canonical(n *xmltree.Node) string {
	if n == nil {
		return ""
	}
	var b strings.Builder
	writeCanonical(&b, n)
	return b.String()
}

func writeCanonical(b *strings.Builder, n *xmltree.Node) {
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = canonical(c)
	}
	sort.Strings(kids)
	shell := &xmltree.Node{Name: n.Name, Attrs: n.Attrs, Text: n.Text}
	s := shell.String()
	// Re-open the shell's element to insert the sorted children.
	if len(kids) == 0 {
		b.WriteString(s)
		return
	}
	if strings.HasSuffix(s, "/>") {
		b.WriteString(s[:len(s)-2] + ">")
	} else {
		end := strings.LastIndex(s, "</")
		b.WriteString(s[:end])
	}
	for _, k := range kids {
		b.WriteString(k)
	}
	b.WriteString("</" + n.Name + ">")
}

// opKind classifies a generated request.
type opKind uint8

const (
	opRead     opKind = iota // core.Client.GetAs or GetVia
	opPresence               // core.Client.Update of the owner's presence
	opShield                 // PutRule / DeleteRule of a churn rule
	opCoverage               // Register / Unregister of a churn store
)

func (k opKind) write() bool { return k != opRead }

// op is one generated request.
type op struct {
	kind      opKind
	owner     int
	section   string
	requester string
	role      string
}

// mix is a workload's request mix; the weights of the write kinds are
// fractions of all requests, reads take the rest.
type mix struct {
	owners   int
	zipf     float64
	presence float64
	shield   float64
	coverage float64
	// readRoles weighs the requester roles of reads; nil means every
	// read is a gateway read of the address book (chaining_routed).
	readRoles []weighted
}

type weighted struct {
	role string
	w    float64
}

// requestMix is the referral and directory_churn requester mix.
var requestMix = []weighted{{roleSelf, 0.40}, {roleFriend, 0.25}, {roleCoworker, 0.20}, {roleStranger, 0.15}}

// generator draws a workload's request sequence from its seed: the same
// seed yields the same sequence.
type generator struct {
	m    mix
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGenerator(m mix, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{m: m, rng: rng, zipf: rand.NewZipf(rng, m.zipf, 1, uint64(m.owners-1))}
}

func (g *generator) next() op {
	o := op{owner: int(g.zipf.Uint64())}
	x := g.rng.Float64()
	switch {
	case x < g.m.presence:
		o.kind = opPresence
		return o
	case x < g.m.presence+g.m.shield:
		o.kind = opShield
		return o
	case x < g.m.presence+g.m.shield+g.m.coverage:
		o.kind = opCoverage
		return o
	}
	if g.m.readRoles == nil {
		o.section, o.role, o.requester = "address-book", roleGateway, gatewayID
		return o
	}
	o.section = sections[g.rng.Intn(len(sections))]
	y := g.rng.Float64()
	for _, w := range g.m.readRoles {
		o.role = w.role
		if y < w.w {
			break
		}
		y -= w.w
	}
	switch o.role {
	case roleSelf:
		o.requester = ownerID(o.owner)
	case roleStranger:
		o.requester = fmt.Sprintf("stranger-%d", g.rng.Intn(1000))
	default:
		o.requester = ownerID((o.owner + 1 + g.rng.Intn(g.m.owners-1)) % g.m.owners)
	}
	return o
}

// arrivals draws the open loop's Poisson send schedule at rate per
// second: offsets in seconds from the phase start.
type arrivals struct {
	rng  *rand.Rand
	rate float64
	t    float64
}

func newArrivals(seed int64, rate float64) *arrivals {
	return &arrivals{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), rate: rate}
}

func (a *arrivals) next() float64 {
	a.t += -math.Log(1-a.rng.Float64()) / a.rate
	return a.t
}
