package workload

import (
	"fmt"
	"math/rand"
	"time"

	"gupster/internal/adapter"
	"gupster/internal/calendarsvc"
	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/faultinject"
	"gupster/internal/hlr"
	"gupster/internal/policy"
	"gupster/internal/presence"
	"gupster/internal/pstn"
	"gupster/internal/schema"
	"gupster/internal/sipreg"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Store identities of the converged testbed, one per row of the paper's
// Figure 5.
const (
	StoreHLR        = "gup.hlr.carrier.example" // wireless: HLR/VLR
	StorePSTN       = "gup.switch.pstn.example" // PSTN class-5 switch
	StoreSIP        = "gup.sip.voip.example"    // VoIP: SIP registrar
	StorePortal     = "gup.portal.example"      // web portal (Yahoo!-like)
	StoreEnterprise = "gup.enterprise.example"  // corporate intranet
)

// TestbedOptions sizes the converged testbed.
type TestbedOptions struct {
	// Users is the synthetic population size.
	Users int
	// BookEntries sizes each user's address book.
	BookEntries int
	// CacheEntries enables the MDM component cache.
	CacheEntries int
	// Seed drives all synthetic data.
	Seed int64
	// AllowRole, when non-empty, provisions a permit-all shield rule for
	// requesters asserting this role (e.g. the reach-me service account).
	AllowRole string
	// ExtraRulesPerUser pads each user's shield with inert rules to sweep
	// policy-set sizes (benchmark E3).
	ExtraRulesPerUser int
	// GrantTTL overrides the MDM's referral TTL.
	GrantTTL time.Duration
	// FaultInjection fronts every store with a faultinject.Proxy and
	// points coverage registrations at the proxy addresses, so chaos
	// scenarios (blackouts, latency spikes, connection drops) run as
	// ordinary Go tests against the full converged network.
	FaultInjection bool
	// FaultSeed seeds the proxies' deterministic RNGs.
	FaultSeed int64
}

// Testbed is a complete in-process converged network: all four networks'
// profile stores (Figure 5), the substrate simulators feeding them, and a
// GUPster MDM federating everything — every hop over real TCP.
type Testbed struct {
	MDM       *core.MDM
	MDMServer *core.Server
	Signer    *token.Signer

	HLR       *hlr.HLR
	Switch    *pstn.Switch
	Registrar *sipreg.Registrar
	Presence  *presence.Server
	Calendar  *calendarsvc.Service
	Directory *adapter.Directory // enterprise LDAP (self components)
	Contacts  *adapter.Table     // enterprise relational contacts

	Stores map[string]*store.Server
	// Faults holds the per-store fault proxies when the testbed was built
	// with FaultInjection; referrals carry the proxy addresses.
	Faults map[string]*faultinject.Proxy
	Users  []string

	clients []*core.Client
}

// pstnOperatorKey provisions the switch.
const pstnOperatorKey = "operator-key"

// NewTestbed assembles and seeds the converged network.
func NewTestbed(opts TestbedOptions) (*Testbed, error) {
	if opts.Users <= 0 {
		opts.Users = 10
	}
	if opts.BookEntries <= 0 {
		opts.BookEntries = 20
	}
	if opts.GrantTTL == 0 {
		opts.GrantTTL = time.Minute
	}
	rng := Rand(opts.Seed)

	signer := token.NewSigner([]byte("testbed-shared-key"))
	mdm := core.New(core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     opts.GrantTTL,
		CacheEntries: opts.CacheEntries,
	})
	mdmSrv := core.NewServer(mdm)
	if err := mdmSrv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}

	tb := &Testbed{
		MDM:       mdm,
		MDMServer: mdmSrv,
		Signer:    signer,
		HLR:       hlr.New(),
		Switch:    pstn.NewSwitch("5ESS-sim", pstnOperatorKey),
		Registrar: sipreg.New(),
		Presence:  presence.New(),
		Calendar:  calendarsvc.New(),
		Directory: adapter.NewDirectory(),
		Contacts:  adapter.NewTable("contacts", "owner", "name", "kind", "phone", "email"),
		Stores:    make(map[string]*store.Server),
		Faults:    make(map[string]*faultinject.Proxy),
	}

	for i, id := range []string{StoreHLR, StorePSTN, StoreSIP, StorePortal, StoreEnterprise} {
		eng := store.NewEngine(id)
		eng.Schema = schema.GUP()
		srv := store.NewServer(eng, signer)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			tb.Close()
			return nil, err
		}
		storeID := id
		eng.OnChange(func(user string, path xpath.Path, frag *xmltree.Node, version uint64) {
			mdm.HandleChanged(&wire.ChangedNotice{
				Store: storeID, User: user, Path: path.String(), XML: frag.String(), Version: version,
			})
		})
		tb.Stores[id] = srv
		if opts.FaultInjection {
			px, err := faultinject.NewProxy(srv.Addr(), opts.FaultSeed+int64(i))
			if err != nil {
				tb.Close()
				return nil, err
			}
			tb.Faults[id] = px
		}
	}

	if err := tb.registerCoverage(); err != nil {
		tb.Close()
		return nil, err
	}
	tb.wireSubstrates()
	if err := tb.seed(opts, rng); err != nil {
		tb.Close()
		return nil, err
	}
	return tb, nil
}

// registerCoverage announces the Figure 5 placement: unpinned paths cover
// every user of the respective network.
func (tb *Testbed) registerCoverage() error {
	regs := map[string][]string{
		StoreHLR: {
			"/user/location",
			"/user/devices/device[@network='wireless']",
		},
		StorePSTN: {
			"/user/devices/device[@network='pstn']",
			"/user/services",
		},
		StoreSIP: {
			"/user/devices/device[@network='voip']",
		},
		StorePortal: {
			"/user/presence",
			"/user/calendar",
			"/user/buddy-list",
			"/user/address-book/item[@type='personal']",
			"/user/devices/device[@network='im']",
		},
		StoreEnterprise: {
			"/user/self",
			"/user/preferences",
			"/user/address-book/item[@type='corporate']",
		},
	}
	for id, paths := range regs {
		for _, p := range paths {
			if err := tb.MDM.Register(coverage.StoreID(id), tb.StoreAddr(id), xpath.MustParse(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// StoreAddr is the address clients are referred to for a store — the
// fault proxy's when fault injection is on, the store's own otherwise.
func (tb *Testbed) StoreAddr(id string) string {
	if px, ok := tb.Faults[id]; ok {
		return px.Addr()
	}
	return tb.Stores[id].Addr()
}

// wireSubstrates connects the live simulators to their GUP stores so
// dynamic data (location, presence) flows into the federation.
func (tb *Testbed) wireSubstrates() {
	hlrEng := tb.Stores[StoreHLR].Engine
	tb.HLR.OnMove(func(imsi string, loc *xmltree.Node) {
		user := userFromIMSI(imsi)
		if loc != nil {
			_, _ = hlrEng.Put(user, xpath.MustParse(fmt.Sprintf("/user[@id='%s']/location", user)), loc)
		}
	})
}

// WatchPresence routes presence updates for a user into the portal store;
// callers that drive presence churn must enable it per user.
func (tb *Testbed) WatchPresence(user string) {
	portal := tb.Stores[StorePortal].Engine
	tb.Presence.Watch(user, func(st presence.State) {
		if comp := tb.Presence.Component(user); comp != nil {
			_, _ = portal.Put(user, xpath.MustParse(fmt.Sprintf("/user[@id='%s']/presence", user)), comp)
		}
	})
}

func imsiFor(user string) string   { return "imsi-" + user }
func msisdnFor(user string) string { return "msisdn-" + user }
func userFromIMSI(imsi string) string {
	if len(imsi) > 5 {
		return imsi[5:]
	}
	return imsi
}

// seed provisions every user across all networks, exercising the adapters:
// self components come out of the enterprise LDAP directory, corporate
// address-book halves out of the relational contacts table.
func (tb *Testbed) seed(opts TestbedOptions, rng *rand.Rand) error {
	tb.HLR.AddVLR("vlr-home", "msc-home", true)
	tb.HLR.AddVLR("vlr-roam", "msc-roam", false)

	hlrEng := tb.Stores[StoreHLR].Engine
	pstnEng := tb.Stores[StorePSTN].Engine
	sipEng := tb.Stores[StoreSIP].Engine
	portalEng := tb.Stores[StorePortal].Engine
	entEng := tb.Stores[StoreEnterprise].Engine

	for i := 0; i < opts.Users; i++ {
		user := UserID(i)
		tb.Users = append(tb.Users, user)
		up := func(section string) xpath.Path {
			return xpath.MustParse(fmt.Sprintf("/user[@id='%s']/%s", user, section))
		}
		devices := Devices(user)

		// Wireless: HLR subscriber, attach, device.
		if err := tb.HLR.AddSubscriber(hlr.Subscriber{
			IMSI: imsiFor(user), MSISDN: msisdnFor(user), AuthKey: "k-" + user,
			Services: hlr.Services{RoamingAllowed: true, CallerID: true},
		}); err != nil {
			return err
		}
		if _, err := tb.HLR.LocationUpdate(imsiFor(user), "vlr-home", fmt.Sprintf("cell-%04d", rng.Intn(10000))); err != nil {
			return err
		}
		wireless := xmltree.New("devices").Add(pick(devices, "wireless")...)
		if _, err := hlrEng.Put(user, up("devices"), wireless); err != nil {
			return err
		}

		// PSTN: lines for office and home, device + services exports.
		for _, dev := range pick(devices, "pstn") {
			if err := tb.Switch.ProvisionLine(pstnOperatorKey, dev.ChildText("number")); err != nil {
				return err
			}
		}
		pstnDevs := xmltree.New("devices").Add(pick(devices, "pstn")...)
		if _, err := pstnEng.Put(user, up("devices"), pstnDevs); err != nil {
			return err
		}
		if svc := tb.Switch.ServicesComponent(pick(devices, "pstn")[0].ChildText("number")); svc != nil {
			if _, err := pstnEng.Put(user, up("services"), svc); err != nil {
				return err
			}
		}

		// VoIP: SIP registration, device export.
		aor := "sip:" + user + "@voip.example.com"
		tb.Registrar.Register(aor, "sip:"+user+"@10.0.0."+fmt.Sprint(i%250+1), time.Hour, 1.0)
		voip := xmltree.New("devices").Add(pick(devices, "voip")...)
		if _, err := sipEng.Put(user, up("devices"), voip); err != nil {
			return err
		}

		// Portal: presence, calendar, personal address book, IM device.
		tb.Presence.Set(user, presence.Available, "")
		if comp := tb.Presence.Component(user); comp != nil {
			if _, err := portalEng.Put(user, up("presence"), comp); err != nil {
				return err
			}
		}
		cal := Calendar(3+rng.Intn(5), rng)
		if err := tb.Calendar.FromComponent(user, cal); err != nil {
			return err
		}
		if _, err := portalEng.Put(user, up("calendar"), tb.Calendar.Component(user)); err != nil {
			return err
		}
		book := AddressBook(opts.BookEntries, rng)
		personal, corporate := SplitAddressBook(book)
		if _, err := portalEng.Put(user, up("address-book"), personal); err != nil {
			return err
		}
		imDevs := xmltree.New("devices").Add(pick(devices, "im")...)
		if _, err := portalEng.Put(user, up("devices"), imDevs); err != nil {
			return err
		}
		// Buddy list: a few other members of the population.
		if opts.Users > 1 {
			buddies := xmltree.New("buddy-list")
			for b := 1; b <= 3 && b < opts.Users; b++ {
				buddy := UserID((i + b) % opts.Users)
				buddies.Add(xmltree.New("buddy").SetAttr("name", buddy).SetAttr("group", "friends"))
			}
			if _, err := portalEng.Put(user, up("buddy-list"), buddies); err != nil {
				return err
			}
		}

		// Enterprise: LDAP-backed self, relational corporate contacts,
		// reach-me preferences.
		dn := "uid=" + user + ",ou=people,o=enterprise"
		tb.Directory.Add(adapter.Entry{DN: dn, Attrs: map[string][]string{
			"objectClass":     {"inetOrgPerson"},
			"cn":              {ContactName(rng)},
			"mail":            {user + "@enterprise.example"},
			"telephoneNumber": {msisdnFor(user)},
			"o":               {"Enterprise Inc."},
		}})
		self, err := adapter.SelfFromLDAP(tb.Directory, dn)
		if err != nil {
			return err
		}
		if _, err := entEng.Put(user, up("self"), self); err != nil {
			return err
		}
		for _, item := range corporate.ChildrenNamed("item") {
			name, _ := item.Attr("name")
			if err := tb.Contacts.Insert(user, name, "corporate", item.ChildText("phone"), item.ChildText("email")); err != nil {
				return err
			}
		}
		if _, err := entEng.Put(user, up("address-book"), corporate); err != nil {
			return err
		}
		if _, err := entEng.Put(user, up("preferences"), ReachMePreferences()); err != nil {
			return err
		}

		// Privacy shield provisioning.
		if opts.AllowRole != "" {
			if err := tb.MDM.PAP.PutRule(user, policy.Rule{
				ID:     "allow-" + opts.AllowRole,
				Path:   xpath.MustParse(fmt.Sprintf("/user[@id='%s']", user)),
				Cond:   policy.RoleIs(opts.AllowRole),
				Effect: policy.Permit,
			}); err != nil {
				return err
			}
		}
		for r := 0; r < opts.ExtraRulesPerUser; r++ {
			if err := tb.MDM.PAP.PutRule(user, policy.Rule{
				ID:     fmt.Sprintf("pad-%03d", r),
				Path:   xpath.MustParse(fmt.Sprintf("/user[@id='%s']/buddy-list", user)),
				Cond:   policy.RequesterIs(fmt.Sprintf("nobody-%d", r)),
				Effect: policy.Permit,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// pick clones the devices of one network out of a <devices> component.
func pick(devices *xmltree.Node, network string) []*xmltree.Node {
	var out []*xmltree.Node
	for _, d := range devices.ChildrenNamed("device") {
		if n, _ := d.Attr("network"); n == network {
			out = append(out, d.Clone())
		}
	}
	return out
}

// Client dials the MDM as the given identity; the testbed closes it.
func (tb *Testbed) Client(identity, role string) (*core.Client, error) {
	c, err := core.DialMDM(tb.MDMServer.Addr(), identity, role)
	if err != nil {
		return nil, err
	}
	tb.clients = append(tb.clients, c)
	return c, nil
}

// Close shuts every server and client down.
func (tb *Testbed) Close() {
	for _, c := range tb.clients {
		c.Close()
	}
	tb.clients = nil
	if tb.MDM != nil {
		tb.MDM.Close()
	}
	if tb.MDMServer != nil {
		tb.MDMServer.Close()
	}
	for _, px := range tb.Faults {
		px.Close()
	}
	for _, s := range tb.Stores {
		s.Close()
	}
}
