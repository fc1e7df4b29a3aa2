package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is a small YAML-subset decoder — just enough structure for
// scenario files, with zero module dependencies. Supported:
//
//   - `key: value` scalars and `key:` nested blocks (2-space indents)
//   - `- ` list items (scalar items, or map items whose further keys
//     align two columns past the dash)
//   - one-level flow maps `{latency: 10ms, bandwidth: 98304}` and flow
//     lists `[a, b]`
//   - full-line and trailing `# comments`
//
// Decoding is strict: unknown fields, malformed durations, tabs in
// indentation and type mismatches are errors that name the line.

// node is the generic parse tree.
type node struct {
	kind   int // 0 scalar, 1 map, 2 list
	scalar string
	keys   []string
	vals   []*node
	items  []*node
	line   int
}

const (
	scalarNode = iota
	mapNode
	listNode
)

func (n *node) child(key string) *node {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

type parser struct {
	lines []string
	pos   int
}

type parseErr struct {
	line int
	msg  string
}

func (e *parseErr) Error() string { return fmt.Sprintf("scenario: line %d: %s", e.line, e.msg) }

func errAt(line int, format string, args ...any) error {
	return &parseErr{line: line, msg: fmt.Sprintf(format, args...)}
}

// stripComment removes a trailing comment: a '#' at the start of the
// content or preceded by whitespace.
func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
			return s[:i]
		}
	}
	return s
}

// peek returns the next significant line's indent and content without
// consuming it; ok=false at EOF.
func (p *parser) peek() (indent int, content string, lineNo int, ok bool, err error) {
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		trimmed := strings.TrimRight(stripComment(raw), " \t")
		if strings.TrimSpace(trimmed) == "" {
			p.pos++
			continue
		}
		ind := 0
		for ind < len(trimmed) && trimmed[ind] == ' ' {
			ind++
		}
		if ind < len(trimmed) && trimmed[ind] == '\t' {
			return 0, "", 0, false, errAt(p.pos+1, "tab in indentation (use spaces)")
		}
		return ind, trimmed[ind:], p.pos + 1, true, nil
	}
	return 0, "", 0, false, nil
}

// parseBlock parses the block at exactly indent level ind.
func (p *parser) parseBlock(ind int) (*node, error) {
	indent, content, lineNo, ok, err := p.peek()
	if err != nil {
		return nil, err
	}
	if !ok || indent < ind {
		return nil, errAt(lineNo, "expected a block")
	}
	if strings.HasPrefix(content, "- ") || content == "-" {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseMap(ind int) (*node, error) {
	m := &node{kind: mapNode}
	for {
		indent, content, lineNo, ok, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !ok || indent < ind {
			return m, nil
		}
		if indent > ind {
			return nil, errAt(lineNo, "unexpected indent")
		}
		if m.line == 0 {
			m.line = lineNo
		}
		if strings.HasPrefix(content, "- ") || content == "-" {
			return nil, errAt(lineNo, "list item where a mapping key was expected")
		}
		key, rest, err := splitKey(content, lineNo)
		if err != nil {
			return nil, err
		}
		for _, k := range m.keys {
			if k == key {
				return nil, errAt(lineNo, "duplicate key %q", key)
			}
		}
		p.pos++ // consume the key line
		var val *node
		if rest == "" {
			// Nested block (or an empty map if nothing deeper follows).
			nIndent, _, _, nOK, err := p.peek()
			if err != nil {
				return nil, err
			}
			if nOK && nIndent > ind {
				val, err = p.parseBlock(nIndent)
				if err != nil {
					return nil, err
				}
			} else {
				val = &node{kind: mapNode, line: lineNo}
			}
		} else {
			val, err = parseFlow(rest, lineNo)
			if err != nil {
				return nil, err
			}
		}
		m.keys = append(m.keys, key)
		m.vals = append(m.vals, val)
	}
}

func (p *parser) parseList(ind int) (*node, error) {
	l := &node{kind: listNode}
	for {
		indent, content, lineNo, ok, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !ok || indent < ind {
			return l, nil
		}
		if indent > ind {
			return nil, errAt(lineNo, "unexpected indent")
		}
		if l.line == 0 {
			l.line = lineNo
		}
		if !strings.HasPrefix(content, "- ") && content != "-" {
			return nil, errAt(lineNo, "expected a list item")
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(content, "-"), " ")
		if rest == "" {
			return nil, errAt(lineNo, "empty list item")
		}
		if key, after, kerr := splitKey(rest, lineNo); kerr == nil {
			// Map item: rewrite the dash as indentation so the item's
			// first key aligns with any continuation keys two columns in.
			p.lines[p.pos] = strings.Repeat(" ", indent+2) + rest
			item, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			_ = key
			_ = after
			l.items = append(l.items, item)
			continue
		}
		// Scalar item.
		p.pos++
		item, err := parseFlow(rest, lineNo)
		if err != nil {
			return nil, err
		}
		l.items = append(l.items, item)
	}
}

// splitKey splits "key: rest"; an error means the content is not a
// mapping entry.
func splitKey(content string, lineNo int) (key, rest string, err error) {
	i := strings.Index(content, ":")
	if i <= 0 {
		return "", "", errAt(lineNo, "expected 'key: value', got %q", content)
	}
	key = strings.TrimSpace(content[:i])
	if key == "" || strings.ContainsAny(key, " {}[],") {
		return "", "", errAt(lineNo, "bad mapping key in %q", content)
	}
	rest = strings.TrimSpace(content[i+1:])
	return key, rest, nil
}

// parseFlow parses a scalar, a one-level `{k: v, …}` flow map, or a
// `[a, b]` flow list of scalars.
func parseFlow(s string, lineNo int) (*node, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, errAt(lineNo, "unterminated flow map %q", s)
		}
		m := &node{kind: mapNode, line: lineNo}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return m, nil
		}
		for _, part := range strings.Split(body, ",") {
			key, rest, err := splitKey(strings.TrimSpace(part), lineNo)
			if err != nil {
				return nil, err
			}
			if rest == "" || strings.ContainsAny(rest, "{}[]") {
				return nil, errAt(lineNo, "flow maps hold scalars only, got %q", part)
			}
			for _, k := range m.keys {
				if k == key {
					return nil, errAt(lineNo, "duplicate key %q", key)
				}
			}
			m.keys = append(m.keys, key)
			m.vals = append(m.vals, &node{kind: scalarNode, scalar: rest, line: lineNo})
		}
		return m, nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, errAt(lineNo, "unterminated flow list %q", s)
		}
		l := &node{kind: listNode, line: lineNo}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return l, nil
		}
		for _, part := range strings.Split(body, ",") {
			v := strings.TrimSpace(part)
			if v == "" || strings.ContainsAny(v, "{}[]") {
				return nil, errAt(lineNo, "flow lists hold scalars only, got %q", part)
			}
			l.items = append(l.items, &node{kind: scalarNode, scalar: v, line: lineNo})
		}
		return l, nil
	case strings.ContainsAny(s, "{}[]"):
		return nil, errAt(lineNo, "stray flow punctuation in %q", s)
	default:
		return &node{kind: scalarNode, scalar: s, line: lineNo}, nil
	}
}

// parseTree parses the whole document into a map node.
func parseTree(data []byte) (*node, error) {
	p := &parser{lines: strings.Split(string(data), "\n")}
	indent, _, lineNo, ok, err := p.peek()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errAt(1, "empty scenario")
	}
	if indent != 0 {
		return nil, errAt(lineNo, "top level must not be indented")
	}
	root, err := p.parseMap(0)
	if err != nil {
		return nil, err
	}
	if _, content, lineNo, ok, _ := p.peek(); ok {
		return nil, errAt(lineNo, "trailing content %q", content)
	}
	return root, nil
}

// ---- typed mapping -------------------------------------------------------

// fields maps a node's keys through setters, rejecting unknown fields.
func fields(n *node, where string, set map[string]func(*node) error) error {
	if n.kind != mapNode {
		return errAt(n.line, "%s: expected a mapping", where)
	}
	for i, k := range n.keys {
		fn, ok := set[k]
		if !ok {
			known := make([]string, 0, len(set))
			for f := range set {
				known = append(known, f)
			}
			sort.Strings(known)
			return errAt(n.vals[i].line, "%s: unknown field %q (known: %s)", where, k, strings.Join(known, ", "))
		}
		if err := fn(n.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

func wantScalar(n *node, where string) (string, error) {
	if n.kind != scalarNode {
		return "", errAt(n.line, "%s: expected a scalar", where)
	}
	return n.scalar, nil
}

func setString(dst *string, where string) func(*node) error {
	return func(n *node) error {
		s, err := wantScalar(n, where)
		if err != nil {
			return err
		}
		*dst = s
		return nil
	}
}

func setInt(dst *int, where string) func(*node) error {
	return func(n *node) error {
		s, err := wantScalar(n, where)
		if err != nil {
			return err
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return errAt(n.line, "%s: bad integer %q", where, s)
		}
		*dst = v
		return nil
	}
}

func setInt64(dst *int64, where string) func(*node) error {
	return func(n *node) error {
		s, err := wantScalar(n, where)
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return errAt(n.line, "%s: bad integer %q", where, s)
		}
		*dst = v
		return nil
	}
}

func setBool(dst *bool, where string) func(*node) error {
	return func(n *node) error {
		s, err := wantScalar(n, where)
		if err != nil {
			return err
		}
		switch s {
		case "true":
			*dst = true
		case "false":
			*dst = false
		default:
			return errAt(n.line, "%s: bad boolean %q", where, s)
		}
		return nil
	}
}

func setDuration(dst *time.Duration, where string) func(*node) error {
	return func(n *node) error {
		s, err := wantScalar(n, where)
		if err != nil {
			return err
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return errAt(n.line, "%s: bad duration %q", where, s)
		}
		if d < 0 {
			return errAt(n.line, "%s: negative duration %q", where, s)
		}
		*dst = d
		return nil
	}
}

// Decode parses and validates a scenario file.
func Decode(data []byte) (*Scenario, error) {
	root, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	err = fields(root, "scenario", map[string]func(*node) error{
		"name":        setString(&sc.Name, "name"),
		"description": setString(&sc.Description, "description"),
		"seed":        setInt64(&sc.Seed, "seed"),
		"topology":    func(n *node) error { return decodeTopology(n, &sc.Topology) },
		"phases": func(n *node) error {
			return eachItem(n, "phases", func(item *node) error {
				var p Phase
				if err := decodePhase(item, &p); err != nil {
					return err
				}
				sc.Phases = append(sc.Phases, p)
				return nil
			})
		},
		"assertions": func(n *node) error {
			return eachItem(n, "assertions", func(item *node) error {
				var a Assertion
				if err := decodeAssertion(item, &a); err != nil {
					return err
				}
				sc.Asserts = append(sc.Asserts, a)
				return nil
			})
		},
	})
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func eachItem(n *node, where string, fn func(*node) error) error {
	if n.kind != listNode {
		return errAt(n.line, "%s: expected a list", where)
	}
	for _, item := range n.items {
		if err := fn(item); err != nil {
			return err
		}
	}
	return nil
}

func decodeTopology(n *node, t *Topology) error {
	return fields(n, "topology", map[string]func(*node) error{
		"rigs": func(n *node) error {
			return eachItem(n, "rigs", func(item *node) error {
				var r RigSpec
				if err := decodeRig(item, &r); err != nil {
					return err
				}
				t.Rigs = append(t.Rigs, r)
				return nil
			})
		},
	})
}

func decodeRig(n *node, r *RigSpec) error {
	return fields(n, "rig", map[string]func(*node) error{
		"name":               setString(&r.Name, "rig name"),
		"layout":             setString(&r.Layout, "layout"),
		"stores":             setInt(&r.Stores, "stores"),
		"users":              setInt(&r.Users, "users"),
		"size-bytes":         setInt(&r.SizeBytes, "size-bytes"),
		"cache-entries":      setInt(&r.CacheEntries, "cache-entries"),
		"baseline":           setBool(&r.Baseline, "baseline"),
		"disable-coalescing": setBool(&r.DisableCoalescing, "disable-coalescing"),
		"retry-attempts":     setInt(&r.RetryAttempts, "retry-attempts"),
		"per-attempt":        setDuration(&r.PerAttempt, "per-attempt"),
		"max-concurrency":    setInt(&r.MaxConcurrency, "max-concurrency"),
		"queue-depth":        setInt(&r.QueueDepth, "queue-depth"),
		"lease-ttl":          setDuration(&r.LeaseTTL, "lease-ttl"),
		"lease-grace":        setDuration(&r.LeaseGrace, "lease-grace"),
		"heartbeats":         setBool(&r.Heartbeats, "heartbeats"),
		"replicas":           setInt(&r.Replicas, "replicas"),
		"quorum":             setInt(&r.Quorum, "quorum"),
		"election-ttl":       setDuration(&r.ElectionTTL, "election-ttl"),
		"shards":             setInt(&r.Shards, "shards"),
		"spare-shards":       setInt(&r.SpareShards, "spare-shards"),
		"auto-repair":        setBool(&r.AutoRepair, "auto-repair"),
		"gossip-interval":    setDuration(&r.GossipInterval, "gossip-interval"),
		"suspect-timeout":    setDuration(&r.SuspectTimeout, "suspect-timeout"),
		"shard-links": func(n *node) error {
			spec := &LinkSpec{}
			if err := decodeLinkSpec(n, spec); err != nil {
				return err
			}
			r.ShardLinks = spec
			return nil
		},
		"profile": setString(&r.Profile, "profile"),
		"links":   func(n *node) error { return decodeLinks(n, &r.Links) },
	})
}

func decodeLinks(n *node, l *LinkSet) error {
	if n.kind != mapNode {
		return errAt(n.line, "links: expected a mapping")
	}
	for i, k := range n.keys {
		spec := &LinkSpec{}
		if err := decodeLinkSpec(n.vals[i], spec); err != nil {
			return err
		}
		switch {
		case k == "mdm":
			l.MDM = spec
		case k == "stores":
			l.Stores = spec
		case storeIndex(k) >= 0:
			if l.PerStore == nil {
				l.PerStore = map[string]*LinkSpec{}
			}
			l.PerStore[k] = spec
		default:
			return errAt(n.vals[i].line, "links: unknown link %q (mdm, stores, or store-N)", k)
		}
	}
	return nil
}

func decodeLinkSpec(n *node, l *LinkSpec) error {
	return fields(n, "link", map[string]func(*node) error{
		"latency":   setDuration(&l.Latency, "latency"),
		"jitter":    setDuration(&l.Jitter, "jitter"),
		"bandwidth": setInt(&l.Bandwidth, "bandwidth"),
	})
}

func decodePhase(n *node, p *Phase) error {
	return fields(n, "phase", map[string]func(*node) error{
		"name":                 setString(&p.Name, "phase name"),
		"rig":                  setString(&p.Rig, "rig"),
		"calibrate":            setInt(&p.Calibrate, "calibrate"),
		"clients":              setInt(&p.Clients, "clients"),
		"rounds":               setInt(&p.Rounds, "rounds"),
		"conns":                setInt(&p.Conns, "conns"),
		"duration":             setDuration(&p.Duration, "duration"),
		"kill-leader-after":    setDuration(&p.KillLeaderAfter, "kill-leader-after"),
		"rebalance-after":      setDuration(&p.RebalanceAfter, "rebalance-after"),
		"kill-shard-after":     setDuration(&p.KillShardAfter, "kill-shard-after"),
		"kill-shard":           setString(&p.KillShard, "kill-shard"),
		"partition-after":      setDuration(&p.PartitionAfter, "partition-after"),
		"partition-shard":      setString(&p.PartitionShard, "partition-shard"),
		"partition-heal-after": setDuration(&p.PartitionHealAfter, "partition-heal-after"),
		"rate": func(n *node) error {
			s, err := wantScalar(n, "rate")
			if err != nil {
				return err
			}
			r, err := parseRate(s)
			if err != nil {
				return errAt(n.line, "rate: %v", err)
			}
			p.Rate = r
			return nil
		},
		"budget": func(n *node) error {
			s, err := wantScalar(n, "budget")
			if err != nil {
				return err
			}
			b, err := parseBudget(s)
			if err != nil {
				return errAt(n.line, "budget: %v", err)
			}
			p.Budget = b
			return nil
		},
		"stamped": func(n *node) error {
			var v bool
			if err := setBool(&v, "stamped")(n); err != nil {
				return err
			}
			p.Stamped = &v
			return nil
		},
		"trace": func(n *node) error {
			var v bool
			if err := setBool(&v, "trace")(n); err != nil {
				return err
			}
			p.Trace = &v
			return nil
		},
		"faults": func(n *node) error {
			return eachItem(n, "faults", func(item *node) error {
				var f FaultSpec
				if err := decodeFault(item, &f); err != nil {
					return err
				}
				p.Faults = append(p.Faults, f)
				return nil
			})
		},
		"reregister": func(n *node) error {
			return eachItem(n, "reregister", func(item *node) error {
				s, err := wantScalar(item, "reregister")
				if err != nil {
					return err
				}
				p.Reregister = append(p.Reregister, s)
				return nil
			})
		},
		"mix": func(n *node) error {
			return eachItem(n, "mix", func(item *node) error {
				var m MixEntry
				if err := decodeMix(item, &m); err != nil {
					return err
				}
				p.Mix = append(p.Mix, m)
				return nil
			})
		},
	})
}

func decodeMix(n *node, m *MixEntry) error {
	m.Weight = 1
	return fields(n, "mix entry", map[string]func(*node) error{
		"verb":    setString(&m.Verb, "verb"),
		"pattern": setString(&m.Pattern, "pattern"),
		"batch":   setBool(&m.Batch, "batch"),
		"users":   setString(&m.Users, "users"),
		"weight":  setInt(&m.Weight, "weight"),
	})
}

func decodeFault(n *node, f *FaultSpec) error {
	return fields(n, "fault", map[string]func(*node) error{
		"link": setString(&f.Link, "link"),
		"latency": func(n *node) error {
			var d time.Duration
			if err := setDuration(&d, "latency")(n); err != nil {
				return err
			}
			f.Latency = &d
			return nil
		},
		"jitter": func(n *node) error {
			var d time.Duration
			if err := setDuration(&d, "jitter")(n); err != nil {
				return err
			}
			f.Jitter = &d
			return nil
		},
		"bandwidth": func(n *node) error {
			var v int
			if err := setInt(&v, "bandwidth")(n); err != nil {
				return err
			}
			f.Bandwidth = &v
			return nil
		},
		"blackout": func(n *node) error {
			var v bool
			if err := setBool(&v, "blackout")(n); err != nil {
				return err
			}
			f.Blackout = &v
			return nil
		},
	})
}

func decodeAssertion(n *node, a *Assertion) error {
	return fields(n, "assertion", map[string]func(*node) error{
		"kind":         setString(&a.Kind, "kind"),
		"phase":        setString(&a.Phase, "phase"),
		"num":          setString(&a.Num, "num"),
		"den":          setString(&a.Den, "den"),
		"max-duration": setDuration(&a.Max, "max-duration"),
		"min": func(n *node) error {
			s, err := wantScalar(n, "min")
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return errAt(n.line, "min: bad number %q", s)
			}
			a.Min = v
			return nil
		},
		"max": func(n *node) error {
			s, err := wantScalar(n, "max")
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return errAt(n.line, "max: bad number %q", s)
			}
			a.MaxRatio = v
			return nil
		},
		"max-count": setInt(&a.MaxCount, "max-count"),
	})
}

// parseRate parses "0.8x" (capacity factor), "120/s" or "120"
// (absolute requests/sec).
func parseRate(s string) (Rate, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || f <= 0 {
			return Rate{}, fmt.Errorf("bad capacity factor %q", s)
		}
		return Rate{Factor: f}, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "/s"), 64)
	if err != nil || v <= 0 {
		return Rate{}, fmt.Errorf("bad rate %q (want '0.8x', '120/s' or '120')", s)
	}
	return Rate{PerSec: v}, nil
}

// parseBudget parses "10x" (service-time factor) or a duration.
func parseBudget(s string) (Budget, error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || f <= 0 {
			return Budget{}, fmt.Errorf("bad service-time factor %q", s)
		}
		return Budget{Factor: f}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return Budget{}, fmt.Errorf("bad budget %q (want '10x' or a duration)", s)
	}
	return Budget{Duration: d}, nil
}
