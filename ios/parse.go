package ios

import (
	"bufio"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ParseError reports a parse failure with its line number.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ios: line %d: %s (in %q)", e.Line, e.Msg, e.Text)
}

// wellKnownPorts maps the IOS port keywords this dialect accepts.
// icmpTypeNames maps the IOS ICMP type keywords this dialect accepts.
var icmpTypeNames = map[string]uint8{
	"echo-reply": 0, "unreachable": 3, "redirect": 5, "echo": 8,
	"time-exceeded": 11, "parameter-problem": 12, "timestamp-request": 13,
	"timestamp-reply": 14,
}

var wellKnownPorts = map[string]uint16{
	"ftp-data": 20, "ftp": 21, "ssh": 22, "telnet": 23, "smtp": 25,
	"domain": 53, "www": 80, "pop3": 110, "ntp": 123, "snmp": 161,
	"bgp": 179, "https": 443, "syslog": 514,
}

// Parse reads a configuration fragment in Cisco IOS syntax.
func Parse(text string) (*Config, error) {
	cfg := NewConfig()
	p := &lineParser{cfg: cfg}
	sc := bufio.NewScanner(strings.NewReader(text))
	// No initial buffer: bufio starts small and grows only for long lines,
	// so a one-line snippet does not allocate the whole 1 MiB line limit.
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.line(lineNo, line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ios: %v", err)
	}
	return cfg, nil
}

// ParseACE reads text as one entry of an extended access list, 'permit|deny
// PROTO SRC [PORT] DST [PORT] [ICMP] [established]', as Parse reads a
// block's first entry on line lineNo: the entry has Seq 10, and a malformed
// one fails with the *ParseError Parse would return.
func ParseACE(lineNo int, text string) (*ACE, error) {
	p := &lineParser{curACL: &ACL{}}
	text = strings.TrimSpace(text)
	f := strings.Fields(text)
	if len(f) == 0 {
		return nil, p.fail(lineNo, text, "empty access-list entry")
	}
	if err := p.aclEntry(lineNo, text, f, 0); err != nil {
		return nil, err
	}
	return p.curACL.Entries[0], nil
}

// MustParse is Parse for statically known fragments; it panics on error.
func MustParse(text string) *Config {
	cfg, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return cfg
}

type lineParser struct {
	cfg *Config

	// Block context for indented continuation lines.
	curStanza *Stanza
	curACL    *ACL
}

func (p *lineParser) fail(n int, text, format string, args ...interface{}) error {
	return &ParseError{Line: n, Text: text, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) line(n int, text string) error {
	f := strings.Fields(text)
	switch {
	case f[0] == "route-map":
		p.curACL = nil
		return p.routeMapHeader(n, text, f)
	case f[0] == "match" || f[0] == "set":
		if p.curStanza == nil {
			return p.fail(n, text, "%s clause outside a route-map stanza", f[0])
		}
		if f[0] == "match" {
			return p.matchClause(n, text, f)
		}
		return p.setClause(n, text, f)
	case f[0] == "continue":
		if p.curStanza == nil {
			return p.fail(n, text, "continue outside a route-map stanza")
		}
		return p.continueClause(n, text, f)
	case f[0] == "ip" && len(f) >= 2 && f[1] == "as-path":
		p.reset()
		return p.asPathList(n, text, f)
	case f[0] == "ip" && len(f) >= 2 && f[1] == "prefix-list":
		p.reset()
		return p.prefixList(n, text, f)
	case f[0] == "ip" && len(f) >= 2 && f[1] == "community-list":
		p.reset()
		return p.communityList(n, text, f)
	case f[0] == "ip" && len(f) >= 2 && f[1] == "access-list":
		p.reset()
		return p.namedACLHeader(n, text, f)
	case f[0] == "access-list":
		p.reset()
		return p.numberedACE(n, text, f)
	case f[0] == "permit" || f[0] == "deny":
		if p.curACL == nil {
			return p.fail(n, text, "ACL entry outside an access-list block")
		}
		return p.aclEntry(n, text, f, 0)
	default:
		if seq, err := strconv.Atoi(f[0]); err == nil && p.curACL != nil && len(f) > 1 {
			return p.aclEntry(n, text, f[1:], seq)
		}
		return p.fail(n, text, "unrecognized command %q", f[0])
	}
}

func (p *lineParser) reset() {
	p.curStanza = nil
	p.curACL = nil
}

// route-map NAME permit|deny SEQ
func (p *lineParser) routeMapHeader(n int, text string, f []string) error {
	if len(f) != 4 {
		return p.fail(n, text, "want 'route-map NAME permit|deny SEQ'")
	}
	permit, err := parseAction(f[2])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	seq, err := strconv.Atoi(f[3])
	if err != nil || seq <= 0 {
		return p.fail(n, text, "bad sequence number %q", f[3])
	}
	rm := p.cfg.AddRouteMap(f[1])
	for _, st := range rm.Stanzas {
		if st.Seq == seq {
			return p.fail(n, text, "duplicate sequence %d in route-map %s", seq, f[1])
		}
	}
	st := &Stanza{Seq: seq, Permit: permit}
	// Keep stanzas ordered by sequence number regardless of input order.
	pos := len(rm.Stanzas)
	for i, other := range rm.Stanzas {
		if other.Seq > seq {
			pos = i
			break
		}
	}
	rm.Stanzas = append(rm.Stanzas, nil)
	copy(rm.Stanzas[pos+1:], rm.Stanzas[pos:])
	rm.Stanzas[pos] = st
	p.curStanza = st
	return nil
}

func (p *lineParser) matchClause(n int, text string, f []string) error {
	st := p.curStanza
	switch {
	case len(f) == 3 && f[1] == "as-path":
		st.Matches = append(st.Matches, MatchASPath{List: f[2]})
	case len(f) == 5 && f[1] == "ip" && f[2] == "address" && f[3] == "prefix-list":
		st.Matches = append(st.Matches, MatchPrefixList{List: f[4]})
	case len(f) == 5 && f[1] == "ip" && f[2] == "next-hop" && f[3] == "prefix-list":
		st.Matches = append(st.Matches, MatchNextHop{List: f[4]})
	case len(f) == 3 && f[1] == "community":
		st.Matches = append(st.Matches, MatchCommunity{List: f[2]})
	case len(f) == 3 && f[1] == "local-preference":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad local-preference %q", f[2])
		}
		st.Matches = append(st.Matches, MatchLocalPref{Value: uint32(v)})
	case len(f) == 3 && f[1] == "metric":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad metric %q", f[2])
		}
		st.Matches = append(st.Matches, MatchMetric{Value: uint32(v)})
	case len(f) == 3 && f[1] == "tag":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad tag %q", f[2])
		}
		st.Matches = append(st.Matches, MatchTag{Value: uint32(v)})
	default:
		return p.fail(n, text, "unsupported match clause")
	}
	return nil
}

func (p *lineParser) setClause(n int, text string, f []string) error {
	st := p.curStanza
	switch {
	case len(f) == 3 && f[1] == "metric":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad metric %q", f[2])
		}
		st.Sets = append(st.Sets, SetMetric{Value: uint32(v)})
	case len(f) == 3 && f[1] == "local-preference":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad local-preference %q", f[2])
		}
		st.Sets = append(st.Sets, SetLocalPref{Value: uint32(v)})
	case len(f) >= 3 && f[1] == "community":
		sc := SetCommunity{}
		vals := f[2:]
		if vals[len(vals)-1] == "additive" {
			sc.Additive = true
			vals = vals[:len(vals)-1]
		}
		if len(vals) == 0 {
			return p.fail(n, text, "set community requires at least one community")
		}
		for _, v := range vals {
			if !validCommunityLiteral(v) {
				return p.fail(n, text, "bad community %q", v)
			}
		}
		sc.Communities = append(sc.Communities, vals...)
		st.Sets = append(st.Sets, sc)
	case len(f) == 4 && f[1] == "ip" && f[2] == "next-hop":
		a, err := netip.ParseAddr(f[3])
		if err != nil {
			return p.fail(n, text, "bad next-hop %q", f[3])
		}
		st.Sets = append(st.Sets, SetNextHop{Addr: a})
	case len(f) == 3 && f[1] == "weight":
		v, err := strconv.ParseUint(f[2], 10, 16)
		if err != nil {
			return p.fail(n, text, "bad weight %q", f[2])
		}
		st.Sets = append(st.Sets, SetWeight{Value: uint16(v)})
	case len(f) == 3 && f[1] == "tag":
		v, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return p.fail(n, text, "bad tag %q", f[2])
		}
		st.Sets = append(st.Sets, SetTag{Value: uint32(v)})
	default:
		return p.fail(n, text, "unsupported set clause")
	}
	return nil
}

// continue [N]
func (p *lineParser) continueClause(n int, text string, f []string) error {
	if p.curStanza.Continue != nil {
		return p.fail(n, text, "duplicate continue clause")
	}
	c := &ContinueClause{}
	switch len(f) {
	case 1:
	case 2:
		seq, err := strconv.Atoi(f[1])
		if err != nil || seq <= p.curStanza.Seq {
			return p.fail(n, text, "continue target must be a sequence number greater than %d", p.curStanza.Seq)
		}
		c.Target = seq
	default:
		return p.fail(n, text, "want 'continue [SEQ]'")
	}
	p.curStanza.Continue = c
	return nil
}

func validCommunityLiteral(s string) bool {
	hi, lo, ok := strings.Cut(s, ":")
	if !ok {
		return false
	}
	if _, err := strconv.ParseUint(hi, 10, 16); err != nil {
		return false
	}
	_, err := strconv.ParseUint(lo, 10, 16)
	return err == nil
}

// ip as-path access-list NAME permit|deny REGEX
func (p *lineParser) asPathList(n int, text string, f []string) error {
	if len(f) < 6 || f[2] != "access-list" {
		return p.fail(n, text, "want 'ip as-path access-list NAME permit|deny REGEX'")
	}
	permit, err := parseAction(f[4])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	regex := strings.Join(f[5:], " ")
	p.cfg.AddASPathList(f[3], ASPathEntry{Permit: permit, Regex: regex})
	return nil
}

// ip prefix-list NAME [seq N] permit|deny PFX [ge N] [le N]
func (p *lineParser) prefixList(n int, text string, f []string) error {
	if len(f) < 4 {
		return p.fail(n, text, "want 'ip prefix-list NAME [seq N] permit|deny PREFIX [ge N] [le N]'")
	}
	name := f[2]
	rest := f[3:]
	entry := PrefixListEntry{}
	if rest[0] == "seq" {
		if len(rest) < 3 {
			return p.fail(n, text, "seq requires a number")
		}
		seq, err := strconv.Atoi(rest[1])
		if err != nil {
			return p.fail(n, text, "bad seq %q", rest[1])
		}
		entry.Seq = seq
		rest = rest[2:]
	}
	permit, err := parseAction(rest[0])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	entry.Permit = permit
	if len(rest) < 2 {
		return p.fail(n, text, "missing prefix")
	}
	pfx, err := netip.ParsePrefix(rest[1])
	if err != nil {
		return p.fail(n, text, "bad prefix %q: %v", rest[1], err)
	}
	entry.Prefix = pfx.Masked()
	rest = rest[2:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return p.fail(n, text, "dangling %q", rest[0])
		}
		v, err := strconv.Atoi(rest[1])
		if err != nil || v < 0 || v > 32 {
			return p.fail(n, text, "bad length bound %q", rest[1])
		}
		switch rest[0] {
		case "ge":
			entry.Ge = v
		case "le":
			entry.Le = v
		default:
			return p.fail(n, text, "unexpected token %q", rest[0])
		}
		rest = rest[2:]
	}
	lo, hi := entry.LenRange()
	if lo > hi || lo < entry.Prefix.Bits() {
		return p.fail(n, text, "inconsistent ge/le bounds for %s", entry.Prefix)
	}
	pl := p.cfg.AddPrefixList(name)
	if entry.Seq == 0 {
		maxSeq := 0
		for _, e := range pl.Entries {
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		}
		entry.Seq = maxSeq + 10 // Cisco auto-assigns in steps of 5; we use 10 like the paper's examples
	}
	pl.Entries = append(pl.Entries, entry)
	return nil
}

// ip community-list [standard|expanded] NAME permit|deny VALUES...
func (p *lineParser) communityList(n int, text string, f []string) error {
	rest := f[2:]
	expanded := false
	switch {
	case len(rest) > 0 && rest[0] == "expanded":
		expanded = true
		rest = rest[1:]
	case len(rest) > 0 && rest[0] == "standard":
		rest = rest[1:]
	}
	if len(rest) < 3 {
		return p.fail(n, text, "want 'ip community-list [standard|expanded] NAME permit|deny VALUES'")
	}
	name := rest[0]
	permit, err := parseAction(rest[1])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	values := rest[2:]
	if expanded {
		// Expanded lists carry a single regex (which may contain spaces).
		values = []string{strings.Join(values, " ")}
	} else {
		for _, v := range values {
			if !validCommunityLiteral(v) {
				return p.fail(n, text, "bad community literal %q in standard list", v)
			}
		}
	}
	if existing, ok := p.cfg.CommunityLists[name]; ok && existing.Expanded != expanded {
		return p.fail(n, text, "community-list %q mixes standard and expanded entries", name)
	}
	p.cfg.AddCommunityList(name, expanded, CommunityListEntry{Permit: permit, Values: values})
	return nil
}

// ip access-list extended NAME
func (p *lineParser) namedACLHeader(n int, text string, f []string) error {
	if len(f) != 4 || f[2] != "extended" {
		return p.fail(n, text, "want 'ip access-list extended NAME'")
	}
	p.curACL = p.cfg.AddACL(f[3])
	return nil
}

// access-list NUM permit|deny ...
func (p *lineParser) numberedACE(n int, text string, f []string) error {
	if len(f) < 3 {
		return p.fail(n, text, "want 'access-list NUM permit|deny ...'")
	}
	num, err := strconv.Atoi(f[1])
	if err != nil || num < 100 || num > 2699 {
		return p.fail(n, text, "extended ACL number %q out of range", f[1])
	}
	p.curACL = p.cfg.AddACL(f[1])
	err = p.aclEntry(n, text, f[2:], 0)
	p.curACL = nil
	return err
}

// aclEntry parses 'permit|deny PROTO SRC [PORT] DST [PORT] [established]'.
func (p *lineParser) aclEntry(n int, text string, f []string, seq int) error {
	permit, err := parseAction(f[0])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	toks := f[1:]
	if len(toks) == 0 {
		return p.fail(n, text, "missing protocol")
	}
	proto, err := parseProto(toks[0])
	if err != nil {
		return p.fail(n, text, "%v", err)
	}
	toks = toks[1:]
	src, toks, err := parseAddrSpec(toks)
	if err != nil {
		return p.fail(n, text, "source: %v", err)
	}
	sport, toks, err := parsePortSpec(toks)
	if err != nil {
		return p.fail(n, text, "source port: %v", err)
	}
	dst, toks, err := parseAddrSpec(toks)
	if err != nil {
		return p.fail(n, text, "destination: %v", err)
	}
	dport, toks, err := parsePortSpec(toks)
	if err != nil {
		return p.fail(n, text, "destination port: %v", err)
	}
	var icmp *ICMPSpec
	if !proto.Any && proto.Value == 1 && len(toks) > 0 && toks[0] != "established" {
		icmp = &ICMPSpec{}
		if v, ok := icmpTypeNames[toks[0]]; ok {
			icmp.Type = v
		} else {
			v, err := strconv.ParseUint(toks[0], 10, 8)
			if err != nil {
				return p.fail(n, text, "bad icmp type %q", toks[0])
			}
			icmp.Type = uint8(v)
		}
		toks = toks[1:]
		if len(toks) > 0 && toks[0] != "established" {
			v, err := strconv.ParseUint(toks[0], 10, 8)
			if err != nil {
				return p.fail(n, text, "bad icmp code %q", toks[0])
			}
			icmp.HasCode = true
			icmp.Code = uint8(v)
			toks = toks[1:]
		}
	}
	est := false
	if len(toks) > 0 && toks[0] == "established" {
		est = true
		toks = toks[1:]
	}
	if len(toks) > 0 {
		return p.fail(n, text, "trailing tokens %v", toks)
	}
	if (sport.Op != PortNone || dport.Op != PortNone) && proto.Any {
		return p.fail(n, text, "port matches require tcp or udp")
	}
	if est && (proto.Any || proto.Value != 6) {
		return p.fail(n, text, "'established' requires tcp")
	}
	ace := &ACE{
		Seq: seq, Permit: permit, Protocol: proto,
		Src: src, Dst: dst, SrcPort: sport, DstPort: dport,
		Established: est, ICMP: icmp,
	}
	if ace.Seq == 0 {
		maxSeq := 0
		for _, e := range p.curACL.Entries {
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		}
		ace.Seq = maxSeq + 10
	}
	p.curACL.Entries = append(p.curACL.Entries, ace)
	return nil
}

func parseAction(s string) (bool, error) {
	switch s {
	case "permit":
		return true, nil
	case "deny":
		return false, nil
	}
	return false, fmt.Errorf("action must be permit or deny, got %q", s)
}

func parseProto(s string) (ProtoSpec, error) {
	switch s {
	case "ip":
		return ProtoSpec{Any: true}, nil
	case "icmp":
		return ProtoSpec{Value: 1}, nil
	case "tcp":
		return ProtoSpec{Value: 6}, nil
	case "udp":
		return ProtoSpec{Value: 17}, nil
	}
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return ProtoSpec{}, fmt.Errorf("unknown protocol %q", s)
	}
	return ProtoSpec{Value: uint8(v)}, nil
}

func parseAddrSpec(toks []string) (AddrSpec, []string, error) {
	if len(toks) == 0 {
		return AddrSpec{}, nil, fmt.Errorf("missing address")
	}
	switch toks[0] {
	case "any":
		return AddrSpec{Any: true}, toks[1:], nil
	case "host":
		if len(toks) < 2 {
			return AddrSpec{}, nil, fmt.Errorf("host requires an address")
		}
		a, err := netip.ParseAddr(toks[1])
		if err != nil {
			return AddrSpec{}, nil, fmt.Errorf("bad address %q", toks[1])
		}
		return AddrSpec{Addr: a}, toks[2:], nil
	}
	a, err := netip.ParseAddr(toks[0])
	if err != nil {
		return AddrSpec{}, nil, fmt.Errorf("bad address %q", toks[0])
	}
	if len(toks) < 2 {
		return AddrSpec{}, nil, fmt.Errorf("address %q requires a wildcard mask", toks[0])
	}
	w, err := netip.ParseAddr(toks[1])
	if err != nil {
		return AddrSpec{}, nil, fmt.Errorf("bad wildcard %q", toks[1])
	}
	return AddrSpec{Addr: a, Wildcard: addrToU32(w)}, toks[2:], nil
}

func parsePortSpec(toks []string) (PortSpec, []string, error) {
	if len(toks) == 0 {
		return PortSpec{}, toks, nil
	}
	var op PortOp
	switch toks[0] {
	case "eq":
		op = PortEq
	case "neq":
		op = PortNeq
	case "lt":
		op = PortLt
	case "gt":
		op = PortGt
	case "range":
		op = PortRange
	default:
		return PortSpec{}, toks, nil
	}
	if len(toks) < 2 {
		return PortSpec{}, nil, fmt.Errorf("%s requires a port", toks[0])
	}
	lo, err := parsePort(toks[1])
	if err != nil {
		return PortSpec{}, nil, err
	}
	if op == PortRange {
		if len(toks) < 3 {
			return PortSpec{}, nil, fmt.Errorf("range requires two ports")
		}
		hi, err := parsePort(toks[2])
		if err != nil {
			return PortSpec{}, nil, err
		}
		if hi < lo {
			return PortSpec{}, nil, fmt.Errorf("range %d %d is inverted", lo, hi)
		}
		return PortSpec{Op: op, Lo: lo, Hi: hi}, toks[3:], nil
	}
	return PortSpec{Op: op, Lo: lo}, toks[2:], nil
}

func parsePort(s string) (uint16, error) {
	if v, ok := wellKnownPorts[s]; ok {
		return v, nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bad port %q", s)
	}
	return uint16(v), nil
}
