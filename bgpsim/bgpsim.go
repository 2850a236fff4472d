// Package bgpsim is a miniature eBGP propagation simulator: routers with
// Cisco IOS policies (internal/ios) exchange route advertisements over
// sessions, applying export and import route-maps with the concrete
// evaluator, until the network reaches a fixed point.
//
// It is the substrate for the paper's Section 5 evaluation: after Clarify
// incrementally synthesizes each router's route-maps, the simulator checks
// that the five global policies hold on the resulting network. The model is
// deliberately small — eBGP only (every router its own AS), one address per
// router, standard best-path selection (weight, local preference, AS-path
// length, MED, stable neighbor tie-break), AS-path loop rejection — but the
// policy-application semantics are exactly internal/policy's.
package bgpsim

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
)

// Neighbor is one directed session endpoint: the local router's view of a
// peering.
type Neighbor struct {
	// Remote is the neighbor router's name.
	Remote string
	// ImportMap and ExportMap name route-maps in the local router's Config;
	// empty names mean "accept/advertise everything unchanged".
	ImportMap string
	ExportMap string
}

// Router is one BGP speaker.
type Router struct {
	Name string
	ASN  uint32
	// RouterID is used as the next-hop address on exports.
	RouterID netip.Addr
	// Config holds the router's route-maps and their ancillary lists.
	Config *ios.Config
	// Originate lists locally originated prefixes.
	Originate []netip.Prefix
	// Neighbors are the router's sessions.
	Neighbors []Neighbor
}

// Network is a set of routers with sessions between them.
type Network struct {
	routers map[string]*Router
	order   []string
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{routers: map[string]*Router{}}
}

// AddRouter registers a router; its name must be unique.
func (n *Network) AddRouter(r *Router) error {
	if _, dup := n.routers[r.Name]; dup {
		return fmt.Errorf("bgpsim: duplicate router %q", r.Name)
	}
	if r.Config == nil {
		r.Config = ios.NewConfig()
	}
	if !r.RouterID.IsValid() {
		r.RouterID = netip.AddrFrom4([4]byte{10, 255, byte(len(n.order)), 1})
	}
	n.routers[r.Name] = r
	n.order = append(n.order, r.Name)
	return nil
}

// Router returns a registered router.
func (n *Network) Router(name string) *Router { return n.routers[name] }

// Connect establishes a bidirectional session. The map arguments name
// route-maps in the respective router's config ("" = none).
func (n *Network) Connect(a, b string, aImport, aExport, bImport, bExport string) error {
	ra, ok := n.routers[a]
	if !ok {
		return fmt.Errorf("bgpsim: unknown router %q", a)
	}
	rb, ok := n.routers[b]
	if !ok {
		return fmt.Errorf("bgpsim: unknown router %q", b)
	}
	ra.Neighbors = append(ra.Neighbors, Neighbor{Remote: b, ImportMap: aImport, ExportMap: aExport})
	rb.Neighbors = append(rb.Neighbors, Neighbor{Remote: a, ImportMap: bImport, ExportMap: bExport})
	return nil
}

// RIBEntry is a best route with its provenance.
type RIBEntry struct {
	Route route.Route
	// From is the neighbor the route was learned from; empty for locally
	// originated routes.
	From string
}

// State is the converged network state.
type State struct {
	// RIB maps router → prefix → best route.
	RIB map[string]map[netip.Prefix]RIBEntry
	// Rounds is the number of propagation rounds executed.
	Rounds int
	// Converged reports whether a fixed point was reached within the bound.
	Converged bool
}

// Run propagates routes to a fixed point (or maxRounds). Policy-evaluation
// errors (for example dangling route-map references) abort the run.
func (n *Network) Run(maxRounds int) (*State, error) {
	if maxRounds <= 0 {
		maxRounds = 64
	}
	// Routers share one automaton table: their policies repeat regexes.
	automata := ciscorx.NewMemo()
	evs := map[string]*policy.Evaluator{}
	for name, r := range n.routers {
		if err := r.Config.Validate(); err != nil {
			return nil, fmt.Errorf("bgpsim: router %s: %w", name, err)
		}
		evs[name] = policy.NewEvaluatorWith(r.Config, automata)
	}

	// adjIn[router][neighbor][prefix] = accepted route.
	adjIn := map[string]map[string]map[netip.Prefix]route.Route{}
	for _, name := range n.order {
		adjIn[name] = map[string]map[netip.Prefix]route.Route{}
		for _, nb := range n.routers[name].Neighbors {
			adjIn[name][nb.Remote] = map[netip.Prefix]route.Route{}
		}
	}

	best := func(name string) map[netip.Prefix]RIBEntry {
		r := n.routers[name]
		rib := map[netip.Prefix]RIBEntry{}
		for _, pfx := range r.Originate {
			lr := route.Route{
				Network:   pfx.Masked(),
				LocalPref: 100,
				Weight:    32768, // Cisco: locally originated wins
				NextHop:   r.RouterID,
			}
			rib[pfx.Masked()] = RIBEntry{Route: lr}
		}
		// Deterministic neighbor order.
		nbNames := make([]string, 0, len(adjIn[name]))
		for nb := range adjIn[name] {
			nbNames = append(nbNames, nb)
		}
		sort.Strings(nbNames)
		for _, nb := range nbNames {
			for pfx, cand := range adjIn[name][nb] {
				cur, ok := rib[pfx]
				if !ok || better(cand, cur.Route) {
					rib[pfx] = RIBEntry{Route: cand, From: nb}
				}
			}
		}
		return rib
	}

	state := &State{RIB: map[string]map[netip.Prefix]RIBEntry{}}
	for round := 1; round <= maxRounds; round++ {
		state.Rounds = round
		changed := false
		// Snapshot RIBs from current adj-ins.
		ribs := map[string]map[netip.Prefix]RIBEntry{}
		for _, name := range n.order {
			ribs[name] = best(name)
		}
		// Exchange: every router advertises its best routes to every
		// neighbor.
		for _, sender := range n.order {
			sr := n.routers[sender]
			for _, nb := range sr.Neighbors {
				receiver := n.routers[nb.Remote]
				recvNb := neighborOf(receiver, sender)
				fresh := map[netip.Prefix]route.Route{}
				for pfx, entry := range ribs[sender] {
					// Split-horizon: do not advertise back to the neighbor
					// the route was learned from.
					if entry.From == nb.Remote {
						continue
					}
					adv, ok, err := exportRoute(evs[sender], sr, nb, entry.Route)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
					acc, ok, err := importRoute(evs[nb.Remote], receiver, recvNb, adv)
					if err != nil {
						return nil, err
					}
					if ok {
						fresh[pfx] = acc
					}
				}
				if !routesEqual(adjIn[nb.Remote][sender], fresh) {
					adjIn[nb.Remote][sender] = fresh
					changed = true
				}
			}
		}
		if !changed {
			state.Converged = true
			for _, name := range n.order {
				state.RIB[name] = best(name)
			}
			return state, nil
		}
	}
	for _, name := range n.order {
		state.RIB[name] = best(name)
	}
	return state, nil
}

func neighborOf(r *Router, remote string) Neighbor {
	for _, nb := range r.Neighbors {
		if nb.Remote == remote {
			return nb
		}
	}
	return Neighbor{Remote: remote}
}

// exportRoute applies the sender's export policy and eBGP attribute rules.
func exportRoute(ev *policy.Evaluator, sender *Router, nb Neighbor, r route.Route) (route.Route, bool, error) {
	out := r.Clone()
	if nb.ExportMap != "" {
		rm, ok := sender.Config.RouteMaps[nb.ExportMap]
		if !ok {
			return route.Route{}, false, fmt.Errorf("bgpsim: router %s export map %q undefined", sender.Name, nb.ExportMap)
		}
		v, err := ev.EvalRouteMap(rm, out)
		if err != nil {
			return route.Route{}, false, err
		}
		if !v.Permit {
			return route.Route{}, false, nil
		}
		out = v.Output
	}
	// eBGP: prepend own ASN, set next hop, strip local attributes.
	out.ASPath = append([]route.ASPathSegment{{ASNs: []uint32{sender.ASN}}}, out.ASPath...)
	out.NextHop = sender.RouterID
	out.Weight = 0
	out.LocalPref = 100
	return out, true, nil
}

// importRoute applies loop rejection and the receiver's import policy.
func importRoute(ev *policy.Evaluator, receiver *Router, nb Neighbor, r route.Route) (route.Route, bool, error) {
	for _, asn := range r.FlatASPath() {
		if asn == receiver.ASN {
			return route.Route{}, false, nil // AS-path loop
		}
	}
	in := r.Clone()
	if nb.ImportMap != "" {
		rm, ok := receiver.Config.RouteMaps[nb.ImportMap]
		if !ok {
			return route.Route{}, false, fmt.Errorf("bgpsim: router %s import map %q undefined", receiver.Name, nb.ImportMap)
		}
		v, err := ev.EvalRouteMap(rm, in)
		if err != nil {
			return route.Route{}, false, err
		}
		if !v.Permit {
			return route.Route{}, false, nil
		}
		in = v.Output
	}
	return in, true, nil
}

// better reports whether a beats b under BGP best-path selection.
func better(a, b route.Route) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if la, lb := len(a.FlatASPath()), len(b.FlatASPath()); la != lb {
		return la < lb
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	return false // stable: earlier (sorted) neighbor wins
}

func routesEqual(a, b map[netip.Prefix]route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for pfx, ra := range a {
		rb, ok := b[pfx]
		if !ok || !ra.Equal(rb) {
			return false
		}
	}
	return true
}

// ---------- Queries ----------

// Best returns the converged best route for pfx at the router.
func (s *State) Best(router string, pfx netip.Prefix) (RIBEntry, bool) {
	rib, ok := s.RIB[router]
	if !ok {
		return RIBEntry{}, false
	}
	e, ok := rib[pfx.Masked()]
	return e, ok
}

// HasRoute reports whether the router has any route for pfx.
func (s *State) HasRoute(router string, pfx netip.Prefix) bool {
	_, ok := s.Best(router, pfx)
	return ok
}

// LearnedVia reports whether the router's best route for pfx passes through
// the given AS.
func (s *State) LearnedVia(router string, pfx netip.Prefix, asn uint32) bool {
	e, ok := s.Best(router, pfx)
	if !ok {
		return false
	}
	for _, a := range e.Route.FlatASPath() {
		if a == asn {
			return true
		}
	}
	return false
}

// Prefixes returns the router's converged prefixes, sorted.
func (s *State) Prefixes(router string) []netip.Prefix {
	rib := s.RIB[router]
	out := make([]netip.Prefix, 0, len(rib))
	for pfx := range rib {
		out = append(out, pfx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
