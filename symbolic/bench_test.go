package symbolic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/workload"
)

func benchConfig() *ios.Config {
	return ios.MustParse(`ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
ip community-list expanded D2 permit _300:3_
ip prefix-list D3 seq 10 permit 100.0.0.0/16 le 23
route-map ISP_OUT permit 10
 match community D2
 match ip address prefix-list D3
 set metric 55
route-map ISP_OUT deny 20
 match as-path D0
route-map ISP_OUT deny 30
 match ip address prefix-list D1
route-map ISP_OUT permit 40
 match local-preference 300
`)
}

// transitConfig is one route map of k stanzas, each matching a transit
// condition "_N_" of its own as-path list. The conditions are independent,
// so the space has 2^k as-path atoms.
func transitConfig(k int) *ios.Config {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "ip as-path access-list T%d permit _%d_\n", i, 64500+i)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "route-map TRANSIT permit %d\n match as-path T%d\n", 10*(i+1), i)
	}
	return ios.MustParse(b.String())
}

// BenchmarkNewRouteSpace measures universe construction (atomic predicates +
// variable allocation) for the paper's map, and construction plus the
// first-match fold for eight transit stanzas (256 as-path atoms).
func BenchmarkNewRouteSpace(b *testing.B) {
	for _, c := range []struct {
		name       string
		cfg        *ios.Config
		firstMatch bool
	}{
		{"paper", benchConfig(), false},
		{"transit-8", transitConfig(8), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				s, err := NewRouteSpace(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if c.firstMatch {
					if _, err := s.FirstMatch(c.cfg, c.cfg.RouteMaps["TRANSIT"]); err != nil {
						b.Fatal(err)
					}
				}
				nodes += s.Pool.Size()
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkFirstMatch measures first-match region computation for a 4-stanza
// route map.
func BenchmarkFirstMatch(b *testing.B) {
	cfg := benchConfig()
	s, err := NewRouteSpace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rm := cfg.RouteMaps["ISP_OUT"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FirstMatch(cfg, rm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRoute measures concrete-route encoding (used by the
// lockstep property tests and witness confirmation).
func BenchmarkEncodeRoute(b *testing.B) {
	cfg := benchConfig()
	s, err := NewRouteSpace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := testgen.Route(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.EncodeRoute(r)
	}
}

// witnessSink keeps BenchmarkWitness's packets live.
var witnessSink packet.Packet

// BenchmarkWitness measures model extraction and decoding. acl: one pass of
// ACLSpace.Witness over every first-match region of the cloud corpus ACL
// with the most entries. route: RouteSpace.WitnessWhere's first model over
// every first-match region of the cloud corpus route map with the most
// stanzas.
func BenchmarkWitness(b *testing.B) {
	corpus := workload.Cloud(1, workload.CloudACLCount, workload.CloudRouteMapCount)
	b.Run("acl", func(b *testing.B) {
		var acl *ios.ACL
		for _, cfg := range corpus.ACLConfigs {
			for _, a := range cfg.ACLs {
				if acl == nil || len(a.Entries) > len(acl.Entries) {
					acl = a
				}
			}
		}
		s := NewACLSpace()
		defer s.Release()
		regions := s.FirstMatch(acl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range regions {
				witnessSink, _ = s.Witness(r)
			}
		}
	})
	b.Run("route", func(b *testing.B) {
		var (
			cfg *ios.Config
			rm  *ios.RouteMap
		)
		for _, c := range corpus.RouteMapConfigs {
			for _, m := range c.RouteMaps {
				if rm == nil || len(m.Stanzas) > len(rm.Stanzas) {
					cfg, rm = c, m
				}
			}
		}
		s, err := NewRouteSpace(cfg)
		if err != nil {
			b.Fatal(err)
		}
		regions, err := s.FirstMatch(cfg, rm)
		if err != nil {
			b.Fatal(err)
		}
		first := func(route.Route) (bool, error) { return true, nil }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range regions {
				if _, err := s.WitnessWhere(r, 1, first); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkNewACLSpace: the packet universe laid out in a new pool, and a
// space taken from the free list and released again.
func BenchmarkNewACLSpace(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newACLSpaceIn(bdd.NewPool(0))
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewACLSpace().Release()
		}
	})
}

// BenchmarkACLFirstMatch measures header-space region computation for ACLs.
func BenchmarkACLFirstMatch(b *testing.B) {
	cfg := ios.MustParse(`ip access-list extended EDGE
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 80
 deny udp 10.0.0.0 0.0.0.255 any
 permit tcp any any established
 deny ip any any
`)
	acl := cfg.ACLs["EDGE"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewACLSpace()
		_ = s.FirstMatch(acl)
	}
}
