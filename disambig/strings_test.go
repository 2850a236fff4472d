package disambig

import (
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/route"
)

func TestRouteQuestionString(t *testing.T) {
	r := route.New("100.0.0.0/16").WithASPath(32).WithCommunities("300:3")
	out := policy.ApplySets([]ios.SetClause{ios.SetMetric{Value: 55}}, r)
	q := RouteQuestion{
		Input:      r,
		NewVerdict: policy.RouteVerdict{Permit: true, Output: out},
		OldVerdict: policy.RouteVerdict{Permit: false, Output: r},
	}
	s := q.String()
	// Mirrors the paper's §2.2 presentation: the input route, OPTION 1 with
	// the transformed attributes, OPTION 2 with "ACTION: deny".
	for _, want := range []string{
		"Network: 100.0.0.0/16",
		"OPTION 1", "ACTION: permit", "Metric: 55",
		"OPTION 2", "ACTION: deny",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("question rendering missing %q:\n%s", want, s)
		}
	}
}

func TestACLQuestionString(t *testing.T) {
	q := ACLQuestion{NewPermit: true, OldPermit: false}
	s := q.String()
	if !strings.Contains(s, "OPTION 1 (new entry applies): permit") ||
		!strings.Contains(s, "OPTION 2 (existing behavior): deny") {
		t.Errorf("rendering = %q", s)
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyBinary: "binary", StrategyLinear: "linear",
		StrategyTopBottom: "top-bottom", Strategy(9): "strategy(9)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Strategy(%d) = %q, want %q", int(st), st.String(), want)
		}
	}
	kinds := map[ListKind]string{
		KindPrefixList: "prefix-list", KindCommunityList: "community-list",
		KindASPathList: "as-path list", ListKind(9): "list",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("ListKind(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestStrategyDispatch(t *testing.T) {
	orig := ios.MustParse(paperISPOut)
	snippet := ios.MustParse(paperSnippet)
	for _, strat := range []Strategy{StrategyBinary, StrategyLinear, StrategyTopBottom} {
		target := figure2ForStrategy(t, 0)
		user := NewSimUserRouteMap(target, "ISP_OUT")
		res, err := InsertRouteMapStanzaStrategyCached(strat, nil, orig, "ISP_OUT", snippet, "SET_METRIC", user)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Position != 0 {
			t.Errorf("%v: position = %d", strat, res.Position)
		}
	}
}

// figure2ForStrategy builds the Figure 2 target without colliding with the
// helper in disambig_test.go.
func figure2ForStrategy(t *testing.T, pos int) *ios.Config {
	t.Helper()
	cfg := ios.MustParse(paperISPOut + `ip community-list expanded D2 permit _300:3_
ip prefix-list D3 seq 10 permit 100.0.0.0/16 le 23
`)
	st := &ios.Stanza{
		Permit:  true,
		Matches: []ios.Match{ios.MatchCommunity{List: "D2"}, ios.MatchPrefixList{List: "D3"}},
		Sets:    []ios.SetClause{ios.SetMetric{Value: 55}},
	}
	cfg.RouteMaps["ISP_OUT"].InsertStanza(pos, st)
	return cfg
}
