package disambig

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/clarifynet/clarify/ios"
)

// asPathEdge is a route map whose stanzas match origin, transit and neighbor
// as-path conditions.
const asPathEdge = `ip as-path access-list ORIGIN permit _64512$
ip as-path access-list TRANSIT permit _174_
ip as-path access-list NEIGHBOR permit ^3356_
ip prefix-list CUST seq 10 permit 10.0.0.0/8 le 24
route-map EDGE deny 10
 match as-path TRANSIT
route-map EDGE permit 20
 match as-path ORIGIN
 set local-preference 200
route-map EDGE permit 30
 match as-path NEIGHBOR
 set metric 10
route-map EDGE permit 40
 match ip address prefix-list CUST
`

// asPathSnippets are new stanzas with a transit, an origin and a neighbor
// condition of their own.
var asPathSnippets = []string{
	`ip as-path access-list NEW permit _2914_
route-map SNIP permit 10
 match as-path NEW
 set metric 77
`,
	`ip as-path access-list NEW permit _64513$
ip prefix-list NET seq 10 permit 10.1.0.0/16 le 24
route-map SNIP deny 10
 match as-path NEW
 match ip address prefix-list NET
`,
	`ip as-path access-list NEW permit ^1299_
route-map SNIP permit 10
 match as-path NEW
 set local-preference 50
`,
}

// TestASPathWitnessesPinned pins the insertion positions and the witness
// route of every question asked while inserting each snippet into
// asPathEdge for every target position. A witness is the first model AnySat
// finds, so it depends on how the space numbers its as-path atoms: these are
// the routes the space gave when each atom had a variable of its own. The
// probes are found before the first question, so a snippet's question about
// one stanza shows the same route whatever the target.
func TestASPathWitnessesPinned(t *testing.T) {
	wantPositions := [][]int{{0, 1, 2, 3, 4}, {0, 0, 0, 3, 4}, {0, 1, 2, 2, 4}}
	wantWitnesses := map[string]string{
		"snippet 0 stanza 0": "Network: 0.0.0.0/0; AS Path: [{\"asns\":[174,2914],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 0 stanza 1": "Network: 0.0.0.0/0; AS Path: [{\"asns\":[2914,64512],\"confederation\":false}]; Communities: []; Local Preference: 0; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 0 stanza 2": "Network: 0.0.0.0/0; AS Path: [{\"asns\":[3356,2914],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 0 stanza 3": "Network: 10.0.0.0/8; AS Path: [{\"asns\":[2914],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 1 stanza 2": "Network: 10.1.0.0/16; AS Path: [{\"asns\":[3356,64513],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 1 stanza 3": "Network: 10.1.0.0/16; AS Path: [{\"asns\":[64513],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 2 stanza 0": "Network: 0.0.0.0/0; AS Path: [{\"asns\":[1299,174],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 2 stanza 1": "Network: 0.0.0.0/0; AS Path: [{\"asns\":[1299,64512],\"confederation\":false}]; Communities: []; Local Preference: 100; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
		"snippet 2 stanza 3": "Network: 10.0.0.0/8; AS Path: [{\"asns\":[1299],\"confederation\":false}]; Communities: []; Local Preference: 0; Metric: 0; Next Hop IP: 0.0.0.1; Tag: 0; Weight: 0",
	}
	gotPositions := make([][]int, len(asPathSnippets))
	gotWitnesses := map[string]string{}
	for si, src := range asPathSnippets {
		orig := ios.MustParse(asPathEdge)
		snippet := ios.MustParse(src)
		for pos := 0; pos <= len(orig.RouteMaps["EDGE"].Stanzas); pos++ {
			target := figureWithName(t, orig, "EDGE", snippet, "SNIP", pos)
			res, err := InsertRouteMapStanza(orig, "EDGE", snippet, "SNIP", NewSimUserRouteMap(target, "EDGE"))
			if err != nil {
				t.Fatalf("snippet %d target %d: %v", si, pos, err)
			}
			gotPositions[si] = append(gotPositions[si], res.Position)
			for _, q := range res.Questions {
				key := fmt.Sprintf("snippet %d stanza %d", si, q.ProbedStanza)
				w := strings.ReplaceAll(q.Input.String(), "\n", "; ")
				if prev, ok := gotWitnesses[key]; ok && prev != w {
					t.Fatalf("%s: witness %s, earlier %s", key, w, prev)
				}
				gotWitnesses[key] = w
			}
		}
	}
	if !reflect.DeepEqual(gotPositions, wantPositions) {
		t.Errorf("positions = %v, want %v", gotPositions, wantPositions)
	}
	for key, w := range gotWitnesses {
		if w != wantWitnesses[key] {
			t.Errorf("%s: witness\n%s\nwant\n%s", key, w, wantWitnesses[key])
		}
	}
	for key := range wantWitnesses {
		if _, ok := gotWitnesses[key]; !ok {
			t.Errorf("%s: no question asked", key)
		}
	}
}
