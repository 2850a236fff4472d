package disambig

import (
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/symbolic"
)

// InsertRouteMapStanzaStrategyTraced is InsertRouteMapStanzaStrategyCached
// recording the disambiguation workload under sp (which may be nil): BDD
// counters for the overlap analysis, one "question-wait" child span per
// oracle round trip, and an "insert" child span for the final placement.
func InsertRouteMapStanzaStrategyTraced(strategy Strategy, cache *symbolic.SpaceCache, orig *ios.Config, mapName string, snippet *ios.Config, snippetMap string, oracle RouteOracle, sp *obs.Span) (*RouteResult, error) {
	if strategy == StrategyTopBottom {
		return insertTopBottom(cache, sp, orig, mapName, snippet, snippetMap, oracle)
	}
	return insertWithSearch(cache, sp, orig, mapName, snippet, snippetMap, oracle, strategy)
}

// InsertACLEntryTraced is InsertACLEntry recording the disambiguation
// workload under sp (which may be nil).
func InsertACLEntryTraced(orig *ios.Config, aclName string, snippet *ios.Config, snippetACL string, oracle ACLOracle, sp *obs.Span) (*ACLResult, error) {
	return insertACLEntry(orig, aclName, snippet, snippetACL, oracle, sp)
}

// chooseRoute asks oracle q, timing the round trip as a "question-wait"
// child of sp — for the daemon's async oracle this is the operator's think
// time. With sp nil no span is created.
func chooseRoute(oracle RouteOracle, sp *obs.Span, q RouteQuestion) (bool, error) {
	qsp := sp.Child("question-wait")
	qsp.SetInt("probed-stanza", int64(q.ProbedStanza))
	preferNew, err := oracle.ChooseRoute(q)
	qsp.SetBool("prefer-new", preferNew)
	qsp.End()
	return preferNew, err
}

// chooseACL is chooseRoute for ACL questions.
func chooseACL(oracle ACLOracle, sp *obs.Span, q ACLQuestion) (bool, error) {
	qsp := sp.Child("question-wait")
	qsp.SetInt("probed-entry", int64(q.ProbedEntry))
	preferNew, err := oracle.ChooseACL(q)
	qsp.SetBool("prefer-new", preferNew)
	qsp.End()
	return preferNew, err
}
