package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/lb"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/server"
)

// HTTP workload sizing: two replicas behind one balancer, two closed-loop
// operators (nproc is 2), each allowed as many connections as operators.
const (
	replicas       = 2
	replicaWorkers = 2
	operators      = 2
	updateTimeout  = time.Minute
	pollInterval   = 2 * time.Millisecond
)

// stages are the replica pipeline stages reported from GET /metrics.
var stages = []string{"classify", "synthesize-attempt", "verify", "disambiguate", "question-wait"}

// httpRun is http-dialogue: operators drive the stock server.Client against
// clarify-lb in front of two in-process clarifyd replicas, over loopback.
type httpRun struct {
	rec      *recorder
	src      stream
	size     int
	replicas []*server.Server
	backends []*httptest.Server
	lb       *lb.LB
	front    *httptest.Server
	client   *server.Client
	tr       *http.Transport
	timing   *timingTransport
	direct   *http.Client // replica /metrics and the LB-versus-direct probe

	mu       sync.Mutex
	checks   []*pending
	verdicts verdicts

	// Replica /metrics movement over the traced rounds.
	stageCounts map[string][]int64
	stageSums   map[string]float64
	cacheHits   int64
	cacheTotal  int64
	rejected    int64
}

func newHTTP(rec *recorder, src stream, size int) (*httpRun, error) {
	h := &httpRun{rec: rec, src: src, size: size, verdicts: verdicts{},
		stageCounts: map[string][]int64{}, stageSums: map[string]float64{}}
	var urls []string
	for i := 0; i < replicas; i++ {
		srv := server.New(server.Options{Workers: replicaWorkers})
		hs := httptest.NewServer(srv)
		h.replicas = append(h.replicas, srv)
		h.backends = append(h.backends, hs)
		urls = append(urls, hs.URL)
	}
	l, err := lb.New(lb.Options{Backends: urls})
	if err != nil {
		h.close()
		return nil, err
	}
	h.lb = l
	h.front = httptest.NewServer(l)
	if err := h.awaitAdmission(); err != nil {
		h.close()
		return nil, err
	}
	h.tr = &http.Transport{MaxConnsPerHost: operators, MaxIdleConnsPerHost: operators}
	h.timing = &timingTransport{next: h.tr, rec: rec}
	h.client = &server.Client{BaseURL: h.front.URL, HTTP: &http.Client{Transport: h.timing, Timeout: updateTimeout}, PollInterval: pollInterval}
	h.direct = &http.Client{Transport: &http.Transport{}, Timeout: updateTimeout}
	return h, nil
}

// awaitAdmission waits until the balancer's prober has seen every replica
// healthy.
func (h *httpRun) awaitAdmission() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, b := range h.lb.Backends() {
			if b.State == lb.StateAdmitted && b.Probes > 0 && b.ProbeFailures == 0 {
				ready++
			}
		}
		if ready == replicas {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("balancer did not admit %d replicas within 10s", replicas)
}

func (h *httpRun) close() {
	if h.front != nil {
		h.front.Close()
	}
	if h.lb != nil {
		h.lb.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, srv := range h.replicas {
		_ = srv.Shutdown(ctx) // nothing is in flight between rounds
		h.backends[i].Close()
	}
	if h.tr != nil {
		h.tr.CloseIdleConnections()
		h.direct.CloseIdleConnections()
	}
}

// warm sends every (map, intent) pair of src's warm-up set to each replica
// directly, one operator per replica, so both replicas' space caches hold
// every universe the stream can produce, then runs one round of src through
// the balancer.
func (h *httpRun) warm(src stream) error {
	if w, ok := src.(interface{ warmup() []*update }); ok {
		updates := w.warmup()
		var wg sync.WaitGroup
		for _, b := range h.backends {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				c := &server.Client{BaseURL: url, HTTP: h.direct, PollInterval: pollInterval}
				for _, u := range updates {
					h.one(c, u, modeWarmup)
				}
			}(b.URL)
		}
		wg.Wait()
	}
	return h.batch(src, modeWarmup)
}

func (h *httpRun) round(m mode) error { return h.batch(h.src, m) }

// batch runs the next round of updates from src through the balancer.
func (h *httpRun) batch(src stream, m mode) error {
	batch := take(src, h.size)
	var before []server.MetricsSnapshot
	if m == modeTraced {
		var err error
		if before, err = h.replicaMetrics(); err != nil {
			return err
		}
	}
	h.timing.on.Store(m == modeTraced)
	h.rec.begin(m)
	var wg sync.WaitGroup
	for op := 0; op < operators; op++ {
		wg.Add(1)
		go func(op int) {
			defer wg.Done()
			for i := op; i < len(batch); i += operators {
				h.one(h.client, batch[i], m)
			}
		}(op)
	}
	wg.Wait()
	h.rec.end(m)
	h.timing.on.Store(false)
	if m == modeTraced {
		after, err := h.replicaMetrics()
		if err != nil {
			return err
		}
		h.foldMetrics(before, after)
	}
	return nil
}

// one is one operator session: create it on the base configuration, run the
// update answering every question from the hidden target, fetch the final
// configuration, and delete the session.
func (h *httpRun) one(c *server.Client, u *update, m mode) {
	ctx, cancel := context.WithTimeout(context.Background(), updateTimeout)
	defer cancel()
	id := h.rec.nextID()
	ctx = withUpdateID(ctx, id)
	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: u.baseText})
	if err != nil {
		h.rec.fail(fmt.Errorf("create session: %w", err))
		return
	}
	defer c.DeleteSession(ctx, sid)
	o := &timedOracle{}
	answer := func(q server.Question) (int, error) {
		option := 0
		_, err := o.ask(func() (bool, error) {
			var err error
			option, err = answerFromTarget(u, q)
			return option == 1, err
		})
		return option, err
	}
	o.start = time.Now()
	info, err := c.RunUpdate(ctx, sid, u.intent, u.name, answer)
	end := time.Now()
	if err == nil && info.Status != server.StatusDone {
		err = fmt.Errorf("update %s: %s", info.Status, info.Error)
	}
	if err != nil {
		h.rec.fail(err)
		return
	}
	s := o.sample(end)
	h.rec.done(m, s)
	if m == modeTraced {
		h.rec.add("server.useful_polls", float64(s.questions+1))
		h.rec.spans.add(id, "update", o.start, end.Sub(o.start))
		if err := h.probeProxy(ctx, sid); err != nil {
			h.rec.broken(err)
		}
	}
	text, err := c.Config(ctx, sid)
	if err != nil {
		h.rec.broken(fmt.Errorf("fetch config: %w", err))
		return
	}
	h.mu.Lock()
	h.checks = append(h.checks, &pending{u: u, text: text})
	h.mu.Unlock()
}

func (h *httpRun) check() {
	for _, p := range h.checks {
		final, err := ios.Parse(p.text)
		if err != nil {
			h.rec.checked(false, fmt.Errorf("parse final configuration: %w", err))
			continue
		}
		h.rec.checked(verify(h.verdicts, p.u, final))
	}
	h.checks = h.checks[:0]
}

// answerFromTarget is the HTTP operator: it evaluates the question's witness
// route or packet against the hidden target with the policy evaluator and
// picks the option that renders the same behaviour.
func answerFromTarget(u *update, q server.Question) (int, error) {
	want := "deny"
	if q.Route != nil {
		v, err := policy.NewEvaluator(u.target).EvalRouteMap(u.target.RouteMaps[u.name], *q.Route)
		if err != nil {
			return 0, err
		}
		if v.Permit {
			want = "permit; output " + v.Output.String()
		}
	} else {
		pk, err := parsePacket(q.Packet)
		if err != nil {
			return 0, err
		}
		if policy.EvalACL(u.target.ACLs[u.name], pk).Permit {
			want = "permit"
		}
	}
	switch want {
	case q.Option1:
		return 1, nil
	case q.Option2:
		return 2, nil
	}
	return 0, fmt.Errorf("question %d: the target's behaviour %q matches neither option", q.Seq, want)
}

// parsePacket inverts packet.Packet.String for TCP and UDP witnesses, the
// only kinds the workload's ACL intents can produce.
func parsePacket(s string) (packet.Packet, error) {
	f := strings.Fields(s)
	if len(f) < 4 || f[2] != "->" {
		return packet.Packet{}, fmt.Errorf("unparseable witness packet %q", s)
	}
	var pk packet.Packet
	switch f[0] {
	case "tcp":
		pk.Protocol = packet.ProtoTCP
	case "udp":
		pk.Protocol = packet.ProtoUDP
	default:
		return pk, fmt.Errorf("unexpected witness protocol in %q", s)
	}
	src, err := netip.ParseAddrPort(f[1])
	if err != nil {
		return pk, err
	}
	dst, err := netip.ParseAddrPort(f[3])
	if err != nil {
		return pk, err
	}
	pk.Src, pk.SrcPort, pk.Dst, pk.DstPort = src.Addr(), src.Port(), dst.Addr(), dst.Port()
	pk.Established = len(f) > 4 && f[4] == "established"
	return pk, nil
}

// probeProxy times one question poll through the balancer and the same poll
// sent straight to the replica the balancer named.
func (h *httpRun) probeProxy(ctx context.Context, sid string) error {
	path := "/v1/sessions/" + sid + "/question"
	viaLB, resp, err := h.get(ctx, h.front.URL+path)
	if err != nil {
		return err
	}
	backend := resp.Header.Get("X-Clarify-Backend")
	direct, _, err := h.get(ctx, "http://"+backend+path)
	if err != nil {
		return err
	}
	h.rec.list("lb.proxy_ms", ms(viaLB-direct))
	return nil
}

func (h *httpRun) get(ctx context.Context, url string) (time.Duration, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	resp, err := h.direct.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return d, resp, err
}

func (h *httpRun) replicaMetrics() ([]server.MetricsSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []server.MetricsSnapshot
	for _, b := range h.backends {
		snap, err := (&server.Client{BaseURL: b.URL, HTTP: h.direct}).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("replica metrics: %w", err)
		}
		out = append(out, snap)
	}
	return out, nil
}

// foldMetrics accumulates the replicas' counter movement over one round.
func (h *httpRun) foldMetrics(before, after []server.MetricsSnapshot) {
	for i := range after {
		a, b := after[i], before[i]
		for _, st := range stages {
			ha, hb := a.StagesMs[st], b.StagesMs[st]
			counts := h.stageCounts[st]
			if counts == nil {
				counts = make([]int64, len(ha.Counts))
				h.stageCounts[st] = counts
			}
			for j := range ha.Counts {
				prev := int64(0)
				if j < len(hb.Counts) {
					prev = hb.Counts[j]
				}
				counts[j] += ha.Counts[j] - prev
			}
			h.stageSums[st] += ha.SumMs - hb.SumMs
		}
		h.cacheHits += a.SpaceCache.Hits - b.SpaceCache.Hits
		h.cacheTotal += a.SpaceCache.Hits + a.SpaceCache.Misses - b.SpaceCache.Hits - b.SpaceCache.Misses
		h.rejected += a.Rejected - b.Rejected
	}
}

// finish turns the replicas' traced-round movement into layer metrics: each
// stage's p50 estimated from its merged histogram.
func (h *httpRun) finish() {
	buckets := server.DefaultLatencyBucketsMs()
	for _, st := range stages {
		counts := h.stageCounts[st]
		var n int64
		for _, c := range counts {
			n += c
		}
		if n > 0 {
			h.rec.add("server.stage_ms."+st, server.MakeHistogramSnapshot(buckets, counts, n, h.stageSums[st]).EstP50Ms)
		}
	}
	if h.cacheTotal > 0 {
		h.rec.add("server.space_cache_hit_ratio", float64(h.cacheHits)/float64(h.cacheTotal))
	}
	h.rec.add("server.rejected", float64(h.rejected))
}

// timingTransport times the client's requests by route while on (traced
// rounds), from send until the body is closed, and counts status polls.
type timingTransport struct {
	next http.RoundTripper
	rec  *recorder
	on   atomic.Bool
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	if !t.on.Load() || route == "" {
		return t.next.RoundTrip(req)
	}
	if strings.HasPrefix(route, "poll_") {
		t.rec.add("server.polls_per_update", 1)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		t.rec.list("server.request_ms."+route, ms(d))
		t.rec.spans.add(updateID(req.Context()), "server.request_ms."+route, start, d)
	}}
	return resp, nil
}

// routeOf names the API route of a client request; "" for routes the
// benchmark does not report.
func routeOf(req *http.Request) string {
	rest, ok := strings.CutPrefix(req.URL.Path, "/v1/sessions")
	if !ok {
		return ""
	}
	parts := strings.Split(strings.Trim(rest, "/"), "/")
	switch {
	case req.Method == http.MethodPost && rest == "":
		return "create"
	case len(parts) == 2 && parts[1] == "updates" && req.Method == http.MethodPost:
		return "submit"
	case len(parts) == 3 && parts[1] == "updates" && req.Method == http.MethodGet:
		return "poll_update"
	case len(parts) == 2 && parts[1] == "question" && req.Method == http.MethodGet:
		return "poll_question"
	case len(parts) == 2 && parts[1] == "answer" && req.Method == http.MethodPost:
		return "answer"
	}
	return ""
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

type updateIDKey struct{}

func withUpdateID(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, updateIDKey{}, id)
}

func updateID(ctx context.Context) int {
	id, _ := ctx.Value(updateIDKey{}).(int)
	return id
}
