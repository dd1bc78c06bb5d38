package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/service"
)

// memberNames are the fleet's fixed member addresses. Fixed names give
// every workload the same ring home on every run; ephemeral ports would
// not.
var memberNames = []string{"http://node0", "http://node1"}

// benchFleet is a two-node fleet living in this process: clients call an
// entry node's handler directly, and hops between nodes travel through
// memTransport, so no socket is measured.
type benchFleet struct {
	nodes []*fleetNode
}

type fleetNode struct {
	svc   *service.Server
	entry *fleet.Handler
}

// newFleet builds the fleet with nproc simulation workers per node and
// production defaults, except that cacheCells, when positive, bounds both
// each node's engine memo and its peer-response cache. With traced set,
// every service handler is timed into the request's span.
func newFleet(workers, cacheCells int, traced bool) (*benchFleet, error) {
	tr := &memTransport{members: make(map[string]http.Handler)}
	client := &http.Client{Transport: tr}
	f := &benchFleet{}
	for _, name := range memberNames {
		svc := service.New(service.Options{Workers: workers, CacheCells: cacheCells})
		inner := svc.Handler()
		if traced {
			inner = timeService(inner)
		}
		fh, err := fleet.Wrap(inner, fleet.Options{Self: name, Peers: memberNames, Client: client, CacheEntries: cacheCells})
		if err != nil {
			return nil, err
		}
		tr.members[strings.TrimPrefix(name, "http://")] = fh
		f.nodes = append(f.nodes, &fleetNode{svc: svc, entry: fh})
	}
	return f, nil
}

// newStandalone is one service node outside any fleet: the reference a
// fleet's answers must equal byte for byte.
func newStandalone(workers int) http.Handler {
	return service.New(service.Options{Workers: workers}).Handler()
}

// call is one prepared request.
type call struct {
	method, target string
	body           []byte
}

// serve sends c to h in process and returns the status, the body and the
// latency. A non-nil span collects the request's per-layer times.
func serve(h http.Handler, c call, sp *span) (int, []byte, time.Duration) {
	req := httptest.NewRequest(c.method, c.target, bytes.NewReader(c.body))
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != nil {
		req = req.WithContext(context.WithValue(req.Context(), spanKey{}, sp))
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// memTransport is the fleet's in-memory network: a hop is served on the
// named member's handler and the recorded response handed back.
type memTransport struct {
	members map[string]http.Handler
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.members[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no fleet member %q", req.URL.Host)
	}
	t0 := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if sp, _ := req.Context().Value(spanKey{}).(*span); sp != nil {
		sp.hop += time.Since(t0)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// span collects one request's per-layer times in a traced run. A request
// runs on one goroutine end to end (hops included), so it needs no lock.
type span struct {
	// local is service time on the entry node, remote on the home node of
	// a forwarded request, hop the whole in-memory round trip (remote
	// included).
	local, remote, hop time.Duration
}

type spanKey struct{}

// timeService wraps the handler fleet.Wrap receives, adding the service's
// time to the request's span.
func timeService(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		sp, _ := r.Context().Value(spanKey{}).(*span)
		if sp == nil {
			return
		}
		if r.Header.Get(service.HopHeader) != "" {
			sp.remote += time.Since(t0)
		} else {
			sp.local += time.Since(t0)
		}
	})
}

// fleetCounters sums the fleet counters of every node's /metrics page.
func (f *benchFleet) fleetCounters() (map[string]float64, error) {
	sum := map[string]float64{}
	for i, n := range f.nodes {
		code, body, _ := serve(n.entry, call{method: http.MethodGet, target: "/metrics"}, nil)
		if code != http.StatusOK {
			return nil, fmt.Errorf("node %d /metrics: status %d", i, code)
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || !strings.HasPrefix(name, "speedupd_fleet_") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("node %d /metrics: %q: %v", i, sc.Text(), err)
			}
			sum[name] += v
		}
	}
	return sum, nil
}

// engineStats sums the engine counters of every node.
func (f *benchFleet) engineStats() exp.Stats {
	var st exp.Stats
	for _, n := range f.nodes {
		s := n.svc.Engine().Stats()
		st.CellRuns += s.CellRuns
		st.SeqRuns += s.SeqRuns
		st.CellHits += s.CellHits
		st.SeqHits += s.SeqHits
		st.SimulatedOps += s.SimulatedOps
	}
	return st
}

// statsDelta is b - a for the counters engineStats sums.
func statsDelta(a, b exp.Stats) exp.Stats {
	return exp.Stats{
		CellRuns:     b.CellRuns - a.CellRuns,
		SeqRuns:      b.SeqRuns - a.SeqRuns,
		CellHits:     b.CellHits - a.CellHits,
		SeqHits:      b.SeqHits - a.SeqHits,
		SimulatedOps: b.SimulatedOps - a.SimulatedOps,
	}
}
