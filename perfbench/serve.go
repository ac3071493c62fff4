package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"skydiver"
	"skydiver/internal/server"
)

// spanHeader carries a traced request's client span id to the handler
// wrapper, which records the handler span under it.
const spanHeader = "X-Perfbench-Span"

// serviceDataset is the registry name every workload serves its dataset as.
const serviceDataset = "bench"

// service is the in-process serving tier over loopback HTTP: the
// internal/server handler behind an httptest listener, and one keep-alive
// client.
type service struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	rec *recorder
	// cpuMillis are the cpu_seconds of traced query replies.
	cpuMillis []float64
}

// startService registers ds (the service owns it from here: close closes
// it) and starts serving. In a traced run the handler is wrapped to time
// traced requests.
func startService(rec *recorder, ds *skydiver.Dataset) (*service, error) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	if err := srv.Registry().Open(serviceDataset, ds); err != nil {
		return nil, err
	}
	h := srv.Handler()
	if rec.on {
		h = tracedHandler(rec, h)
	}
	ts := httptest.NewServer(h)
	return &service{srv: srv, ts: ts, hc: ts.Client(), rec: rec}, nil
}

// close stops the listener, drains the server and closes its dataset.
func (s *service) close() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// tracedHandler records a "server.query" or "server.write" span around each
// request that carries a client span id.
func tracedHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil || parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		name := "server.write"
		if r.Method == http.MethodGet {
			name = "server.query"
		}
		sp := rec.begin(name, parent)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// queryReply is the part of a /query response the benchmark checks.
type queryReply struct {
	Status            string   `json:"status"`
	Indexes           []int    `json:"indexes"`
	Objective         *float64 `json:"objective"`
	CPUSeconds        float64  `json:"cpu_seconds"`
	PageFaults        int64    `json:"page_faults"`
	FingerprintCached bool     `json:"fingerprint_cached"`
}

// call issues one request and decodes a 200 reply into out. A traced call
// records a client span ("client.query" for GET, else "client.write")
// covering the round trip, not the decode.
func (s *service) call(method, path string, traced bool, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, nil)
	if err != nil {
		return err
	}
	var sp openSpan
	if traced {
		name := "client.write"
		if method == http.MethodGet {
			name = "client.query"
		}
		sp = s.rec.begin(name, 0)
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// query issues GET /query and checks the reply is a full answer of k
// points. extra holds further query parameters ("&nocache=1").
func (s *service) query(algo string, k int, seed int64, extra string, traced bool) (queryReply, error) {
	path := fmt.Sprintf("/query?dataset=%s&algo=%s&k=%d&seed=%d%s", serviceDataset, algo, k, seed, extra)
	var r queryReply
	if err := s.call(http.MethodGet, path, traced, &r); err != nil {
		return r, err
	}
	if r.Status != "full" || len(r.Indexes) != k {
		return r, fmt.Errorf("GET %s: status %q with %d points, want full with %d", path, r.Status, len(r.Indexes), k)
	}
	if traced {
		s.cpuMillis = append(s.cpuMillis, r.CPUSeconds*1000)
	}
	return r, nil
}

// insertPath is the request path that inserts p.
func insertPath(p []float64) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprintf("/datasets/%s/points?p=%s", serviceDataset, strings.Join(parts, ","))
}

// insert issues an insert request and returns the new row id.
func (s *service) insert(path string, traced bool) (int, error) {
	var r struct {
		Row *int `json:"row"`
	}
	if err := s.call(http.MethodPost, path, traced, &r); err != nil {
		return 0, err
	}
	if r.Row == nil {
		return 0, fmt.Errorf("POST %s: reply carries no row id", path)
	}
	return *r.Row, nil
}

// remove issues a delete request for row.
func (s *service) remove(row int, traced bool) error {
	return s.call(http.MethodDelete, fmt.Sprintf("/datasets/%s/points/%d", serviceDataset, row), traced, nil)
}
