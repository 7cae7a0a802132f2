package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/qc"
	"repro/internal/server"
	"repro/tqec"
)

// Service-mixed shape: two closed-loop clients against a two-worker
// server; every svcMissEvery-th request of a client is an async cache
// miss, the rest are sync hits.
const (
	svcClients   = 2
	svcWorkers   = 2
	svcHitKeys   = 6
	svcMissEvery = 10
	// svcIterations is the SA budget of every service compile.
	svcIterations = 2000
	// svcRefPasses is how many times the hit set is compiled directly
	// for compile_s.
	svcRefPasses = 3
	// svcRefMisses is how many misses (the first ones of the seeded miss
	// stream) are compiled directly and compared with their payloads.
	svcRefMisses = 12
	// svcPoll is the async job poll interval.
	svcPoll = 2 * time.Millisecond
	// svcTimeoutMS is the per-compile deadline sent with every request.
	svcTimeoutMS = 60000
)

// svcHitCircuits are the circuits of the warmed hit set, each compiled
// with svcHitKeys/len(svcHitCircuits) placement seeds.
var svcHitCircuits = []string{"4gt10-v1_81", "4gt4-v0_73"}

// svcMissCircuit is the circuit every miss compiles under a fresh
// placement seed, so each miss has a new content address.
const svcMissCircuit = "4gt10-v1_81"

// svcReq is one prepared request: the circuit as the server will parse
// it, its direct-compile options, its content address and its body.
type svcReq struct {
	item
	body []byte
}

// svcCircuit builds a request for the named paper circuit, sent inline as
// RevLib .real text, under the given placement seed. The circuit is
// re-parsed from that text, so the direct compile sees exactly what the
// server sees.
func svcCircuit(name string, placeSeed int64) (svcReq, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return svcReq{}, err
	}
	c, err := spec.Generate()
	if err != nil {
		return svcReq{}, err
	}
	var src strings.Builder
	if err := qc.WriteReal(&src, c); err != nil {
		return svcReq{}, err
	}
	parsed, err := qc.ParseReal(name, strings.NewReader(src.String()))
	if err != nil {
		return svcReq{}, err
	}
	body, err := json.Marshal(server.CompileRequest{
		Real: src.String(),
		Name: name,
		Options: server.CompileOptions{
			Seed: placeSeed, Iterations: svcIterations, TimeoutMS: svcTimeoutMS,
		},
	})
	if err != nil {
		return svcReq{}, err
	}
	opts := tqec.DefaultOptions()
	opts.Place.Seed = placeSeed
	opts.Place.Iterations = svcIterations
	it, err := newItem(parsed, opts)
	if err != nil {
		return svcReq{}, err
	}
	return svcReq{item: it, body: body}, nil
}

// missSeed is the placement seed of the n-th miss of a run: fresh for
// every miss, derived from the workload seed.
func missSeed(seed int64, n int64) int64 { return mix(seed, uint64(n)) % 1000000 }

// timedJournal wraps the server's journal, timing every Append in a span.
type timedJournal struct {
	server.Journal
	tr    *tracer
	mu    sync.Mutex
	times []float64
}

// Append times the wrapped Append.
func (j *timedJournal) Append(ev journal.Event) error {
	var err error
	s := j.tr.do(0, 0, "journal.Append", false, func() { err = j.Journal.Append(ev) })
	j.mu.Lock()
	j.times = append(j.times, ms(s.dur()))
	j.mu.Unlock()
	return err
}

// service is a running in-process compile service.
type service struct {
	srv     *server.Server
	http    *http.Server
	jrnl    *journal.Journal
	timed   *timedJournal
	dir     string
	base    string
	client  *http.Client
	cancel  context.CancelFunc
	served  chan error
	hits    []svcReq
	warmed  [][]byte
	stopped bool
}

// startService starts a server with a fresh journal, listens on
// 127.0.0.1 and warms the result cache with the hit set.
func startService(ctx context.Context, r *run, hits []svcReq) (*service, error) {
	if err := os.MkdirAll(r.cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.cfg.workDir, "journal-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, hits: hits}
	if s.jrnl, err = journal.Open(dir, journal.Options{}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var jr server.Journal = s.jrnl
	if r.tr != nil {
		s.timed = &timedJournal{Journal: s.jrnl, tr: r.tr}
		jr = s.timed
	}
	if s.srv, err = server.New(server.Config{Workers: svcWorkers, Journal: jr}); err != nil {
		s.jrnl.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.jrnl.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.srv.Start(sctx)
	s.http = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients,
	}}
	if err := s.warm(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// warm compiles the hit set through the sync endpoint, svcClients at a
// time, and keeps each payload as the reference every later hit must
// match.
func (s *service) warm(ctx context.Context) error {
	s.warmed = make([][]byte, len(s.hits))
	errs := make([]error, len(s.hits))
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.hits) {
					return
				}
				s.warmed[i], _, errs[i] = s.post(ctx, "/v1/compile", s.hits[i].body, http.StatusOK)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post sends a JSON body and returns the reply body and its cache header.
// Any status other than want is an error.
func (s *service) post(ctx context.Context, path string, body []byte, want ...int) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req, want...)
}

// get fetches path.
func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	b, _, err := s.do(req, http.StatusOK)
	return b, err
}

// do sends req and checks the reply status.
func (s *service) do(req *http.Request, want ...int) ([]byte, string, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return b, resp.Header.Get("X-Tqecd-Cache"), nil
		}
	}
	return nil, "", fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
}

// stop drains the server, closes the listener and the journal and removes
// the journal directory. It waits for the serving goroutine to end.
func (s *service) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	s.cancel()
	if err := s.http.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-s.served
	s.client.CloseIdleConnections()
	if err := s.jrnl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: journal close:", err)
	}
	os.RemoveAll(s.dir)
}

// traffic is what the clients observed.
type traffic struct {
	hitMS, missMS []float64
	elapsed       time.Duration
	keyMS         []float64
	// missPayloads holds the payloads of the first svcRefMisses misses,
	// indexed by miss number.
	missPayloads [][]byte
	missReqs     []svcReq
}

// drive runs the closed-loop clients for the given duration.
func (s *service) drive(ctx context.Context, r *run, dur time.Duration) *traffic {
	t := &traffic{missPayloads: make([][]byte, svcRefMisses), missReqs: make([]svcReq, svcRefMisses)}
	var mu sync.Mutex
	var nextMiss atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < svcClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix(r.cfg.seed, uint64(1<<32+k))))
			var hits, misses, keys []float64
			for j := 1; time.Now().Before(deadline); j++ {
				if j%svcMissEvery == 0 {
					n := nextMiss.Add(1) - 1
					req, err := svcCircuit(svcMissCircuit, missSeed(r.cfg.seed, n))
					if err != nil {
						r.fail("miss circuit %d: %v", n, err)
						continue
					}
					if r.tr != nil {
						keys = append(keys, timeCacheKey(r, req.item))
					}
					t0 := time.Now()
					payload, err := s.miss(ctx, req)
					lat := time.Since(t0)
					r.attempt(1)
					if err != nil {
						r.fail("miss %d (%s, seed %d): %v", n, req.c.Name, req.opts.Place.Seed, err)
						continue
					}
					misses = append(misses, ms(lat))
					if n < svcRefMisses {
						mu.Lock()
						t.missPayloads[n], t.missReqs[n] = payload, req
						mu.Unlock()
					}
					continue
				}
				i := rng.Intn(len(s.hits))
				if r.tr != nil {
					keys = append(keys, timeCacheKey(r, s.hits[i].item))
				}
				t0 := time.Now()
				body, cache, err := s.post(ctx, "/v1/compile", s.hits[i].body, http.StatusOK)
				lat := time.Since(t0)
				r.attempt(1)
				switch {
				case err != nil:
					r.fail("hit %s: %v", s.hits[i].c.Name, err)
				case cache != "hit":
					r.fail("hit %s: served as %q, want a cache hit", s.hits[i].c.Name, cache)
				case !bytes.Equal(body, s.warmed[i]):
					r.fail("hit %s: payload differs from the warm-up payload", s.hits[i].c.Name)
				default:
					hits = append(hits, ms(lat))
				}
			}
			mu.Lock()
			t.hitMS = append(t.hitMS, hits...)
			t.missMS = append(t.missMS, misses...)
			t.keyMS = append(t.keyMS, keys...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// miss submits an async job and polls it to a terminal state, returning
// the result payload. A failed or evicted job is an error.
func (s *service) miss(ctx context.Context, req svcReq) ([]byte, error) {
	body, _, err := s.post(ctx, "/v1/jobs", req.body, http.StatusAccepted, http.StatusOK)
	if err != nil {
		return nil, err
	}
	for {
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			return nil, fmt.Errorf("job view: %w", err)
		}
		if view.Key != req.key {
			return nil, fmt.Errorf("job key %s, want %s", view.Key, req.key)
		}
		switch view.Status {
		case server.JobDone:
			return view.Result, nil
		case server.JobFailed:
			return nil, fmt.Errorf("job %s failed: %+v", view.ID, view.Error)
		}
		time.Sleep(svcPoll)
		if body, err = s.get(ctx, "/v1/jobs/"+view.ID); err != nil {
			return nil, fmt.Errorf("poll (evicted?): %w", err)
		}
	}
}

// snapshot reads /v1/metrics.
func (s *service) snapshot(ctx context.Context) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	b, err := s.get(ctx, "/v1/metrics")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}

// runServiceMixed drives service-mixed: set-up builds the hit set, starts
// the server and journal and warms the cache (serviceSetupReps times; all
// but the last instance are stopped again). Two clients then run closed loops
// for --seconds. Afterwards the hit set and the first misses are compiled
// directly; their payloads must be byte-identical to the served ones.
func runServiceMixed(ctx context.Context, r *run) error {
	var last *service
	svc, err := setUp(r, serviceSetupReps, func() (*service, error) {
		if last != nil {
			last.stop()
		}
		n := svcHitKeys
		if r.cfg.tiny {
			n = len(svcHitCircuits)
		}
		hits := make([]svcReq, n)
		for i := range hits {
			var err error
			name := svcHitCircuits[i%len(svcHitCircuits)]
			if hits[i], err = svcCircuit(name, int64(i/len(svcHitCircuits))); err != nil {
				return nil, err
			}
		}
		s, err := startService(ctx, r, hits)
		last = s
		return s, err
	})
	if err != nil {
		return err
	}
	defer svc.stop()
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	rss := startRSS()
	t := svc.drive(ctx, r, dur)
	peak := rss.finish()
	snap, err := svc.snapshot(ctx)
	r.attempt(1)
	if err != nil {
		r.fail("metrics: %v", err)
	}
	svc.stop()
	fmt.Printf("perfbench: %d hits, %d misses in %.2fs\n", len(t.hitMS), len(t.missMS), t.elapsed.Seconds())

	// Reference compiles: the hit set and the first misses.
	var refs []item
	var payloads [][]byte
	for i, h := range svc.hits {
		refs, payloads = append(refs, h.item), append(payloads, svc.warmed[i])
	}
	for i, p := range t.missPayloads {
		if p != nil {
			refs, payloads = append(refs, t.missReqs[i].item), append(payloads, p)
		}
	}
	if r.cfg.trace {
		r.set("cachekey.time_ms", "ms", median(t.keyMS))
		setServiceLayers(r, t, snap, svc.timed)
		return serviceTraced(ctx, r, refs, payloads)
	}
	// The timed compiles are of the fixed hit set; the misses' reference
	// compiles are only checked.
	nHits := len(svc.hits)
	m := measurePasses(ctx, r, refs[:nHits], time.Minute, 0, svcRefPasses)
	m.report(r, false)
	r.set("peak_rss_mb", "MB", peak)
	for i := range refs[:nHits] {
		comparePayload(r, refs[i], m.pins[i], payloads[i])
	}
	for i := nHits; i < len(refs); i++ {
		var pin *pinned
		if res := compileOnce(ctx, r, refs[i], time.Minute); res != nil {
			checkResult(r, refs[i], res, &pin)
		}
		comparePayload(r, refs[i], pin, payloads[i])
	}
	setLatencies(r, map[string][]float64{svcMissCircuit: t.missMS}, len(t.hitMS)+len(t.missMS), t.elapsed)
	fmt.Printf("perfbench: hit p50 %.3f ms, p99 %.3f ms\n", quantile(t.hitMS, 0.5), quantile(t.hitMS, 0.99))
	return nil
}

// comparePayload checks a served payload against the direct compile's. A
// nil p means the direct compile already failed and was counted.
func comparePayload(r *run, it item, p *pinned, served []byte) {
	if p == nil {
		return
	}
	r.attempt(1)
	if !bytes.Equal(p.payload, served) {
		r.fail("%s: served payload differs from server.EncodeResult of a direct compile", it.c.Name)
	}
}

// serviceTraced compiles the reference set untraced and traced, checks
// both against the served payloads and reports the pipeline layers.
func serviceTraced(ctx context.Context, r *run, items []item, payloads [][]byte) error {
	var pass []*tracedResult
	var tu, tt time.Duration
	var encMS []float64
	ref := make([]*pinned, len(items))
	for i, it := range items {
		var plain *tqec.Result
		tu += timed(func() { plain = compileOnce(ctx, r, it, time.Minute) })
		var tres *tracedResult
		tt += timed(func() { tres = compileTracedOnce(ctx, r, it, time.Minute) })
		if plain == nil || tres == nil {
			continue
		}
		pass = append(pass, tres)
		checkResult(r, it, tres.res, &ref[i])
		comparePayload(r, it, ref[i], payloads[i])
		var a []byte
		encMS = append(encMS, timeEncode(r, it, plain, &a))
		r.attempt(1)
		if ref[i] != nil && a != nil && !bytes.Equal(a, ref[i].payload) {
			r.fail("%s: traced payload differs from tqec.CompileContext's", it.c.Name)
		}
	}
	setCompileLayers(r, [][]*tracedResult{pass})
	r.set("encode.time_ms", "ms", median(encMS))
	setOverhead(r, []float64{tu.Seconds()}, []float64{tt.Seconds()})
	return nil
}

// setServiceLayers reports the per-layer metrics of ccache, server,
// journal and resilience from a traced run's traffic, /v1/metrics
// snapshot and journal timings.
func setServiceLayers(r *run, t *traffic, snap server.MetricsSnapshot, j *timedJournal) {
	c := snap.Cache
	r.set("ccache.hit_frac", "ratio", ratio(float64(c.Hits), float64(c.Lookups)))
	r.set("ccache.shared", "count", float64(c.Shared))
	r.set("ccache.evictions", "count", float64(c.Evictions))
	r.set("server.queue_wait_p50_ms", "ms", histQuantileMS(snap.LatencyNS["queue_wait"], 0.5))
	r.set("server.compile_p50_ms", "ms", histQuantileMS(snap.LatencyNS["compile"], 0.5))
	j.mu.Lock()
	r.set("journal.appends", "count", float64(len(j.times)))
	r.set("journal.append_p50_ms", "ms", quantile(j.times, 0.5))
	r.set("journal.append_p99_ms", "ms", quantile(j.times, 0.99))
	j.mu.Unlock()
	r.set("resilience.admission_rejected", "count", float64(snap.Resilience.AdmissionRejected))
	r.set("server.hit_p50_ms", "ms", quantile(t.hitMS, 0.5))
	r.set("server.hit_p99_ms", "ms", quantile(t.hitMS, 0.99))
}

// histQuantileMS estimates a quantile of a /v1/metrics latency histogram
// in milliseconds, interpolating linearly inside the bucket that holds it.
func histQuantileMS(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	lo := float64(0)
	for _, b := range h.Buckets {
		hi := float64(b.LeNS)
		if b.LeNS < 0 {
			hi = float64(h.MaxNS)
		}
		if seen+float64(b.Count) >= target {
			frac := (target - seen) / float64(b.Count)
			return (lo + (hi-lo)*frac) / 1e6
		}
		seen += float64(b.Count)
		lo = hi
	}
	return float64(h.MaxNS) / 1e6
}
