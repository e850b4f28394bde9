package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"giantsan/internal/interp"
	"giantsan/internal/rt"
	"giantsan/internal/service"
	"giantsan/internal/trace"
	"giantsan/internal/workload"
)

// The service workload's traffic (see mix): per block of sessionBlock
// requests, every kernel × sanitizer pair once and short trace-replay
// sessions alternating between giantsan and asan.
var (
	serviceKernels  = []string{"541.leela_r", "505.mcf_r", "523.xalancbmk_r"}
	serviceKernSans = []string{"native", "giantsan", "asan"}
	serviceReplSans = []string{"giantsan", "asan"}
	serviceGen      = genConfig{Events: 2000, Bugs: 2, LiveHeap: 1 << 20}
)

const (
	sessionBlock  = 60
	serviceTraces = 32
	tenantHeader  = "X-Perfbench-Tenant"
	// latencyLimitMs bounds a rate step's p90 latency: about twice the
	// p90 at low load, which the kernel sessions set.
	latencyLimitMs = 100
	// refRate is the fixed offered rate (sessions/s) at which
	// session_p50_ms and session_tail_ms are taken: about a fifth of what
	// a 2-core machine sustains today.
	refRate     = 50.0
	refShare    = 0.35 // of an untraced run spent at refRate
	serialShare = 0.2  // spent running sessions one at a time
	warmShare   = 0.07 // spent at saturation before the sweep
	stepShare   = 0.05 // per sweep step
	bisections  = 2    // sweep steps that halve the bracket around the limit
	maxLateness = 50 * time.Millisecond
)

// The sweep offers sweepStart times the estimated capacity, then raises
// the rate by sweepGrowth per step, for at most sweepMax steps, until a
// step misses the limit.
const (
	sweepStart  = 0.6
	sweepGrowth = 1.2
	sweepMax    = 8
)

// sessionKind is one distinct request of the mix, with its offline answer.
type sessionKind struct {
	kernel    bool
	label     string // "replay" or the kernel ID, for span labels
	sanitizer string
	body      []byte // JSON request without its closing brace
	ops       float64
	checksum  string // kernels: the native leg's checksum
	errors    int    // expected error_total
	events    int    // replays: expected events
}

// serverTimes is what the server side saw of one request, correlated by
// its tenant tag.
type serverTimes struct {
	entry, hook, exit time.Time
}

// sessionRec is one client request.
type sessionRec struct {
	kind            *sessionKind
	due, sent, recv time.Time
	ok              bool
	refused         bool
	wallNs          int64
	server          serverTimes
}

type serviceBench struct {
	seed     uint64
	kinds    []*sessionKind
	kernKind []int // indices of kernel kinds
	replKind []int
	eng      *service.Engine
	srv      *http.Server
	served   chan error
	url      string
	client   *http.Client
	conns    int
	reqID    atomic.Uint64

	traced atomic.Bool // record server-side times
	mu     sync.Mutex
	times  map[string]*serverTimes
}

func (s *serviceBench) setup(seed uint64) error {
	s.seed = seed
	s.conns = runtime.NumCPU()
	s.times = map[string]*serverTimes{}
	if err := s.buildKinds(seed); err != nil {
		return err
	}
	s.eng = service.New(service.Config{
		Workers:        s.conns,
		CanaryEnabled:  false,
		OnSessionStart: s.onSessionStart,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String() + "/sessions"
	s.srv = &http.Server{Handler: s.middleware(service.NewServer(s.eng))}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.conns,
			MaxIdleConnsPerHost: s.conns,
			DisableCompression:  true,
		},
	}
	// Warm-up: two closed-loop passes over every distinct session, which
	// also fills the arena pool.
	var order []int
	for i := 0; i < 2; i++ {
		for k := range s.kinds {
			order = append(order, k)
		}
	}
	for _, r := range s.closedLoop(order, s.conns) {
		if !r.ok {
			return fmt.Errorf("warm-up session %s/%s failed", r.kind.label, r.kind.sanitizer)
		}
	}
	return nil
}

// buildKinds generates the replay traces and computes every session's
// answer offline, outside the service.
func (s *serviceBench) buildKinds(seed uint64) error {
	for i := 0; i < serviceTraces; i++ {
		g, err := generate(seed*serviceTraces+uint64(i)+1<<40, serviceGen)
		if err != nil {
			return err
		}
		b64 := base64.StdEncoding.EncodeToString(g.Data)
		for _, san := range serviceReplSans {
			// The offline answer: the streaming replayer on a fresh arena
			// must agree with the answer key.
			kind := rt.GiantSan
			if san == "asan" {
				kind = rt.ASan
			}
			res, err := trace.Replay(bytes.NewReader(g.Data), rt.Fork(rt.Config{Kind: kind}), san == "giantsan")
			if err != nil {
				return fmt.Errorf("offline replay: %w", err)
			}
			if err := checkReports(&res.Errors, g.Bugs); err != nil {
				return fmt.Errorf("offline replay under %s: %w", san, err)
			}
			body, err := requestBody(service.Request{TraceB64: b64, Sanitizer: san})
			if err != nil {
				return err
			}
			s.replKind = append(s.replKind, len(s.kinds))
			s.kinds = append(s.kinds, &sessionKind{
				label: "replay", sanitizer: san, body: body,
				ops: float64(len(g.Events)), errors: len(g.Bugs), events: len(g.Events),
			})
		}
	}
	for _, id := range serviceKernels {
		w := workload.ByID(id)
		if w == nil {
			return fmt.Errorf("kernel %s not found", id)
		}
		env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: w.HeapBytes})
		ex, err := interp.Prepare(w.Build(1), legs[0].prof, env)
		if err != nil {
			return fmt.Errorf("offline %s: %w", id, err)
		}
		res := ex.Run()
		for _, san := range serviceKernSans {
			body, err := requestBody(service.Request{Workload: id, Sanitizer: san})
			if err != nil {
				return err
			}
			s.kernKind = append(s.kernKind, len(s.kinds))
			s.kinds = append(s.kinds, &sessionKind{
				kernel: true, label: id, sanitizer: san, body: body,
				ops: float64(res.Stats.Accesses), checksum: fmt.Sprintf("%#x", res.Checksum),
			})
		}
	}
	return nil
}

// requestBody marshals req and drops the closing brace, so a tenant tag
// can be appended per request.
func requestBody(req service.Request) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

func (s *serviceBench) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		// An error only says connections were still busy at the deadline;
		// the engine's Close below drains their sessions.
		_ = s.srv.Shutdown(ctx)
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("serve:", err)
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

// middleware records handler entry and exit for traced requests.
func (s *serviceBench) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.traced.Load() {
			h.ServeHTTP(w, r)
			return
		}
		tenant := r.Header.Get(tenantHeader)
		st := &serverTimes{entry: time.Now()}
		s.mu.Lock()
		s.times[tenant] = st
		s.mu.Unlock()
		h.ServeHTTP(w, r)
		now := time.Now()
		s.mu.Lock()
		st.exit = now
		s.mu.Unlock()
	})
}

// onSessionStart is the engine's hook: the moment a worker picks the
// session up, after decode, admission and queue wait.
func (s *serviceBench) onSessionStart(req *service.Request) {
	if !s.traced.Load() {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if st := s.times[req.Tenant]; st != nil {
		st.hook = now
	}
	s.mu.Unlock()
}

// send posts one session and checks its response against the offline
// answer.
func (s *serviceBench) send(rec *sessionRec) {
	tenant := "t" + strconv.FormatUint(s.reqID.Add(1), 10)
	body := make([]byte, 0, len(rec.kind.body)+40)
	body = append(body, rec.kind.body...)
	body = append(body, `,"tenant":"`...)
	body = append(body, tenant...)
	body = append(body, `"}`...)
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		fmt.Println("FAIL: request:", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenantHeader, tenant)
	rec.sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		rec.recv = time.Now()
		fmt.Println("FAIL: post:", err)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.recv = time.Now()
	if s.traced.Load() {
		s.mu.Lock()
		if st := s.times[tenant]; st != nil {
			rec.server = *st
			delete(s.times, tenant)
		}
		s.mu.Unlock()
	}
	if err != nil {
		fmt.Println("FAIL: read:", err)
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		rec.refused = true
		fmt.Printf("FAIL: refused with %d\n", resp.StatusCode)
		return
	}
	var out service.Response
	if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
		fmt.Printf("FAIL: status %d: %s\n", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	rec.wallNs = out.WallNs
	k := rec.kind
	switch {
	case out.Status != service.StatusOK:
		fmt.Printf("FAIL: %s/%s: status %s %s\n", k.label, k.sanitizer, out.Status, out.Message)
	case k.kernel && out.Checksum != k.checksum:
		fmt.Printf("FAIL: %s/%s: checksum %s, offline %s\n", k.label, k.sanitizer, out.Checksum, k.checksum)
	case !k.kernel && out.Events != k.events:
		fmt.Printf("FAIL: replay/%s: %d events, offline %d\n", k.sanitizer, out.Events, k.events)
	case out.ErrorTotal != k.errors:
		fmt.Printf("FAIL: %s/%s: %d reports, answer key %d\n", k.label, k.sanitizer, out.ErrorTotal, k.errors)
	default:
		rec.ok = true
	}
}

// closedLoop sends the kinds in order from the given number of senders,
// each waiting for its reply before sending again.
func (s *serviceBench) closedLoop(order []int, senders int) []*sessionRec {
	recs := make([]*sessionRec, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				recs[i] = &sessionRec{kind: s.kinds[order[i]], due: time.Now()}
				s.send(recs[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// mix returns n session kinds in blocks of sessionBlock: each block holds
// every kernel session once, evenly spaced and in a seeded order, and
// between them replay sessions of seeded traces alternating sanitizers.
func (s *serviceBench) mix(r *rng, n int) []int {
	out := make([]int, 0, n+sessionBlock)
	for len(out) < n {
		kern := append([]int(nil), s.kernKind...)
		for i := len(kern) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			kern[i], kern[j] = kern[j], kern[i]
		}
		for i := 0; i < sessionBlock; i++ {
			if i*len(kern)%sessionBlock < len(kern) {
				out = append(out, kern[i*len(kern)/sessionBlock])
				continue
			}
			out = append(out, s.replKind[2*r.intn(serviceTraces)+i%2])
		}
	}
	return out[:n]
}

// step is one open-loop rate step: what was offered and what came back.
type step struct {
	rate    float64 // offered sessions/s: arrivals over the arrival window
	recs    []*sessionRec
	late    []float64 // generator lateness per arrival, ms
	backlog int       // sessions due but not answered when arrivals stopped
	senders int       // >0: a closed loop with this many senders, not a rate step
}

// openLoop offers sessions at rate for d: a dispatcher releases each at
// its due time to conns keep-alive senders, and every latency is timed
// from the due time, so a stalled sender delays the sessions behind it.
// Due times are evenly spaced with a seeded jitter of ±40% of the gap.
func (s *serviceBench) openLoop(r *rng, rate float64, d time.Duration) *step {
	dues := make([]time.Duration, int(rate*d.Seconds()+0.5))
	for i := range dues {
		jitter := 0.8*float64(r.next()>>11)/(1<<53) - 0.4
		dues[i] = time.Duration((float64(i) + 0.5 + jitter) / rate * float64(time.Second))
	}
	kinds := s.mix(r, len(dues))
	st := &step{recs: make([]*sessionRec, len(dues)), late: make([]float64, len(dues))}
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(dues))
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s.send(st.recs[i])
			}
		}()
	}
	start := time.Now()
	for i, due := range dues {
		at := start.Add(due)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		st.late[i] = float64(time.Since(at)) / 1e6
		st.recs[i] = &sessionRec{kind: s.kinds[kinds[i]], due: at}
		queue <- i
	}
	end := start.Add(d)
	if w := time.Until(end); w > 0 {
		time.Sleep(w)
	}
	st.rate = float64(len(dues)) / d.Seconds()
	close(queue)
	wg.Wait()
	for _, rec := range st.recs {
		if rec.recv.After(end) {
			st.backlog++
		}
	}
	return st
}

// latencies returns the step's client latencies in ms, failed sessions
// counting as infinitely late.
func (st *step) latencies() []float64 {
	out := make([]float64, len(st.recs))
	for i, rec := range st.recs {
		out[i] = math.Inf(1)
		if rec.ok {
			out[i] = float64(rec.recv.Sub(rec.due)) / 1e6
		}
	}
	return out
}

func (st *step) failed() int {
	n := 0
	for _, rec := range st.recs {
		if !rec.ok {
			n++
		}
	}
	return n
}

// blockTail is the p90 latency within each block of sessionBlock
// consecutive sessions, the median over blocks: a stretch the machine
// slowed moves it only when it covers most of the step.
func (st *step) blockTail() float64 {
	lat := st.latencies()
	var tails []float64
	for b := 0; b+sessionBlock <= len(lat); b += sessionBlock {
		tails = append(tails, quantile(lat[b:b+sessionBlock], tailQ))
	}
	return median(tails)
}

// passes reports whether the step met the latency limit with no growing
// backlog.
func (st *step) passes(conns int) bool {
	return quantile(st.latencies(), tailQ) <= latencyLimitMs && float64(st.backlog) <= st.stableBacklog(conns)
}

// stableBacklog is the most sessions a step may leave unanswered when its
// arrivals stop without its backlog counting as growing: one per sender
// in flight and one queued, or what arrives within the latency limit,
// whichever is more.
func (st *step) stableBacklog(conns int) float64 {
	return max(float64(2*conns), st.rate*latencyLimitMs/1000)
}

func (s *serviceBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}}
	r := rng{s.seed ^ 0x5e55}
	refDur := d
	if tr == nil {
		refDur = time.Duration(float64(d) * refShare)
	}
	before := s.eng.ArenaStats()
	s.traced.Store(tr != nil)
	ref := s.openLoop(&r, refRate, refDur)
	s.traced.Store(false)
	after := s.eng.ArenaStats()
	steps := []*step{ref}
	o.e2e["session_p50_ms"] = median(ref.latencies())
	o.e2e["session_tail_ms"] = ref.blockTail()
	if tr == nil {
		maxRate, sweep := s.sweep(&r, ref, d)
		steps = append(steps, sweep...)
		o.e2e["max_sessions_per_s"] = maxRate
		// Run throughput, sessions one at a time so that none shares the
		// machine with another: memory ops per second of server-side run.
		quiesce()
		serial := s.closedFor(&r, 1, time.Duration(float64(d)*serialShare))
		steps = append(steps, serial)
		for _, san := range serviceKernSans {
			// Per block of the mix, the sanitizer's ops over its run
			// time; the median over blocks.
			var thr []float64
			for b := 0; b+sessionBlock <= len(serial.recs); b += sessionBlock {
				var ops, ns float64
				for _, rec := range serial.recs[b : b+sessionBlock] {
					if rec.ok && rec.kind.sanitizer == san {
						ops += rec.kind.ops
						ns += float64(rec.wallNs)
					}
				}
				thr = append(thr, ratio(ops, ns)*1e3)
			}
			o.e2e[san+"_mops"] = median(thr)
		}
	} else {
		o.layers = s.layers(tr, ref, before, after)
	}
	fmt.Printf("rate steps (limit p%.0f ≤ %d ms):\n", 100*tailQ, latencyLimitMs)
	fmt.Printf("  %-7s %10s %6s %6s %6s %8s %10s %10s %10s\n", "loop", "rate/s", "sent", "ok", "failed", "backlog", "p50_ms", "p90_ms", "late_p99")
	for _, st := range steps {
		l := st.latencies()
		loop := "open"
		if st.senders > 0 {
			loop = fmt.Sprintf("closed%d", st.senders)
		}
		fmt.Printf("  %-7s %10.1f %6d %6d %6d %8d %10.2f %10.2f %10.3f\n", loop, st.rate, len(st.recs), len(st.recs)-st.failed(),
			st.failed(), st.backlog, median(l), quantile(l, tailQ), quantile(st.late, 0.99))
		o.attempted += len(st.recs)
		o.failed += st.failed()
	}
	if late := quantile(ref.late, 0.99); late > float64(maxLateness)/1e6 {
		return nil, fmt.Errorf("load generator ran %.1f ms late at p99 (limit %v): measurement void", late, maxLateness)
	}
	return o, nil
}

// sweep finds the highest offered rate whose tail meets the limit with no
// growing backlog. It offers rising fractions of a capacity estimate (the
// senders over the reference step's mean latency, nearly all of it
// service time at that load) until a step misses the limit, halves the
// bracket between the last step that passed and the first that did not,
// and interpolates the crossing inside it. It returns the estimate and
// every step it ran.
func (s *serviceBench) sweep(r *rng, ref *step, d time.Duration) (float64, []*step) {
	var ms []float64
	for _, l := range ref.latencies() {
		if !math.IsInf(l, 1) {
			ms = append(ms, l)
		}
	}
	capacity := ratio(float64(s.conns)*1000, sum(ms)/float64(len(ms)))
	// On a 2-core virtual machine the first second or so of load after
	// the low-rate reference step runs at about half speed (sessions' run
	// times double, then recover under sustained load); a saturating
	// closed loop absorbs that ramp before the steps.
	quiesce()
	steps := []*step{s.closedFor(r, s.conns, time.Duration(float64(d)*warmShare))}
	stepDur := time.Duration(float64(d) * stepShare)
	// try offers rate for one step. A step that misses the limit is run
	// once more and counts as missing it only if the rerun misses it too,
	// so one stall of the machine does not end the sweep early.
	try := func(rate float64) (*step, bool) {
		for i := 0; i < 2; i++ {
			quiesce()
			st := s.openLoop(r, rate, stepDur)
			steps = append(steps, st)
			if st.passes(s.conns) {
				return st, true
			}
		}
		return steps[len(steps)-1], false
	}
	pass := ref
	var fail *step
	for i, rate := 0, sweepStart*capacity; i < sweepMax && fail == nil; i, rate = i+1, rate*sweepGrowth {
		if rate <= pass.rate {
			continue
		}
		if st, ok := try(rate); ok {
			pass = st
		} else {
			fail = st
		}
	}
	if fail == nil {
		return pass.rate, steps
	}
	for i := 0; i < bisections; i++ {
		if st, ok := try((pass.rate + fail.rate) / 2); ok {
			pass = st
		} else {
			fail = st
		}
	}
	return interpolate(pass, fail), steps
}

// closedFor runs the traffic mix in a closed loop, senders sessions in
// flight, for about d. The step's rate is the sessions completed per
// second.
func (s *serviceBench) closedFor(r *rng, senders int, d time.Duration) *step {
	st := &step{senders: senders}
	start := time.Now()
	for time.Since(start) < d {
		st.recs = append(st.recs, s.closedLoop(s.mix(r, sessionBlock), senders)...)
	}
	st.rate = float64(len(st.recs)) / time.Since(start).Seconds()
	return st
}

// interpolate estimates the rate at which the tail crosses the limit
// between a passing and a failing step, linearly in log latency.
func interpolate(pass, fail *step) float64 {
	lo, hi := quantile(pass.latencies(), tailQ), quantile(fail.latencies(), tailQ)
	if math.IsInf(hi, 1) || hi <= latencyLimitMs || lo <= 0 {
		return pass.rate
	}
	f := (math.Log(latencyLimitMs) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	return pass.rate + f*(fail.rate-pass.rate)
}

func (s *serviceBench) cost(o *outcome) float64 { return o.e2e["session_p50_ms"] }

// layers derives the service workload's per-layer metrics from the traced
// reference step and records each session's spans.
func (s *serviceBench) layers(tr *tracer, ref *step, before, after service.ArenaStats) map[string]float64 {
	var wait, runRepl, runKern, post, httpOver, queue []float64
	refused := 0
	for _, rec := range ref.recs {
		if rec.refused {
			refused++
		}
		if !rec.ok || rec.server.exit.IsZero() || rec.server.hook.IsZero() {
			continue
		}
		sv := rec.server
		ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
		run := float64(rec.wallNs) / 1e6
		wait = append(wait, ms(sv.entry, sv.hook))
		if rec.kind.kernel {
			runKern = append(runKern, run)
		} else {
			runRepl = append(runRepl, run)
		}
		post = append(post, ms(sv.hook, sv.exit)-run)
		httpOver = append(httpOver, ms(rec.sent, rec.recv)-ms(sv.entry, sv.exit))
		queue = append(queue, ms(rec.due, rec.sent))

		id := s.reqID.Add(1)
		label := rec.kind.label + "/" + rec.kind.sanitizer
		root := tr.add(span{Trace: id, Parent: -1, Name: "session", Label: label, Start: tr.at(rec.due), End: tr.at(rec.recv)})
		tr.add(span{Trace: id, Parent: root, Name: "client.queue", Start: tr.at(rec.due), End: tr.at(rec.sent)})
		rtt := tr.add(span{Trace: id, Parent: root, Name: "http.roundtrip", Start: tr.at(rec.sent), End: tr.at(rec.recv)})
		h := tr.add(span{Trace: id, Parent: rtt, Name: "service.handler", Start: tr.at(sv.entry), End: tr.at(sv.exit)})
		tr.add(span{Trace: id, Parent: h, Name: "service.wait", Start: tr.at(sv.entry), End: tr.at(sv.hook)})
		tr.add(span{Trace: id, Parent: h, Name: "service.exec", Label: rec.kind.label, Start: tr.at(sv.hook), End: tr.at(sv.exit)})
	}
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	return map[string]float64{
		"service.wait_ms":       median(wait),
		"service.run_ms.replay": median(runRepl),
		"service.run_ms.kernel": median(runKern),
		"service.post_ms":       median(post),
		"http.overhead_ms":      median(httpOver),
		"client.queue_ms":       median(queue),
		"arena.warm_frac":       ratio(hits, hits+misses),
		"service.refused_frac":  ratio(float64(refused), float64(len(ref.recs))),
		"client.late_ms":        quantile(ref.late, 0.99),
	}
}
