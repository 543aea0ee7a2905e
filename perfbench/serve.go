package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/relational"
	"repro/internal/serve"
)

// Serve workload inputs: two slots trained on Movies at scale 64, NB on the
// factorized linear path and ANN on the gather + coalescer + GEMM path.
const (
	serveDataset  = "Movies"
	serveScale    = 64
	serveInputs   = 2048                   // distinct requests per slot
	nominalRate   = 2000                   // req/s, both slots together
	nominalWindow = 1 * time.Second        // one p50/p99 sample per slot
	warmup        = 500 * time.Millisecond // at the nominal rate, unmeasured
	ladderProbe   = 1 * time.Second        // per max_rps rung, traced run only
)

var serveSpecs = []learner{nbSpec, annSpec}

// serveInput is a running server and the requests it is driven with.
type serveInput struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	conns   []*conn         // one per worker, nproc of them
	engines []*serve.Engine // per slot, in servedSlots order
	reqs    [][][]relational.Value
	bodies  [][][]byte
	want    [][]int8 // in-process Engine.Predict class per request
	saveS   float64
	loadS   float64
	sizes   []int64
}

// serveSetup trains both slots, saves and reloads their artifacts, builds
// the registry server hamletd runs (serve.NewRegistryServer with
// DefaultServerConfig), starts it on a loopback port, and prepares each
// slot's requests from fact rows picked by the seed.
func serveSetup(b *bench, rec *recorder) (*serveInput, error) {
	var ss *relational.StarSchema
	var env *core.Env
	err := traceStep(rec, "dataset.generate", func() (err error) {
		ss, err = generate(serveDataset, serveScale, b.seed)
		return err
	})
	if err == nil {
		err = traceStep(rec, "relational.env_build", func() (err error) {
			env, err = core.NewEnvEngine(ss, b.seed, core.EngineColumnar)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	in := &serveInput{}
	reg := serve.NewRegistry(serve.DefaultCoalescerConfig())
	meta := map[string]string{core.MetaDataset: serveDataset, core.MetaScale: strconv.Itoa(serveScale)}
	for i, l := range serveSpecs {
		spec, err := l.spec()
		if err != nil {
			return nil, err
		}
		m, _, err := core.BuildArtifact(env, spec, b.seed, meta)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", l.short, err)
		}
		path := filepath.Join(b.dir, "serve-"+l.short+".bin")
		t0 := time.Now()
		if err := model.Save(path, m); err != nil {
			return nil, err
		}
		t1 := time.Now()
		loaded, err := model.Load(path)
		if err != nil {
			return nil, err
		}
		in.saveS += t1.Sub(t0).Seconds()
		in.loadS += time.Since(t1).Seconds()
		var buf bytes.Buffer
		if err := model.Encode(&buf, loaded); err != nil {
			return nil, err
		}
		in.sizes = append(in.sizes, int64(buf.Len()))
		e, err := serve.NewEngine(loaded, ss)
		if err != nil {
			return nil, err
		}
		if _, err := reg.Register(servedSlots[i], e); err != nil {
			return nil, err
		}
		in.engines = append(in.engines, e)
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x5e77e))
	for _, e := range in.engines {
		var reqs [][]relational.Value
		var bodies [][]byte
		var want []int8
		for k := 0; k < serveInputs; k++ {
			req := e.RequestFromFactRow(make([]relational.Value, len(e.InputFeatures())), ss.Fact.Row(rng.IntN(ss.Fact.NumRows())))
			p, err := e.Predict(req)
			if err != nil {
				return nil, err
			}
			reqs, bodies, want = append(reqs, req), append(bodies, requestBody(e, req)), append(want, p.Class)
		}
		in.reqs, in.bodies, in.want = append(in.reqs, reqs), append(in.bodies, bodies), append(in.want, want)
	}

	in.srv = serve.NewRegistryServer(reg, serve.DefaultServerConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs = &http.Server{
		Handler:           in.srv.Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	for w := 0; w < runtime.NumCPU(); w++ {
		in.conns = append(in.conns, newConn(ln.Addr().String()))
	}
	// One request per slot on every connection proves the server is up and
	// opens the connections before set-up ends.
	for w := range in.conns {
		for s := range servedSlots {
			if err := in.send(w, s, 0); err != nil {
				in.close()
				return nil, fmt.Errorf("first request: %w", err)
			}
		}
	}
	return in, nil
}

// requestBody is the /predict JSON for req.
func requestBody(e *serve.Engine, req []relational.Value) []byte {
	var b strings.Builder
	b.WriteString(`{"input":{`)
	for i, f := range e.InputFeatures() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", f.Name, req[i])
	}
	b.WriteString("}}")
	return []byte(b.String())
}

// send posts request k of slot s on connection w and checks the answer
// against the in-process prediction.
func (in *serveInput) send(w, s, k int) error {
	status, body, err := in.conns[w].post(slotPaths[s], in.bodies[s][k])
	if err != nil {
		return err
	}
	return checkPrediction(status, body, in.want[s][k])
}

// slotPaths is each slot's /predict URL path.
var slotPaths = func() []string {
	out := make([]string, len(servedSlots))
	for i, s := range servedSlots {
		out[i] = "/predict?model=" + s
	}
	return out
}()

// checkPrediction is the serve workload's check: a 200 whose class equals
// the in-process Engine.Predict class for the same input.
func checkPrediction(status int, body []byte, want int8) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	got, err := parsePrediction(body)
	if err != nil {
		return err
	}
	if got != int(want) {
		return fmt.Errorf("server predicted class %d, Engine.Predict %d", got, want)
	}
	return nil
}

// parsePrediction reads the class from a /predict response body.
func parsePrediction(body []byte) (int, error) {
	const key = `"prediction":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no prediction in %q", body)
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("malformed prediction in %q", body)
	}
	return strconv.Atoi(string(bytes.TrimSpace(rest[:j])))
}

func (in *serveInput) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range in.conns {
		c.close()
	}
	return err
}

// drive runs n requests open-loop at rate, alternating between the slots;
// request i is slot i%2's input i/2 (mod serveInputs).
func (b *bench) drive(in *serveInput, rate float64, n int) []shot {
	shots := openLoop(rate, n, len(in.conns), func(w, i int) error {
		return in.send(w, i%len(servedSlots), (i/len(servedSlots))%serveInputs)
	})
	for i, s := range shots {
		what := "request"
		if s.Err != nil {
			what = fmt.Sprintf("request %d of slot %s at %.0f req/s", i, servedSlots[i%len(servedSlots)], rate)
		}
		b.op(what, s.Err)
	}
	return shots
}

// slotLatencies is each slot's latency from due time in ms, sorted.
func slotLatencies(shots []shot) [][]float64 {
	out := make([][]float64, len(servedSlots))
	for s := range servedSlots {
		out[s] = durationsMs(shots, func(i int) bool { return i%len(servedSlots) == s }, shot.latency)
	}
	return out
}

// window is one nominal-rate window reduced to what the metrics need.
type window struct {
	p50All   float64   // both slots, ms
	cpuMs    float64   // process CPU time per request, ms
	p50, p99 []float64 // per slot, ms
	late     []float64 // per request, ms
}

// nominal drives the nominal rate in 1-second windows and returns each
// window's per-slot p50 and p99 and its requests' lateness. Windows the host
// disturbed are driven again (see leastDisturbed).
func (b *bench) nominal(in *serveInput, windows int) []window {
	n := int(nominalRate * nominalWindow.Seconds())
	runs, steals := leastDisturbed(windows, time.Duration(windows)*nominalWindow, func() window {
		var shots []shot
		c := measureCost(func() { shots = b.drive(in, nominalRate, n) })
		w := window{
			p50All: percentile(durationsMs(shots, nil, shot.latency), 5000),
			cpuMs:  c.cpu.Seconds() * 1e3 / float64(n),
		}
		for _, lat := range slotLatencies(shots) {
			w.p50 = append(w.p50, percentile(lat, 5000))
			w.p99 = append(w.p99, percentile(lat, 9900))
		}
		w.late = durationsMs(shots, nil, shot.late)
		return w
	})
	b.reportf("nominal windows: host steal %.3v", steals)
	return runs
}

// maxRPS searches the ladder, each rung probed for probeFor, and returns the
// highest passing rung.
func (b *bench) maxRPS(in *serveInput, probeFor time.Duration) (rung, bool) {
	return highestPassing(ladder(), func(rate float64) rung {
		n := max(rungWindows*minWindowShots, int(rate*probeFor.Seconds()))
		planned := time.Duration(float64(n) / rate * float64(time.Second))
		rs, steals := leastDisturbed(1, planned, func() rung { return measureRung(rate, b.drive(in, rate, n)) })
		r := rs[0]
		b.reportf("  rung %.0f req/s: achieved %.0f, p99 %.3f ms, %d failed, host steal %.3f, passes=%v",
			r.Offered, r.Achieved, float64(r.P99)/1e6, r.Failed, steals[0], r.passes())
		return r
	})
}

func measureServe(b *bench) error {
	in, err := setupMedian(b, func() (*serveInput, error) { return serveSetup(b, nil) }, func(in *serveInput) { in.close() })
	if err != nil {
		return err
	}
	defer in.close()
	b.reportf("input: %s scale %d, slots nb (factorized=%v) and ann (factorized=%v), %d conns, artifacts %v bytes",
		serveDataset, serveScale, in.engines[0].Factorized(), in.engines[1].Factorized(), len(in.conns), in.sizes)

	b.drive(in, nominalRate, int(nominalRate*warmup.Seconds()))
	// The whole run at the nominal rate; op_ms is the median of the windows'
	// p50 over both slots, op_cpu_ms the median of their CPU time per
	// request, client and server together.
	windows := max(1, int(b.seconds/nominalWindow))
	var late, p50All, cpuMs []float64
	p50, p99 := make([][]float64, len(servedSlots)), make([][]float64, len(servedSlots))
	for _, w := range b.nominal(in, windows) {
		p50All, cpuMs = append(p50All, w.p50All), append(cpuMs, w.cpuMs)
		for s := range servedSlots {
			p50[s], p99[s] = append(p50[s], w.p50[s]), append(p99[s], w.p99[s])
		}
		late = append(late, w.late...)
	}
	b.setOp(medianOf(p50All)/1e3, medianOf(cpuMs)/1e3)
	b.reportf("op_ms %.4f: median over %d windows of p50 from due time, per window %.4v", medianOf(p50All), windows, p50All)
	b.reportf("op_cpu_ms %.4f: median over windows of CPU time per request, per window %.4v", medianOf(cpuMs), cpuMs)
	for s, slot := range servedSlots {
		b.reportf("predict_%s: p50 %.4f ms, p99 %.4f ms (medians over windows); p99 per window %.4v",
			slot, medianOf(p50[s]), medianOf(p99[s]), p99[s])
	}
	b.reportf("generator lateness %s ms", summarize(late))
	return nil
}

// meanMicros times reps×len(reqs) calls of f and returns the mean in µs.
func meanMicros(reqs [][]relational.Value, reps int, f func(req []relational.Value) error) (float64, error) {
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, req := range reqs {
			if err := f(req); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds() * 1e6 / float64(reps*len(reqs)), nil
}

// serverPhases reads the server's own predict-phase histograms (sum and
// count of nanoseconds) and shed counter from Registry.Metrics.
func serverPhases(srv *serve.Server) map[string]float64 {
	out := map[string]float64{}
	for _, v := range srv.Registry().Metrics().Obs.Values() {
		out[v.Name] = v.V
	}
	return out
}

func phaseKey(series, phase string) string {
	return `hamlet_http_phase_ns_` + series + `{endpoint="predict",phase="` + phase + `"}`
}

func traceServe(b *bench, rec *recorder) error {
	b.zeroPerLayer()
	in, err := serveSetup(b, rec)
	if err != nil {
		return err
	}
	defer in.close()
	b.set("dataset.generate_s", rec.totals("dataset.generate"), "s")
	b.set("relational.env_build_s", rec.totals("relational.env_build"), "s")
	b.set("model.save_s", in.saveS, "s")
	b.set("model.load_s", in.loadS, "s")
	for i, l := range serveSpecs {
		b.set("model.artifact_bytes."+l.short, float64(in.sizes[i]), "bytes")
	}
	b.drive(in, nominalRate, int(nominalRate*warmup.Seconds()))

	// Layer by layer, one caller, mean per request: the engine's score, the
	// slot (coalescer + score), the whole handler on an in-memory request,
	// and the client's round trip over loopback. The differences are each
	// layer's self time.
	reg := in.srv.Registry()
	const reps = 3
	for s, slot := range servedSlots {
		e := in.engines[s]
		sl, _ := reg.Slot(slot)
		engineUs, err := meanMicros(in.reqs[s], reps, func(req []relational.Value) error { _, err := e.Predict(req); return err })
		if err != nil {
			return err
		}
		slotUs, err := meanMicros(in.reqs[s], reps, func(req []relational.Value) error { _, err := sl.Predict(req); return err })
		if err != nil {
			return err
		}
		k := 0
		handler := in.srv.Handler()
		handlerUs, err := meanMicros(in.reqs[s], reps, func([]relational.Value) error {
			r := httptest.NewRequest(http.MethodPost, "/predict?model="+slot, bytes.NewReader(in.bodies[s][k%serveInputs]))
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, r)
			err := checkPrediction(w.Code, w.Body.Bytes(), in.want[s][k%serveInputs])
			k++
			return err
		})
		if err != nil {
			return err
		}
		k = 0
		rttUs, err := meanMicros(in.reqs[s], reps, func([]relational.Value) error {
			err := in.send(0, s, k%serveInputs)
			k++
			return err
		})
		if err != nil {
			return err
		}
		b.set("serve.engine_us."+slot, engineUs, "us")
		b.set("serve.slot_us."+slot, slotUs, "us")
		b.set("serve.handler_us."+slot, handlerUs, "us")
		b.set("serve.rtt_us."+slot, rttUs, "us")
		b.reportf("slot %s: engine %.2fus, coalescing %.2fus, decode+encode %.2fus, transport %.2fus (rtt %.2fus)",
			slot, engineUs, slotUs-engineUs, handlerUs-slotUs, rttUs-handlerUs, rttUs)
	}

	// Tracing overhead: the same closed-loop round trips with a span per
	// request, against the untraced ones above.
	var untracedUs, tracedUs float64
	for s, slot := range servedSlots {
		k := 0
		us, err := meanMicros(in.reqs[s], reps, func([]relational.Value) error {
			id := rec.begin("serve.rtt", fmt.Sprintf("rtt:%s:%d", slot, k), 0)
			err := in.send(0, s, k%serveInputs)
			rec.end(id)
			k++
			return err
		})
		if err != nil {
			return err
		}
		untracedUs += b.metrics["serve.rtt_us."+slot].Value
		tracedUs += us
	}
	b.set("trace_overhead", tracedUs/untracedUs, "ratio")

	// The nominal open loop, with a span per request split into how late it
	// was sent and its round trip; server-side phases and coalescing from the
	// server's counters.
	coalBefore := mustSlot(reg, "ann").Coalescer().Stats()
	srvBefore := serverPhases(in.srv)
	shots := b.drive(in, nominalRate, int(nominalRate*nominalWindow.Seconds()))
	for i, s := range shots {
		op := fmt.Sprintf("req:%s:%d", servedSlots[i%len(servedSlots)], i)
		root := rec.add("request", op, 0, s.Due, s.Done)
		rec.add("gen.late", op, root, s.Due, s.Sent)
		rec.add("serve.rtt", op, root, s.Sent, s.Done)
	}
	b.set("gen.late_p99_ms", percentile(durationsMs(shots, nil, shot.late), 9900), "ms")
	for s, lat := range slotLatencies(shots) {
		b.set("serve.predict_p50_ms."+servedSlots[s], percentile(lat, 5000), "ms")
		b.set("serve.predict_p99_ms."+servedSlots[s], percentile(lat, 9900), "ms")
	}
	coal := mustSlot(reg, "ann").Coalescer().Stats()
	if d := (coal.Coalesced - coalBefore.Coalesced) + (coal.Direct - coalBefore.Direct); d > 0 {
		b.set("serve.coalesce_ratio.ann", float64(coal.Coalesced-coalBefore.Coalesced)/float64(d), "ratio")
	}
	srvAfter := serverPhases(in.srv)
	for _, phase := range []string{"decode", "score", "encode"} {
		count := srvAfter[phaseKey("count", phase)] - srvBefore[phaseKey("count", phase)]
		if count > 0 {
			sum := srvAfter[phaseKey("sum", phase)] - srvBefore[phaseKey("sum", phase)]
			b.set("serve."+phase+"_us", sum/count/1e3, "us")
		}
	}
	b.set("serve.shed", srvAfter["hamlet_requests_shed_total"]-srvBefore["hamlet_requests_shed_total"], "count")

	// A binary search over the ladder probes about seven rungs.
	best, ok := b.maxRPS(in, ladderProbe)
	if !ok {
		b.op("max_rps ladder", fmt.Errorf("no rate on the ladder met p99 <= %v", latencyLimit))
		return nil
	}
	b.set("serve.max_rps", best.Achieved, "req/s")
	b.reportf("max_rps: rung %.0f req/s, achieved %.1f, p99 %.3f ms", best.Offered, best.Achieved, float64(best.P99)/1e6)
	return nil
}

func mustSlot(reg *serve.Registry, name string) *serve.Slot {
	s, ok := reg.Slot(name)
	if !ok {
		panic("perfbench: no slot " + name)
	}
	return s
}
