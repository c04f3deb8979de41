package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/metrics"
	"repro/internal/ts"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run; BENCHMARK.json declares the same names and units.
var endToEnd = []metricSpec{
	{"tx_per_s", "1/s"},     // guarded transactions committed per second
	{"tokens_per_s", "1/s"}, // tokens issued per second
	{"op_p50_ms", "ms"},     // operation latency, median
	{"op_p90_ms", "ms"},     // operation latency, 90th percentile
	{"token_p50_ms", "ms"},  // POST /v1/tokens round trip, median
	{"cpu_ms_per_op", "ms"}, // process user+sys CPU per completed operation
	{"gas_per_tx", "gas"},   // mean gas per committed guarded transaction
	{"max_rss_mb", "MB"},    // peak resident memory
	{"setup_s", "s"},        // start of the workload to its first timed operation
}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricSpec{
	{"tshttp.rtt_ms", "ms"},
	{"tshttp.server_ms", "ms"},
	{"tshttp.tokens_per_call", "count"},
	{"ts.issue_ms", "ms"},
	{"ts.counter_next_us", "us"},
	{"replicanet.lease_ms", "ms"},
	{"replicanet.leases_per_1k_tokens", "count"},
	{"store.wal_append_ms", "ms"},
	{"store.wal_appends_per_1k_tokens", "count"},
	{"rtverify.validate_ms", "ms"},
	{"rtverify.denials_per_1k_requests", "count"},
	{"core.prehook_ms_per_tx", "ms"},
	{"core.token_cache_hit_ratio", "ratio"},
	{"core.sign_request_ms", "ms"},
	{"evm.execute_ms_per_tx", "ms"},
	{"evm.prevalidate_ms_per_tx", "ms"},
	{"evm.commit_ms_per_tx", "ms"},
	{"evm.batch_txs", "count"},
	{"evm.sender_cache_hit_ratio", "ratio"},
	{"evm.staticcall_ms", "ms"},
	{"evm.sign_tx_ms", "ms"},
	{"secp256k1.sign_us", "us"},
	{"secp256k1.recover_us", "us"},
	{"gas.verify_per_tx", "gas"},
	{"gas.bitmap_per_tx", "gas"},
	{"gas.app_per_tx", "gas"},
	{"producer.queue_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_per_1k_ops", "count"},
}

// snapshot holds the cumulative counters a timed phase is measured
// against.
type snapshot struct {
	cpu                  time.Duration
	mem                  runtime.MemStats
	issue, prevalidate   histo
	commit, batch        histo
	tokHit, tokMiss      uint64
	senderHit, senderMis uint64
}

type histo struct {
	sum float64
	n   uint64
}

func readHisto(reg *metrics.Registry, name string) histo {
	h := reg.Histogram(name, "", nil)
	return histo{h.Sum(), h.Count()}
}

func takeSnapshot(reg *metrics.Registry) snapshot {
	var s snapshot
	s.cpu = cpuTime()
	runtime.ReadMemStats(&s.mem)
	s.issue = readHisto(reg, ts.MetricIssueSeconds)
	s.prevalidate = readHisto(reg, evm.MetricPrevalidateSeconds)
	s.commit = readHisto(reg, evm.MetricCommitSeconds)
	s.batch = readHisto(reg, evm.MetricBatchSize)
	s.tokHit, s.tokMiss = core.TokenSigCacheStats()
	s.senderHit, s.senderMis = evm.SenderCacheStats()
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passResult is one set-up-and-measure pass.
type passResult struct {
	st       *laneStats
	start    time.Time
	elapsed  time.Duration
	setups   []float64   // seconds per set-up
	issued   issueRecord // every set-up's token requests
	problems []string
	e2e      map[string]float64
	goStats  map[string]float64 // the go.* per-layer metrics
	layers   map[string]float64 // traced passes only
}

// run performs the configured run: one untraced pass, or with trace an
// untraced and a traced pass whose difference is the tracing overhead.
func run(cfg *runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "perfbench %s seed=%d seconds=%g lanes=%d trace=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.lanes, cfg.trace)
	if !cfg.trace {
		p, err := pass(cfg, nil, cfg.setups)
		if err != nil {
			return nil, err
		}
		return p.result(endToEnd, p.e2e), nil
	}
	base, err := pass(cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := pass(cfg, tr, 1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.out, "per-layer spans of the traced pass:")
	writeTable(cfg.out, tr.summarize())
	fmt.Fprintln(cfg.out, "tracing overhead (traced pass against the untraced pass):")
	for _, m := range endToEnd {
		b, t := base.e2e[m.name], traced.e2e[m.name]
		fmt.Fprintf(cfg.out, "  %-14s untraced %12.4f  traced %12.4f  %+7.1f%% %s\n", m.name, b, t, pct(t, b), m.unit)
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	// The tracer allocates too, so the allocation figures are the
	// untraced pass's.
	for k, v := range base.goStats {
		traced.layers[k] = v
	}
	res := traced.result(perLayer, traced.layers)
	res.Correct = res.Correct && len(base.problems) == 0
	res.Attempted += base.st.attempted
	res.Failed += base.st.failed
	return res, nil
}

func (p *passResult) result(specs []metricSpec, values map[string]float64) *result {
	res := &result{
		Correct:   len(p.problems) == 0,
		Attempted: p.st.attempted,
		Failed:    p.st.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, m := range specs {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res
}

// pass stands the workload up setups times (keeping the last), runs the
// timed phase on it and checks the outputs.
func pass(cfg *runConfig, tr *tracer, setups int) (*passResult, error) {
	wl := workloads[cfg.workload]
	p := &passResult{}
	var w world
	for i := 0; i < setups; i++ {
		if w != nil {
			w.system().close()
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), i))
		start := time.Now()
		var err error
		if w, err = wl.setup(cfg, tr, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warmup(); err != nil {
			w.system().close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		p.issued.add(w.system().issued)
	}
	s := w.system()
	defer s.close()

	s0 := takeSnapshot(s.reg)
	if tr != nil {
		tr.on.Store(true)
	}
	p.start = time.Now()
	lanes, err := w.timed(p.start.Add(time.Duration(cfg.seconds * float64(time.Second))))
	p.elapsed = time.Since(p.start)
	if tr != nil {
		tr.on.Store(false)
	}
	s1 := takeSnapshot(s.reg)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	p.st = merge(lanes)
	var signUs, recoverUs float64
	if tr != nil {
		if signUs, recoverUs, err = tr.replaySigs(); err != nil {
			return nil, err
		}
	}
	p.problems = w.check()
	if p.st.failed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d of %d operations failed", p.st.failed, p.st.attempted))
	}
	if c, limit := s.conns.Load(), int64(cfg.lanes)+1; c > limit {
		p.problems = append(p.problems, fmt.Sprintf(
			"the Token Service accepted %d connections; lanes and set-up may hold at most %d", c, limit))
	}
	p.e2e = p.endToEnd(s1.cpu-s0.cpu, wl.setupTokens)
	p.goStats = goStats(s0, s1, p.st.ops)
	if tr != nil {
		p.layers = p.layerMetrics(tr, s0, s1, signUs, recoverUs)
	}
	p.report(cfg)
	return p, nil
}

// endToEnd computes the end-to-end metrics; with setupTokens the token
// metrics are those of the set-ups' token requests.
func (p *passResult) endToEnd(cpu time.Duration, setupTokens bool) map[string]float64 {
	st, secs := p.st, p.elapsed.Seconds()
	tokensPerS, tokenLat := float64(st.tokens)/secs, append([]float64(nil), st.tokenLat...)
	if setupTokens {
		tokensPerS = ratio(float64(p.issued.tokens), p.issued.wall.Seconds())
		tokenLat = append([]float64(nil), p.issued.lat...)
	}
	return map[string]float64{
		"tx_per_s":      float64(st.txs) / secs,
		"tokens_per_s":  tokensPerS,
		"op_p50_ms":     quantile(st.opLat, 0.5),
		"op_p90_ms":     quantile(st.opLat, 0.9),
		"token_p50_ms":  quantile(tokenLat, 0.5),
		"cpu_ms_per_op": mean(ms(cpu), st.ops),
		"gas_per_tx":    mean(float64(st.gas), st.txs),
		"max_rss_mb":    maxRSSMB(),
		"setup_s":       quantile(append([]float64(nil), p.setups...), 0.5),
	}
}

func (p *passResult) layerMetrics(tr *tracer, s0, s1 snapshot, signUs, recoverUs float64) map[string]float64 {
	l := tr.summarize()
	c := tr.countsCopy()
	st := p.st
	tokens := float64(st.tokens)
	batchTxs := s1.batch.sum - s0.batch.sum
	gasPer := func(cat gas.Category) float64 { return mean(float64(st.gasCat[cat]), st.txs) }
	return map[string]float64{
		"tshttp.rtt_ms":                    l[spanRTT].meanMs(),
		"tshttp.server_ms":                 l[spanServer].meanMs(),
		"tshttp.tokens_per_call":           ratio(float64(c[countTokensReq]), float64(c[countTokenCalls])),
		"ts.issue_ms":                      ratio(1000*(s1.issue.sum-s0.issue.sum), float64(s1.issue.n-s0.issue.n)),
		"ts.counter_next_us":               1000 * l[spanCounterNext].meanMs(),
		"replicanet.lease_ms":              l[spanLease].meanMs(),
		"replicanet.leases_per_1k_tokens":  ratio(1000*float64(count(l[spanLease])), tokens),
		"store.wal_append_ms":              l[spanWALAppend].meanMs(),
		"store.wal_appends_per_1k_tokens":  ratio(1000*float64(count(l[spanWALAppend])), tokens),
		"rtverify.validate_ms":             l[spanValidate].meanMs(),
		"rtverify.denials_per_1k_requests": ratio(1000*float64(c[countDenials]), float64(c[countTokensReq])),
		"core.prehook_ms_per_tx":           ratio(l[spanPrehook].totalMs(), float64(c[countPrehookTxs])),
		"core.token_cache_hit_ratio":       hitRatio(s1.tokHit-s0.tokHit, s1.tokMiss-s0.tokMiss),
		"core.sign_request_ms":             l[spanSignRequest].meanMs(),
		"evm.execute_ms_per_tx":            ratio(l[spanExecute].totalMs(), batchTxs),
		"evm.prevalidate_ms_per_tx":        ratio(1000*(s1.prevalidate.sum-s0.prevalidate.sum), batchTxs),
		"evm.commit_ms_per_tx":             ratio(1000*(s1.commit.sum-s0.commit.sum), batchTxs),
		"evm.batch_txs":                    ratio(batchTxs, float64(s1.batch.n-s0.batch.n)),
		"evm.sender_cache_hit_ratio":       hitRatio(s1.senderHit-s0.senderHit, s1.senderMis-s0.senderMis),
		"evm.staticcall_ms":                l[spanStaticCall].meanMs(),
		"evm.sign_tx_ms":                   l[spanSignTx].meanMs(),
		"secp256k1.sign_us":                signUs,
		"secp256k1.recover_us":             recoverUs,
		"gas.verify_per_tx":                gasPer(gas.CatVerify),
		"gas.bitmap_per_tx":                gasPer(gas.CatBitmap),
		"gas.app_per_tx":                   gasPer(gas.CatApp),
		"producer.queue_ms":                mean(ms(st.queue), st.txs),
	}
}

// goStats computes the Go runtime's allocation and GC figures over a
// timed phase.
func goStats(s0, s1 snapshot, ops int) map[string]float64 {
	return map[string]float64{
		"go.allocs_per_op":      mean(float64(s1.mem.Mallocs-s0.mem.Mallocs), ops),
		"go.alloc_bytes_per_op": mean(float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc), ops),
		"go.gc_per_1k_ops":      mean(1000*float64(s1.mem.NumGC-s0.mem.NumGC), ops),
	}
}

// report prints the pass's human-readable summary.
func (p *passResult) report(cfg *runConfig) {
	st := p.st
	op := append([]float64(nil), st.opLat...)
	tok := append([]float64(nil), st.tokenLat...)
	fmt.Fprintf(cfg.out, "  set-up %s s (median %.4f); timed %.3f s\n",
		fmtList(p.setups), p.e2e["setup_s"], p.elapsed.Seconds())
	iss := append([]float64(nil), p.issued.lat...)
	fmt.Fprintf(cfg.out, "  set-up token requests: %d tokens in %d calls over %.4f s, round trip p50 %.4f ms\n",
		p.issued.tokens, len(iss), p.issued.wall.Seconds(), quantile(iss, 0.5))
	fmt.Fprintf(cfg.out, "  operations: %d attempted, %d completed, %d failed; %d txs committed, %d tokens issued\n",
		st.attempted, st.ops, st.failed, st.txs, st.tokens)
	fmt.Fprintf(cfg.out, "  op latency ms: p50 %.4f p90 %.4f p99 %.4f over %d samples\n",
		quantile(op, 0.5), quantile(op, 0.9), quantile(op, 0.99), len(op))
	fmt.Fprintf(cfg.out, "  token round trip ms: p50 %.4f p90 %.4f p99 %.4f over %d calls\n",
		quantile(tok, 0.5), quantile(tok, 0.9), quantile(tok, 0.99), len(tok))
	fmt.Fprintf(cfg.out, "  txs per second of the timed phase: %v\n", p.timeline())
	for _, m := range endToEnd {
		fmt.Fprintf(cfg.out, "  %-14s %14.4f %s\n", m.name, p.e2e[m.name], m.unit)
	}
	if len(p.problems) == 0 {
		fmt.Fprintln(cfg.out, "  checks: all passed")
		return
	}
	fmt.Fprintf(cfg.out, "  checks: %d FAILED\n", len(p.problems))
	for i, pr := range p.problems {
		if i == 20 {
			fmt.Fprintf(cfg.out, "    … %d more\n", len(p.problems)-i)
			break
		}
		fmt.Fprintf(cfg.out, "    %s\n", pr)
	}
}

// timeline counts committed transactions per whole second of the timed
// phase.
func (p *passResult) timeline() []int {
	out := make([]int, int(p.elapsed.Seconds())+1)
	for _, e := range p.st.ends {
		if i := int(e.Sub(p.start).Seconds()); i >= 0 && i < len(out) {
			out[i]++
		}
	}
	return out
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func count(l *layer) int64 {
	if l == nil {
		return 0
	}
	return l.n
}

func pct(v, base float64) float64 { return 100 * ratio(v-base, base) }

// warmupErr fails a set-up whose warm-up operations did not all succeed.
func warmupErr(st *laneStats) error {
	if st.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed", st.failed, st.attempted)
	}
	return nil
}
