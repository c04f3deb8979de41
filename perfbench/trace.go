package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/ts"
)

// Span names. Client-side spans carry the identifier of the operation
// (or window of operations sharing one token round trip) they belong to;
// server-side spans carry op 0 and are totalled per layer, because the
// program does not propagate a request identifier to its server side.
const (
	spanWindow      = "client.window"      // root of one window of operations
	spanSignRequest = "core.sign_request"  // proof of possession
	spanRTT         = "tshttp.rtt"         // client RequestTokens call
	spanSignTx      = "evm.sign_tx"        // evm.SignTx
	spanQueue       = "producer.queue"     // hand-over to the start of Execute
	spanBlock       = "producer.block"     // the Execute call the op rode in
	spanStaticCall  = "evm.staticcall"     // guarded read
	spanServer      = "tshttp.server"      // HTTP handler, server side
	spanCounterNext = "ts.counter_next"    // ts.Config.Counter.Next
	spanLease       = "replicanet.lease"   // coordinator Next (one block lease)
	spanWALAppend   = "store.wal_append"   // replica WAL append
	spanValidate    = "rtverify.validate"  // ts.Validator.Validate
	spanPrehook     = "core.prehook"       // core.BatchTokenPrehook sub-batch
	spanExecute     = "evm.execute"        // Chain.Execute
	countDenials    = "rtverify.denials"   // validator vetoes
	countPrehookTxs = "core.prehook_txs"   // transactions seen by the prehook
	countTokenCalls = "tshttp.token_calls" // RequestTokens calls
	countTokensReq  = "tshttp.tokens_req"  // token requests in those calls
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; End is -1 while the span is open.
type span struct {
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps a traced run's spans and boundary counts in memory until
// the run ends. A nil *tracer records nothing: untraced runs pass nil
// and install none of the wrappers in this file, so their end-to-end
// figures carry no tracing cost.
type tracer struct {
	t0     time.Time
	on     atomic.Bool // spans are kept only during the timed phase
	nextOp atomic.Uint64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	sigs   []sigSample
}

// sigSample is one transaction signature the timed phase made, kept for
// replay through secp256k1 after it.
type sigSample struct {
	key    *secp256k1.PrivateKey
	digest [32]byte
	sig    secp256k1.Signature
}

// maxSigSamples bounds the signatures kept for the replay.
const maxSigSamples = 256

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// op allocates an operation identifier shared by one operation's
// client-side spans.
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// open starts a span and returns its index (-1 when not recording).
func (t *tracer) open(op uint64, parent int32, name string, start time.Time) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: -1})
	return int32(len(t.spans) - 1)
}

// close ends the span open returned.
func (t *tracer) close(idx int32, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
}

// add records a finished span.
func (t *tracer) add(op uint64, parent int32, name string, start, end time.Time) {
	if idx := t.open(op, parent, name, start); idx >= 0 {
		t.close(idx, end)
	}
}

// count adds n to a boundary counter.
func (t *tracer) count(name string, n int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

// sampleSig keeps a signature for replaySigs, up to maxSigSamples.
func (t *tracer) sampleSig(k *secp256k1.PrivateKey, digest [32]byte, sig secp256k1.Signature) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sigs) < maxSigSamples {
		t.sigs = append(t.sigs, sigSample{k, digest, sig})
	}
}

// replaySigs runs the kept digests and signatures through secp256k1.Sign
// and secp256k1.RecoverAddress and returns the mean time of each in µs.
func (t *tracer) replaySigs() (signUs, recoverUs float64, err error) {
	t.mu.Lock()
	sigs := t.sigs
	t.mu.Unlock()
	var signT, recT time.Duration
	for _, s := range sigs {
		start := time.Now()
		if _, err := secp256k1.Sign(s.key, s.digest); err != nil {
			return 0, 0, fmt.Errorf("replay sign: %w", err)
		}
		mid := time.Now()
		a, err := secp256k1.RecoverAddress(s.digest, s.sig)
		recT += time.Since(mid)
		signT += mid.Sub(start)
		if err != nil || a != s.key.Address() {
			return 0, 0, fmt.Errorf("replay recover: got %s, %v; want %s", a, err, s.key.Address())
		}
	}
	n := float64(len(sigs))
	return ratio(float64(signT)/1e3, n), ratio(float64(recT)/1e3, n), nil
}

func (t *tracer) countsCopy() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// layer is the per-name summary of the recorded spans.
type layer struct {
	n     int64
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
	// nested reports that some span of this name has children.
	nested bool
}

// mean returns the mean span duration in ms (0 without spans).
func (l *layer) meanMs() float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.total) / float64(l.n) / 1e6
}

// totalMs returns the summed span duration in ms.
func (l *layer) totalMs() float64 {
	if l == nil {
		return 0
	}
	return float64(l.total) / 1e6
}

// summarize folds the closed spans into per-name totals and self time.
func (t *tracer) summarize() map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layer)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		dur := time.Duration(s.End - s.Start)
		l.n++
		l.total += dur
		kids := children[int32(i)]
		l.self += dur - covered(s, kids)
		l.nested = l.nested || len(kids) > 0
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// writeTable prints the per-layer span table: count, mean, total and,
// where spans nest, self time.
func writeTable(w io.Writer, layers map[string]*layer) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-22s %9s %11s %12s %12s\n", "span", "count", "mean_ms", "total_ms", "self_ms")
	for _, n := range names {
		l := layers[n]
		self := "-"
		if l.nested {
			self = fmt.Sprintf("%.3f", float64(l.self)/1e6)
		}
		fmt.Fprintf(w, "  %-22s %9d %11.4f %12.3f %12s\n", n, l.n, l.meanMs(), l.totalMs(), self)
	}
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans, "counts": t.counts}); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}

// The pass-through wrappers below are installed only in traced runs,
// each around one layer boundary the program exposes as an interface or
// a function value.

// tracedCounter times a ts.Counter: the one ts.Config.Counter hands the
// service (ts.counter_next) or the coordinator handed to the
// ShardedCounter (replicanet.lease).
type tracedCounter struct {
	next ts.Counter
	name string
	tr   *tracer
}

func (c tracedCounter) Next() (int64, error) {
	start := time.Now()
	n, err := c.next.Next()
	c.tr.add(0, -1, c.name, start, time.Now())
	return n, err
}

// tracedBackend times the WAL appends of a replica's store.Backend.
type tracedBackend struct {
	store.Backend
	tr *tracer
}

func (b tracedBackend) Append(rec store.Record) error {
	start := time.Now()
	err := b.Backend.Append(rec)
	b.tr.add(0, -1, spanWALAppend, start, time.Now())
	return err
}

// tracedValidator times a ts.Validator and counts its vetoes.
type tracedValidator struct {
	ts.Validator
	tr *tracer
}

func (v tracedValidator) Validate(req *core.Request) error {
	start := time.Now()
	err := v.Validator.Validate(req)
	v.tr.add(0, -1, spanValidate, start, time.Now())
	if err != nil {
		v.tr.count(countDenials, 1)
	}
	return err
}

// tracedHandler times the Token Service's HTTP handler.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if strings.HasPrefix(r.URL.Path, "/v1/token") {
			tr.add(0, -1, spanServer, start, time.Now())
		}
	})
}

// tracedPrehook times core.BatchTokenPrehook per sub-batch.
func tracedPrehook(hook func([]*evm.Transaction), tr *tracer) func([]*evm.Transaction) {
	return func(txs []*evm.Transaction) {
		start := time.Now()
		hook(txs)
		tr.add(0, -1, spanPrehook, start, time.Now())
		tr.count(countPrehookTxs, int64(len(txs)))
	}
}
