package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/evm"
	"repro/internal/gas"
)

// txOp is one guarded transaction in flight. The producer fills res and
// the block times before calling wg.Done.
type txOp struct {
	start  time.Time // latency origin
	handed time.Time
	res    evm.BatchResult
	exec   time.Time // start of the Execute call that ran it
	end    time.Time
	// onOK, when set, runs on the producer goroutine, in block order,
	// if the transaction committed.
	onOK func()
}

func (o *txOp) submit(p *producer, tx *evm.Transaction, wg *sync.WaitGroup) {
	handOver(p, wg, []*txOp{o}, []*evm.Transaction{tx})
}

// handOver hands txs[i] for every non-nil ops[i] to the producer as one
// bundle.
func handOver(p *producer, wg *sync.WaitGroup, ops []*txOp, txs []*evm.Transaction) {
	now := time.Now()
	bundle := make([]submission, 0, len(ops))
	for i, o := range ops {
		if o == nil {
			continue
		}
		o := o
		wg.Add(1)
		o.handed = now
		bundle = append(bundle, submission{tx: txs[i], done: func(res evm.BatchResult, exec, end time.Time) {
			o.res, o.exec, o.end = res, exec, end
			if o.onOK != nil && o.ok() {
				o.onOK()
			}
			wg.Done()
		}})
	}
	if len(bundle) > 0 {
		p.submit(bundle)
	}
}

func (o *txOp) ok() bool { return o.res.Err == nil && o.res.Receipt != nil && o.res.Receipt.Status }

// laneStats is one load lane's record of the timed phase.
type laneStats struct {
	attempted, failed int
	ops               int       // completed operations
	opLat             []float64 // ms per completed op
	tokenLat          []float64 // ms per RequestTokens call
	txs               int       // committed guarded transactions
	tokens            int       // tokens issued
	gas               uint64
	gasCat            map[gas.Category]uint64
	queue             time.Duration // hand-over to Execute start, summed over txs
	ends              []time.Time   // commit time per committed transaction
}

// issueRecord is set-up's record of its token requests.
type issueRecord struct {
	lat    []float64 // ms per RequestTokens call
	tokens int
	wall   time.Duration // from the first proof's signing to the last response
}

func (r *issueRecord) add(o issueRecord) {
	r.lat = append(r.lat, o.lat...)
	r.tokens += o.tokens
	r.wall += o.wall
}

// commit folds a finished transaction into the stats and records its
// queue and block spans under op; it reports whether the tx committed.
func (st *laneStats) commit(o *txOp, tr *tracer, op uint64, parent int32) bool {
	if !o.ok() {
		st.failed++
		return false
	}
	tr.add(op, parent, spanQueue, o.handed, o.exec)
	tr.add(op, parent, spanBlock, o.exec, o.end)
	st.ops++
	st.txs++
	st.opLat = append(st.opLat, ms(o.end.Sub(o.start)))
	st.queue += o.exec.Sub(o.handed)
	st.ends = append(st.ends, o.end)
	rec := o.res.Receipt
	st.gas += rec.GasUsed
	if st.gasCat == nil {
		st.gasCat = make(map[gas.Category]uint64)
	}
	for c, g := range rec.GasByCategory {
		st.gasCat[c] += g
	}
	return true
}

// merge folds lane records into one.
func merge(lanes []*laneStats) *laneStats {
	out := &laneStats{gasCat: make(map[gas.Category]uint64)}
	for _, l := range lanes {
		out.attempted += l.attempted
		out.failed += l.failed
		out.ops += l.ops
		out.opLat = append(out.opLat, l.opLat...)
		out.tokenLat = append(out.tokenLat, l.tokenLat...)
		out.txs += l.txs
		out.tokens += l.tokens
		out.gas += l.gas
		for c, g := range l.gasCat {
			out.gasCat[c] += g
		}
		out.queue += l.queue
		out.ends = append(out.ends, l.ends...)
	}
	return out
}

// eachLane runs f for every lane on its own goroutine and waits for all.
func eachLane(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// inTurn runs f for every lane, one lane after another. Warm-ups use
// it: run concurrently, their lanes' interleaving made set-up time vary
// by a factor of two within one run.
func inTurn(n int, f func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics (the same rule as numpy's default); samples
// is sorted in place. It returns 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(samples)-1)
	return samples[lo] + (samples[hi]-samples[lo])*(pos-float64(lo))
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
