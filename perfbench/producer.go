package main

import (
	"time"

	"repro/internal/evm"
)

// blockMaxTxs is the block size the producer fills to before it stops
// taking further hand-overs into a block. A closed-loop lane hands over
// its whole window of this many transactions as one bundle.
const blockMaxTxs = 16

// submission is one signed transaction handed to the block producer.
// done runs on the producer goroutine once the block holding the
// transaction has executed.
type submission struct {
	tx   *evm.Transaction
	done func(res evm.BatchResult, execStart, end time.Time)
}

// producer is the benchmark's block producer. Whenever it is free it
// executes, through Chain.Execute, every bundle handed over by then, up
// to blockMaxTxs transactions: its maximum wait to fill a block is zero,
// so latency never includes waiting for a full block, and blocks grow
// only while earlier blocks execute. Bundles are never split, so a
// closed-loop window runs as one block.
type producer struct {
	chain *evm.Chain
	opts  evm.ExecOptions
	tr    *tracer
	in    chan []submission
	done  chan struct{}
}

func startProducer(chain *evm.Chain, opts evm.ExecOptions, tr *tracer) *producer {
	p := &producer{
		chain: chain,
		opts:  opts,
		tr:    tr,
		// One slot per lane would do; a few more keep lanes from
		// blocking on the hand-over while a block executes.
		in:   make(chan []submission, blockMaxTxs),
		done: make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *producer) submit(bundle []submission) { p.in <- bundle }

// stop drains every pending hand-over and waits for the producer to exit.
func (p *producer) stop() {
	close(p.in)
	<-p.done
}

func (p *producer) loop() {
	defer close(p.done)
	batch := make([]submission, 0, 2*blockMaxTxs)
	for {
		first, ok := <-p.in
		if !ok {
			return
		}
		batch = append(batch[:0], first...)
		open := true
	fill:
		for len(batch) < blockMaxTxs {
			select {
			case b, ok := <-p.in:
				if !ok {
					open = false
					break fill
				}
				batch = append(batch, b...)
			default:
				break fill
			}
		}
		p.execute(batch)
		if !open {
			return
		}
	}
}

// execute runs one block and reports every transaction's outcome.
func (p *producer) execute(batch []submission) {
	txs := make([]*evm.Transaction, len(batch))
	for i, s := range batch {
		txs[i] = s.tx
	}
	start := time.Now()
	results := p.chain.Execute(txs, p.opts)
	end := time.Now()
	p.tr.add(0, -1, spanExecute, start, end)
	for i, s := range batch {
		s.done(results[i], start, end)
	}
}
