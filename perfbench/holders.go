package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/transform"
	"repro/internal/types"
)

// holders-reuse: holders present long-lived method tokens they received
// during set-up, so the Token Service is off the hot path and the token
// recovery cache hits. A window is holdersWindow guarded set() writes
// through the block producer with holdersReads guarded get() reads
// through Chain.StaticCall beside them. The timed phase requests no
// token; the workload's token metrics are those of set-up's issuance.
const (
	holdersPopulation = 512 // well below the 4096-entry recovery caches
	holdersWindow     = 16
	holdersReads      = 8
)

type holder struct {
	idx    int
	key    *secp256k1.PrivateKey
	nonce  uint64
	writes int // committed set() writes; the value of the k-th is idx<<32 | k
	setTok core.Token
	getTok core.Token
}

type holdersLane struct {
	holders []*holder
	next    int
	nextR   int
	st      *laneStats
	reads   []uint64
}

type holdersWorld struct {
	s       *system
	storage types.Address
	holders []*holder
	lanes   []*holdersLane
	// last is the value of the last committed write; the producer
	// goroutine sets it, in block order.
	last uint64
}

func setupHolders(cfg *runConfig, tr *tracer, dir string) (world, error) {
	n := holdersPopulation
	if cfg.small {
		n = 4 * holdersWindow * cfg.lanes
	}
	holderKeys := keys(cfg.seed, "holder", n)
	owner := key(cfg.seed, "owner", 0)
	s, err := newSystem(tr, dir, cfg.lanes, cfg.seed, tsOptions{senders: addrs(holderKeys)})
	if err != nil {
		return nil, err
	}
	w := &holdersWorld{s: s}
	verifier := core.NewVerifier(s.tsKey.Address())
	if w.storage, err = s.deploy(owner.Address(), transform.Enable(contracts.NewSimpleStorage(), verifier),
		addrs(holderKeys)); err != nil {
		s.close()
		return nil, err
	}
	// Each holder receives its long-lived set() and get() method tokens.
	reqs := make([]*core.Request, 0, 2*n)
	ks := make([]*secp256k1.PrivateKey, 0, 2*n)
	for _, k := range holderKeys {
		for _, m := range []string{"set(uint256)", "get()"} {
			reqs = append(reqs, &core.Request{Type: core.MethodType, Contract: w.storage, Sender: k.Address(), Method: m})
			ks = append(ks, k)
		}
	}
	toks, err := s.issueSetup(reqs, ks)
	if err != nil {
		s.close()
		return nil, err
	}
	for i, k := range holderKeys {
		w.holders = append(w.holders, &holder{idx: i, key: k, setTok: toks[2*i], getTok: toks[2*i+1]})
	}
	for i := 0; i < cfg.lanes; i++ {
		w.lanes = append(w.lanes, &holdersLane{st: &laneStats{}})
	}
	for j, hi := range rand.New(rand.NewSource(cfg.seed)).Perm(n) {
		l := w.lanes[j%cfg.lanes]
		l.holders = append(l.holders, w.holders[hi])
	}
	return w, nil
}

func (w *holdersWorld) system() *system { return w.s }

// warmup commits a first write, so that every read finds a committed
// value, then, one lane after another, runs windows until every holder
// has written once, and reads once with every holder's get() token: the
// timed phase then finds every held token's signer in the recovery
// cache.
func (w *holdersWorld) warmup() error {
	var wg sync.WaitGroup
	h := w.holders[0]
	o, tx, err := w.write(h, time.Now(), 0, -1)
	if err != nil {
		return err
	}
	o.submit(w.s.prod, tx, &wg)
	wg.Wait()
	if !o.ok() {
		return fmt.Errorf("first write: %v", o.res.Err)
	}
	h.writes++
	return inTurn(len(w.lanes), func(i int) error {
		l := w.lanes[i]
		for l.next < len(l.holders) {
			if err := w.window(l); err != nil {
				return err
			}
		}
		for _, h := range l.holders {
			if _, err := w.s.call(h.key.Address(), w.storage, "get", nil, h.getTok); err != nil {
				return err
			}
		}
		return warmupErr(l.st)
	})
}

func (w *holdersWorld) timed(deadline time.Time) ([]*laneStats, error) {
	err := eachLane(len(w.lanes), func(i int) error {
		l := w.lanes[i]
		l.st = &laneStats{}
		for time.Now().Before(deadline) {
			if err := w.window(l); err != nil {
				return err
			}
		}
		return nil
	})
	out := make([]*laneStats, len(w.lanes))
	for i, l := range w.lanes {
		out[i] = l.st
	}
	return out, err
}

func (w *holdersWorld) window(l *holdersLane) error {
	s, tr := w.s, w.s.tr
	op := tr.op()
	start := time.Now()
	root := tr.open(op, -1, spanWindow, start)
	hs := make([]*holder, holdersWindow)
	for j := range hs {
		hs[j] = l.holders[l.next%len(l.holders)]
		l.next++
	}

	// The window's writes are signed first and handed over as one
	// bundle, which runs as one block.
	ops := make([]*txOp, len(hs))
	txs := make([]*evm.Transaction, len(hs))
	for j, h := range hs {
		l.st.attempted++
		var err error
		if ops[j], txs[j], err = w.write(h, time.Now(), op, root); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	handOver(s.prod, &wg, ops, txs)

	// Guarded reads run while the writes wait for their block.
	end := start
	for r := 0; r < holdersReads; r++ {
		h := l.holders[l.nextR%len(l.holders)]
		l.nextR++
		l.st.attempted++
		t0 := time.Now()
		ret, err := s.call(h.key.Address(), w.storage, "get", nil, h.getTok)
		t1 := time.Now()
		tr.add(op, root, spanStaticCall, t0, t1)
		v, ok := uint64(0), false
		if err == nil && len(ret) == 1 {
			v, ok = ret[0].(uint64)
		}
		if !ok {
			l.st.failed++
			continue
		}
		l.st.ops++
		l.st.opLat = append(l.st.opLat, ms(t1.Sub(t0)))
		l.reads = append(l.reads, v)
		end = t1
	}

	wg.Wait()
	for j, o := range ops {
		if l.st.commit(o, tr, op, root) {
			hs[j].writes++
		} else {
			hs[j].nonce = s.chain.NonceOf(hs[j].key.Address())
		}
		end = later(end, o.end)
	}
	tr.close(root, end)
	return nil
}

// write signs h's next set(). Its value names the holder and the
// write's sequence number.
func (w *holdersWorld) write(h *holder, start time.Time, op uint64, root int32) (*txOp, *evm.Transaction, error) {
	value := uint64(h.idx)<<32 | uint64(h.writes+1)
	tx := &evm.Transaction{
		Nonce: h.nonce, To: w.storage, Value: new(big.Int), GasLimit: txGasLimit, GasPrice: big.NewInt(1),
		Method: "set", Args: []any{value}, Tokens: [][]byte{core.EncodeEntry(w.storage, h.setTok)},
	}
	if err := w.s.signTx(tx, h.key, op, root); err != nil {
		return nil, nil, err
	}
	h.nonce++
	return &txOp{start: start, onOK: func() { w.last = value }}, tx, nil
}

func (w *holdersWorld) check() []string {
	var bad []string
	s := w.s
	for _, h := range w.holders {
		if got := s.chain.NonceOf(h.key.Address()); got != uint64(h.writes) {
			bad = append(bad, fmt.Sprintf("holder %d nonce %d, want %d accepted writes", h.idx, got, h.writes))
		}
	}
	for _, l := range w.lanes {
		for _, v := range l.reads {
			idx, k := int(v>>32), int(v&0xffffffff)
			if idx >= len(w.holders) || k < 1 || k > w.holders[idx].writes {
				bad = append(bad, fmt.Sprintf("read %#x is no committed write", v))
				break
			}
		}
	}
	h := w.holders[0]
	ret, err := s.call(h.key.Address(), w.storage, "get", nil, h.getTok)
	if err != nil {
		return append(bad, fmt.Sprintf("final read: %v", err))
	}
	if v, _ := ret[0].(uint64); v != w.last || v == 0 {
		bad = append(bad, fmt.Sprintf("final value %#x, want the last committed write %#x", v, w.last))
	}
	return bad
}
