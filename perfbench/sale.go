package main

import (
	"errors"
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
	"repro/internal/tshttp"
	"repro/internal/types"
)

// sale-onetime: a closed-loop token-sale rush. Every buy pays the full
// issuance path — proof of possession, rule check, a one-time index
// from the replicated counter, token signing — and every token is used
// exactly once, so no recovery cache can carry the cost.
const (
	saleWindow   = 16 // one-time super tokens per POST /v1/tokens
	saleRate     = 100
	buyWei       = 5
	saleLifetime = 2 * time.Minute
	// saleDesignRate is the peak buy rate (tx/s) the sale's bitmap is
	// sized for by the § IV-C rule: lifetime × rate.
	saleDesignRate = 1000
	replaySample   = 32
	// saleWarmupWindows is the fixed warm-up per lane: enough buys that
	// set-up is mostly the same CPU-bound work as the timed phase.
	saleWarmupWindows = 8
)

type buyer struct {
	key   *secp256k1.PrivateKey
	nonce uint64
	buys  int
	last  core.Token // the buyer's most recently spent token
}

type saleLane struct {
	cl      *tshttp.Client
	buyers  []*buyer
	next    int
	st      *laneStats
	indexes []int64
}

type saleWorld struct {
	s        *system
	seed     int64
	sale     types.Address
	auditor  *secp256k1.PrivateKey
	auditTok core.Token
	lanes    []*saleLane
}

func setupSale(cfg *runConfig, tr *tracer, dir string) (world, error) {
	nBuyers := 512
	if cfg.small {
		nBuyers = 4 * saleWindow * cfg.lanes
	}
	buyerKeys := keys(cfg.seed, "buyer", nBuyers)
	auditor := key(cfg.seed, "auditor", 0)
	owner := key(cfg.seed, "owner", 0)
	s, err := newSystem(tr, dir, cfg.lanes, cfg.seed, tsOptions{
		lifetime:   saleLifetime,
		replicated: true,
		senders:    addrs(buyerKeys, []*secp256k1.PrivateKey{auditor}),
	})
	if err != nil {
		return nil, err
	}
	w := &saleWorld{s: s, seed: cfg.seed, auditor: auditor}
	// § IV-C: lifetime × peak rate, plus the sharded counter's spread.
	bits := core.SizeFor(saleLifetime.Seconds(), saleDesignRate) + int(s.sharded.MaxSpread())
	bm, err := core.NewBitmap(bits, 1<<32)
	if err != nil {
		s.close()
		return nil, err
	}
	verifier := core.NewVerifier(s.tsKey.Address()).WithBitmap(bm)
	if w.sale, err = s.deploy(owner.Address(), transform.Enable(contracts.NewTokenSale(saleRate), verifier),
		addrs(buyerKeys)); err != nil {
		s.close()
		return nil, err
	}
	toks, err := s.issueSetup([]*core.Request{{Type: core.SuperType, Contract: w.sale, Sender: auditor.Address()}},
		[]*secp256k1.PrivateKey{auditor})
	if err != nil {
		s.close()
		return nil, err
	}
	w.auditTok = toks[0]
	// Buyers are dealt to lanes in a seeded order, so each lane owns its
	// buyers' nonces.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(nBuyers)
	for i := 0; i < cfg.lanes; i++ {
		w.lanes = append(w.lanes, &saleLane{cl: s.clients[i], st: &laneStats{}})
	}
	for j, bi := range order {
		l := w.lanes[j%cfg.lanes]
		l.buyers = append(l.buyers, &buyer{key: buyerKeys[bi]})
	}
	return w, nil
}

func (w *saleWorld) system() *system { return w.s }

// warmup runs saleWarmupWindows windows per lane, one lane after another.
func (w *saleWorld) warmup() error {
	return inTurn(len(w.lanes), func(i int) error {
		for n := 0; n < saleWarmupWindows; n++ {
			if err := w.window(w.lanes[i]); err != nil {
				return err
			}
		}
		return warmupErr(w.lanes[i].st)
	})
}

func (w *saleWorld) timed(deadline time.Time) ([]*laneStats, error) {
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

// window requests saleWindow one-time super tokens in one POST, then
// sends one signed buy() per token and waits for every commit.
func (w *saleWorld) window(l *saleLane) error {
	s, tr := w.s, w.s.tr
	bs := make([]*buyer, saleWindow)
	reqs := make([]*core.Request, saleWindow)
	ks := make([]*secp256k1.PrivateKey, saleWindow)
	for j := range bs {
		b := l.buyers[l.next%len(l.buyers)]
		l.next++
		bs[j], ks[j] = b, b.key
		reqs[j] = &core.Request{Type: core.SuperType, Contract: w.sale, Sender: b.key.Address(), OneTime: true}
	}
	op := tr.op()
	start := time.Now()
	root := tr.open(op, -1, spanWindow, start)
	res, rtt, err := s.requestTokens(l.cl, reqs, ks, op, root)
	if err != nil {
		return err
	}
	l.st.tokenLat = append(l.st.tokenLat, ms(rtt))
	// The buys are signed first and handed over as one bundle, which runs
	// as one block.
	ops := make([]*txOp, saleWindow)
	txs := make([]*evm.Transaction, saleWindow)
	for j, b := range bs {
		l.st.attempted++
		if res[j].Err != nil {
			l.st.failed++
			continue
		}
		tk := res[j].Token
		l.st.tokens++
		l.indexes = append(l.indexes, tk.Index)
		tx := &evm.Transaction{
			Nonce: b.nonce, To: w.sale, Value: big.NewInt(buyWei), GasLimit: txGasLimit, GasPrice: big.NewInt(1),
			Method: "buy", Tokens: [][]byte{core.EncodeEntry(w.sale, tk)},
		}
		if err := s.signTx(tx, b.key, op, root); err != nil {
			return err
		}
		b.nonce++
		b.last = tk
		ops[j], txs[j] = &txOp{start: start}, tx
	}
	var wg sync.WaitGroup
	handOver(s.prod, &wg, ops, txs)
	wg.Wait()
	end := start
	for j, o := range ops {
		if o == nil {
			continue
		}
		if l.st.commit(o, tr, op, root) {
			bs[j].buys++
		} else {
			bs[j].nonce = s.chain.NonceOf(bs[j].key.Address())
		}
		end = later(end, o.end)
	}
	tr.close(root, end)
	return nil
}

func (w *saleWorld) check() []string {
	var bad []string
	s := w.s
	seen := make(map[int64]bool)
	buys := 0
	var buyers []*buyer
	for _, l := range w.lanes {
		for _, ix := range l.indexes {
			if seen[ix] {
				bad = append(bad, fmt.Sprintf("one-time index %d issued twice", ix))
			}
			seen[ix] = true
		}
		for _, b := range l.buyers {
			buys += b.buys
			buyers = append(buyers, b)
		}
	}
	if got, want := s.chain.Balance(w.sale), big.NewInt(int64(buyWei*buys)); got.Cmp(want) != 0 {
		bad = append(bad, fmt.Sprintf("sale holds %s wei, want %s (5 wei x %d buys)", got, want, buys))
	}
	for _, b := range buyers {
		ret, err := s.call(w.auditor.Address(), w.sale, "balanceOf", []any{b.key.Address()}, w.auditTok)
		if err != nil {
			bad = append(bad, fmt.Sprintf("balanceOf %s: %v", b.key.Address(), err))
			continue
		}
		got, _ := ret[0].(*big.Int)
		if want := big.NewInt(int64(buyWei * saleRate * b.buys)); got == nil || got.Cmp(want) != 0 {
			bad = append(bad, fmt.Sprintf("buyer %s holds %v sale tokens, want %s", b.key.Address(), got, want))
		}
	}
	return append(bad, w.replay(buyers)...)
}

// replay re-presents a seeded sample of spent tokens, each in a fresh,
// validly signed buy() from its own buyer; the bitmap must reject every
// one with core.ErrTokenUsed.
func (w *saleWorld) replay(buyers []*buyer) []string {
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(buyers), func(i, j int) { buyers[i], buyers[j] = buyers[j], buyers[i] })
	var bad []string
	var wg sync.WaitGroup
	var ops []*txOp
	for _, b := range buyers {
		if len(ops) == replaySample {
			break
		}
		if b.buys == 0 {
			continue
		}
		tx := &evm.Transaction{
			Nonce: b.nonce, To: w.sale, Value: big.NewInt(buyWei), GasLimit: txGasLimit, GasPrice: big.NewInt(1),
			Method: "buy", Tokens: [][]byte{core.EncodeEntry(w.sale, b.last)},
		}
		if err := w.s.signTx(tx, b.key, 0, -1); err != nil {
			return append(bad, err.Error())
		}
		b.nonce++
		o := &txOp{start: time.Now()}
		o.submit(w.s.prod, tx, &wg)
		ops = append(ops, o)
	}
	wg.Wait()
	if len(ops) < min(replaySample, len(buyers)) {
		bad = append(bad, fmt.Sprintf("only %d buyers have spent tokens to replay", len(ops)))
	}
	for i, o := range ops {
		var err error
		switch {
		case o.res.Err != nil:
			err = o.res.Err
		case o.res.Receipt.Status:
			err = errors.New("accepted")
		default:
			err = o.res.Receipt.Err
		}
		if !errors.Is(err, core.ErrTokenUsed) {
			bad = append(bad, fmt.Sprintf("replayed token %d: %v, want %v", i, err, core.ErrTokenUsed))
		}
	}
	return bad
}
