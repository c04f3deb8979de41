package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/metrics"
	"repro/internal/rtverify/ecf"
	"repro/internal/secp256k1"
	"repro/internal/transform"
	"repro/internal/tshttp"
	"repro/internal/types"
)

// withdraw-ecf: a closed loop of bank customers. Each lane works in
// windows of windowSize arrivals drawn from the seed: one POST
// /v1/tokens requests an argument token for addBalance or withdraw on a
// SMACS-enabled Bank per arrival, and the Token Service vets each with
// the ECF checker on its mirror chain. The last arrival of every window
// is the Fig. 7 attacker, whose withdraw request the checker must deny
// with ecf.ErrNotECF. The customers' transactions are handed over as one
// bundle, and the lane waits for their commits before the next window.
const (
	windowSize    = 8 // arrivals per window, the last one the attacker
	customers     = 256
	depositShare  = 0.6
	maxDepositWei = 1000
	warmupWindows = 16 // windows per lane during set-up
)

type customer struct {
	key     *secp256k1.PrivateKey
	nonce   uint64
	balance int64 // the benchmark's ledger of the customer's bank balance
}

type arrival struct {
	attacker bool
	cust     *customer
	deposit  bool
	amount   int64
}

type withdrawLane struct {
	cl  *tshttp.Client
	rng *rand.Rand // draws the lane's windows
	st  *laneStats
	// Ledger totals of the transactions this lane submitted.
	deposited, withdrawn int64
	attackers, denials   int
}

type withdrawWorld struct {
	s         *system
	bank      types.Address
	attacker  *secp256k1.PrivateKey
	auditor   *secp256k1.PrivateKey
	auditTok  core.Token
	customers []*customer
	lanes     []*withdrawLane
	// laneCustomers[i] are the customers lane i serves.
	laneCustomers [][]*customer
}

func setupWithdraw(cfg *runConfig, tr *tracer, dir string) (world, error) {
	custKeys := keys(cfg.seed, "customer", customers)
	owner := key(cfg.seed, "owner", 0)
	attacker := key(cfg.seed, "attacker", 0)
	auditor := key(cfg.seed, "auditor", 0)

	// The Token Service's mirror (§ V-B): the legacy Bank at the address
	// the SMACS-enabled one gets on chain, plus the attacker's publicly
	// deployed Attacker contract holding a deposit.
	mirror := evm.NewChain(evm.Config{ChainID: 1337, Metrics: metrics.NewRegistry()})
	mirrorBank, _, err := mirror.Deploy(owner.Address(), contracts.NewBank())
	if err != nil {
		return nil, err
	}
	attackerContract, _, err := mirror.Deploy(attacker.Address(), contracts.NewAttacker(mirrorBank, true))
	if err != nil {
		return nil, err
	}
	// The owner's deposit is what the attack would steal: without other
	// funds in the bank the re-entered withdraw cannot pay out, and the
	// simulation shows no conflict to flag.
	for _, d := range []struct {
		from *secp256k1.PrivateKey
		to   types.Address
		call string
		wei  int64
	}{{owner, mirrorBank, "addBalance", 10 * maxDepositWei}, {attacker, attackerContract, "deposit", maxDepositWei}} {
		mirror.Fund(d.from.Address(), big.NewInt(fundWei))
		tx := &evm.Transaction{Nonce: mirror.NonceOf(d.from.Address()), To: d.to, Value: big.NewInt(d.wei),
			GasLimit: txGasLimit, GasPrice: big.NewInt(1), Method: d.call}
		if err := evm.SignTx(tx, d.from, mirror.Config().ChainID); err != nil {
			return nil, err
		}
		if rec, err := mirror.Apply(tx); err != nil || !rec.Status {
			return nil, fmt.Errorf("mirror %s: %v %v", d.call, err, rec)
		}
	}

	s, err := newSystem(tr, dir, cfg.lanes, cfg.seed, tsOptions{
		validator: ecf.New(mirror, mirrorBank),
		senders:   addrs(custKeys, []*secp256k1.PrivateKey{attacker, auditor}),
	})
	if err != nil {
		return nil, err
	}
	w := &withdrawWorld{s: s, attacker: attacker, auditor: auditor}
	verifier := core.NewVerifier(s.tsKey.Address())
	if w.bank, err = s.deploy(owner.Address(), transform.Enable(contracts.NewBank(), verifier),
		addrs(custKeys)); err != nil {
		s.close()
		return nil, err
	}
	if w.bank != mirrorBank {
		s.close()
		return nil, fmt.Errorf("bank deployed at %s, mirror at %s", w.bank, mirrorBank)
	}
	toks, err := s.issueSetup([]*core.Request{{Type: core.SuperType, Contract: w.bank, Sender: auditor.Address()}},
		[]*secp256k1.PrivateKey{auditor})
	if err != nil {
		s.close()
		return nil, err
	}
	w.auditTok = toks[0]
	for _, k := range custKeys {
		w.customers = append(w.customers, &customer{key: k})
	}
	w.laneCustomers = make([][]*customer, cfg.lanes)
	for i := range w.customers {
		w.laneCustomers[i%cfg.lanes] = append(w.laneCustomers[i%cfg.lanes], w.customers[i])
	}
	for i := 0; i < cfg.lanes; i++ {
		w.lanes = append(w.lanes, &withdrawLane{cl: s.clients[i], st: &laneStats{},
			rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))})
	}
	return w, nil
}

// drawWindow draws one window of lane l's customers plus the attacker.
// A customer belongs to one lane, which keeps its nonces in order.
func (w *withdrawWorld) drawWindow(l int) []arrival {
	cs, rng := w.laneCustomers[l], w.lanes[l].rng
	out := make([]arrival, windowSize)
	for j := range out[:windowSize-1] {
		out[j] = arrival{
			cust:    cs[rng.Intn(len(cs))],
			deposit: rng.Float64() < depositShare,
			amount:  1 + rng.Int63n(maxDepositWei),
		}
	}
	out[windowSize-1].attacker = true
	return out
}

func (w *withdrawWorld) system() *system { return w.s }

// warmup runs warmupWindows windows per lane, one lane after another.
func (w *withdrawWorld) warmup() error {
	return inTurn(len(w.lanes), func(i int) error {
		for n := 0; n < warmupWindows; n++ {
			if err := w.window(i); err != nil {
				return err
			}
		}
		return warmupErr(w.lanes[i].st)
	})
}

// window serves one window of lane i and waits for its commits.
func (w *withdrawWorld) window(i int) error {
	var wg sync.WaitGroup
	p, err := w.serve(w.lanes[i], w.drawWindow(i), time.Now(), &wg)
	if err != nil {
		return err
	}
	wg.Wait()
	p.fold(w.lanes[i].st, w.s.tr)
	return nil
}

// pendingWindow is a window whose transactions are with the producer.
type pendingWindow struct {
	ops  []*txOp
	op   uint64
	root int32
}

// fold records the window's committed transactions and closes its span.
func (p *pendingWindow) fold(st *laneStats, tr *tracer) {
	end := time.Time{}
	for _, o := range p.ops {
		if o != nil {
			st.commit(o, tr, p.op, p.root)
			end = later(end, o.end)
		}
	}
	if end.IsZero() {
		end = time.Now()
	}
	tr.close(p.root, end)
}

func (w *withdrawWorld) timed(deadline time.Time) ([]*laneStats, error) {
	err := eachLane(len(w.lanes), func(i int) error {
		w.lanes[i].st = &laneStats{}
		for time.Now().Before(deadline) {
			if err := w.window(i); err != nil {
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

// serve handles one window up to the hand-over: one token request for
// all its arrivals, the attacker's denial, and for every customer the
// signed transaction, whose effect it enters in the ledger. Latency
// counts from start.
func (w *withdrawWorld) serve(l *withdrawLane, arrivals []arrival, start time.Time, wg *sync.WaitGroup) (*pendingWindow, error) {
	s, tr := w.s, w.s.tr
	p := &pendingWindow{op: tr.op(), ops: make([]*txOp, len(arrivals))}
	p.root = tr.open(p.op, -1, spanWindow, start)
	reqs := make([]*core.Request, len(arrivals))
	ks := make([]*secp256k1.PrivateKey, len(arrivals))
	for j, a := range arrivals {
		ks[j], reqs[j] = w.attacker, &core.Request{Type: core.ArgumentType, Contract: w.bank, Method: "withdraw"}
		if !a.attacker {
			ks[j] = a.cust.key
			if a.deposit {
				reqs[j].Method = "addBalance"
			}
		}
		reqs[j].Sender = ks[j].Address()
	}
	res, rtt, err := s.requestTokens(l.cl, reqs, ks, p.op, p.root)
	if err != nil {
		return nil, err
	}
	l.st.tokenLat = append(l.st.tokenLat, ms(rtt))
	txs := make([]*evm.Transaction, len(arrivals))
	for j, a := range arrivals {
		l.st.attempted++
		if a.attacker {
			// A correct denial is the operation's success.
			l.attackers++
			if res[j].Err != nil && strings.Contains(res[j].Err.Error(), ecf.ErrNotECF.Error()) {
				l.st.ops++
				l.denials++
			} else {
				l.st.failed++
			}
			continue
		}
		if res[j].Err != nil {
			l.st.failed++
			continue
		}
		l.st.tokens++
		c := a.cust
		tx := &evm.Transaction{
			Nonce: c.nonce, To: w.bank, Value: new(big.Int), GasLimit: txGasLimit, GasPrice: big.NewInt(1),
			Method: reqs[j].Method, Tokens: [][]byte{core.EncodeEntry(w.bank, res[j].Token)},
		}
		if a.deposit {
			tx.Value = big.NewInt(a.amount)
			c.balance += a.amount
			l.deposited += a.amount
		} else {
			l.withdrawn += c.balance
			c.balance = 0
		}
		if err := s.signTx(tx, c.key, p.op, p.root); err != nil {
			return nil, err
		}
		c.nonce++
		p.ops[j], txs[j] = &txOp{start: start}, tx
	}
	handOver(s.prod, wg, p.ops, txs)
	return p, nil
}

func (w *withdrawWorld) check() []string {
	var bad []string
	s := w.s
	var deposited, withdrawn int64
	attackers, denials := 0, 0
	for _, l := range w.lanes {
		deposited += l.deposited
		withdrawn += l.withdrawn
		attackers += l.attackers
		denials += l.denials
	}
	if denials != attackers {
		bad = append(bad, fmt.Sprintf("%d of %d attacker requests denied with %v", denials, attackers, ecf.ErrNotECF))
	}
	want := big.NewInt(deposited - withdrawn)
	if got := s.chain.Balance(w.bank); got.Cmp(want) != 0 {
		bad = append(bad, fmt.Sprintf("bank holds %s wei, ledger says %s - %s = %s", got, big.NewInt(deposited),
			big.NewInt(withdrawn), want))
	}
	for _, c := range w.customers {
		ret, err := s.call(w.auditor.Address(), w.bank, "balanceOf", []any{c.key.Address()}, w.auditTok)
		if err != nil {
			bad = append(bad, fmt.Sprintf("balanceOf %s: %v", c.key.Address(), err))
			continue
		}
		if got, _ := ret[0].(*big.Int); got == nil || got.Int64() != c.balance {
			bad = append(bad, fmt.Sprintf("customer %s balance %v, ledger %d", c.key.Address(), got, c.balance))
		}
	}
	return bad
}
