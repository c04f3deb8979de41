package main

import (
	"fmt"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/ts"
	replicanet "repro/internal/ts/replica/net"
	"repro/internal/tshttp"
	"repro/internal/types"
)

// Counter stack shape, as smacs-ts -peers assembles it: GOMAXPROCS
// shards leasing 64-index blocks from a three-replica quorum.
const (
	counterBlock    = 64
	counterReplicas = 3
)

const (
	txGasLimit = 4_000_000
	fundWei    = 1_000_000_000_000_000_000 // 1 ether per account
)

// system is one stood-up SMACS deployment: the HTTP Token Service (with
// its counter stack when the workload issues one-time tokens), the
// simulated chain with its block producer, and one keep-alive client
// per load lane.
type system struct {
	tr    *tracer
	reg   *metrics.Registry
	chain *evm.Chain
	tsKey *secp256k1.PrivateKey
	svc   *ts.Service
	prod  *producer

	url     string
	srv     *http.Server
	srvDone chan struct{}
	// conns counts TCP connections the Token Service accepted.
	conns atomic.Int64

	replicas []*replicanet.Server
	backends []store.Backend
	sharded  *ts.ShardedCounter
	dir      string

	// clients holds one tshttp.Client per lane; each lane issues its
	// requests one at a time, so each holds a single connection.
	clients []*tshttp.Client
	setup   *tshttp.Client // set-up traffic only
	issued  issueRecord    // set-up's token requests
}

// tsOptions selects the Token Service a workload deploys.
type tsOptions struct {
	lifetime   time.Duration
	replicated bool // one-time tokens: the replicated counter stack
	validator  ts.Validator
	senders    []types.Address // the sender whitelist
}

// newSystem stands up the Token Service and the chain. dir receives the
// replica WALs and is removed by close.
func newSystem(tr *tracer, dir string, lanes int, seed int64, opt tsOptions) (s *system, err error) {
	s = &system{tr: tr, reg: metrics.NewRegistry(), dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.tsKey = key(seed, "ts", 0)
	core.RegisterCacheMetrics(s.reg)

	var counter ts.Counter
	if opt.replicated {
		if counter, err = s.startCounter(); err != nil {
			return s, err
		}
	}
	allowed := rules.NewList(rules.Whitelist)
	for _, a := range opt.senders {
		allowed.Add(core.ValueKey(a))
	}
	ruleSet := rules.NewRuleSet()
	ruleSet.SetSenderList(allowed)
	if s.svc, err = ts.New(ts.Config{
		Key:          s.tsKey,
		Rules:        ruleSet,
		Lifetime:     opt.lifetime,
		Counter:      counter,
		RequireProof: true,
		Metrics:      s.reg,
	}); err != nil {
		return s, err
	}
	if opt.validator != nil {
		v := opt.validator
		if tr != nil {
			v = tracedValidator{Validator: v, tr: tr}
		}
		s.svc.AddValidator(v)
	}
	var h http.Handler = tshttp.NewServerWithOptions(s.svc, "", tshttp.ServerOptions{Registry: s.reg}).Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	if err = s.serve(h); err != nil {
		return s, err
	}
	for i := 0; i < lanes; i++ {
		s.clients = append(s.clients, tshttp.NewClient(s.url, ""))
	}
	s.setup = tshttp.NewClient(s.url, "")

	cfg := evm.DefaultConfig()
	cfg.Metrics = s.reg
	s.chain = evm.NewChain(cfg)
	sched, err := bench.ParseScheduler("")
	if err != nil {
		return s, err
	}
	hook := core.BatchTokenPrehook(s.tsKey.Address(), cfg.ChainID)
	if tr != nil {
		hook = tracedPrehook(hook, tr)
	}
	s.prod = startProducer(s.chain, evm.ExecOptions{Scheduler: sched, PrevalidateBatch: hook}, tr)
	return s, nil
}

// startCounter builds the one-time index counter smacs-ts -peers ships:
// a ShardedCounter over a replicanet.Coordinator of WAL-backed replicas
// served on loopback.
func (s *system) startCounter() (ts.Counter, error) {
	urls := make([]string, counterReplicas)
	for i := range urls {
		dir := filepath.Join(s.dir, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := store.OpenFile(dir, store.FileOptions{Metrics: s.reg})
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, f)
		var b store.Backend = f
		if s.tr != nil {
			b = tracedBackend{Backend: f, tr: s.tr}
		}
		node, err := replicanet.OpenNode(b)
		if err != nil {
			return nil, err
		}
		rs, err := replicanet.Serve(node, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, rs)
		urls[i] = rs.URL()
	}
	coord, err := replicanet.NewCoordinator(urls, replicanet.Options{Metrics: s.reg})
	if err != nil {
		return nil, err
	}
	var lease ts.Counter = coord
	if s.tr != nil {
		lease = tracedCounter{next: coord, name: spanLease, tr: s.tr}
	}
	if s.sharded, err = ts.NewShardedCounter(lease, runtime.GOMAXPROCS(0), counterBlock); err != nil {
		return nil, err
	}
	if s.tr != nil {
		return tracedCounter{next: s.sharded, name: spanCounterNext, tr: s.tr}, nil
	}
	return s.sharded, nil
}

// serve exposes the Token Service on a loopback listener, counting the
// connections it accepts.
func (s *system) serve(h http.Handler) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + l.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		}}
	s.srvDone = make(chan struct{})
	go func() {
		defer close(s.srvDone)
		_ = s.srv.Serve(l)
	}()
	return nil
}

// close stops everything newSystem started and removes its files.
func (s *system) close() {
	if s.prod != nil {
		s.prod.stop()
	}
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.srvDone
	}
	for _, r := range s.replicas {
		_ = r.Close()
	}
	for _, b := range s.backends {
		_ = b.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// deploy deploys c from owner and funds every account.
func (s *system) deploy(owner types.Address, c *evm.Contract, accounts []types.Address) (types.Address, error) {
	addr, _, err := s.chain.Deploy(owner, c)
	if err != nil {
		return types.Address{}, fmt.Errorf("deploy %s: %w", c.Name(), err)
	}
	for _, a := range accounts {
		s.chain.Fund(a, big.NewInt(fundWei))
	}
	return addr, nil
}

// requestTokens signs the proofs of possession and performs one POST
// /v1/tokens round trip, recording its client-side spans under op.
// It returns the results and the round trip's duration.
func (s *system) requestTokens(cl *tshttp.Client, reqs []*core.Request, keys []*secp256k1.PrivateKey,
	op uint64, parent int32) ([]ts.Result, time.Duration, error) {
	for i, req := range reqs {
		start := time.Now()
		if err := core.SignRequest(req, keys[i]); err != nil {
			return nil, 0, err
		}
		s.tr.add(op, parent, spanSignRequest, start, time.Now())
	}
	start := time.Now()
	res, err := cl.RequestTokens(reqs)
	end := time.Now()
	s.tr.add(op, parent, spanRTT, start, end)
	s.tr.count(countTokenCalls, 1)
	s.tr.count(countTokensReq, int64(len(reqs)))
	if err != nil {
		return nil, 0, fmt.Errorf("token request: %w", err)
	}
	return res, end.Sub(start), nil
}

// signTx signs tx for key, recording the span under op.
func (s *system) signTx(tx *evm.Transaction, k *secp256k1.PrivateKey, op uint64, parent int32) error {
	start := time.Now()
	chainID := s.chain.Config().ChainID
	if err := evm.SignTx(tx, k, chainID); err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	if s.tr != nil {
		s.tr.add(op, parent, spanSignTx, start, time.Now())
		if h, err := tx.SigHash(chainID); err == nil {
			s.tr.sampleSig(k, [32]byte(h), tx.Sig)
		}
	}
	return nil
}

// issueSetup requests tokens over the set-up client in POSTs of at most
// 64 requests and fails on any denial.
func (s *system) issueSetup(reqs []*core.Request, keys []*secp256k1.PrivateKey) ([]core.Token, error) {
	out := make([]core.Token, 0, len(reqs))
	start := time.Now()
	for off := 0; off < len(reqs); off += 64 {
		end := min(off+64, len(reqs))
		res, rtt, err := s.requestTokens(s.setup, reqs[off:end], keys[off:end], 0, -1)
		if err != nil {
			return nil, err
		}
		s.issued.lat = append(s.issued.lat, ms(rtt))
		s.issued.tokens += len(res)
		for i, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("set-up token %d denied: %w", off+i, r.Err)
			}
			out = append(out, r.Token)
		}
	}
	s.issued.wall += time.Since(start)
	return out, nil
}

// call runs a guarded read through Chain.StaticCall.
func (s *system) call(from, to types.Address, method string, args []any, tk core.Token) ([]any, error) {
	ret, rec, err := s.chain.StaticCall(from, to, method, args, [][]byte{core.EncodeEntry(to, tk)})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", method, err)
	}
	if rec == nil || !rec.Status {
		return nil, fmt.Errorf("%s: read failed", method)
	}
	return ret, nil
}

// key derives the i-th key of a role from the workload seed.
func key(seed int64, role string, i int) *secp256k1.PrivateKey {
	return secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("perfbench/%d/%s/%d", seed, role, i)))
}

// keys derives n keys of a role.
func keys(seed int64, role string, n int) []*secp256k1.PrivateKey {
	out := make([]*secp256k1.PrivateKey, n)
	for i := range out {
		out[i] = key(seed, role, i)
	}
	return out
}

func addrs(ks ...[]*secp256k1.PrivateKey) []types.Address {
	var out []types.Address
	for _, group := range ks {
		for _, k := range group {
			out = append(out, k.Address())
		}
	}
	return out
}
