package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
)

const (
	// poolCleanRate is the offered clean-share rate across all
	// connections: about a quarter of one core's verify capacity.
	poolCleanRate = 200.0
	// poolShareBits is the easiest compact share target; a digest misses
	// it with probability 2^-16, and the check re-hashes any share the
	// pool judges low_diff to confirm the verdict.
	poolShareBits = 0x2100ffff
	// poolBlockBits is a network target no share meets within a run, so
	// the job never changes under the open loop.
	poolBlockBits  = 0x1d00ffff
	poolWarmShares = 24
	// poolGrace is how long after the last send every verdict must have
	// arrived.
	poolGrace = 5 * time.Second
)

// Submit kinds. Each clean share travels with one of each reject kind.
const (
	kindClean = iota
	kindDuplicate
	kindStale
	kindMalformed
	numKinds
)

var rejectKinds = []string{"duplicate", "stale", "malformed"}

// verdictClass groups the statuses a submit kind can legitimately get:
// a clean share is hashed and judged accepted (or block, or low_diff
// when its digest really misses the share target).
func verdictClass(status string) int {
	switch pool.ShareStatus(status) {
	case pool.StatusAccepted, pool.StatusBlock, pool.StatusLowDiff:
		return kindClean
	case pool.StatusDuplicate:
		return kindDuplicate
	case pool.StatusStale:
		return kindStale
	case pool.StatusInvalid:
		return kindMalformed
	}
	return -1
}

// benchSource hands out distinct templates at poolBlockBits.
type benchSource struct {
	seed uint64
	seq  atomic.Uint64
}

func (s *benchSource) Template() (blockchain.Header, int, error) {
	n := s.seq.Add(1)
	var root blockchain.Hash
	binary.LittleEndian.PutUint64(root[:], s.seed)
	binary.LittleEndian.PutUint64(root[8:], n)
	return blockchain.Header{Version: 1, MerkleRoot: root, Time: 1_500_000_000 + n, Bits: poolBlockBits}, 1, nil
}

func (s *benchSource) SubmitBlock(blockchain.Header) error { return nil }

// hashSpan is one timed hash evaluation; key is the header's nonce.
type hashSpan struct {
	key        uint64
	start, end time.Time
}

// hashRecorder collects hash spans while on.
type hashRecorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []hashSpan
}

func (r *hashRecorder) take() []hashSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// timedHash times h.Hash(header) into r when recording is on.
func (r *hashRecorder) timedHash(h pow.Hasher, header []byte) ([32]byte, error) {
	if !r.on.Load() {
		return h.Hash(header)
	}
	start := time.Now()
	d, err := h.Hash(header)
	end := time.Now()
	var key uint64
	if len(header) >= 8 {
		key = binary.LittleEndian.Uint64(header[len(header)-8:])
	}
	r.mu.Lock()
	r.spans = append(r.spans, hashSpan{key, start, end})
	r.mu.Unlock()
	return d, err
}

// timedHasher decorates the pool's session hasher; every session it
// mints times its hashes into rec.
type timedHasher struct {
	inner pow.SessionHasher
	rec   *hashRecorder
}

func (t timedHasher) Hash(header []byte) ([32]byte, error) { return t.rec.timedHash(t.inner, header) }
func (t timedHasher) Name() string                         { return t.inner.Name() }
func (t timedHasher) NewSession() pow.Hasher {
	return timedSession{inner: t.inner.NewSession(), rec: t.rec}
}

type timedSession struct {
	inner pow.Hasher
	rec   *hashRecorder
}

func (t timedSession) Hash(header []byte) ([32]byte, error) { return t.rec.timedHash(t.inner, header) }
func (t timedSession) Name() string                         { return t.inner.Name() }
func (t timedSession) Close()                               { pow.CloseHasher(t.inner) }

// minerConn is one miner's TCP connection speaking the pool protocol.
type minerConn struct {
	nc     net.Conn
	rd     *bufio.Reader
	miner  string
	jobID  string
	prefix []byte
}

type wireMsg struct {
	Type   string `json:"type"`
	JobID  string `json:"job_id"`
	Nonce  uint64 `json:"nonce"`
	Status string `json:"status"`
	Job    *struct {
		ID     string `json:"id"`
		Prefix string `json:"prefix"`
	} `json:"job"`
}

func (c *minerConn) read() (wireMsg, int, error) {
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return wireMsg{}, len(line), err
	}
	var m wireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return wireMsg{}, len(line), fmt.Errorf("decoding %q: %w", line, err)
	}
	return m, len(line), nil
}

// subscribe registers the miner and waits for its first job.
func (c *minerConn) subscribe() error {
	if _, err := fmt.Fprintf(c.nc, `{"type":"subscribe","miner":%q,"agent":"perfbench"}`+"\n", c.miner); err != nil {
		return err
	}
	for {
		m, _, err := c.read()
		if err != nil {
			return err
		}
		if m.Type == "notify" && m.Job != nil {
			c.jobID = m.Job.ID
			c.prefix, err = hex.DecodeString(m.Job.Prefix)
			return err
		}
	}
}

func submitLine(jobID string, nonce uint64) []byte {
	if jobID == "" {
		return []byte(`{"type":"submit","nonce":` + strconv.FormatUint(nonce, 10) + "}\n")
	}
	return []byte(`{"type":"submit","job_id":"` + jobID + `","nonce":` + strconv.FormatUint(nonce, 10) + "}\n")
}

// poolRig is one pool set-up: the server and one subscribed, warmed
// connection per core.
type poolRig struct {
	srv    *pool.Server
	conns  []*minerConn
	nonces uint64 // next unused nonce block, so windows never replay
}

func (p *poolRig) close() {
	for _, c := range p.conns {
		c.nc.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // only teardown; every result is already read
}

// setupPool starts the server and subscribes and warms the connections.
// With rec set, the verify fleet hashes through a timing decorator
// (idle until rec is switched on).
func setupPool(e *env, rec *hashRecorder) (*poolRig, error) {
	h, err := hashcore.New()
	if err != nil {
		return nil, err
	}
	var hasher pow.Hasher = pool.WrapHasher(h)
	if rec != nil {
		hasher = timedHasher{inner: pool.WrapHasher(h), rec: rec}
	}
	srv, err := pool.NewServer(pool.Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       poolShareBits,
		RefreshInterval: -1,
		Logf:            func(string, ...any) {},
	}, hasher, &benchSource{seed: e.seed})
	if err != nil {
		return nil, err
	}
	p := &poolRig{srv: srv, nonces: e.rng("pool-nonces").Uint64() >> 2}
	// A clean refresh expires job "1", the id the stale submits carry.
	if _, err = srv.Jobs().Refresh(true); err == nil {
		err = srv.Start()
	}
	if err != nil {
		p.close()
		return nil, err
	}
	for i := 0; i < e.cores; i++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			p.close()
			return nil, err
		}
		c := &minerConn{nc: nc, rd: bufio.NewReader(nc), miner: "m" + strconv.Itoa(i)}
		p.conns = append(p.conns, c)
		if err := c.subscribe(); err != nil {
			p.close()
			return nil, fmt.Errorf("subscribing %s: %w", c.miner, err)
		}
	}
	// Warm every verify session, one closed-loop share at a time.
	for k := 0; k < poolWarmShares; k++ {
		for _, c := range p.conns {
			p.nonces++
			if _, err := c.nc.Write(submitLine(c.jobID, p.nonces)); err != nil {
				p.close()
				return nil, err
			}
			if m, _, err := c.read(); err != nil || m.Type != "result" {
				p.close()
				return nil, fmt.Errorf("warm-up share: %v %v", m, err)
			}
		}
	}
	return p, nil
}

// poolWindow is the outcome of one open-loop window.
type poolWindow struct {
	tally
	submits   int
	clean     []int64 // clean-share latency from its due time, ns
	late      []int64 // every submit's send lateness, ns
	opsPerS   float64
	bytes     int64
	cleanSent []poolSent // per answered clean share, for the trace
	lowDiff   []poolSent
}

// poolSent is one clean share's timeline.
type poolSent struct {
	nonce           uint64
	conn            int
	due, sent, recv time.Time
}

// slot is one scheduled submit on a connection.
type slot struct {
	kind  int
	job   string
	nonce uint64
	line  []byte
}

type verdictKey struct {
	job   string
	nonce uint64
	class int
}

// plan builds a connection's submits: clean share k at slot 4k, then
// its duplicate, a stale-job submit and a submit missing its job id.
func (p *poolRig) plan(c *minerConn, clean int) []slot {
	slots := make([]slot, 0, clean*numKinds)
	for k := 0; k < clean; k++ {
		p.nonces++
		n := p.nonces
		slots = append(slots,
			slot{kindClean, c.jobID, n, nil},
			slot{kindDuplicate, c.jobID, n, nil},
			slot{kindStale, "1", n + 1<<40, nil},
			slot{kindMalformed, "", n + 2<<40, nil})
	}
	for i := range slots {
		slots[i].line = submitLine(slots[i].job, slots[i].nonce)
	}
	return slots
}

// measure runs one open-loop window: each connection sends its plan on a
// fixed schedule while a reader matches every verdict to its submit.
func (p *poolRig) measure(e *env, window time.Duration) (*poolWindow, error) {
	before := p.srv.Accounting().Totals()
	perConn := poolCleanRate / float64(len(p.conns))
	clean := int(window.Seconds() * perConn)
	period := time.Duration(float64(time.Second) / (perConn * numKinds))
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(window)

	type connRun struct {
		slots      []slot
		sched      schedule
		sent, recv []time.Time
		status     []string
		stray      []wireMsg // verdicts matching no pending submit
		bytesOut   int64
		bytesIn    int64
		err        error
	}
	runs := make([]*connRun, len(p.conns))
	var wg sync.WaitGroup
	for ci, c := range p.conns {
		r := &connRun{slots: p.plan(c, clean)}
		r.sched = schedule{start: start.Add(time.Duration(ci) * period * numKinds / time.Duration(len(p.conns))), period: period}
		r.sent = make([]time.Time, len(r.slots))
		r.recv = make([]time.Time, len(r.slots))
		r.status = make([]string, len(r.slots))
		runs[ci] = r
		index := make(map[verdictKey]int, len(r.slots))
		for i, s := range r.slots {
			index[verdictKey{s.job, s.nonce, s.kind}] = i
		}
		if err := c.nc.SetReadDeadline(end.Add(poolGrace)); err != nil {
			return nil, err
		}
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			for i, s := range r.slots {
				sleepUntil(r.sched.due(i))
				r.sent[i] = time.Now()
				n, err := c.nc.Write(s.line)
				r.bytesOut += int64(n)
				if err != nil {
					return // the reader's deadline ends the window; the shares count as missing
				}
			}
		}()
		go func() { // reader
			defer wg.Done()
			for got := 0; got < len(r.slots); {
				m, n, err := c.read()
				r.bytesIn += int64(n)
				if err != nil {
					var ne net.Error
					if !errors.As(err, &ne) || !ne.Timeout() {
						r.err = err
					}
					return
				}
				now := time.Now()
				if m.Type != "result" {
					continue
				}
				i, ok := index[verdictKey{m.JobID, m.Nonce, verdictClass(m.Status)}]
				if !ok || !r.recv[i].IsZero() {
					r.stray = append(r.stray, m)
					continue
				}
				r.recv[i], r.status[i] = now, m.Status
				got++
			}
		}()
	}
	wg.Wait()

	w := &poolWindow{}
	var first time.Time
	var last time.Time
	for ci, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("reading verdicts on %s: %w", p.conns[ci].miner, r.err)
		}
		w.bytes += r.bytesOut + r.bytesIn
		for _, m := range r.stray {
			w.failed++
			e.logf("pool: unexpected verdict %+v on %s", m, p.conns[ci].miner)
		}
		for i, s := range r.slots {
			w.submits++
			due := r.sched.due(i)
			if first.IsZero() || due.Before(first) {
				first = due
			}
			if !r.sent[i].IsZero() {
				w.late = append(w.late, int64(lateness(due, r.sent[i])))
			}
			if r.recv[i].IsZero() {
				w.failed++ // no verdict by the deadline
				continue
			}
			if s.kind != kindClean {
				continue
			}
			ps := poolSent{nonce: s.nonce, conn: ci, due: due, sent: r.sent[i], recv: r.recv[i]}
			if r.status[i] == string(pool.StatusLowDiff) {
				w.lowDiff = append(w.lowDiff, ps)
			}
			w.clean = append(w.clean, int64(r.recv[i].Sub(due)))
			w.cleanSent = append(w.cleanSent, ps)
			if r.recv[i].After(last) {
				last = r.recv[i]
			}
		}
	}
	w.attempted = int64(w.submits)
	w.opsPerS = float64(len(w.clean)) / last.Sub(first).Seconds()
	w.failed += p.checkLedger(e, before, w, clean*len(p.conns))
	bad, err := p.checkLowDiff(w.lowDiff)
	if err != nil {
		return nil, err
	}
	w.failed += bad
	return w, nil
}

// checkLedger compares the server's ledger movement over the window with
// what was sent; each disagreeing counter is one failure.
func (p *poolRig) checkLedger(e *env, before pool.MinerStats, w *poolWindow, clean int) int64 {
	after := p.srv.Accounting().Totals()
	lowDiff := uint64(len(w.lowDiff))
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"accepted", after.Accepted - before.Accepted, uint64(clean) - lowDiff},
		{"low_diff", after.LowDiff - before.LowDiff, lowDiff},
		{"duplicate", after.Duplicate - before.Duplicate, uint64(clean)},
		{"stale", after.Stale - before.Stale, uint64(clean)},
		// Submits without a job id are refused before the ledger.
		{"invalid", after.Invalid - before.Invalid, 0},
	}
	var bad int64
	for _, c := range checks {
		if c.got != c.want {
			e.logf("pool: ledger %s moved by %d, sent %d", c.name, c.got, c.want)
			bad++
		}
	}
	return bad
}

// checkLowDiff re-hashes every share the pool called low_diff and counts
// those whose digest does meet the share target.
func (p *poolRig) checkLowDiff(shares []poolSent) (int64, error) {
	if len(shares) == 0 {
		return 0, nil
	}
	h, err := hashcore.New()
	if err != nil {
		return 0, err
	}
	target, err := pow.CompactToTarget(poolShareBits)
	if err != nil {
		return 0, err
	}
	var bad int64
	for _, s := range shares {
		in := binary.LittleEndian.AppendUint64(append([]byte(nil), p.conns[s.conn].prefix...), s.nonce)
		d, err := h.Hash(in)
		if err != nil || pow.Check(d, target) {
			bad++
		}
	}
	return bad, nil
}

func runPool(e *env, window time.Duration) (endToEnd, error) {
	p, setup, err := setupRepeated(func() (*poolRig, error) { return setupPool(e, nil) }, (*poolRig).close)
	if err != nil {
		return endToEnd{}, err
	}
	defer p.close()
	w, err := p.measure(e, window)
	if err != nil {
		return endToEnd{}, err
	}
	r := endToEnd{
		tally:   w.tally,
		setup:   setup,
		opsPerS: w.opsPerS,
		p50:     time.Duration(percentile(w.clean, 50)),
		p90:     time.Duration(percentile(w.clean, 90)),
	}
	e.logf("pool: %d submits (%d clean answered), %.1f clean verdicts/s, p50 %.3f ms, p90 %.3f ms, late p99 %.3f ms, setup %.4fs",
		w.submits, len(w.clean), r.opsPerS, ms(float64(r.p50)), ms(float64(r.p90)),
		ms(float64(percentile(w.late, 99))), setup.Seconds())
	return r, nil
}

// tracePool runs an untraced half window, then a half window with the
// verify fleet's hashes timed, and splits each clean share's latency
// into send lateness, queue wait, verify and reply.
func tracePool(e *env, window time.Duration) (map[string]metric, tally, error) {
	rec := &hashRecorder{}
	p, err := setupPool(e, rec)
	if err != nil {
		return nil, tally{}, err
	}
	defer p.close()
	half := window / 2
	u, err := p.measure(e, half)
	if err != nil {
		return nil, tally{}, err
	}
	untraced := mean(u.clean)

	rec.on.Store(true)
	w, err := p.measure(e, half)
	rec.on.Store(false)
	if err != nil {
		return nil, tally{}, err
	}
	spans := rec.take()
	byNonce := make(map[uint64]hashSpan, len(spans))
	for _, s := range spans {
		byNonce[s.key] = s
	}
	var late, queue, verify, reply []int64
	for _, s := range w.cleanSent {
		sp, ok := byNonce[s.nonce]
		if !ok {
			return nil, tally{}, fmt.Errorf("clean share %d answered without a recorded hash", s.nonce)
		}
		late = append(late, int64(s.sent.Sub(s.due)))
		queue = append(queue, int64(sp.start.Sub(s.sent)))
		verify = append(verify, int64(sp.end.Sub(sp.start)))
		reply = append(reply, int64(s.recv.Sub(sp.end)))
	}
	admit, err := admitCost(e, p, w.submits/len(p.conns))
	if err != nil {
		return nil, tally{}, err
	}
	sum := mean(late) + mean(queue) + mean(verify) + mean(reply)
	t := u.tally
	t.add(w.tally)
	m := map[string]metric{
		"bench.late_ns":                {mean(late), "ns"},
		"pool.queue_wait_ns":           {mean(queue), "ns"},
		"pool.verify_ns":               {mean(verify), "ns"},
		"pool.reply_ns":                {mean(reply), "ns"},
		"pool.residual_ns":             {untraced - sum, "ns"},
		"pool.admit_ns":                {admit, "ns"},
		"pool.verifies_per_submit":     {float64(len(spans)) / float64(w.submits), "ratio"},
		"wire.bytes_per_submit":        {float64(w.bytes) / float64(w.submits), "B"},
		"bench.late_p99_ms":            {ms(float64(percentile(w.late, 99))), "ms"},
		"bench.pool_trace_overhead_ns": {mean(w.clean) - untraced, "ns"},
	}
	e.logf("pool traced: untraced %.0f ns/share = late %.0f + queue %.0f + verify %.0f + reply %.0f + residual %.0f",
		untraced, mean(late), mean(queue), mean(verify), mean(reply), untraced-sum)
	return m, t, nil
}

// admitCost times pool.Precheck.Admit over the window's submit mix on a
// private admission tier shaped like the server's.
func admitCost(e *env, p *poolRig, perConn int) (float64, error) {
	jm, err := pool.NewJobManager(&benchSource{seed: e.seed}, poolShareBits, 0, 4)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 2; i++ {
		if _, err := jm.Refresh(true); err != nil {
			return 0, err
		}
	}
	pc := pool.NewPrecheck(jm, pool.NewSeenSet(1<<16), pool.NewAccounting(), 0, 0)
	var subs []slot
	for _, c := range p.conns {
		for _, s := range p.plan(c, perConn/numKinds) {
			if s.kind != kindMalformed { // refused before admission
				subs = append(subs, s)
			}
		}
	}
	ids := make([][]byte, len(subs))
	for i, s := range subs {
		ids[i] = []byte(s.job)
	}
	start := time.Now()
	for i, s := range subs {
		pc.Admit(p.conns[0].miner, ids[i], s.nonce)
	}
	return float64(time.Since(start)) / float64(len(subs)), nil
}
