package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/apps/serve"
	"repro/internal/kernel"
	"repro/odfork"
)

// kv-snapshot: the paper's Redis case. A kv store behind the TCP tier
// serves two closed-loop clients while a driver snapshots it by fork
// every few thousand requests. Socket, codec, server loop and store do nearly all the
// work; fork and the copy-on-write it defers are a sliver of it. A fork
// or fault optimisation must therefore show no change here.

const clients = 2

// kvClient is one closed-loop TCP client: it sends its next request
// when the previous reply has arrived. It owns the keys whose index has
// its parity, so a request names the client that is waiting for it.
type kvClient struct {
	id   int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	r    *rng
	// tk and op are read by the server-side decorator, which the race
	// detector cannot order after the client through a socket.
	tk atomic.Pointer[track]
	op atomic.Uint32
}

func dialClient(addr string, id int, seed uint64) (*kvClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &kvClient{
		id: id, conn: conn, br: serve.NewReader(conn), bw: serve.NewWriter(conn),
		r: newRNG(seed*clients + uint64(id) + 1),
	}, nil
}

// call sends one request and waits for its reply, recording the
// client.rtt span when a traced round gave the client a track.
func (c *kvClient) call(codec serve.Codec, req []byte) (resp []byte, flags serve.ResponseFlags, lat time.Duration, err error) {
	var id uint32
	tk := c.tk.Load()
	if tk != nil {
		c.op.Add(1)
		id = tk.tr.newID()
		tk.open.Store(id)
	}
	t0 := time.Now()
	if err = codec.WriteRequest(c.bw, req); err == nil {
		if err = c.bw.Flush(); err == nil {
			resp, flags, err = codec.ReadResponse(c.br)
		}
	}
	end := time.Now()
	if tk != nil {
		tk.add("client.rtt", t0, end, id, 0, c.op.Load())
		tk.open.Store(0)
	}
	return resp, flags, end.Sub(t0), err
}

// traceClients gives every client a track for the coming round;
// driveClients takes it away again.
func traceClients(cl [clients]*kvClient, tr *tracer) {
	for _, c := range cl {
		c.tk.Store(tr.track(fmt.Sprintf("client-%d", c.id)))
		c.op.Store(0)
	}
}

// driveClients runs one round: every client sends its share of the n
// operations in its own goroutine, and the round's wall time is the
// slowest client's.
func driveClients(cl [clients]*kvClient, n int, rec *roundRec, drive func(c *kvClient, n int, rec *roundRec) error) error {
	var wg sync.WaitGroup
	recs := make([]roundRec, clients)
	errs := make([]error, clients)
	start := time.Now()
	for i, c := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = drive(c, n/clients, &recs[i])
		}()
	}
	wg.Wait()
	rec.wall = time.Since(start)
	for i, c := range cl {
		c.tk.Store(nil)
		rec.merge(&recs[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parent is the client's in-flight span, for the server side to hang
// its own span under.
func (c *kvClient) parent() (id, op uint32) {
	if tk := c.tk.Load(); tk != nil {
		return tk.open.Load(), c.op.Load()
	}
	return 0, 0
}

// keyOwner reads the client id off a kv request payload: the parity of
// the key's last digit.
func keyOwner(payload []byte) int {
	if len(payload) < 6 {
		return 0
	}
	klen := int(payload[1]) | int(payload[2])<<8 | int(payload[3])<<16 | int(payload[4])<<24
	if klen < 1 || 5+klen > len(payload) {
		return 0
	}
	return int(payload[5+klen-1]-'0') % clients
}

// valuePool backs every stored value: the value of key i is a window
// into one seeded random pool, so it is a function of the key alone and
// any GET can be checked byte for byte without keeping a copy per key.
type valuePool struct {
	pool   []byte
	valLen int
}

func newValuePool(seed uint64, valLen int) valuePool {
	r := newRNG(seed ^ 0x76616c7565)
	p := make([]byte, 64<<10+valLen)
	for i := range p {
		p[i] = byte(r.next())
	}
	return valuePool{pool: p, valLen: valLen}
}

func (v valuePool) of(salt, key int) []byte {
	off := (salt*7919 + key*131) % (len(v.pool) - v.valLen)
	return v.pool[off : off+v.valLen]
}

// checkKV verifies one kv reply: no transport or application error, and
// for a GET the stored value, byte for byte.
func checkKV(rec *roundRec, isSet bool, want, resp []byte, flags serve.ResponseFlags, err error) bool {
	if err != nil {
		rec.fail("transport: %v", err)
		return false
	}
	if flags&serve.FlagAppError != 0 {
		rec.fail("application error: %s", resp)
		return false
	}
	status, val, err := serve.DecodeKVResponse(resp)
	if err != nil || status != serve.StatusOK {
		rec.fail("status %d (err %v)", status, err)
		return false
	}
	if !isSet && !bytes.Equal(val, want) {
		rec.fail("GET returned %d bytes that are not the stored value", len(val))
		return false
	}
	return true
}

type kvWorld struct {
	kernelTelemetry
	cfg  config
	app  *serve.KVApp
	dec  *appDecor
	srv  *serve.Server
	cl   [clients]*kvClient
	keys int
	vals valuePool
	// every is the snapshot cadence in requests, not milliseconds: the
	// work of a run is pinned by operation count, and so is the number
	// of snapshots it takes (about ten a second at the first commit).
	every   int
	served  atomic.Int64
	trigger chan struct{}
	stop    chan struct{}
	done    chan struct{}
	stopped bool

	mu         sync.Mutex
	forks      samples // snapshot fork pauses since the round began
	children   samples // Snapshot return → child gone
	snapErr    error
	coincident samples // traced round: RTTs flagged fork-coincident
	total      int
}

func tableCapFor(keys int) uint64 {
	c := uint64(1)
	for c < uint64(keys)*2 {
		c <<= 1
	}
	return c
}

func bootKV(cfg config, traced bool) (world, error) {
	w := &kvWorld{cfg: cfg, keys: 50000, every: 8000, trigger: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	arena, valLen := uint64(512)<<20, 1024
	if cfg.tiny {
		w.keys, arena, valLen, w.every = 512, 8<<20, 256, 100
	}
	w.vals = newValuePool(cfg.seed, valLen)
	w.k = kernel.New()
	var err error
	w.app, err = serve.NewKV(w.k, serve.KVConfig{Config: kvstore.Config{
		ArenaBytes: arena, TableCap: tableCapFor(w.keys), Mode: odfork.OnDemand,
	}})
	if err != nil {
		return nil, err
	}
	// The load goes through Handle, not Warm: Warm stores one value
	// under every key, and a GET must be checkable against its key.
	for i := 0; i < w.keys; i++ {
		if _, err := w.app.Handle(serve.EncodeSet(kvstore.Key(i), w.vals.of(0, i))); err != nil {
			return nil, fmt.Errorf("load key %d: %w", i, err)
		}
	}
	var app serve.App = w.app
	if traced {
		w.dec = &appDecor{App: w.app, span: "app.handle", inner: func(req []byte) []byte { return req }}
		w.dec.parentOf = func(req []byte) (uint32, uint32) {
			return w.cl[keyOwner(req)].parent()
		}
		app = w.dec
	}
	if w.srv, err = serve.Listen(app, serve.BinaryCodec{}, ""); err != nil {
		return nil, err
	}
	for i := range w.cl {
		if w.cl[i], err = dialClient(w.srv.Addr(), i, cfg.seed); err != nil {
			return nil, err
		}
	}
	go w.snapshotDriver()
	warm := &roundRec{}
	n := 4000
	if cfg.tiny {
		n = 100
	}
	if err := w.round(n, warm, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warm.attempted)
	}
	return w, nil
}

// snapshotDriver mirrors BGSAVE: a snapshot every w.every requests, at
// most one snapshot child alive (a trigger that arrives while the child
// still runs is taken up when it has gone).
func (w *kvWorld) snapshotDriver() {
	defer close(w.done)
	base := w.k.NumProcesses()
	for {
		select {
		case <-w.stop:
			return
		case <-w.trigger:
		}
		err := w.app.Snapshot()
		t0 := time.Now()
		if err != nil {
			w.mu.Lock()
			w.snapErr = err
			w.mu.Unlock()
			return
		}
		st, _ := w.app.Snapshotter().LastSnapshot()
		for w.k.NumProcesses() > base {
			select {
			case <-w.stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		w.mu.Lock()
		w.forks.add(st.ForkLatency)
		w.children.add(time.Since(t0))
		w.mu.Unlock()
	}
}

func (w *kvWorld) stopDriver() {
	if !w.stopped {
		w.stopped = true
		close(w.stop)
		<-w.done
	}
}

func (w *kvWorld) round(n int, rec *roundRec, tr *tracer) error {
	w.mu.Lock()
	w.forks = nil
	w.mu.Unlock()
	if tr != nil {
		traceClients(w.cl, tr)
		w.dec.tk.Store(tr.track("server"))
	}
	err := driveClients(w.cl, n, rec, w.drive)
	if tr != nil {
		w.dec.tk.Store(nil)
	}
	if err != nil {
		return err
	}
	w.mu.Lock()
	rec.fork = append(rec.fork, w.forks...)
	err = w.snapErr
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("snapshot driver: %w", err)
	}
	return nil
}

// drive is one client's share of a round: 80 % GET, 20 % SET, keys
// uniform over the client's half of the key space.
func (w *kvWorld) drive(c *kvClient, n int, rec *roundRec) error {
	codec := serve.BinaryCodec{}
	for i := 0; i < n; i++ {
		idx := c.r.intn(w.keys/clients)*clients + c.id
		key, val := kvstore.Key(idx), w.vals.of(0, idx)
		isSet := c.r.intn(5) == 0
		req := serve.EncodeGet(key)
		if isSet {
			req = serve.EncodeSet(key, val)
		}
		rec.attempted++
		resp, flags, lat, err := c.call(codec, req)
		if !checkKV(rec, isSet, val, resp, flags, err) {
			if err != nil {
				return err // the connection is gone
			}
			continue
		}
		rec.ops.add(lat)
		if w.served.Add(1)%int64(w.every) == 0 {
			select {
			case w.trigger <- struct{}{}:
			default:
			}
		}
		if c.tk.Load() != nil {
			w.mu.Lock()
			w.total++
			if flags&serve.FlagForkCoincident != 0 {
				w.coincident.add(lat)
			}
			w.mu.Unlock()
		}
	}
	return nil
}

// tailForks forks p with the client loops idle, reaping every child at
// once: first on demand (five times as often, the call being
// microseconds), then n times with the classic engine.
func tailForks(p *kernel.Process, t *tailRec, ondemand bool, n int) error {
	if ondemand {
		for i := 0; i < 5*n; i++ {
			if err := forkExit(p, odfork.OnDemand, &t.ondemand, &t.exit); err != nil {
				return err
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := forkExit(p, odfork.Classic, &t.classic, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *kvWorld) tail(t *tailRec) error {
	w.stopDriver()
	n := 25
	if w.cfg.tiny {
		n = 5
	}
	return tailForks(w.app.Snapshotter().Process(), t, false, n)
}

// tcpLayer fills what both TCP workloads read off their spans: the
// serving tier's residual is the client's round trip minus the part
// the decorated App.Handle covers.
func tcpLayer(a analysis, pl map[string]float64) {
	res := a.self["client.rtt"].sorted()
	pl["serve.residual_p50_us"] = res.pct(50) / 1e3
	pl["serve.residual_p99_us"] = res.pct(99) / 1e3
}

func (w *kvWorld) layer(a analysis, pl map[string]float64) error {
	tcpLayer(a, pl)
	pl["kvstore.get_p50_us"] = median(a.dur["app.handle.get"]) / 1e3
	pl["kvstore.set_p50_us"] = median(a.dur["app.handle.set"]) / 1e3
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.total > 0 {
		pl["serve.fork_coincident_share"] = float64(len(w.coincident)) / float64(w.total)
	}
	pl["serve.fork_coincident_p50_us"] = median(w.coincident) / 1e3
	pl["kvstore.snapshot_child_ms"] = median(w.children) / 1e6
	return nil
}

func (w *kvWorld) close() (int64, error) {
	w.stopDriver()
	for _, c := range w.cl {
		if c != nil {
			c.conn.Close()
		}
	}
	err := w.srv.Close()
	w.app.Close()
	return w.k.Allocator().Allocated(), err
}

var kvSnapshot = workload{
	name:         wlKV,
	opsPerSecond: 80000,
	tinyOps:      300,
	boot:         bootKV,
}
