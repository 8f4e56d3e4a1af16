package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/apps/serve"
	"repro/internal/kernel"
	"repro/internal/tenant"
	"repro/odfork"
)

// clone-invoke: the serverless path, the whole fixed stack in one
// operation — codec → Dispatcher → tenant admission → fork → serve from
// the clone → child exit. Four tenants each keep a warm kv store; every
// request forks its tenant's store. GETs read the clone; SETs change
// the warm parent, which then pays table-copy and page-copy after the
// fork it just made — the fault path from the parent's side, where
// fork-loop exercises it from the child's.

type cloneWorld struct {
	kernelTelemetry
	cfg     config
	d       *serve.Dispatcher
	dec     *appDecor
	lanes   []*serve.Lane
	apps    []*serve.KVApp
	decs    []*cloneDecor
	tenants []*tenant.Tenant
	ids     []uint32
	srv     *serve.Server
	cl      [clients]*kvClient
	keys    int
	vals    valuePool
	server  atomic.Pointer[track]
}

func bootClone(cfg config, traced bool) (world, error) {
	w := &cloneWorld{cfg: cfg, keys: 4096, kernelTelemetry: kernelTelemetry{kernel.New()}, d: serve.NewDispatcher()}
	nTenants, arena, valLen := 4, uint64(128)<<20, 256
	if cfg.tiny {
		nTenants, arena, w.keys = 2, 4<<20, 256
	}
	w.vals = newValuePool(cfg.seed, valLen)
	quota := 2 * int64(arena/odfork.PageSize)
	// No pressure: the machine holds every tenant's whole quota.
	w.k.Allocator().SetLimit(quota * int64(nTenants))
	for t := 0; t < nTenants; t++ {
		tn, err := w.k.Tenants().Create(fmt.Sprintf("tenant-%d", t), quota)
		if err != nil {
			return nil, err
		}
		app, err := serve.NewKV(w.k, serve.KVConfig{Config: kvstore.Config{
			ArenaBytes: arena, TableCap: tableCapFor(w.keys), Mode: odfork.OnDemand, Tenant: tn,
		}})
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.keys; i++ {
			if _, err := app.Handle(serve.EncodeSet(kvstore.Key(i), w.vals.of(t, i))); err != nil {
				return nil, fmt.Errorf("tenant %d: load key %d: %w", t, i, err)
			}
		}
		var laneApp serve.App = app
		if traced {
			dec := &cloneDecor{App: app, clone: app, server: &w.server}
			w.decs = append(w.decs, dec)
			laneApp = dec
		}
		id := uint32(tn.TenantID())
		w.lanes = append(w.lanes, w.d.AddLane(id, laneApp, true))
		w.apps, w.tenants, w.ids = append(w.apps, app), append(w.tenants, tn), append(w.ids, id)
	}
	var front serve.App = w.d
	if traced {
		w.dec = &appDecor{App: w.d, span: "app.handle", inner: func(req []byte) []byte {
			_, payload, _ := serve.SplitTenant(req)
			return payload
		}}
		w.dec.parentOf = func(req []byte) (uint32, uint32) {
			return w.cl[keyOwner(w.dec.inner(req))].parent()
		}
		front = w.dec
	}
	var err error
	if w.srv, err = serve.Listen(front, serve.TenantBinaryCodec{}, ""); err != nil {
		return nil, err
	}
	for i := range w.cl {
		if w.cl[i], err = dialClient(w.srv.Addr(), i, cfg.seed); err != nil {
			return nil, err
		}
	}
	warm := &roundRec{}
	n := 2000
	if cfg.tiny {
		n = 50
	}
	if err := w.round(n, warm, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up invocations failed", warm.failed, warm.attempted)
	}
	return w, nil
}

func (w *cloneWorld) round(n int, rec *roundRec, tr *tracer) error {
	if tr != nil {
		traceClients(w.cl, tr)
		server := tr.track("server")
		w.server.Store(server)
		w.dec.tk.Store(server)
		for _, d := range w.decs {
			d.tk.Store(server)
		}
	}
	err := driveClients(w.cl, n, rec, w.drive)
	if tr != nil {
		w.dec.tk.Store(nil)
		w.server.Store(nil)
		for _, d := range w.decs {
			d.tk.Store(nil)
		}
	}
	return err
}

// drive: 90 % GET served from a clone, 10 % SET into the warm parent,
// tenants taken in turn.
func (w *cloneWorld) drive(c *kvClient, n int, rec *roundRec) error {
	for i := 0; i < n; i++ {
		t := (i + c.id) % len(w.ids)
		idx := c.r.intn(w.keys/clients)*clients + c.id
		key, val := kvstore.Key(idx), w.vals.of(t, idx)
		isSet := c.r.intn(10) == 0
		req := serve.EncodeGet(key)
		if isSet {
			req = serve.EncodeSet(key, val)
		}
		rec.attempted++
		resp, flags, lat, err := c.call(serve.TenantBinaryCodec{Tenant: w.ids[t]}, req)
		if !checkKV(rec, isSet, val, resp, flags, err) {
			if err != nil {
				return err
			}
			continue
		}
		rec.ops.add(lat)
	}
	return nil
}

// laneForks reads the fork pauses the lanes recorded (Lane.ForkTimes,
// in milliseconds) as one median per lane: the program keeps them in
// its own sample type, which the benchmark reads but does not import.
func (w *cloneWorld) laneForks() samples {
	var s samples
	for _, l := range w.lanes {
		if l.ForkTimes.N() > 0 {
			s = append(s, l.ForkTimes.Percentile(50)*1e6)
		}
	}
	return s
}

func (w *cloneWorld) tail(t *tailRec) error {
	// Every invocation forked on demand; Lane.ForkTimes holds the
	// pauses, the warm-up's among them.
	t.ondemand = w.laneForks()
	n := 10
	if w.cfg.tiny {
		n = 3
	}
	for _, app := range w.apps {
		if err := tailForks(app.Snapshotter().Process(), t, false, n); err != nil {
			return err
		}
	}
	return nil
}

func (w *cloneWorld) layer(a analysis, pl map[string]float64) error {
	tcpLayer(a, pl)
	// Dispatcher.Handle minus the clone's handler and the fork: the
	// dispatch hop, admission, and the child's exit.
	handle := append(append(samples(nil), a.self["app.handle.get"]...), a.self["app.handle.set"]...)
	pl["serve.dispatch_self_p50_us"] = median(handle) / 1e3
	pl["kvstore.clone_get_p50_us"] = median(a.dur["lane.handle_clone.get"]) / 1e3
	pl["kvstore.set_p50_us"] = median(a.dur["lane.handle_clone.set"]) / 1e3

	// A clone with nothing to do: fork, run an empty handler, exit.
	var empty samples
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		st, err := w.apps[i%len(w.apps)].Snapshotter().SnapshotSync(func(*kernel.Process) error { return nil })
		if err != nil || st.Err != nil {
			return fmt.Errorf("SnapshotSync: %v / %v", err, st.Err)
		}
		empty.add(time.Since(t0))
	}
	pl["kernel.snapshot_sync_p50_us"] = median(empty) / 1e3
	if err := probeAdmit(pl, w.k.Tenants(), w.tenants[0]); err != nil {
		return err
	}
	return probeCodec(pl)
}

func (w *cloneWorld) close() (int64, error) {
	for _, c := range w.cl {
		if c != nil {
			c.conn.Close()
		}
	}
	err := w.srv.Close()
	w.d.Close()
	w.k.Allocator().SetLimit(0)
	return w.k.Allocator().Allocated(), err
}

var cloneInvoke = workload{
	name:         wlClone,
	opsPerSecond: 36000,
	tinyOps:      200,
	boot:         bootClone,
}
