package main

import (
	"sync/atomic"
	"time"

	"repro/internal/apps/serve"
	"repro/internal/kernel"
	"repro/internal/mem/reclaim"
)

// Decorators: benchmark-owned wrappers around interfaces the program
// already accepts. They are installed in the traced run only and pass
// straight through (one atomic load) until a round switches them on.

// kvOp is the first byte of a kv request payload: 'G', 'S' or 'D'.
func kvOpName(payload []byte) string {
	if len(payload) > 0 && payload[0] == 'S' {
		return "set"
	}
	return "get"
}

// appDecor wraps a serve.App and records one span per Handle call. The
// server serializes Handle across connections, so one track serves.
type appDecor struct {
	serve.App
	span string
	tk   atomic.Pointer[track]
	// parentOf finds the client span a request belongs to: the
	// benchmark partitions its keys by client, so the request itself
	// says who is waiting for it.
	parentOf func(req []byte) (parent, op uint32)
	// inner strips what the wrapped app's framing adds in front of the
	// kv payload (the tenant id, for the dispatcher).
	inner func(req []byte) []byte
}

func (d *appDecor) Handle(req []byte) ([]byte, error) {
	tk := d.tk.Load()
	if tk == nil {
		return d.App.Handle(req)
	}
	parent, op := d.parentOf(req)
	id := tk.tr.newID()
	tk.open.Store(id)
	t0 := time.Now()
	resp, err := d.App.Handle(req)
	tk.add(d.span+"."+kvOpName(d.inner(req)), t0, time.Now(), id, parent, op)
	tk.open.Store(0)
	return resp, err
}

// cloneDecor wraps a tenant's warm app on a clone-per-request lane. The
// lane forks the warm process and hands the clone to HandleClone; the
// fork's own latency is read from the app's Snapshotter and recorded as
// a sibling span.
type cloneDecor struct {
	serve.App
	clone serve.CloneHandler
	tk    atomic.Pointer[track]
	// server is the track of the enclosing dispatcher span.
	server *atomic.Pointer[track]
}

func (d *cloneDecor) HandleClone(child *kernel.Process, req []byte) ([]byte, error) {
	tk := d.tk.Load()
	if tk == nil {
		return d.clone.HandleClone(child, req)
	}
	var parent uint32
	if s := d.server.Load(); s != nil {
		parent = s.open.Load()
	}
	if st, ok := d.App.Snapshotter().LastSnapshot(); ok {
		tk.add("proc.fork", st.Start, st.Start.Add(st.ForkLatency), 0, parent, 0)
	}
	t0 := time.Now()
	resp, err := d.clone.HandleClone(child, req)
	tk.add("lane.handle_clone."+kvOpName(req), t0, time.Now(), 0, parent, 0)
	return resp, err
}

// storeDecor wraps the swap store handed to Kernel.SetSwapStore. kswapd
// and direct reclaim call it concurrently; the track's lock orders
// their spans.
type storeDecor struct {
	reclaim.Store
	tk atomic.Pointer[track]
}

func (d *storeDecor) Write(data []byte) (uint64, error) {
	tk := d.tk.Load()
	if tk == nil {
		return d.Store.Write(data)
	}
	t0 := time.Now()
	slot, err := d.Store.Write(data)
	tk.add("swapstore.write", t0, time.Now(), 0, 0, 0)
	return slot, err
}

func (d *storeDecor) Read(slot uint64, dst []byte) error {
	tk := d.tk.Load()
	if tk == nil {
		return d.Store.Read(slot, dst)
	}
	t0 := time.Now()
	err := d.Store.Read(slot, dst)
	tk.add("swapstore.read", t0, time.Now(), 0, 0, 0)
	return err
}
