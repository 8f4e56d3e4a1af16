package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem/reclaim"
	"repro/odfork"
)

// mem-pressure: the only workload where reclaim and the allocator's
// limit path do anything. One process owns a hot region that fits in
// memory and a cold region twice the size of what is left; the cold
// region is walked cyclically, so every cold touch is a deterministic
// miss (evict, swap out, swap in), while the hot region measures
// whether the LRU protects what it should.

type memWorld struct {
	kernelTelemetry
	cfg        config
	p          *kernel.Process
	store      *storeDecor
	hot, cold  odfork.Addr
	hotPages   int
	coldPages  int
	touches    int
	version    []byte // per cold page: the byte the workload last stored
	hotT       samples
	coldT      samples
	collecting bool
	buf        [8]byte
}

// pressurePage fills a half-compressible page: a tag (page number and
// a version byte) up front, seeded noise to the half, zeroes after.
func pressurePage(dst []byte, seed uint64, page int) {
	clear(dst)
	for i := 8; i < len(dst)/2; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pageWord(seed, page, 0, i/8))
	}
	binary.LittleEndian.PutUint32(dst, uint32(page))
}

func bootMem(cfg config, traced bool) (world, error) {
	w := &memWorld{cfg: cfg, kernelTelemetry: kernelTelemetry{kernel.New()}, hotPages: 8 << 20 / odfork.PageSize, coldPages: 32 << 20 / odfork.PageSize}
	slack := 512
	if cfg.tiny {
		w.hotPages, w.coldPages, slack = 128, 512, 128
	}
	w.version = make([]byte, w.coldPages)
	if traced {
		w.store = &storeDecor{Store: reclaim.NewMemStore()}
		if err := w.k.SetSwapStore(w.store); err != nil {
			return nil, err
		}
	}
	w.k.Allocator().SetLimit(int64(w.hotPages + w.coldPages/2 + slack))
	w.k.SetSwapEnabled(true)
	w.p = w.k.NewProcess()
	var err error
	prot, flags := odfork.ProtRead|odfork.ProtWrite, odfork.MapPrivate
	if w.hot, err = w.p.Mmap(uint64(w.hotPages)*odfork.PageSize, prot, flags); err != nil {
		return nil, err
	}
	if w.cold, err = w.p.Mmap(uint64(w.coldPages)*odfork.PageSize, prot, flags); err != nil {
		return nil, err
	}
	page := make([]byte, odfork.PageSize)
	for i := 0; i < w.hotPages+w.coldPages; i++ {
		pressurePage(page, cfg.seed, i)
		if err := w.p.WriteAt(page, w.pageAddr(i)); err != nil {
			return nil, fmt.Errorf("populate page %d: %w", i, err)
		}
	}
	// Population already pushed every page through the limit once; a
	// quarter of a cold cycle more settles the LRU into the touch
	// pattern's steady state.
	warm := &roundRec{}
	if err := w.round(w.coldPages, warm, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up touches failed", warm.failed, warm.attempted)
	}
	w.collecting = true
	return w, nil
}

// pageAddr numbers the hot pages first, then the cold ones.
func (w *memWorld) pageAddr(i int) odfork.Addr {
	if i < w.hotPages {
		return w.hot + odfork.Addr(i*odfork.PageSize)
	}
	return w.cold + odfork.Addr((i-w.hotPages)*odfork.PageSize)
}

func (w *memWorld) round(n int, rec *roundRec, tr *tracer) error {
	var tk *track
	if tr != nil {
		tk = tr.track("mem-pressure")
		w.store.tk.Store(tr.track("swap-store"))
		defer w.store.tk.Store(nil)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		w.touch(rec, tk)
	}
	rec.wall = time.Since(start)
	return nil
}

// touch is one operation: three hot pages in turn, then one cold page;
// every second cold touch also dirties the page, so half of what is
// evicted has to be written back.
func (w *memWorld) touch(rec *roundRec, tk *track) {
	rec.attempted++
	i := w.touches
	w.touches++
	cold := i%4 == 3
	page := (i - i/4) % w.hotPages
	wantVer := byte(0)
	if cold {
		c := (i / 4) % w.coldPages
		page = w.hotPages + c
		wantVer = w.version[c]
	}
	addr := w.pageAddr(page)
	t0 := time.Now()
	err := w.p.ReadAt(w.buf[:], addr)
	if err == nil && cold && (i/4)%2 == 1 {
		c := page - w.hotPages
		w.version[c]++
		err = w.p.StoreByte(addr+4, w.version[c])
	}
	end := time.Now()
	if tk != nil {
		name := "op.hot"
		if cold {
			name = "op.cold"
		}
		tk.add(name, t0, end, 0, 0, uint32(i))
	}
	if err != nil {
		rec.fail("touch of page %d: %v", page, err)
		return
	}
	if binary.LittleEndian.Uint32(w.buf[:]) != uint32(page) || w.buf[4] != wantVer {
		rec.fail("page %d came back as tag %d version %d, want version %d", page, binary.LittleEndian.Uint32(w.buf[:]), w.buf[4], wantVer)
		return
	}
	lat := end.Sub(t0)
	rec.ops.add(lat)
	if w.collecting {
		if cold {
			w.coldT.add(lat)
		} else {
			w.hotT.add(lat)
		}
	}
}

// tail lifts the frame limit first: a fork that has to reclaim its
// own table frames can fail with ErrNoMem, and the benchmark runs no
// operation that may fail. What is forked is the half-swapped image.
func (w *memWorld) tail(t *tailRec) error {
	w.k.Allocator().SetLimit(0)
	n := 40
	if w.cfg.tiny {
		n = 5
	}
	return tailForks(w.p, t, true, n)
}

func (w *memWorld) layer(a analysis, pl map[string]float64) error {
	cold, hot := w.coldT.sorted(), w.hotT.sorted()
	pl["reclaim.cold_touch_p50_us"] = cold.pct(50) / 1e3
	pl["reclaim.cold_touch_p99_us"] = cold.pct(99) / 1e3
	pl["reclaim.hot_touch_p99_us"] = hot.pct(99) / 1e3
	// A hot touch ten times the hot median did not hit a resident
	// page: the LRU let a hot page go.
	refaults, limit := 0, 10*hot.pct(50)
	for _, v := range hot {
		if v > limit {
			refaults++
		}
	}
	if len(hot) > 0 {
		pl["reclaim.hot_refault_share"] = float64(refaults) / float64(len(hot))
	}
	// The hot set is larger than the TLB, so a hot touch is a miss and
	// a walk; the hit is the same read again, back to back.
	const reads = 1 << 16
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		if err := w.p.ReadAt(w.buf[:], w.hot); err != nil {
			return err
		}
	}
	pl["tlb.read8_hit_ns"] = float64(time.Since(t0)) / reads
	pl["reclaim.store_write_p50_us"] = median(a.dur["swapstore.write"]) / 1e3
	pl["reclaim.store_read_p50_us"] = median(a.dur["swapstore.read"]) / 1e3
	if st := w.store.Stats(); st.Slots > 0 {
		pl["reclaim.store_bytes_per_page"] = float64(st.Bytes) / float64(st.Slots)
	}
	return nil
}

func (w *memWorld) close() (int64, error) {
	w.p.Exit()
	w.p.Wait()
	w.k.SetSwapEnabled(false)
	w.k.Allocator().SetLimit(0)
	return w.k.Allocator().Allocated(), nil
}

var memPressure = workload{
	name:         wlMem,
	opsPerSecond: 8000,
	tinyOps:      600,
	boot:         bootMem,
}
