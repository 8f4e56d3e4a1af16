package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/odfork"
)

// fork-loop: the fork-server pattern (AFL, a test runner forking a
// loaded database) made synthetic so that every child does the same
// work. One process holds a large populated private mapping; each
// operation forks it, lets child and parent write to a few pages,
// checks that neither sees the other's writes, and reaps the child.

const (
	childWrites  = 32
	parentWrites = 8
	childOff     = 16 // byte the child flips in a page
	parentOff    = 8  // byte the parent flips in a page
	regionPages  = odfork.HugePageSize / odfork.PageSize
)

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pageWord is the generator behind every image: word w of a page, a
// stateless hash of (seed, page, version), never zero. Random access
// lets an operation check one byte without regenerating the page.
func pageWord(seed uint64, page, version, w int) uint64 {
	return mix64(seed^uint64(page)*0x9e3779b97f4a7c15^uint64(version)<<48^uint64(w)*0xd6e8feb86659fd93) | 1
}

type forkWorld struct {
	systemTelemetry
	cfg   config
	p     *odfork.Process
	base  odfork.Addr
	pages int
	r     *rng
	mode  odfork.Mode
	opID  uint32
	// shadow is the parent's current byte at parentOff of every page
	// it has written; the image the next child must inherit.
	shadow   map[int]byte
	pristine samples
	want     []byte
	got      []byte
}

// filled reports whether the generator gives the page content; the
// other three in four stay demand-zero, so copy-on-write sees a 1:3 mix
// of real copies and zero-page elisions.
func filled(page int) bool { return page%4 == 0 }

func (w *forkWorld) genByte(page, off int) byte {
	if !filled(page) {
		return 0
	}
	return byte(pageWord(w.cfg.seed, page, 0, off/8) >> (8 * (off % 8)))
}

func (w *forkWorld) genPage(dst []byte, page int) {
	for i := 0; i < len(dst); i += 8 {
		var x uint64
		if filled(page) {
			x = pageWord(w.cfg.seed, page, 0, i/8)
		}
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

func (w *forkWorld) parentByte(page int) byte {
	if b, ok := w.shadow[page]; ok {
		return b
	}
	return w.genByte(page, parentOff)
}

func (w *forkWorld) addr(page, off int) odfork.Addr {
	return w.base + odfork.Addr(page*odfork.PageSize+off)
}

func bootFork(cfg config, traced bool) (world, error) {
	size := uint64(1) << 30
	if cfg.tiny {
		size = 8 << 20
	}
	w := &forkWorld{
		cfg: cfg, systemTelemetry: systemTelemetry{odfork.NewSystem()}, r: newRNG(cfg.seed), mode: odfork.OnDemand,
		pages: int(size / odfork.PageSize), shadow: map[int]byte{},
		want: make([]byte, odfork.PageSize), got: make([]byte, odfork.PageSize),
	}
	w.p = w.sys.NewProcess()
	var err error
	w.base, err = w.p.Mmap(size, odfork.ProtRead|odfork.ProtWrite, odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		return nil, err
	}
	for page := 0; page < w.pages; page += 4 {
		w.genPage(w.want, page)
		if err := w.p.WriteAt(w.want, w.addr(page, 0)); err != nil {
			return nil, err
		}
	}
	if traced {
		// The parent has no privatised table yet: these forks only
		// share, none has to take a table back first.
		for i := 0; i < 30; i++ {
			if err := forkExit(w.p, odfork.OnDemand, &w.pristine, nil); err != nil {
				return nil, err
			}
		}
	}
	warm := &roundRec{}
	n := 200
	if cfg.tiny {
		n = 10
	}
	if err := w.round(n, warm, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up operations failed", warm.failed, warm.attempted)
	}
	return w, nil
}

// forkExit forks p with the given engine and reaps the child at once,
// timing both halves (exit may be nil).
func forkExit(p *odfork.Process, mode odfork.Mode, fork, exit *samples) error {
	t0 := time.Now()
	c, err := p.Fork(odfork.WithMode(mode))
	d := time.Since(t0)
	if err != nil {
		return err
	}
	fork.add(d)
	t1 := time.Now()
	c.Exit()
	c.Wait()
	if exit != nil {
		exit.add(time.Since(t1))
	}
	return nil
}

func (w *forkWorld) round(n int, rec *roundRec, tr *tracer) error {
	var tk *track
	if tr != nil {
		tk = tr.track("fork-loop")
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := w.op(rec, tk); err != nil {
			return err
		}
	}
	rec.wall = time.Since(start)
	return nil
}

// store writes one byte and, when tracing, records whether it was the
// process's first write to its 2 MiB region since the fork (a shared
// table has to be copied before the page) or a later one (page only).
func (w *forkWorld) store(p *odfork.Process, page, off int, b byte, seen *[]int, tk *track, who string, parent uint32) error {
	if tk == nil {
		return p.StoreByte(w.addr(page, off), b)
	}
	kind := "first"
	region := page / regionPages
	for _, r := range *seen {
		if r == region {
			kind = "next"
		}
	}
	*seen = append(*seen, region)
	t0 := time.Now()
	err := p.StoreByte(w.addr(page, off), b)
	tk.add("proc.store."+kind+"."+who, t0, time.Now(), 0, parent, w.opID)
	return err
}

func (w *forkWorld) op(rec *roundRec, tk *track) error {
	rec.attempted++
	w.opID++
	var opSpan uint32
	if tk != nil {
		opSpan = tk.tr.newID()
	}
	t0 := time.Now()
	child, err := w.p.Fork(odfork.WithMode(w.mode))
	tFork := time.Now()
	if err != nil {
		rec.fail("fork: %v", err)
		return nil
	}
	if tk != nil {
		tk.add("proc.fork", t0, tFork, 0, opSpan, w.opID)
	}

	var cpages [childWrites]int
	var ppages [parentWrites]int
	var pold [parentWrites]byte
	var seenC, seenP []int
	if tk != nil {
		seenC, seenP = make([]int, 0, childWrites), make([]int, 0, parentWrites)
	}
	ok := true
	for i := range cpages {
		cpages[i] = w.r.intn(w.pages)
		if err := w.store(child, cpages[i], childOff, w.genByte(cpages[i], childOff)^0xA5, &seenC, tk, "child", opSpan); err != nil {
			rec.fail("child store: %v", err)
			ok = false
		}
	}
	for i := range ppages {
		ppages[i] = w.r.intn(w.pages)
		pold[i] = w.parentByte(ppages[i])
		nb := pold[i] ^ 0x5A
		if err := w.store(w.p, ppages[i], parentOff, nb, &seenP, tk, "parent", opSpan); err != nil {
			rec.fail("parent store: %v", err)
			ok = false
		}
		w.shadow[ppages[i]] = nb
	}

	// The child reads back its own writes ...
	one := w.got[:1]
	for _, page := range cpages {
		if err := child.ReadAt(one, w.addr(page, childOff)); err != nil || one[0] != w.genByte(page, childOff)^0xA5 {
			rec.fail("child lost its write to page %d (err %v)", page, err)
			ok = false
		}
	}
	// ... and a page the parent changed after the fork, which it must
	// still see as it was at the fork.
	page := ppages[0]
	w.genPage(w.want, page)
	w.want[parentOff] = pold[0]
	for _, cp := range cpages {
		if cp == page {
			w.want[childOff] = w.genByte(page, childOff) ^ 0xA5
		}
	}
	if err := child.ReadAt(w.got, w.addr(page, 0)); err != nil || !bytes.Equal(w.got, w.want) {
		rec.fail("child sees the parent's post-fork write to page %d (err %v)", page, err)
		ok = false
	}
	// The parent sees none of the child's writes.
	for _, page := range cpages {
		if err := w.p.ReadAt(one, w.addr(page, childOff)); err != nil || one[0] != w.genByte(page, childOff) {
			rec.fail("parent sees the child's write to page %d (err %v)", page, err)
			ok = false
		}
	}

	t1 := time.Now()
	child.Exit()
	child.Wait()
	end := time.Now()
	if tk != nil {
		tk.add("proc.exit", t1, end, 0, opSpan, w.opID)
		tk.add("op", t0, end, opSpan, 0, w.opID)
	}
	if ok {
		rec.ops.add(end.Sub(t0))
		if w.mode == odfork.OnDemand {
			rec.fork.add(tFork.Sub(t0))
		}
	}
	return nil
}

// tail is the classic round: the same operation with the
// copy-everything engine, an eighth as many, so the baseline engine
// (and the walker code both engines share) cannot regress unseen.
func (w *forkWorld) tail(t *tailRec) error {
	n := max(w.cfg.roundOps/8, 5)
	rec := &roundRec{}
	w.mode = odfork.Classic
	err := w.round(n, rec, nil)
	w.mode = odfork.OnDemand
	if err != nil {
		return err
	}
	if rec.failed > 0 {
		return fmt.Errorf("%d of %d classic-engine operations failed", rec.failed, rec.attempted)
	}
	// op() keeps on-demand fork times only; time the classic call by
	// itself, which is also what the other workloads' tails report.
	for i := 0; i < max(n/4, 5); i++ {
		if err := forkExit(w.p, odfork.Classic, &t.classic, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *forkWorld) layer(a analysis, pl map[string]float64) error {
	first := append(append(samples(nil), a.dur["proc.store.first.child"]...), a.dur["proc.store.first.parent"]...)
	next := append(append(samples(nil), a.dur["proc.store.next.child"]...), a.dur["proc.store.next.parent"]...)
	pl["fault.first_write_p50_us"] = median(first) / 1e3
	pl["fault.next_write_p50_us"] = median(next) / 1e3
	pl["fork.pristine_p50_us"] = median(w.pristine) / 1e3
	pl["fork.ns_per_leaf_table"] = median(a.dur["proc.fork"]) / float64(w.pages/regionPages)

	// A write to a page the process already owns: no fault, the TLB
	// and the store itself.
	child, err := w.p.Fork(odfork.WithMode(odfork.OnDemand))
	if err != nil {
		return err
	}
	if err := child.StoreByte(w.addr(0, childOff), 1); err != nil {
		return err
	}
	const warm = 1 << 16
	t0 := time.Now()
	for i := 0; i < warm; i++ {
		if err := child.StoreByte(w.addr(0, childOff), byte(i)); err != nil {
			return err
		}
	}
	pl["fault.warm_write_ns"] = float64(time.Since(t0)) / warm
	child.Exit()
	child.Wait()

	probePhys(pl)
	probeBulk(pl, w.cfg)
	return nil
}

func (w *forkWorld) close() (int64, error) {
	w.p.Exit()
	w.p.Wait()
	return w.sys.AllocatedFrames(), nil
}

var forkLoop = workload{
	name:         wlFork,
	opsPerSecond: 700,
	tinyOps:      40,
	boot:         bootFork,
}
