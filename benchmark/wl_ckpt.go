package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/odfork"
)

// ckpt-restore: the only workload where the durable-checkpoint code
// (writer, chunk codec, CRC, chain reader, lazy page-in) works. One
// cycle writes a full checkpoint, dirties a twentieth of the image,
// writes an incremental one, restores the chain into a fresh system
// and reads every page back, each faulting in from the file. Next to
// mem-pressure it is the second "page from a slow source" path.

type ckptWorld struct {
	// The armed-cost rounds toggle the source system only: a restore
	// system is born inside the cycle with the defaults.
	systemTelemetry
	cfg    config
	p      *odfork.Process
	base   odfork.Addr
	pages  int
	ver    []uint32
	r      *rng
	dir    string
	cycles int

	// The last cycle's restored process and files stay until the next
	// cycle (or close), so the tail can fork a restored image and the
	// reader probes have a chain to open.
	last     *odfork.Process
	lastSys  *odfork.System
	lastIncr string
	files    []string

	restoredPeak, restoredLeak int64
	restored                   metrics.Snapshot // summed over retired restore systems

	fullWrite, incrWrite, restoreCall, firstOp, exits samples
	incrShare, fileBytesPerPage                       []float64
	page, want                                        []byte
}

// imagePage is the generator: (page, version) up front, seeded noise
// to the half, zeroes after.
func (w *ckptWorld) imagePage(dst []byte, page int) {
	clear(dst)
	v := int(w.ver[page])
	for i := 8; i < len(dst)/2; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pageWord(w.cfg.seed, page, v, i/8))
	}
	binary.LittleEndian.PutUint32(dst, uint32(page))
	binary.LittleEndian.PutUint32(dst[4:], w.ver[page])
}

func (w *ckptWorld) addr(page int) odfork.Addr {
	return w.base + odfork.Addr(page*odfork.PageSize)
}

func ckptPages(cfg config) int {
	if cfg.tiny {
		return 4 << 20 / odfork.PageSize
	}
	return 128 << 20 / odfork.PageSize
}

func bootCkpt(cfg config, traced bool) (world, error) {
	w := &ckptWorld{
		cfg: cfg, systemTelemetry: systemTelemetry{odfork.NewSystem()}, pages: ckptPages(cfg), r: newRNG(cfg.seed),
		page: make([]byte, odfork.PageSize), want: make([]byte, odfork.PageSize),
	}
	w.ver = make([]uint32, w.pages)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if w.dir, err = os.MkdirTemp(cfg.outDir, "ckpt-"); err != nil {
		return nil, err
	}
	w.p = w.sys.NewProcess()
	if w.base, err = w.p.Mmap(uint64(w.pages)*odfork.PageSize, odfork.ProtRead|odfork.ProtWrite, odfork.MapPrivate); err != nil {
		return nil, err
	}
	for i := 0; i < w.pages; i++ {
		w.imagePage(w.page, i)
		if err := w.p.WriteAt(w.page, w.addr(i)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// round runs n/pages cycles; an operation is one page read back from
// the restored image.
func (w *ckptWorld) round(n int, rec *roundRec, tr *tracer) error {
	var tk *track
	if tr != nil {
		tk = tr.track("ckpt-restore")
	}
	start := time.Now()
	for c := 0; c < n/w.pages; c++ {
		if err := w.cycle(rec, tk); err != nil {
			return err
		}
	}
	rec.wall = time.Since(start)
	return nil
}

// retire exits the previous cycle's restored process and deletes its
// files.
func (w *ckptWorld) retire() {
	if w.last == nil {
		return
	}
	t0 := time.Now()
	w.last.Exit()
	w.last.Wait()
	w.exits.add(time.Since(t0))
	m := w.lastSys.Metrics()
	w.restoredPeak = max(w.restoredPeak, m.Alloc.FramesPeak)
	w.restoredLeak += w.lastSys.AllocatedFrames()
	addRestored(&w.restored, m)
	for _, f := range w.files {
		os.Remove(f)
	}
	w.last, w.lastSys, w.files = nil, nil, nil
}

func (w *ckptWorld) cycle(rec *roundRec, tk *track) error {
	w.retire()
	w.cycles++
	var opSpan uint32
	span := func(name string, t0 time.Time) {
		if tk != nil {
			tk.add(name, t0, time.Now(), 0, opSpan, uint32(w.cycles))
		}
	}
	if tk != nil {
		opSpan = tk.tr.newID()
	}
	cycleStart := time.Now()
	fullPath := filepath.Join(w.dir, fmt.Sprintf("full-%d.ckpt", w.cycles))
	incrPath := filepath.Join(w.dir, fmt.Sprintf("incr-%d.ckpt", w.cycles))
	w.files = []string{fullPath, incrPath}

	t0 := time.Now()
	full, err := w.p.CheckpointTo(fullPath)
	if err != nil {
		return fmt.Errorf("full checkpoint: %w", err)
	}
	w.fullWrite.add(time.Since(t0))
	span("proc.checkpoint.full", t0)
	defer full.Release()
	w.fileBytesPerPage = append(w.fileBytesPerPage, float64(full.Bytes())/float64(full.Pages()))

	// Dirty a seeded twentieth of the image.
	for i := 0; i < w.pages/20; i++ {
		page := w.r.intn(w.pages)
		w.ver[page]++
		w.imagePage(w.page, page)
		if err := w.p.WriteAt(w.page, w.addr(page)); err != nil {
			return err
		}
	}
	t0 = time.Now()
	incr, err := w.p.CheckpointTo(incrPath, odfork.WithCheckpointParent(full))
	if err != nil {
		return fmt.Errorf("incremental checkpoint: %w", err)
	}
	w.incrWrite.add(time.Since(t0))
	span("proc.checkpoint.incr", t0)
	defer incr.Release()
	w.incrShare = append(w.incrShare, float64(incr.Pages())/float64(w.pages))

	// Cold start: a fresh system, as after a daemon restart.
	sys := odfork.NewSystem()
	t0 = time.Now()
	rp, err := sys.RestoreFrom(incrPath)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	w.restoreCall.add(time.Since(t0))
	span("sys.restore", t0)
	w.last, w.lastSys, w.lastIncr = rp, sys, incrPath
	var tag [8]byte
	t1 := time.Now()
	err = rp.ReadAt(tag[:], w.addr(0))
	if err != nil || !w.tagOK(tag[:], 0) {
		return fmt.Errorf("first read after restore: tag % x, err %v", tag, err)
	}
	w.firstOp.add(time.Since(t0))
	span("proc.read.first", t1)

	// Every page, in order: eight bytes each, the whole page every 64th.
	var chunkStart time.Time
	for page := 0; page < w.pages; page++ {
		if tk != nil && page%64 == 0 {
			chunkStart = time.Now()
		}
		rec.attempted++
		t := time.Now()
		err := rp.ReadAt(tag[:], w.addr(page))
		lat := time.Since(t)
		switch {
		case err != nil:
			rec.fail("read of restored page %d: %v", page, err)
		case !w.tagOK(tag[:], page):
			rec.fail("restored page %d came back as % x", page, tag)
		default:
			rec.ops.add(lat)
		}
		if page%64 == 63 {
			w.imagePage(w.want, page)
			if err := rp.ReadAt(w.page, w.addr(page)); err != nil || !bytes.Equal(w.page, w.want) {
				rec.failed++
				fmt.Fprintf(os.Stderr, "benchmark: restored page %d differs from the image (err %v)\n", page, err)
			}
			span("proc.read.page", chunkStart)
		}
	}
	if tk != nil {
		tk.add("op", cycleStart, time.Now(), opSpan, 0, uint32(w.cycles))
	}
	return nil
}

func (w *ckptWorld) tagOK(tag []byte, page int) bool {
	return binary.LittleEndian.Uint32(tag) == uint32(page) && binary.LittleEndian.Uint32(tag[4:]) == w.ver[page]
}

func (w *ckptWorld) tail(t *tailRec) error {
	n := 40
	if w.cfg.tiny {
		n = 5
	}
	return tailForks(w.last, t, true, n)
}

// addRestored adds the counters a restore system moves (page-in, read
// faults, TLB, allocator shards) to dst.
func addRestored(dst *metrics.Snapshot, m metrics.Snapshot) {
	dst.Ckpt.PageIns += m.Ckpt.PageIns
	dst.Ckpt.ChunkLoads += m.Ckpt.ChunkLoads
	dst.Fault.ReadFaults += m.Fault.ReadFaults
	dst.TLB.Hits += m.TLB.Hits
	dst.TLB.Misses += m.TLB.Misses
	dst.Alloc.ShardHits += m.Alloc.ShardHits
	dst.Alloc.ShardRefills += m.Alloc.ShardRefills
	dst.Alloc.ShardDrains += m.Alloc.ShardDrains
}

// counters sums the source system and every restore system; the frame
// peak is the source's plus the largest restored image's, the two
// being alive together.
func (w *ckptWorld) counters() metrics.Snapshot {
	m := w.sys.Metrics()
	peak := w.restoredPeak
	addRestored(&m, w.restored)
	if w.lastSys != nil {
		last := w.lastSys.Metrics()
		peak = max(peak, last.Alloc.FramesPeak)
		addRestored(&m, last)
	}
	m.Alloc.FramesPeak += peak
	return m
}

func (w *ckptWorld) layer(a analysis, pl map[string]float64) error {
	imageMiB := float64(w.pages) * odfork.PageSize / (1 << 20)
	full := median(w.fullWrite)
	pl["ckpt.write_mib_per_s"] = imageMiB / (full / 1e9)
	pl["ckpt.full_write_us_per_page"] = full / 1e3 / float64(w.pages)
	pl["ckpt.restore_first_op_us"] = median(w.firstOp) / 1e3
	pl["ckpt.incr_write_ms"] = median(w.incrWrite) / 1e6
	pl["ckpt.incr_pages_share"] = median(w.incrShare)
	pl["ckpt.file_bytes_per_page"] = median(w.fileBytesPerPage)
	pl["ckpt.restore_call_us"] = median(w.restoreCall) / 1e3

	vaddrs := make([]uint64, w.pages)
	for i := range vaddrs {
		vaddrs[i] = uint64(w.addr(i))
	}
	if err := probeCkptReader(pl, w.lastIncr, vaddrs); err != nil {
		return err
	}
	if c := w.counters().Ckpt; c.PageIns > 0 {
		pl["ckpt.chunk_loads_per_kpage"] = float64(c.ChunkLoads) / float64(c.PageIns) * 1e3
	}
	return nil
}

func (w *ckptWorld) close() (int64, error) {
	w.retire()
	w.p.Exit()
	w.p.Wait()
	err := os.RemoveAll(w.dir)
	return w.sys.AllocatedFrames() + w.restoredLeak, err
}

var ckptRestore = workload{
	name:         wlCkpt,
	opsPerSecond: 58000,
	opQuantum:    ckptPages,
	tinyOps:      1,
	boot:         bootCkpt,
}
