package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/serve"
	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/mem/bulk"
	"repro/internal/tenant"
	"repro/odfork"
)

// Direct probes: small timed loops over one public call each. Every
// probe lives with the workload that exercises its layer and runs in
// that workload's traced run only.

// probePhys times one frame through the allocator and back.
func probePhys(pl map[string]float64) {
	a := kernel.New().Allocator()
	const n = 1 << 18
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a.Put(a.Alloc())
	}
	pl["phys.alloc_put_ns"] = float64(time.Since(t0)) / n
}

// probeBulk runs the three page kernels over a buffer larger than any
// cache, so the figure is memory bandwidth and not L2 residency.
func probeBulk(pl map[string]float64, cfg config) {
	size := 64 << 20
	if cfg.tiny {
		size = 4 << 20
	}
	src, dst := make([]byte, size), make([]byte, size)
	r := newRNG(cfg.seed)
	for i := 0; i < size; i += odfork.PageSize {
		src[i] = byte(r.next()) | 1
	}
	gib := func(d time.Duration) float64 { return float64(size) / float64(1<<30) / d.Seconds() }
	pages := func(f func(off int)) time.Duration {
		t0 := time.Now()
		for off := 0; off < size; off += odfork.PageSize {
			f(off)
		}
		return time.Since(t0)
	}
	pl["bulk.copy_page_gib_per_s"] = gib(pages(func(off int) {
		bulk.CopyPage(dst[off:off+odfork.PageSize], src[off:off+odfork.PageSize])
	}))
	equal := 0
	pl["bulk.pages_equal_gib_per_s"] = gib(pages(func(off int) {
		if bulk.PagesEqual(dst[off:off+odfork.PageSize], src[off:off+odfork.PageSize]) {
			equal++
		}
	}))
	// The zero check has to read a whole page to answer yes.
	clear(dst)
	zero := 0
	pl["bulk.is_zero_gib_per_s"] = gib(pages(func(off int) {
		if bulk.IsZeroPage(dst[off : off+odfork.PageSize]) {
			zero++
		}
	}))
	if want := size / odfork.PageSize; equal != want || zero != want {
		panic(fmt.Sprintf("bulk kernels: %d equal, %d zero of %d pages", equal, zero, want))
	}
}

// probeCodec sends a request and its response through the tenant codec
// over an in-memory pipe: framing cost with no socket in the way.
func probeCodec(pl map[string]float64) error {
	codec := serve.TenantBinaryCodec{Tenant: 7}
	roundtrip := func(size, n int) (nsPerOp, allocsPerOp float64, err error) {
		var pipe bytes.Buffer
		br, bw := serve.NewReader(&pipe), serve.NewWriter(&pipe)
		payload := bytes.Repeat([]byte{0x5a}, size)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := codecRoundtrip(codec, br, bw, payload); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return float64(d) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
	}
	ns64, allocs, err := roundtrip(64, 1<<15)
	if err != nil {
		return err
	}
	ns4k, _, err := roundtrip(4096, 1<<14)
	if err != nil {
		return err
	}
	pl["serve.codec_roundtrip_ns_64b"] = ns64
	pl["serve.codec_roundtrip_ns_4k"] = ns4k
	pl["serve.codec_allocs_per_roundtrip"] = allocs
	return nil
}

func codecRoundtrip(codec serve.Codec, br *bufio.Reader, bw *bufio.Writer, payload []byte) error {
	if err := codec.WriteRequest(bw, payload); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	req, err := codec.ReadRequest(br)
	if err != nil {
		return err
	}
	if err := codec.WriteResponse(bw, req[4:], 0); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	resp, _, err := codec.ReadResponse(br)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp, payload) {
		return fmt.Errorf("codec roundtrip changed the payload")
	}
	return nil
}

// probeAdmit times the admission fast path: an in-quota tenant with no
// queue.
func probeAdmit(pl map[string]float64, m *tenant.Manager, t *tenant.Tenant) error {
	const n = 1 << 17
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if wait, err := m.AdmitFork(t); err != nil || wait != 0 {
			return fmt.Errorf("admission fast path: waited %v, err %v", wait, err)
		}
	}
	pl["tenant.admit_fast_ns"] = float64(time.Since(t0)) / n
	return nil
}

// probeCkptReader opens the snapshot chain at path and reads the pages
// at the given addresses in order, separating the reads that had to
// load and decode a 64-page chunk from the ones served from it.
func probeCkptReader(pl map[string]float64, path string, vaddrs []uint64) error {
	t0 := time.Now()
	snap, err := ckpt.OpenChain(path, ckpt.Env{})
	if err != nil {
		return err
	}
	defer snap.Close()
	pl["ckpt.open_us"] = float64(time.Since(t0)) / 1e3

	var all samples
	for _, v := range vaddrs {
		t := time.Now()
		_, found, err := snap.Page(v)
		all.add(time.Since(t))
		if err != nil || !found {
			return fmt.Errorf("ckpt: page %#x: found %v, err %v", v, found, err)
		}
	}
	// Sequential reads hit a fresh chunk once in 64: the hits are the
	// median, the loads the slowest 1/64th.
	s := all.sorted()
	pl["ckpt.page_hit_ns"] = s.pct(50)
	loads := s[len(s)-max(len(s)/64, 1):]
	pl["ckpt.chunk_decode_us"] = loads.pct(50) / 1e3

	// Verify reads one file, not the chain: take the full snapshot the
	// incremental one hangs off, which holds nearly all the bytes.
	whole := snap
	if p := snap.Parent(); p != nil {
		whole = p
	}
	t0 = time.Now()
	vs, err := whole.Verify()
	if err != nil {
		return err
	}
	pl["ckpt.verify_mib_per_s"] = float64(vs.Bytes) / float64(1<<20) / time.Since(t0).Seconds()
	return nil
}
