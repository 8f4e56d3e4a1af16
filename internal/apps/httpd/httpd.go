// Package httpd implements the Apache-prefork workload of §5.3.5
// (Tables 6–7): a control process with a small (~7 MiB) mapped
// configuration forks a pool of worker processes at startup; requests
// are then served by the workers. Because the master's footprint is
// tiny and forks happen only at startup, on-demand-fork is expected to
// make no measurable difference — the paper's negative result.
package httpd

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/stats"
)

// Config sizes the server.
type Config struct {
	ConfigBytes uint64 // master's mapped configuration (paper: 7 MiB)
	Workers     int    // prefork pool size
	Mode        core.ForkMode
	// MaxRequestsPerChild recycles a worker (exit + fork a replacement
	// from the master) after serving this many requests, like Apache's
	// directive of the same name. Zero disables recycling.
	MaxRequestsPerChild int
}

// Server is the prefork master plus its worker pool.
type Server struct {
	kern    *kernel.Kernel
	master  *kernel.Process
	cfgBase addr.V
	cfgSize uint64
	workers []*worker
	next    int
	mode    core.ForkMode
	maxReq  int

	// StartupForkTimes records the per-worker fork latency at boot.
	StartupForkTimes stats.Sample
	// Recycles counts workers replaced due to MaxRequestsPerChild.
	Recycles int
}

type worker struct {
	proc    *kernel.Process
	scratch addr.V // worker-private response buffer
	served  int
}

const scratchSize = 16 * addr.PageSize

// Start boots the master, loads its configuration, and preforks the
// worker pool.
func Start(k *kernel.Kernel, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("httpd: need at least one worker")
	}
	master := k.NewProcess()
	base, err := master.Mmap(cfg.ConfigBytes, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate)
	if err != nil {
		master.Exit()
		return nil, err
	}
	// "Read the configuration": fill it with deterministic content the
	// workers will consult per request.
	page := make([]byte, addr.PageSize)
	for off := uint64(0); off < cfg.ConfigBytes; off += addr.PageSize {
		binary.LittleEndian.PutUint64(page, off)
		for i := 8; i < len(page); i++ {
			page[i] = byte(off>>12) + byte(i)
		}
		if err := master.WriteAt(page, base+addr.V(off)); err != nil {
			master.Exit()
			return nil, err
		}
	}

	s := &Server{
		kern: k, master: master, cfgBase: base, cfgSize: cfg.ConfigBytes,
		mode: cfg.Mode, maxReq: cfg.MaxRequestsPerChild,
	}
	for i := 0; i < cfg.Workers; i++ {
		t0 := time.Now()
		w, err := s.spawnWorker()
		s.StartupForkTimes.AddDuration(time.Since(t0))
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// spawnWorker forks a fresh worker from the master.
func (s *Server) spawnWorker() (*worker, error) {
	proc, err := s.master.Fork(kernel.WithMode(s.mode))
	if err != nil {
		return nil, err
	}
	scratch, err := proc.Mmap(scratchSize, vm.ProtRead|vm.ProtWrite, vm.MapPrivate)
	if err != nil {
		proc.Exit()
		return nil, err
	}
	return &worker{proc: proc, scratch: scratch}, nil
}

// Workers returns the pool size.
func (s *Server) Workers() int { return len(s.workers) }

// Master returns the control process — the fork source for workers and
// the natural target for a Snapshotter (a periodic scoreboard dump or
// graceful-restart probe).
func (s *Server) Master() *kernel.Process { return s.master }

// Stop terminates the pool and the master.
func (s *Server) Stop() {
	for _, w := range s.workers {
		w.proc.Exit()
	}
	s.workers = nil
	s.master.Exit()
}

// Handle serves one request on the next worker (round-robin) and
// returns the response. The handler hashes the request, reads a few
// configuration pages the hash selects (shared, inherited through
// fork), and writes a response into the worker's private buffer —
// request-isolated work in the spirit of the prefork MPM.
func (s *Server) Handle(req []byte) ([]byte, error) {
	i := s.next % len(s.workers)
	w := s.workers[i]
	s.next++
	if s.maxReq > 0 && w.served >= s.maxReq {
		// Apache's MaxRequestsPerChild: retire the worker and prefork a
		// replacement from the master.
		nw, err := s.spawnWorker()
		if err != nil {
			return nil, err
		}
		w.proc.Exit()
		s.workers[i] = nw
		s.Recycles++
		w = nw
	}
	w.served++

	h := fnv(req)
	var acc uint64
	var pg [64]byte
	for i := 0; i < 4; i++ {
		off := (h + uint64(i)*0x9E3779B97F4A7C15) % (s.cfgSize - 64)
		if err := w.proc.ReadAt(pg[:], s.cfgBase+addr.V(off)); err != nil {
			return nil, err
		}
		acc ^= binary.LittleEndian.Uint64(pg[:])
	}
	resp := make([]byte, 128)
	copy(resp, "HTTP/1.1 200 OK\r\ncontent: ")
	binary.LittleEndian.PutUint64(resp[32:], acc)
	copy(resp[40:], req)
	if err := w.proc.WriteAt(resp, w.scratch); err != nil {
		return nil, err
	}
	// Echo back from the worker's memory, as a socket write would.
	out := make([]byte, len(resp))
	if err := w.proc.ReadAt(out, w.scratch); err != nil {
		return nil, err
	}
	return out, nil
}

func fnv(p []byte) uint64 {
	var x uint64 = 14695981039346656037
	for _, b := range p {
		x ^= uint64(b)
		x *= 1099511628211
	}
	return x
}

// BenchResult is the Tables 6–7 output for one engine.
type BenchResult struct {
	Mode        core.ForkMode
	MeanUS      float64
	MaxUS       float64
	Percentiles map[float64]float64 // percentile -> latency µs
	StartupMS   float64             // total prefork time at boot
}

// BenchPercentiles are the Table 7 rows.
var BenchPercentiles = []float64{50, 75, 90, 99}
