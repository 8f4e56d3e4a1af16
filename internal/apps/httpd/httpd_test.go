package httpd

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
)

func testConfig(mode core.ForkMode) Config {
	return Config{
		ConfigBytes: 4 * addr.PTECoverage, // ~8 MiB, close to Apache's 7
		Workers:     4,
		Mode:        mode,
	}
}

func TestStartAndStop(t *testing.T) {
	// Both engines on one kernel: each pool boots, times its startup
	// forks and frees every frame on Stop.
	k := kernel.New()
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		s, err := Start(k, testConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		if s.Workers() != 4 {
			t.Errorf("%v: Workers = %d", mode, s.Workers())
		}
		if k.NumProcesses() != 5 { // master + 4 workers
			t.Errorf("%v: processes = %d", mode, k.NumProcesses())
		}
		if n := s.StartupForkTimes.N(); n != 4 || s.StartupForkTimes.Mean() <= 0 {
			t.Errorf("%v: startup forks recorded = %d, mean %f ms", mode, n, s.StartupForkTimes.Mean())
		}
		s.Stop()
		if k.NumProcesses() != 0 {
			t.Errorf("%v: processes after stop = %d", mode, k.NumProcesses())
		}
		if n := k.Allocator().Allocated(); n != 0 {
			t.Errorf("%v: leak: %d frames", mode, n)
		}
	}
}

func TestZeroWorkersRejected(t *testing.T) {
	k := kernel.New()
	if _, err := Start(k, Config{ConfigBytes: addr.PTECoverage, Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestHandleDeterministicAndDistributed(t *testing.T) {
	k := kernel.New()
	s, err := Start(k, testConfig(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// The same request served by different workers must produce the
	// same response: the configuration is inherited identically.
	req := []byte("GET /index.html")
	var responses [][]byte
	for i := 0; i < s.Workers(); i++ {
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, resp)
	}
	for i := 1; i < len(responses); i++ {
		if !bytes.Equal(responses[0], responses[i]) {
			t.Errorf("worker %d response differs", i)
		}
	}
	if !bytes.Contains(responses[0], []byte("200 OK")) {
		t.Error("response missing status line")
	}
}

func TestWorkerIsolation(t *testing.T) {
	// A worker writing its scratch must not disturb another worker's
	// view of the shared configuration (prefork request isolation).
	k := kernel.New()
	s, err := Start(k, testConfig(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	r1, err := s.Handle([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Handle([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := s.Handle([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Error("identical request served differently after interleaved traffic")
	}
}

func TestMaxRequestsPerChildRecycling(t *testing.T) {
	k := kernel.New()
	cfg := testConfig(core.ForkOnDemand)
	cfg.Workers = 2
	cfg.MaxRequestsPerChild = 3
	s, err := Start(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	req := []byte("GET /recycle")
	var first []byte
	for i := 0; i < 20; i++ {
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = resp
		} else if !bytes.Equal(first, resp) {
			t.Fatalf("response changed after recycling at request %d", i)
		}
	}
	if s.Recycles == 0 {
		t.Error("no workers recycled")
	}
	// Pool size is stable and no process leaks beyond master+workers.
	if k.NumProcesses() != 3 {
		t.Errorf("processes = %d, want master+2 workers", k.NumProcesses())
	}
}
