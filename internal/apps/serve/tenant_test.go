package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/tenant"
)

func TestTenantBinaryCodecFraming(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cd := TenantBinaryCodec{Tenant: 7}
	if err := cd.WriteRequest(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	req, err := TenantBinaryCodec{}.ReadRequest(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	id, payload, err := SplitTenant(req)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || string(payload) != "hello" {
		t.Fatalf("round trip = (%d, %q), want (7, hello)", id, payload)
	}
	if !bytes.Equal(req, EncodeTenant(7, []byte("hello"))) {
		t.Fatalf("EncodeTenant disagrees with the wire form: %x vs %x",
			EncodeTenant(7, []byte("hello")), req)
	}
	if _, _, err := SplitTenant([]byte{1, 2}); err == nil {
		t.Fatal("SplitTenant accepted a truncated request")
	}
}

// tenantFixture is a 2-tenant dispatcher over one kernel: each tenant
// owns a warm kv store; requests are served from per-request clones.
func tenantFixture(t *testing.T) (*kernel.Kernel, *Dispatcher, [2]uint32) {
	t.Helper()
	k := kernel.New()
	d := NewDispatcher()
	var ids [2]uint32
	for i, name := range []string{"alpha", "beta"} {
		tn, err := k.Tenants().Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testKVConfig(core.ForkOnDemand)
		cfg.Tenant = tn
		cfg.Keys = 100
		app, err := NewKV(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { app.Close() })
		if err := app.Warm(); err != nil {
			t.Fatal(err)
		}
		ids[i] = uint32(tn.TenantID())
		d.AddLane(ids[i], app, true)
	}
	return k, d, ids
}

func TestDispatcherRoutesAndIsolates(t *testing.T) {
	k, d, ids := tenantFixture(t)

	// Distinct writes land in distinct lanes.
	for i, id := range ids {
		val := []byte{byte('a' + i)}
		resp, err := d.Handle(EncodeTenant(id, EncodeSet([]byte("who"), val)))
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] != StatusOK {
			t.Fatalf("tenant %d SET status %d", id, resp[0])
		}
	}
	for i, id := range ids {
		resp, err := d.Handle(EncodeTenant(id, EncodeGet([]byte("who"))))
		if err != nil {
			t.Fatal(err)
		}
		st, val, err := DecodeKVResponse(resp)
		if err != nil || st != StatusOK {
			t.Fatalf("tenant %d GET = status %d, %v", id, st, err)
		}
		if want := byte('a' + i); len(val) != 1 || val[0] != want {
			t.Fatalf("tenant %d read %q, want %q (cross-tenant leak)", id, val, []byte{want})
		}
	}
	// Each GET was a serverless invocation: one clone per request.
	for _, l := range d.Lanes() {
		if snaps := l.App().Snapshotter().Snapshots(); snaps < 2 {
			t.Fatalf("lane served %d invocations but took %d clones", l.Invocations(), snaps)
		}
	}
	// Unknown tenants are refused.
	if _, err := d.Handle(EncodeTenant(9999, EncodeGet([]byte("who")))); err == nil {
		t.Fatal("request for an unregistered tenant was served")
	}

	// The clones charged and uncharged against their tenants; clone
	// invocations are synchronous, so the children have exited and
	// accounting must still cross-check.
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherOverTCP(t *testing.T) {
	_, d, ids := tenantFixture(t)
	srv, err := Listen(d, TenantBinaryCodec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One connection per tenant, each stamping its own id.
	for i, id := range ids {
		cl := dial(t, srv, TenantBinaryCodec{Tenant: id})
		val := []byte{byte('x' + i)}
		resp, flags := cl.roundTrip(t, EncodeSet([]byte("k"), val))
		if flags&FlagAppError != 0 || resp[0] != StatusOK {
			t.Fatalf("tenant %d SET over TCP: flags %b resp %x", id, flags, resp)
		}
	}
	for i, id := range ids {
		cl := dial(t, srv, TenantBinaryCodec{Tenant: id})
		resp, flags := cl.roundTrip(t, EncodeGet([]byte("k")))
		if flags&FlagAppError != 0 {
			t.Fatalf("tenant %d GET over TCP failed: %s", id, resp)
		}
		st, val, err := DecodeKVResponse(resp)
		if err != nil || st != StatusOK {
			t.Fatalf("tenant %d GET = status %d, %v", id, st, err)
		}
		if want := byte('x' + i); len(val) != 1 || val[0] != want {
			t.Fatalf("tenant %d read %q over TCP, want %q", id, val, []byte{want})
		}
	}
	// The server counts a request after flushing its response, so the
	// last count can land after the client has read the reply.
	for deadline := time.Now().Add(10 * time.Second); srv.Served() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if srv.Served() != 4 {
		t.Fatalf("server answered %d requests, want 4", srv.Served())
	}
}

// TestCloneAdmissionSurfacesQuota drives one lane over its quota and
// checks that clone invocations start failing with ErrQuotaExceeded
// rather than ErrNoMem.
func TestCloneAdmissionSurfacesQuota(t *testing.T) {
	k := kernel.New()
	k.Tenants().SetAdmitTimeout(0)            // fail fast instead of queueing
	tn, err := k.Tenants().Create("alpha", 8) // far below the warm set
	if err != nil {
		t.Fatal(err)
	}
	cfg := testKVConfig(core.ForkOnDemand)
	cfg.Tenant = tn
	cfg.Keys = 200
	app, err := NewKV(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Warm(); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher()
	l := d.AddLane(uint32(tn.TenantID()), app, true)

	_, err = l.Serve(EncodeGet(kvstore.Key(0)))
	if err == nil {
		t.Fatal("over-quota clone admitted with a zero admission timeout")
	}
	if !errors.Is(err, tenant.ErrQuotaExceeded) {
		t.Fatalf("over-quota clone failed with %v, want ErrQuotaExceeded", err)
	}
	if l.CloneErrs() != 1 {
		t.Fatalf("CloneErrs = %d, want 1", l.CloneErrs())
	}
}
