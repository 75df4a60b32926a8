package hdfsraid

import (
	"runtime"
	"testing"

	"repro/internal/gf256"
	"repro/internal/tune"
)

func TestStoreLoadsTuneAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "pentagon", 64)
	if err != nil {
		t.Fatal(err)
	}
	// A freshly created store is uncalibrated: every pool defaults.
	if got := s.encodeWorkersFor("pentagon"); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("uncalibrated encode workers = %d, want GOMAXPROCS", got)
	}
	if s.Tune() != nil {
		t.Fatal("uncalibrated store reports tune params")
	}

	p := &tune.Params{
		Kernel:   gf256.KernelName(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Codes: map[string]tune.CodeTune{
			"pentagon": {EncodeWorkers: 1, DecodeWorkers: 1},
		},
		MoveWorkers: 1,
	}
	if err := p.Save(tune.PathIn(dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.encodeWorkersFor("pentagon"); got != 1 {
		t.Fatalf("calibrated encode workers = %d, want 1", got)
	}
	if got := s2.repairWorkers(); got != 1 {
		t.Fatalf("repair workers = %d, want 1", got)
	}
	if got := s2.MoveWorkers(); got != 1 {
		t.Fatalf("move workers = %d, want 1", got)
	}
	// Unknown codes keep the default even on a calibrated store.
	if got := s2.encodeWorkersFor("rs-14-10"); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("unknown-code encode workers = %d, want GOMAXPROCS", got)
	}

	// The calibrated store still serves reads and writes.
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s2.Put("f.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("roundtrip mismatch under calibrated pools")
	}
}

func TestStoreIgnoresStaleTune(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "pentagon", 64); err != nil {
		t.Fatal(err)
	}
	p := &tune.Params{
		Kernel:   "some-other-kernel",
		MaxProcs: runtime.GOMAXPROCS(0),
		Codes:    map[string]tune.CodeTune{"pentagon": {EncodeWorkers: 1, DecodeWorkers: 1}},
	}
	if err := p.Save(tune.PathIn(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tune() != nil {
		t.Fatal("stale tune.json was installed")
	}
	if got := s.encodeWorkersFor("pentagon"); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("stale tune changed workers to %d", got)
	}
}
