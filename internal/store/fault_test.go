package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"uplan/internal/store/faultio"
)

// faultyOpener returns an Opener that wraps the default OS file in a
// faultio.Writer driven by one shared Faults value. Every record goes to
// one log file, so the byte offsets are deterministic.
func faultyOpener(f *faultio.Faults) Opener {
	return func(path string) (WriteSyncer, error) {
		ws, err := OpenFile(path)
		if err != nil {
			return nil, err
		}
		return faultio.Wrap(ws, f), nil
	}
}

// TestAppendFailureSticksAndSurfaces: a torn write surfaces its error,
// every subsequent append fails with the same error (the tail is
// unknown), and reopening recovers exactly the records that fully made
// it to disk before the fault.
func TestAppendFailureSticksAndSurfaces(t *testing.T) {
	dir := t.TempDir()
	faults := faultio.NewFaults()
	s := mustOpen(t, dir, Options{Open: faultyOpener(faults)})

	// Let a few records through, then fail mid-frame.
	good := 0
	for i := 0; i < 3; i++ {
		if _, err := s.AppendFinding(testFinding(i)); err != nil {
			t.Fatal(err)
		}
		good++
	}
	fi, err := os.Stat(filepath.Join(dir, "shard-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	faults.FailAt = fi.Size() + 5 // tear the next frame a few bytes in

	_, err = s.AppendFinding(testFinding(3))
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	// Sticky: later appends must refuse, reporting the original fault.
	if _, err2 := s.AppendFinding(testFinding(4)); !errors.Is(err2, faultio.ErrInjected) {
		t.Fatalf("append after fault = %v, want sticky ErrInjected", err2)
	}
	if _, err2 := s.AppendPlan(testPlanKey(1)); !errors.Is(err2, faultio.ErrInjected) {
		t.Fatalf("plan append after fault = %v, want sticky ErrInjected", err2)
	}
	if err2 := s.Checkpoint(TaskProgress{Engine: "e", Oracle: "qpg"}); !errors.Is(err2, faultio.ErrInjected) {
		t.Fatalf("checkpoint after fault = %v, want sticky ErrInjected", err2)
	}
	// Close still closes, still reports the fault.
	if err2 := s.Close(); !errors.Is(err2, faultio.ErrInjected) {
		t.Fatalf("close after fault = %v, want ErrInjected", err2)
	}

	// The torn tail truncates on reopen; the intact prefix survives.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Findings) != good {
		t.Fatalf("recovered %d findings, want %d", len(rec.Findings), good)
	}
	if rec.Truncated != 1 || rec.DroppedBytes != 5 {
		t.Errorf("truncation report = %d files / %d bytes, want 1 / 5", rec.Truncated, rec.DroppedBytes)
	}
}

// TestShortWriteDefended: a writer that violates the io.Writer contract
// (n < len(p) with a nil error) must still be caught — the store turns
// it into io.ErrShortWrite and sticks.
func TestShortWriteDefended(t *testing.T) {
	dir := t.TempDir()
	faults := faultio.NewFaults()
	s := mustOpen(t, dir, Options{Open: faultyOpener(faults)})
	if _, err := s.AppendFinding(testFinding(0)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "shard-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	faults.ShortAt = fi.Size() + 8 // shorten the next frame mid-payload
	if _, err := s.AppendFinding(testFinding(1)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write surfaced as %v, want io.ErrShortWrite", err)
	}
	if _, err := s.AppendFinding(testFinding(9)); err == nil {
		t.Fatal("store must stick after a short write")
	}
	_ = s.Close() // reports the sticky fault; the handle still closes
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := len(r.Recovered().Findings); got != 1 {
		t.Errorf("recovered %d findings, want exactly the pre-fault record", got)
	}
}

// TestSyncFailureSurfaces: a failing fsync is oracle-grade signal, not
// noise — Sync and Checkpoint must both report it.
func TestSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	faults := faultio.NewFaults()
	faults.SyncErr = fmt.Errorf("%w: EIO on fsync", faultio.ErrInjected)
	s := mustOpen(t, dir, Options{Open: faultyOpener(faults)})
	if _, err := s.AppendFinding(testFinding(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Sync = %v, want injected EIO", err)
	}
	if err := s.Checkpoint(TaskProgress{Engine: "e", Oracle: "qpg"}); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Checkpoint = %v, want injected EIO", err)
	}
}

// TestInFlightBitFlipRejected: corruption injected between the store and
// the disk is caught by the CRC on recovery — the flipped record and
// everything after it truncate away, and nothing garbled is decoded.
func TestInFlightBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	faults := faultio.NewFaults()
	// Flip a bit inside the second frame's payload region. The first
	// frame's size is discovered after writing it.
	s := mustOpen(t, dir, Options{Open: faultyOpener(faults)})
	if _, err := s.AppendFinding(testFinding(0)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "shard-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	faults.FlipBit = (fi.Size() + 6) * 8 // a payload byte of the next frame
	if _, err := s.AppendFinding(testFinding(1)); err != nil {
		t.Fatal(err) // the flip is silent — that is the point
	}
	if _, err := s.AppendFinding(testFinding(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Findings) != 1 {
		t.Fatalf("recovered %d findings, want 1 (pre-corruption prefix)", len(rec.Findings))
	}
	if rec.Findings[0] != testFinding(0) {
		t.Errorf("recovered finding garbled: %+v", rec.Findings[0])
	}
	if rec.Truncated != 1 {
		t.Errorf("Truncated = %d, want 1", rec.Truncated)
	}
}

// TestAtRestBitFlipRejected uses the on-disk flipper on a cleanly closed
// log: same contract, corruption at rest.
func TestAtRestBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if _, err := s.AppendPlan(testPlanKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-000.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the third frame. Frames are equal-sized here (same
	// record type and payload length), so boundaries divide evenly.
	frame := fi.Size() / 4
	if err := faultio.FlipBitOnDisk(path, (2*frame+3)*8); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := len(r.Recovered().Plans); got != 2 {
		t.Errorf("recovered %d plans, want 2", got)
	}
}
