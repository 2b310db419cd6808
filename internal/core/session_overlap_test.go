package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
)

var errDigestMismatch = errors.New("digest mismatch")

// refSession returns a session with the fill helper disabled — the
// single-threaded reference pipeline every overlapped digest must match.
func refSession(f *Func) *Session {
	s := f.NewSession()
	s.disableFill()
	return s
}

// TestOverlappedMatchesReference pins the tentpole's correctness claim:
// a session whose scratch-memory fill runs on the helper goroutine
// produces bit-identical digests to the single-threaded reference
// pipeline, across seeds (every input draws a fresh memory seed) and
// across working-set sizes (two profiles with different WorkingSet).
func TestOverlappedMatchesReference(t *testing.T) {
	wide := tinyProfile()
	wide.Name = "tiny-wide"
	wide.WorkingSet = 32 << 10
	for _, prof := range []*struct {
		name string
		f    *Func
	}{
		{"tiny", tinyFunc(t, Options{})},
		{"wide", tinyFunc(t, Options{Profile: wide})},
	} {
		overlapped := prof.f.NewSession()
		defer overlapped.Close()
		reference := refSession(prof.f)
		if overlapped.fillWake == nil {
			t.Fatalf("%s: overlapped session has no fill helper", prof.name)
		}
		if reference.fillWake != nil {
			t.Fatalf("%s: reference session still has a fill helper", prof.name)
		}
		input := make([]byte, 16)
		for i := 0; i < 24; i++ {
			binary.LittleEndian.PutUint64(input, uint64(i))
			want, err := reference.Hash(input)
			if err != nil {
				t.Fatal(err)
			}
			got, err := overlapped.Hash(input)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s input %d: overlapped digest %x != reference %x",
					prof.name, i, got[:8], want[:8])
			}
		}
	}
}

// FuzzOverlappedVsReference drives arbitrary inputs through an
// overlapped and a reference session of the same Func and requires
// bit-identical digests. The input is hashed to a seed by the gate, so
// every byte of fuzz input perturbs the widget, its memory seed and its
// memory contents.
func FuzzOverlappedVsReference(f *testing.F) {
	f.Add([]byte("seed"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})

	fn := tinyFunc(f, Options{})
	overlapped := fn.NewSession()
	reference := refSession(fn)
	f.Cleanup(overlapped.Close)

	f.Fuzz(func(t *testing.T, input []byte) {
		want, err := reference.Hash(input)
		if err != nil {
			t.Fatal(err)
		}
		got, err := overlapped.Hash(input)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("overlapped digest %x != reference %x", got[:8], want[:8])
		}
	})
}

// TestSessionConcurrentOverlap exercises many overlapped sessions of one
// Func hashing in parallel — the concurrency the CI race job watches:
// each session's helper goroutine must touch only its own machine.
func TestSessionConcurrentOverlap(t *testing.T) {
	f := tinyFunc(t, Options{})
	input := []byte("concurrent overlap probe")
	want, err := f.Hash(input)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			s := f.NewSession()
			defer s.Close()
			for i := 0; i < 8; i++ {
				got, err := s.Hash(input)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- errDigestMismatch
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// settledGoroutines returns the goroutine count once it has held steady
// for a few GC rounds — sampling a baseline while goroutines from earlier
// tests are still winding down would inflate it and turn the live-helper
// lower bound into a flake.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := runtime.NumGoroutine()
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
		n := runtime.NumGoroutine()
		if n == prev {
			if stable++; stable >= 3 {
				return n
			}
		} else {
			stable, prev = 0, n
		}
	}
	return prev
}

// goroutinesSettleTo polls until the goroutine count drops to at most
// want, forcing GC each round so finalizer-driven releases can run.
func goroutinesSettleTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle to <= %d (have %d):\n%s",
				want, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionCloseReleasesHelper asserts the fill helper goroutine exits
// on Close — the leak test for the session's one background resource.
func TestSessionCloseReleasesHelper(t *testing.T) {
	f := tinyFunc(t, Options{})
	base := settledGoroutines(t)

	sessions := make([]*Session, 8)
	for i := range sessions {
		sessions[i] = f.NewSession()
		if _, err := sessions[i].Hash([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n < base+len(sessions) {
		t.Fatalf("expected >= %d goroutines with %d sessions live, have %d",
			base+len(sessions), len(sessions), n)
	}
	for _, s := range sessions {
		s.Close()
		s.Close() // idempotent
	}
	goroutinesSettleTo(t, base)
}

// TestDroppedSessionReleasesHelper asserts the finalizer path: sessions
// that become garbage without an explicit Close (a sync.Pool eviction,
// an abandoned worker) still release their helper goroutine.
func TestDroppedSessionReleasesHelper(t *testing.T) {
	f := tinyFunc(t, Options{})
	base := settledGoroutines(t)
	// Sessions are minted and dropped inside a helper frame so no stack
	// slot of this function can conservatively keep the last one alive.
	spawnAndDrop := func(i int) {
		s := f.NewSession()
		if _, err := s.Hash([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		spawnAndDrop(i)
	}
	goroutinesSettleTo(t, base)
}
