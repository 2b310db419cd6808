package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hashcore"
)

func testEnv(t *testing.T) *env {
	return &env{cores: 2, seed: 7, workdir: t.TempDir(), log: io.Discard}
}

func TestPercentile(t *testing.T) {
	ten := func() []int64 { return []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(ten(), c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := percentile([]int64{42}, 90); got != 42 {
		t.Errorf("percentile(single) = %d, want 42", got)
	}
	if got := mean([]int64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	ds := []time.Duration{3 * time.Second, time.Second, 2 * time.Second, 4 * time.Second}
	if got := medianDuration(ds); got != 2*time.Second {
		t.Errorf("medianDuration = %v, want the lower middle 2s", got)
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, period: 1250 * time.Microsecond}
	if got := s.due(8); !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("due(8) = %v, want start+10ms", got.Sub(start))
	}
	due := s.due(4)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early send has lateness %v, want 0", got)
	}
	if got := lateness(due, due.Add(300*time.Microsecond)); got != 300*time.Microsecond {
		t.Errorf("lateness = %v, want 300µs", got)
	}
	// A share's latency runs from its due time, so a stalled generator
	// shows up in the latency, not just in the lateness.
	recv := due.Add(2 * time.Millisecond)
	sent := due.Add(1500 * time.Microsecond)
	if lat, late := recv.Sub(due), lateness(due, sent); lat != 2*time.Millisecond || late != 1500*time.Microsecond {
		t.Errorf("latency %v lateness %v, want 2ms and 1.5ms", lat, late)
	}
}

func TestMineSmoke(t *testing.T) {
	e := testEnv(t)
	r, err := runMine(e, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < 10 || r.opsPerS <= 0 || r.p90 < r.p50 || r.setup <= 0 {
		t.Fatalf("mine: %+v", r)
	}
}

func TestMineWrongGoldenFails(t *testing.T) {
	saved := goldenABC
	goldenABC = strings.Repeat("0", 64)
	defer func() { goldenABC = saved }()
	r, err := runMine(testEnv(t), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("wrong expected digest gave %d failures, want 1", r.failed)
	}
}

func TestMineCheckCatchesWrongDigest(t *testing.T) {
	e := testEnv(t)
	mn, err := setupMiner(e)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.close()
	w, err := mn.measure(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.digests {
		for j := range w.digests[i] {
			w.digests[i][j][0] ^= 1
		}
	}
	tl, err := mn.check(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != checkSample {
		t.Fatalf("check found %d of %d corrupted digests", tl.failed, checkSample)
	}
}

func TestComposerMatchesHasher(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := newComposer()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"abc", "hashcore golden vector 2026", "x"} {
		got, err := c.hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.Hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("composed %q = %x, Hasher says %x", in, got, want)
		}
	}
	if c.parts.n != 3 || c.parts.run <= 0 || c.parts.gen <= 0 || c.parts.interp <= 0 {
		t.Errorf("parts not accumulated: %+v", c.parts)
	}
}

func TestPoolSmoke(t *testing.T) {
	r, err := runPool(testEnv(t), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(poolCleanRate) * numKinds
	if r.failed != 0 || r.attempted != want || r.p90 < r.p50 || r.setup <= 0 {
		t.Fatalf("pool: %+v, want %d submits and no failures", r, want)
	}
}

func TestPoolWrongVerdictFails(t *testing.T) {
	e := testEnv(t)
	p, err := setupPool(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	// Submit the next planned clean share ahead of the window: the pool
	// then calls it a duplicate, which must count as failed.
	c := p.conns[0]
	if _, err := c.nc.Write(submitLine(c.jobID, p.nonces+1)); err != nil {
		t.Fatal(err)
	}
	if m, _, err := c.read(); err != nil || m.Status != "accepted" {
		t.Fatalf("early submit: %+v %v", m, err)
	}
	w, err := p.measure(e, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if w.failed == 0 {
		t.Fatalf("a duplicate clean share went unnoticed: %+v", w.tally)
	}
}

func TestSyncSmoke(t *testing.T) {
	e := testEnv(t)
	r, err := runSync(e, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < syncBlocks || r.opsPerS <= 0 || r.setup <= 0 {
		t.Fatalf("sync: %+v", r)
	}
}

func TestSyncReopenCheckFails(t *testing.T) {
	e := testEnv(t)
	srcPath, _, err := prepareSync(e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setupSync(e, srcPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// A log holding only part of the chain must not pass for the tip.
	data, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(e.workdir, "short.log")
	if err := os.WriteFile(short, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if tl := s.checkReopen(e, &receiver{path: short}); tl.failed != 1 {
		t.Fatalf("a half log passed the reopen check: %+v", tl)
	}
}

// TestTracedRunPrintsEveryLayer runs the traced pass of every workload
// and checks the result line carries each per-layer metric the
// benchmark declares.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run takes seconds")
	}
	var out bytes.Buffer
	args := []string{"--workload", "mine", "--seed", "3", "--seconds", "1", "--trace", "1", "--workdir", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %s", out.String())
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec.PerLayer))
	}
}
