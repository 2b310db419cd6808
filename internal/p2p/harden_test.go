package p2p

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hashcore/internal/wire"
)

func TestScoreboardDecayAndBan(t *testing.T) {
	s := newScoreboard(100, time.Minute, time.Minute)
	base := time.Unix(1000, 0)

	if score, banned := s.add("h", 50, base); banned || score != 50 {
		t.Fatalf("first offense: score=%.1f banned=%v", score, banned)
	}
	// One half-life later the 50 has decayed to 25; +50 more stays
	// under the threshold.
	if score, banned := s.add("h", 50, base.Add(time.Minute)); banned || score != 75 {
		t.Fatalf("after decay: score=%.1f banned=%v, want 75 unbanned", score, banned)
	}
	// A fast repeat crosses the threshold and bans.
	if _, banned := s.add("h", 50, base.Add(61*time.Second)); !banned {
		t.Fatal("threshold crossing did not ban")
	}
	if !s.banned("h", base.Add(90*time.Second)) {
		t.Error("host not banned inside the ban window")
	}
	if s.banned("h", base.Add(3*time.Minute)) {
		t.Error("ban did not expire")
	}
	// The ban reset the score: a post-ban offense starts fresh.
	if score, _ := s.add("h", 50, base.Add(4*time.Minute)); score != 50 {
		t.Errorf("post-ban score = %.1f, want a fresh 50", score)
	}
}

func TestViolationPointsClassification(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("read tcp: connection reset"), 0},
		{violation(PointsInvalidBlock, "bad block"), PointsInvalidBlock},
		{wire.ErrRateLimited, PointsRateLimited},
		{&wire.MalformedError{Err: errors.New("bad json")}, PointsMalformed},
	}
	for _, c := range cases {
		if got := violationPoints(c.err); got != c.want {
			t.Errorf("violationPoints(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// hardenedManager starts a listening manager (on a fresh node unless
// cfg names one) with slow keepalives and a long sync timeout, so only
// the deliberate misbehavior in the test moves the scoreboard.
func hardenedManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Node == nil {
		cfg.Node = newNode(t)
	}
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.PingInterval = -1
	cfg.SyncTimeout = time.Minute
	cfg.Logf = t.Logf
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return m
}

// rawClient dials m and completes a valid handshake, returning the
// wire-level session for hand-driven (mis)behavior.
func rawClient(t *testing.T, m *Manager) (*wire.Peer, error) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wp := wire.NewPeer(nc, wire.PeerConfig{
		Hello: wire.Hello{
			Network: m.cfg.Network,
			Genesis: m.genesis,
			Agent:   "test-raw",
		},
		PingInterval: -1,
	})
	if _, err := wp.Handshake(); err != nil {
		wp.Close()
		return nil, err
	}
	t.Cleanup(func() { wp.Close() })
	return wp, nil
}

func TestMalformedPeerAccumulatesToBan(t *testing.T) {
	m := hardenedManager(t, Config{})

	// Sessions ended by malformed frames (50 points each) accumulate to
	// the default 100-point ban. Score decay can leave the second
	// offense fractionally under the threshold, so allow a third.
	for i := 0; i < 4 && !m.Banned("127.0.0.1"); i++ {
		wp, err := rawClient(t, m)
		if err != nil {
			continue // ban already closed the door mid-loop
		}
		if err := wp.Send(TypeInv, InvMsg{Tip: "not-hex-at-all"}); err != nil {
			continue
		}
		waitFor(t, "session dropped", func() bool { return m.PeerCount() == 0 })
	}
	waitFor(t, "host banned", func() bool { return m.Banned("127.0.0.1") })

	// A banned host's next connection is dropped before the handshake.
	if _, err := rawClient(t, m); err == nil {
		waitFor(t, "banned session rejected", func() bool { return m.PeerCount() == 0 })
		if m.PeerCount() != 0 {
			t.Fatal("banned host re-admitted")
		}
	}
	if bans := m.Bans(); len(bans) != 1 || bans[0] != "127.0.0.1" {
		t.Errorf("Bans() = %v, want [127.0.0.1]", bans)
	}
}

func TestRateLimitedPeerIsPenalized(t *testing.T) {
	m := hardenedManager(t, Config{MsgRate: 20, MsgBurst: 10})

	wp, err := rawClient(t, m)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session admitted", func() bool { return m.PeerCount() == 1 })
	tip := strings.Repeat("ab", 32)
	for i := 0; i < 200; i++ {
		if err := wp.Send(TypeInv, InvMsg{Tip: tip, Height: i}); err != nil {
			break // server already cut us off
		}
	}
	waitFor(t, "flooding session dropped", func() bool { return m.PeerCount() == 0 })
	// The score decays continuously, so compare against most of the
	// awarded points rather than the exact value.
	if got := m.Score("127.0.0.1"); got < 0.9*PointsRateLimited {
		t.Fatalf("Score = %.1f, want ~%d", got, PointsRateLimited)
	}
}

func TestInboundSlotsReserveOutbound(t *testing.T) {
	m := hardenedManager(t, Config{
		MaxPeers:          4,
		OutboundReserved:  2,
		MaxInboundPerHost: 16,
	})

	// Six would-be eclipse peers connect in; only MaxPeers-reserved=2
	// may hold sessions.
	for i := 0; i < 6; i++ {
		if _, err := rawClient(t, m); err != nil {
			t.Logf("inbound %d refused during handshake: %v", i, err)
		}
	}
	waitFor(t, "inbound cap reached", func() bool { return m.PeerCount() == 2 })
	time.Sleep(100 * time.Millisecond) // let any stragglers be refused
	if got := m.PeerCount(); got != 2 {
		t.Fatalf("PeerCount = %d, want 2 (inbound slots)", got)
	}
	for _, pi := range m.Peers() {
		if !pi.Inbound {
			t.Errorf("unexpected outbound session %+v", pi)
		}
	}

	// The reserved slots are still available for the node's own dial.
	other := hardenedManager(t, Config{})
	m.Connect(other.Addr())
	waitFor(t, "outbound session through the reserve", func() bool { return m.PeerCount() == 3 })
}

func TestInboundPerHostCap(t *testing.T) {
	m := hardenedManager(t, Config{MaxInboundPerHost: 2})
	for i := 0; i < 5; i++ {
		if _, err := rawClient(t, m); err != nil {
			t.Logf("inbound %d refused: %v", i, err)
		}
	}
	waitFor(t, "per-host cap reached", func() bool { return m.PeerCount() == 2 })
	time.Sleep(100 * time.Millisecond)
	if got := m.PeerCount(); got != 2 {
		t.Fatalf("PeerCount = %d, want MaxInboundPerHost=2", got)
	}
}

func TestUnsolicitedResponsesExhaustAllowance(t *testing.T) {
	m := hardenedManager(t, Config{})
	wp, err := rawClient(t, m)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session admitted", func() bool { return m.PeerCount() == 1 })
	// Blocks responses nobody asked for: tolerated up to the allowance,
	// then the session ends and the host is penalized.
	for i := 0; i < unsolicitedAllowance+2; i++ {
		if err := wp.Send(TypeBlocks, BlocksMsg{}); err != nil {
			break
		}
	}
	waitFor(t, "unsolicited spam dropped", func() bool { return m.PeerCount() == 0 })
	if got := m.Score("127.0.0.1"); got < 0.9*PointsUnsolicited {
		t.Fatalf("Score = %.1f, want ~%d", got, PointsUnsolicited)
	}
}
