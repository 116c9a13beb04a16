package memmodel

import (
	"testing"
	"testing/quick"

	"gangfm/internal/sim"
)

func TestKindString(t *testing.T) {
	if HostRAM.String() != "HostRAM" || PinnedRAM.String() != "PinnedRAM" || NICWC.String() != "NICWC" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(?)" {
		t.Fatal("unknown kind string")
	}
}

func TestCopyRatesDirectional(t *testing.T) {
	m := Default()
	const n = 100_000
	hostHost := m.Copy(HostRAM, HostRAM).Cycles(n)
	toNIC := m.Copy(HostRAM, NICWC).Cycles(n)
	fromNIC := m.Copy(NICWC, HostRAM).Cycles(n)

	// Write-combining: writes to NIC are the fastest path, reads from
	// NIC the slowest, regular copies in between.
	if !(toNIC < hostHost && hostHost < fromNIC) {
		t.Fatalf("rate ordering violated: toNIC=%d hostHost=%d fromNIC=%d",
			toNIC, hostHost, fromNIC)
	}
}

func TestZeroBytesFree(t *testing.T) {
	m := Default()
	if m.Copy(HostRAM, NICWC).Cycles(0) != 0 {
		t.Error("zero-byte copy should cost 0")
	}
	if m.DMA().Cycles(0) != 0 {
		t.Error("zero-byte DMA should cost 0")
	}
	if m.ScanCycles(0, HostRAM) != 0 {
		t.Error("zero-slot scan should cost 0")
	}
}

// TestPaperFullSwitchCost checks the calibration claim from DESIGN.md: a
// full buffer switch (save + restore of the ~400 KB NIC send queue and the
// 1 MB pinned receive queue) lands near the paper's "less than 85 ms
// (17,000,000 cycles)".
func TestPaperFullSwitchCost(t *testing.T) {
	m := Default()
	const (
		sendBuf = 252 * 1560 // ~393 KB on the NIC
		recvBuf = 668 * 1560 // ~1.04 MB pinned
	)
	total := m.Copy(NICWC, HostRAM).Cycles(sendBuf) + // save send queue (slow WC read)
		m.Copy(HostRAM, NICWC).Cycles(sendBuf) + // restore send queue
		m.Copy(PinnedRAM, HostRAM).Cycles(recvBuf) + // save receive queue
		m.Copy(HostRAM, PinnedRAM).Cycles(recvBuf) // restore receive queue

	ms := sim.DefaultClock.ToDuration(total).Seconds() * 1000
	if ms < 60 || ms > 85 {
		t.Fatalf("full switch = %.1f ms (%d cycles), paper says <85 ms and dominated by the send queue", ms, total)
	}

	// The send-queue save (WC read) must be the single most expensive
	// leg, despite the receive buffer being 2.5x larger (paper §4.2).
	saveSend := m.Copy(NICWC, HostRAM).Cycles(sendBuf)
	saveRecv := m.Copy(PinnedRAM, HostRAM).Cycles(recvBuf)
	if saveSend <= saveRecv {
		t.Fatalf("WC read-back should dominate: saveSend=%d saveRecv=%d", saveSend, saveRecv)
	}
}

// TestPaperImprovedSwitchCost checks the improved algorithm's calibration:
// scanning both queues plus copying ~100 valid packets should stay under
// the paper's 12.5 ms (2,500,000 cycles).
func TestPaperImprovedSwitchCost(t *testing.T) {
	m := Default()
	const pkt = 1560
	valid := 110 // paper Fig 8 tops out a bit above 100 receive packets
	total := m.ScanCycles(252, NICWC) + m.ScanCycles(668, PinnedRAM) +
		m.Copy(NICWC, HostRAM).Cycles(10*pkt) + // few valid send packets out
		m.Copy(HostRAM, NICWC).Cycles(10*pkt) + // and back in
		m.Copy(PinnedRAM, HostRAM).Cycles(valid*pkt) +
		m.Copy(HostRAM, PinnedRAM).Cycles(valid*pkt)
	if total > 2_500_000 {
		t.Fatalf("improved switch = %d cycles, paper says <2.5M", total)
	}
}

func TestScanKindCost(t *testing.T) {
	m := Default()
	host := m.ScanCycles(100, PinnedRAM)
	nic := m.ScanCycles(100, NICWC)
	if nic <= host {
		t.Fatalf("scanning NIC slots must cost more: nic=%d host=%d", nic, host)
	}
}

func TestDMAFasterThanHostCopy(t *testing.T) {
	m := Default()
	const n = 1560
	if m.DMA().Cycles(n) >= m.Copy(HostRAM, HostRAM).Cycles(n) {
		t.Fatal("DMA engine should beat host memcpy")
	}
}

// Property: copy cost is monotone in size for every (src,dst) pair.
func TestCopyMonotoneProperty(t *testing.T) {
	m := Default()
	kinds := []Kind{HostRAM, PinnedRAM, NICWC}
	prop := func(a, b uint16) bool {
		small, big := int(a), int(a)+int(b)
		for _, s := range kinds {
			for _, d := range kinds {
				if m.Copy(s, d).Cycles(small) > m.Copy(s, d).Cycles(big) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost is additive to within the per-op setup overhead, i.e.
// splitting a copy in two never makes it cheaper.
func TestCopySplitNeverCheaperProperty(t *testing.T) {
	m := Default()
	prop := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		whole := m.Copy(NICWC, HostRAM).Cycles(x + y)
		parts := m.Copy(NICWC, HostRAM).Cycles(x) + m.Copy(NICWC, HostRAM).Cycles(y)
		return parts >= whole
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
