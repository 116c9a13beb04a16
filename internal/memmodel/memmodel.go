// Package memmodel charges cycle costs for data movement between the three
// memory region kinds that matter in the paper's system:
//
//   - plain host RAM (process memory, backing stores),
//   - pinned DMA buffers in host RAM (the FM receive queue), and
//   - NIC RAM mapped with the P6 "write-combining" policy (the FM send
//     queue, which lives on the Myrinet card).
//
// Write-combining makes writes to the NIC fast (~80 MB/s measured in the
// paper) and reads from it slow (~14 MB/s), while regular host-to-host
// copies run at ~45 MB/s. These three constants are what make the paper's
// full buffer switch cost ~17M cycles (85 ms) even though the receive
// buffer is 2.5x larger than the send buffer: *reading back* the send
// queue over the write-combined mapping dominates.
package memmodel

import "gangfm/internal/sim"

// Kind identifies a memory region's access characteristics.
type Kind int

const (
	// HostRAM is ordinary pageable process memory.
	HostRAM Kind = iota
	// PinnedRAM is host memory pinned for DMA (the receive queue). Copy
	// performance is the same as HostRAM; the distinction exists because
	// pinned memory is the scarce resource the paper is managing.
	PinnedRAM
	// NICWC is memory on the Myrinet card mapped with the write-combining
	// policy: fast to write, very slow to read.
	NICWC
)

// String returns the region kind name.
func (k Kind) String() string {
	switch k {
	case HostRAM:
		return "HostRAM"
	case PinnedRAM:
		return "PinnedRAM"
	case NICWC:
		return "NICWC"
	default:
		return "Kind(?)"
	}
}

// Model holds the calibrated transfer rates. All rates are in decimal
// megabytes per second, as reported in the paper (§4.2).
type Model struct {
	Clock sim.Clock

	// HostCopyMBs is the regular memcpy bandwidth (~45 MB/s on the
	// 200 MHz Pentium Pro).
	HostCopyMBs float64
	// WCReadMBs is the bandwidth of reads from a write-combined region
	// (~14 MB/s).
	WCReadMBs float64
	// WCWriteMBs is the bandwidth of writes to a write-combined region
	// (~80 MB/s).
	WCWriteMBs float64
	// DMAMBs is the card's DMA engine bandwidth into pinned host memory.
	// The LANai 4.x DMA engine is faster than host copies; ~120 MB/s
	// keeps the host CPU the bottleneck, as observed in the paper.
	DMAMBs float64

	// ScanCyclesPerSlot is the cost of inspecting one queue slot header
	// during the improved (valid-packets-only) buffer switch. Scanning a
	// slot touches a couple of header words.
	ScanCyclesPerSlot sim.Time
	// WCScanCyclesPerSlot is the same for slots that live on the NIC,
	// where each header read crosses the slow write-combined mapping.
	WCScanCyclesPerSlot sim.Time
	// CopySetupCycles is the fixed per-copy-operation overhead.
	CopySetupCycles sim.Time
}

// Default returns the model calibrated to the paper's measurements.
func Default() *Model {
	return &Model{
		Clock:               sim.DefaultClock,
		HostCopyMBs:         45,
		WCReadMBs:           14,
		WCWriteMBs:          80,
		DMAMBs:              120,
		ScanCyclesPerSlot:   20,
		WCScanCyclesPerSlot: 120,
		CopySetupCycles:     200,
	}
}

// rate returns the governing MB/s for a copy from src to dst. The slow
// side of the write-combined mapping dominates whenever the NIC is
// involved; host<->host copies (pinned or not) run at the memcpy rate.
func (m *Model) rate(src, dst Kind) float64 {
	switch {
	case src == NICWC && dst == NICWC:
		// Never happens in the real system (card-to-card copies go
		// through the host); charge the pessimal read rate.
		return m.WCReadMBs
	case src == NICWC:
		return m.WCReadMBs
	case dst == NICWC:
		return m.WCWriteMBs
	default:
		return m.HostCopyMBs
	}
}

// Transfer is the cost of one kind of data movement, with its per-byte
// cost computed once: per-packet paths take theirs at construction, so a
// packet's charge is a multiply and an add, never a division.
type Transfer struct {
	setup   sim.Time
	perByte sim.ByteCost
}

// Cycles returns the cost of moving n bytes (zero for none).
func (t Transfer) Cycles(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return t.setup + t.perByte.Cycles(n)
}

// Copy returns the host CPU's cost of copying from a region of kind src
// to one of kind dst.
func (m *Model) Copy(src, dst Kind) Transfer {
	return Transfer{m.CopySetupCycles, m.Clock.CyclesPerByte(m.rate(src, dst))}
}

// DMA returns the cost of the card's DMA engine landing bytes in pinned
// host memory (or fetching them from it).
func (m *Model) DMA() Transfer {
	return Transfer{0, m.Clock.CyclesPerByte(m.DMAMBs)}
}

// ScanCycles returns the cost of walking slot headers looking for valid
// packets during the improved buffer switch.
func (m *Model) ScanCycles(slots int, kind Kind) sim.Time {
	if slots <= 0 {
		return 0
	}
	per := m.ScanCyclesPerSlot
	if kind == NICWC {
		per = m.WCScanCyclesPerSlot
	}
	return sim.Time(slots) * per
}
