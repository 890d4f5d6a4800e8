// Package logbuf implements the paper's five log-buffer designs (§5 and
// Appendix A). They are not five implementations: each is one point on
// the two axes the paper varies, and one Buffer with one insert path
// serves them all.
//
//   - consolidate: an insert that finds the mutex busy either joins the
//     consolidation array, so only one group leader per slot competes for
//     the mutex (yes), or queues on the mutex itself (no).
//   - release: how a filled region reaches the flush daemon —
//     locked: fill and publish inside the critical section;
//     inOrder: unlock before the fill, then wait for every earlier byte
//     to be released (the implicit release queue);
//     delegated: join the release queue under the mutex; a thread whose
//     predecessor is still filling hands its release to it and leaves.
//
// The variants are the rows of this table:
//
//	Variant   consolidate  release    paper
//	Baseline  no           locked     Algorithm 1
//	C         yes          locked     Algorithms 2 and 5 (§5.2, §A.2)
//	D         no           inOrder    Algorithm 3 (§5.2)
//	CD        yes          inOrder    §5.3
//	CDME      yes          delegated  Algorithm 4 (§A.3)
//
// Under C a group's leader takes the mutex and the group holds it until
// its last fill publishes, so fills within a group run in parallel but
// fills across groups are serialized — the limitation CD removes.
//
// All variants share the same circular buffer and uphold the same
// invariants: inserts get disjoint regions, regions are released to the
// flush daemon in LSN order with no gaps, and the released prefix always
// decodes as a valid record stream.
package logbuf

import (
	"errors"
	"fmt"

	"aether/internal/lsn"
	"aether/internal/metrics"
)

// Variant selects a log-buffer insert algorithm.
type Variant int

const (
	// VariantBaseline is the single-mutex design (Algorithm 1).
	VariantBaseline Variant = iota
	// VariantC is consolidation-array backoff (Algorithm 2).
	VariantC
	// VariantD is decoupled buffer fill (Algorithm 3).
	VariantD
	// VariantCD is the hybrid of C and D (§5.3).
	VariantCD
	// VariantCDME is CD with delegated buffer release (Algorithm 4).
	VariantCDME
	numVariants
)

var variantNames = [numVariants]string{"baseline", "C", "D", "CD", "CDME"}

// String returns the variant's short name as used in the paper's figures.
func (v Variant) String() string {
	if v >= 0 && v < numVariants {
		return variantNames[v]
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Variants lists all variants in presentation order.
var Variants = []Variant{VariantBaseline, VariantC, VariantD, VariantCD, VariantCDME}

// releaseMode is the release axis of the variant table.
type releaseMode int

const (
	locked    releaseMode = iota // fill and publish inside the critical section
	inOrder                      // unlock before the fill, then publishInOrder
	delegated                    // join the relQueue under the lock, then relQueue.release
)

// design is a variant's row of the table in the package doc.
type design struct {
	consolidate bool
	release     releaseMode
}

var designs = [numVariants]design{
	VariantBaseline: {consolidate: false, release: locked},
	VariantC:        {consolidate: true, release: locked},
	VariantD:        {consolidate: false, release: inOrder},
	VariantCD:       {consolidate: true, release: inOrder},
	VariantCDME:     {consolidate: true, release: delegated},
}

// Config parameterizes a log buffer.
type Config struct {
	// Variant selects the insert algorithm.
	Variant Variant
	// Base is the LSN of the first byte this buffer will hand out. On a
	// fresh log it is zero; on restart it is the durable size of the log
	// device, so LSNs remain stable log addresses across crashes.
	Base lsn.LSN
	// Size is the ring capacity in bytes; rounded up to a power of two.
	// Default 16MiB.
	Size int
	// Slots is the consolidation-array width; the paper fixes 4 after the
	// Figure 12 sensitivity study. Default 4.
	Slots int
	// MaxGroup caps the bytes one consolidated group may claim, so a
	// group can always fit in the ring. Default Size/8.
	MaxGroup int
	// Breakdown, if set, receives log-work vs log-contention time.
	Breakdown *metrics.Breakdown
	// LocalFill redirects buffer fills to inserter-local scratch memory.
	// This is the paper's "CD in L1" microbenchmark mode (§6.3.2): the
	// LSN, consolidation and release machinery all run unchanged, but the
	// big memcpy stays cache-resident, exposing the algorithms' cost with
	// the memory-bandwidth wall removed. The ring contents are garbage in
	// this mode, so it is only valid with a discarding reader.
	LocalFill bool
}

// slotPool is the number of pre-allocated consolidation slots cycled
// through the array: eight per array slot.
func (c *Config) slotPool() int { return 8 * c.Slots }

func (c *Config) applyDefaults() {
	if c.Size <= 0 {
		c.Size = 16 << 20
	}
	c.Size = ceilPow2(c.Size)
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.MaxGroup <= 0 {
		c.MaxGroup = c.Size / 8
	}
	if c.MaxGroup > c.Size/2 {
		c.MaxGroup = c.Size / 2
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ErrRecordTooLarge is returned when a record exceeds the buffer's group
// capacity.
var ErrRecordTooLarge = errors.New("logbuf: record exceeds buffer capacity")

// Buffer is a log buffer: many concurrent inserters, one reader (the
// flush daemon).
type Buffer struct {
	r   *ring
	cfg Config
	design
	arr *cArray // the consolidation array; nil unless consolidate

	// Every insert reads the fields above and contends on the ones
	// below; a cache line apart, the lock's traffic does not evict them.
	_    [64]byte
	mu   spinLock
	next lsn.LSN
	q    relQueue
}

// New builds a log buffer with the chosen variant.
func New(cfg Config) (*Buffer, error) {
	cfg.applyDefaults()
	if cfg.Variant < 0 || cfg.Variant >= numVariants {
		return nil, fmt.Errorf("logbuf: unknown variant %d", int(cfg.Variant))
	}
	b := &Buffer{
		r:      newRing(cfg.Size, cfg.Base, cfg.Breakdown),
		cfg:    cfg,
		design: designs[cfg.Variant],
		next:   cfg.Base,
	}
	b.q.r = b.r
	if b.consolidate {
		b.arr = newCArray(cfg.Slots, cfg.slotPool(), int64(cfg.MaxGroup))
	}
	return b, nil
}

// NewInserter returns a fresh per-goroutine insert handle.
func (b *Buffer) NewInserter() *Inserter {
	ins := &Inserter{b: b, rng: newXorshift()}
	if b.cfg.LocalFill {
		ins.local = make([]byte, b.cfg.MaxGroup)
	}
	return ins
}

// Reader returns the flush daemon's view.
func (b *Buffer) Reader() *Reader { return &Reader{r: b.r} }

// Reader is the flush daemon's side of the buffer: it drains released
// bytes and recycles their space.
type Reader struct {
	r *ring
}

// Pending returns the current released-but-unflushed region [start, end).
// start==end means nothing to flush.
func (rd *Reader) Pending() (start, end lsn.LSN) {
	// Load order matters: flushed only grows toward released, so loading
	// flushed first can understate but never invert the interval.
	start = rd.r.flushed.Load()
	end = rd.r.released.Load()
	return start, end
}

// CopyOut linearizes the ring bytes [start, end) into dst, which must be
// at least end-start bytes. It returns the byte count copied.
func (rd *Reader) CopyOut(dst []byte, start, end lsn.LSN) int {
	return rd.r.copyOut(dst, start, end)
}

// MarkFlushed advances the flush watermark, reclaiming ring space for
// new inserts. end must not exceed the released frontier.
func (rd *Reader) MarkFlushed(end lsn.LSN) {
	if rel := rd.r.released.Load(); end > rel {
		panic(fmt.Sprintf("logbuf: MarkFlushed(%v) beyond released %v", end, rel))
	}
	rd.r.flushed.AdvanceTo(end)
}

// Released returns the release frontier: every byte below it is filled
// and flushable.
func (rd *Reader) Released() lsn.LSN { return rd.r.released.Load() }

// Flushed returns the flush watermark.
func (rd *Reader) Flushed() lsn.LSN { return rd.r.flushed.Load() }
