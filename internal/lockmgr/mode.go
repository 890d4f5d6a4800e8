// Package lockmgr implements the hierarchical two-phase lock manager the
// transactional substrate runs on: the standard IS/IX/S/SIX/X mode
// lattice, a partitioned hash lock table (each partition a chained table
// indexed by the same key hash that picked the partition) with FIFO
// queuing and upgrade priority, timeout-based deadlock resolution, Early
// Lock Release (§3), and a simplified Speculative Lock Inheritance ([10]
// in the paper) that lets agent threads retain hot table-level locks
// across transactions. As in Shore-MT, row locks are never inherited: a
// row lock costs one latch trip to take and one to release.
package lockmgr

import "fmt"

// Mode is a lock mode in the standard hierarchical locking lattice.
type Mode int

const (
	// ModeNone holds nothing; the zero value.
	ModeNone Mode = iota
	// ModeIS is intention-shared: some descendant is read-locked.
	ModeIS
	// ModeIX is intention-exclusive: some descendant is write-locked.
	ModeIX
	// ModeS is shared: the whole object is read-locked.
	ModeS
	// ModeSIX is shared + intention-exclusive.
	ModeSIX
	// ModeX is exclusive.
	ModeX
	numModes
)

var modeNames = [numModes]string{"none", "IS", "IX", "S", "SIX", "X"}

// String returns the mode's conventional abbreviation.
func (m Mode) String() string {
	if m >= 0 && m < numModes {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Valid reports whether m is a usable lock mode (not ModeNone).
func (m Mode) Valid() bool { return m > ModeNone && m < numModes }

// compat is the standard compatibility matrix (Gray & Reuter).
// compat[a][b] == true means a granted lock in mode a is compatible with a
// request in mode b.
var compat = [numModes][numModes]bool{
	ModeNone: {ModeNone: true, ModeIS: true, ModeIX: true, ModeS: true, ModeSIX: true, ModeX: true},
	ModeIS:   {ModeNone: true, ModeIS: true, ModeIX: true, ModeS: true, ModeSIX: true, ModeX: false},
	ModeIX:   {ModeNone: true, ModeIS: true, ModeIX: true, ModeS: false, ModeSIX: false, ModeX: false},
	ModeS:    {ModeNone: true, ModeIS: true, ModeIX: false, ModeS: true, ModeSIX: false, ModeX: false},
	ModeSIX:  {ModeNone: true, ModeIS: true, ModeIX: false, ModeS: false, ModeSIX: false, ModeX: false},
	ModeX:    {ModeNone: true, ModeIS: false, ModeIX: false, ModeS: false, ModeSIX: false, ModeX: false},
}

// Compatible reports whether a request in mode b can coexist with a
// granted lock in mode a.
func Compatible(a, b Mode) bool { return compat[a][b] }

// sup is the supremum (least upper bound) table for lock conversions:
// sup[a][b] is the weakest mode at least as strong as both a and b.
var sup = [numModes][numModes]Mode{
	ModeNone: {ModeNone, ModeIS, ModeIX, ModeS, ModeSIX, ModeX},
	ModeIS:   {ModeIS, ModeIS, ModeIX, ModeS, ModeSIX, ModeX},
	ModeIX:   {ModeIX, ModeIX, ModeIX, ModeSIX, ModeSIX, ModeX},
	ModeS:    {ModeS, ModeS, ModeSIX, ModeS, ModeSIX, ModeX},
	ModeSIX:  {ModeSIX, ModeSIX, ModeSIX, ModeSIX, ModeSIX, ModeX},
	ModeX:    {ModeX, ModeX, ModeX, ModeX, ModeX, ModeX},
}

// Supremum returns the weakest mode covering both a and b.
func Supremum(a, b Mode) Mode { return sup[a][b] }

// Covers reports whether holding mode a satisfies a request for mode b.
func Covers(a, b Mode) bool { return Supremum(a, b) == a }

// Key names a lockable object: a table (or other container) or a row
// within one. Which of the two it is belongs to the key, not to a value
// of Object, so every uint64 is a row's legal Object.
type Key struct {
	// Space identifies the container (table).
	Space uint32
	// table marks the container's own key (TableKey); it sits in the
	// padding after Space, so a Key stays 16 bytes.
	table bool
	// Object identifies the row; 0 in a table's key.
	Object uint64
}

// TableKey returns the container-level key for a space.
func TableKey(space uint32) Key { return Key{Space: space, table: true} }

// RowKey returns the row-level key for an object in a space. Every
// object, 0 included, names a row: no row key is its table's.
func RowKey(space uint32, object uint64) Key {
	return Key{Space: space, Object: object}
}

// IsTable reports whether k names a container rather than a row.
func (k Key) IsTable() bool { return k.table }

// String formats the key for diagnostics.
func (k Key) String() string {
	if k.IsTable() {
		return fmt.Sprintf("space(%d)", k.Space)
	}
	return fmt.Sprintf("space(%d)/obj(%d)", k.Space, k.Object)
}

// hash mixes the key into a lock-table index (fibonacci hashing): its
// low partitionBits pick the partition, the bits above them the bucket.
func (k Key) hash() uint64 {
	h := uint64(k.Space)*0x9E3779B97F4A7C15 ^ k.Object*0xC2B2AE3D27D4EB4F
	if k.table {
		h ^= 0xD6E8FEB86659FD93
	}
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}
