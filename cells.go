package wflocks

import (
	"math"
	"strings"

	"wflocks/internal/idem"
)

// Typed shared memory. A Cell[T] stores a value of type T across one or
// more idempotent machine words; critical sections read and write it
// with the typed accessors Get, Put and CompareSwap, so the
// idempotence machinery (which lets helpers re-execute critical
// sections safely) stays invisible.
//
// Each machine word of a cell costs one operation of the critical
// section's maxOps budget: a Get or Put of a W-word cell costs W ops,
// a CompareSwap costs 1 op for single-word cells and up to 2W for
// multi-word ones.
//
// Multi-word cells are consistent exactly when accessed under locks
// that guard them: inside critical sections holding such a lock, reads
// see complete values. Outside critical sections (Cell.Get, Load) a
// multi-word read is not an atomic snapshot; use it for initialization
// and quiescent inspection.

// Codec translates a T to and from its fixed-width word encoding.
// Implementations must be pure: Decode(Encode(v)) == v, with no state.
type Codec[T any] interface {
	// Words is the fixed number of machine words an encoded T occupies.
	Words() int
	// Encode writes v's encoding into dst, which has Words() capacity.
	Encode(v T, dst []uint64)
	// Decode reconstructs a value from src, which holds Words() words,
	// without retaining src: the structures decode through a scratch
	// buffer they reuse.
	Decode(src []uint64) T
}

// ScalarCodec is an optional extension of Codec for single-word
// encodings. Cells whose codec implements it (all built-in single-word
// codecs do) take an allocation-free fast path through Get, Put,
// CompareSwap, Load and Store; Words must return 1.
type ScalarCodec[T any] interface {
	Codec[T]
	// EncodeWord returns v's single-word encoding.
	EncodeWord(v T) uint64
	// DecodeWord reconstructs a value from its single-word encoding.
	DecodeWord(w uint64) T
}

// Integer is the constraint satisfied by every built-in fixed-size
// integer type; IntegerCodec covers all of them in one machine word.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// IntegerCodec returns the single-word codec for any integer type.
// Signed values are sign-extended through two's complement, so the
// full range round-trips.
func IntegerCodec[T Integer]() Codec[T] { return integerCodec[T]{} }

type integerCodec[T Integer] struct{}

func (integerCodec[T]) Words() int               { return 1 }
func (integerCodec[T]) Encode(v T, dst []uint64) { dst[0] = uint64(int64(v)) }
func (integerCodec[T]) Decode(src []uint64) T    { return T(int64(src[0])) }
func (integerCodec[T]) EncodeWord(v T) uint64    { return uint64(int64(v)) }
func (integerCodec[T]) DecodeWord(w uint64) T    { return T(int64(w)) }

// BoolCodec returns the single-word codec for bool (0 or 1).
func BoolCodec() Codec[bool] { return boolCodec{} }

type boolCodec struct{}

func (boolCodec) Words() int { return 1 }
func (boolCodec) Encode(v bool, dst []uint64) {
	if v {
		dst[0] = 1
	} else {
		dst[0] = 0
	}
}
func (boolCodec) Decode(src []uint64) bool { return src[0] != 0 }
func (boolCodec) EncodeWord(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
func (boolCodec) DecodeWord(w uint64) bool { return w != 0 }

// Float64Codec returns the single-word codec for float64 (IEEE 754
// bits).
func Float64Codec() Codec[float64] { return float64Codec{} }

type float64Codec struct{}

func (float64Codec) Words() int                     { return 1 }
func (float64Codec) Encode(v float64, dst []uint64) { dst[0] = math.Float64bits(v) }
func (float64Codec) Decode(src []uint64) float64    { return math.Float64frombits(src[0]) }
func (float64Codec) EncodeWord(v float64) uint64    { return math.Float64bits(v) }
func (float64Codec) DecodeWord(w uint64) float64    { return math.Float64frombits(w) }

// StringCodec returns a fixed-width codec for strings of up to maxBytes
// bytes: one length word followed by ceil(maxBytes/8) data words with
// the bytes packed little-endian. Fixed width is what cell storage
// requires — a variable-length encoding would make the critical-section
// budget depend on the value — so short strings pay for the full width;
// pick the smallest maxBytes the workload honors. Encode panics when
// given a longer string: length is a caller-enforced protocol bound
// (reject oversized input before it reaches a structure), not a
// truncation the codec may apply silently, because Decode(Encode(v))
// must equal v. Unused data words are zeroed, keeping encodes
// deterministic.
func StringCodec(maxBytes int) Codec[string] {
	if maxBytes <= 0 {
		panic("wflocks: StringCodec: maxBytes must be positive")
	}
	return stringCodec{max: maxBytes, words: 1 + (maxBytes+7)/8}
}

type stringCodec struct{ max, words int }

func (c stringCodec) Words() int { return c.words }

func (c stringCodec) Encode(v string, dst []uint64) {
	if len(v) > c.max {
		panic("wflocks: StringCodec: string exceeds the codec's maxBytes")
	}
	dst[0] = uint64(len(v))
	for w := 1; w < c.words; w++ {
		dst[w] = 0
	}
	for i := 0; i < len(v); i++ {
		dst[1+i/8] |= uint64(v[i]) << (8 * (i % 8))
	}
}

func (c stringCodec) Decode(src []uint64) string {
	n := int(src[0])
	if n == 0 {
		return ""
	}
	if max := (len(src) - 1) * 8; n > max {
		n = max // corrupt length word; clamp rather than over-read
	}
	var b strings.Builder // one allocation: the string it returns
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(byte(src[1+i/8] >> (8 * (i % 8))))
	}
	return b.String()
}

// CodecFunc builds a codec for a small struct (or any fixed-width
// value) from an encode and a decode function over words machine words.
// This is how multi-word cells are typed:
//
//	type account struct{ Balance, Version uint64 }
//	codec := wflocks.CodecFunc(2,
//		func(a account, dst []uint64) { dst[0], dst[1] = a.Balance, a.Version },
//		func(src []uint64) account { return account{src[0], src[1]} })
//	c := wflocks.NewCellOf(codec, account{Balance: 100})
func CodecFunc[T any](words int, enc func(T, []uint64), dec func([]uint64) T) Codec[T] {
	if words <= 0 {
		panic("wflocks: CodecFunc: words must be positive")
	}
	return &funcCodec[T]{words: words, enc: enc, dec: dec}
}

type funcCodec[T any] struct {
	words int
	enc   func(T, []uint64)
	dec   func([]uint64) T
}

func (c *funcCodec[T]) Words() int               { return c.words }
func (c *funcCodec[T]) Encode(v T, dst []uint64) { c.enc(v, dst) }
func (c *funcCodec[T]) Decode(src []uint64) T    { return c.dec(src) }

// Cell is a typed shared memory location accessible from critical
// sections. Construct with NewCell, NewBoolCell, NewFloat64Cell or
// NewCellOf.
type Cell[T any] struct {
	codec Codec[T]
	words []*idem.Cell
	// scalar is non-nil for single-word cells whose codec implements
	// ScalarCodec; accessors then skip the slice-based encode/decode.
	scalar ScalarCodec[T]
}

// NewCell creates a single-word cell holding the integer v.
func NewCell[T Integer](v T) *Cell[T] {
	return NewCellOf(IntegerCodec[T](), v)
}

// NewBoolCell creates a single-word cell holding the bool v.
func NewBoolCell(v bool) *Cell[bool] {
	return NewCellOf(BoolCodec(), v)
}

// NewFloat64Cell creates a single-word cell holding the float64 v.
func NewFloat64Cell(v float64) *Cell[float64] {
	return NewCellOf(Float64Codec(), v)
}

// NewCellOf creates a cell holding v under an explicit codec; use it
// with CodecFunc for multi-word struct cells.
func NewCellOf[T any](codec Codec[T], v T) *Cell[T] {
	w := codec.Words()
	buf := make([]uint64, w)
	codec.Encode(v, buf)
	c := &Cell[T]{codec: codec, words: idem.NewCells(w, buf)}
	if w == 1 {
		if sc, ok := codec.(ScalarCodec[T]); ok {
			c.scalar = sc
		}
	}
	return c
}

// newResultCell creates a cell for routing a critical section's result
// out to its caller, holding zeroed words rather than an encoded value:
// result cells are always written by the body before the caller decodes
// them, so the construction-time Encode would be dead work — and, for
// instrumented codecs, a spurious off-lock invocation.
func newResultCell[T any](codec Codec[T]) *Cell[T] {
	w := codec.Words()
	c := &Cell[T]{codec: codec, words: idem.NewCells(w, make([]uint64, w))}
	if w == 1 {
		if sc, ok := codec.(ScalarCodec[T]); ok {
			c.scalar = sc
		}
	}
	return c
}

// Words reports how many machine words (and hence maxOps budget per
// access) the cell occupies.
func (c *Cell[T]) Words() int { return len(c.words) }

// Get reads the cell outside any critical section using an explicit
// process handle. See Load for the implicit-handle form.
func (c *Cell[T]) Get(p *Process) T {
	if c.scalar != nil {
		return c.scalar.DecodeWord(c.words[0].Load(p.env))
	}
	buf := make([]uint64, len(c.words))
	idem.LoadWords(p.env, c.words, buf)
	return c.codec.Decode(buf)
}

// Set writes the cell outside any critical section. Prefer doing writes
// inside critical sections; Set is for initialization and inspection.
func (c *Cell[T]) Set(p *Process, v T) {
	if c.scalar != nil {
		c.words[0].Store(p.env, c.scalar.EncodeWord(v))
		return
	}
	buf := make([]uint64, len(c.words))
	c.codec.Encode(v, buf)
	idem.StoreWords(p.env, c.words, buf)
}

// Get reads a cell inside a critical section.
func Get[T any](t *Tx, c *Cell[T]) T {
	if c.scalar != nil {
		return c.scalar.DecodeWord(t.run.Read(c.words[0]))
	}
	buf := make([]uint64, len(c.words))
	t.run.ReadWords(c.words, buf)
	return c.codec.Decode(buf)
}

// Put writes a cell inside a critical section.
func Put[T any](t *Tx, c *Cell[T], v T) {
	if c.scalar != nil {
		t.run.Write(c.words[0], c.scalar.EncodeWord(v))
		return
	}
	buf := make([]uint64, len(c.words))
	c.codec.Encode(v, buf)
	t.run.WriteWords(c.words, buf)
}

// CompareSwap performs a compare-and-swap on a cell inside a critical
// section, reporting success. For single-word cells this is a true
// hardware-style CAS; for multi-word cells it is read-compare-write,
// which is atomic with respect to every critical section holding a
// lock that guards the cell.
func CompareSwap[T comparable](t *Tx, c *Cell[T], old, new T) bool {
	if c.scalar != nil {
		return t.run.CAS(c.words[0], c.scalar.EncodeWord(old), c.scalar.EncodeWord(new))
	}
	if len(c.words) == 1 {
		var ob, nb [1]uint64
		c.codec.Encode(old, ob[:])
		c.codec.Encode(new, nb[:])
		return t.run.CAS(c.words[0], ob[0], nb[0])
	}
	if Get(t, c) != old {
		return false
	}
	Put(t, c, new)
	return true
}

// Load reads a cell outside any critical section using a pooled
// process handle from m. For multi-word cells the read is not an atomic
// snapshot; see the package comment on consistency.
func Load[T any](m *Manager, c *Cell[T]) T {
	p := m.Acquire()
	defer m.Release(p)
	return c.Get(p)
}

// Store writes a cell outside any critical section using a pooled
// process handle from m.
func Store[T any](m *Manager, c *Cell[T], v T) {
	p := m.Acquire()
	defer m.Release(p)
	c.Set(p, v)
}
