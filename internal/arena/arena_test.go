package arena

import (
	"testing"
	"unsafe"
)

// TestChunkLenFitsSizeClass checks the chunk sizing rule on the object
// sizes the callers draw: a chunk's bytes plus Go's 8-byte malloc
// header fit a power of two (a size class up to 32 KB, whole pages
// above), never exceed limit objects' bytes, and keep at least half of
// them.
func TestChunkLenFitsSizeClass(t *testing.T) {
	check := func(name string, n, size, limit int) {
		t.Helper()
		bytes := n * size
		pow2 := 1
		for pow2*2 <= limit*size {
			pow2 *= 2
		}
		if bytes+8 > pow2 || bytes > limit*size || 2*n < limit {
			t.Errorf("%s: %d objects of %d B (%d B) for limit %d: want bytes+8 <= %d and at least %d objects",
				name, n, size, bytes, limit, pow2, limit/2)
		}
	}
	check("16 B", chunkLen[[2]uint64](chunkObjs), 16, chunkObjs)
	check("24 B", chunkLen[[3]uint64](chunkObjs), 24, chunkObjs)
	check("40 B", chunkLen[[5]uint64](chunkObjs), 40, chunkObjs)
	check("144 B", chunkLen[[18]uint64](chunkObjs), 144, chunkObjs)
	check("8 B slices", chunkLen[*int](sliceChunk), 8, sliceChunk)
	if n := chunkLen[struct{}](chunkObjs); n != chunkObjs {
		t.Errorf("zero-size objects: %d per chunk, want %d", n, chunkObjs)
	}
}

// TestArenaNeverRepeats checks that New hands out distinct pointers
// across chunk boundaries.
func TestArenaNeverRepeats(t *testing.T) {
	var a Arena[[5]uint64]
	seen := map[unsafe.Pointer]bool{}
	for range 3 * chunkObjs {
		p := unsafe.Pointer(a.New())
		if seen[p] {
			t.Fatal("New returned a pointer twice")
		}
		seen[p] = true
	}
}
