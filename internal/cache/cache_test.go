package cache

import (
	"math/rand"
	"testing"
)

func mustCache(t *testing.T, cfg Config, next *Cache) *Cache {
	t.Helper()
	c, err := New(cfg, next)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func smallCfg(writeBack bool) Config {
	return Config{Name: "test", Size: 256, Assoc: 2, BlockSize: 16, WriteBack: writeBack}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 0, Assoc: 1, BlockSize: 16},
		{Size: 256, Assoc: 2, BlockSize: 15},
		{Size: 250, Assoc: 2, BlockSize: 16},
		{Size: 96, Assoc: 1, BlockSize: 16}, // 6 sets, not a power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	il1, dl1, l2 := PaperConfig()
	for _, cfg := range []Config{il1, dl1, l2} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("paper config %s rejected: %v", cfg.Name, err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, smallCfg(false), nil)
	if c.Read(0x100) {
		t.Error("cold read hit")
	}
	if !c.Read(0x100) {
		t.Error("warm read missed")
	}
	if !c.Read(0x10C) {
		t.Error("same-block read missed")
	}
	s := c.Stats()
	if s.Reads != 3 || s.ReadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 16B blocks, 256B cache -> 8 sets. Addresses mapping to set 0:
	// 0x000, 0x080, 0x100 (increments of sets*block = 128).
	c := mustCache(t, smallCfg(false), nil)
	c.Read(0x000)
	c.Read(0x080)
	c.Read(0x000) // touch 0x000: 0x080 becomes LRU
	c.Read(0x100) // evicts 0x080
	if !c.Read(0x000) {
		t.Error("MRU line evicted")
	}
	if c.Read(0x080) {
		t.Error("LRU line survived")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	var fwd []uint32
	c := mustCache(t, smallCfg(false), nil)
	c.MissHook = func(ba uint32, write bool) {
		if write {
			fwd = append(fwd, ba)
		}
	}
	// Write miss: no allocation, write forwarded.
	c.Write(0x200)
	if len(fwd) != 1 {
		t.Fatalf("write miss forwarded %d writes, want 1", len(fwd))
	}
	if c.Read(0x200) {
		t.Error("no-write-allocate allocated")
	}
	// Now resident; write hit also forwards (write-through).
	c.Write(0x200)
	if len(fwd) != 2 {
		t.Errorf("write hit forwarded %d writes total, want 2", len(fwd))
	}
}

func TestWriteBackAllocatesAndWritesBackDirty(t *testing.T) {
	var writes []uint32
	c := mustCache(t, smallCfg(true), nil)
	c.MissHook = func(ba uint32, write bool) {
		if write {
			writes = append(writes, ba)
		}
	}
	c.Write(0x000) // allocate, dirty
	if len(writes) != 0 {
		t.Fatalf("write-back forwarded a write on allocation")
	}
	if !c.Read(0x000) {
		t.Error("write-allocate did not allocate")
	}
	// Evict 0x000's set: fill two more conflicting blocks.
	c.Read(0x080)
	c.Read(0x100)
	if len(writes) != 1 || writes[0] != 0x000 {
		t.Errorf("dirty eviction writes = %#v, want [0x000]", writes)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Dirty victim in a nonzero set must write back its own address.
	var writes []uint32
	c := mustCache(t, smallCfg(true), nil)
	c.MissHook = func(ba uint32, write bool) {
		if write {
			writes = append(writes, ba)
		}
	}
	const setStride = 128 // sets(8) * block(16)
	addr := uint32(0x30)  // set 3
	c.Write(addr)
	c.Read(addr + setStride)
	c.Read(addr + 2*setStride)
	if len(writes) != 1 || writes[0] != addr {
		t.Errorf("victim writeback = %#v, want [%#x]", writes, addr)
	}
}

func TestHierarchyInclusionTraffic(t *testing.T) {
	h, err := NewPaperHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// A fetch stream larger than I-L1 but within L2: L2 read misses stop
	// growing on the second pass, I-L1 keeps missing.
	for pass := 0; pass < 2; pass++ {
		for a := uint32(0); a < 64<<10; a += 4 {
			h.Fetch(a)
		}
	}
	il1 := h.IL1.Stats()
	l2 := h.L2.Stats()
	if il1.ReadMisses == 0 || l2.ReadMisses == 0 {
		t.Fatal("no misses on a 64KB stream")
	}
	// First pass: 64KB/32B = 2048 I-L1 misses; second pass same (stream
	// exceeds 16KB I-L1). L2 (256KB) holds it all: misses only from the
	// first pass.
	if il1.ReadMisses != 2*2048 {
		t.Errorf("I-L1 misses = %d, want 4096", il1.ReadMisses)
	}
	if l2.ReadMisses != 2048/2 {
		// L2 blocks are 64B: 1024 block fetches, all cold, second pass
		// hits.
		t.Errorf("L2 misses = %d, want 1024", l2.ReadMisses)
	}
	if got := l2.Reads; got != 4096 {
		t.Errorf("L2 reads = %d, want 4096 (one per I-L1 miss)", got)
	}
}

func TestMissRateBounds(t *testing.T) {
	c := mustCache(t, smallCfg(false), nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := uint32(rng.Intn(1 << 14))
		if rng.Intn(4) == 0 {
			c.Write(a)
		} else {
			c.Read(a)
		}
	}
	s := c.Stats()
	mr := s.MissRate()
	if mr <= 0 || mr > 1 {
		t.Errorf("miss rate = %g out of (0,1]", mr)
	}
	if s.Accesses() != 10000 {
		t.Errorf("accesses = %d", s.Accesses())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate not 0")
	}
}

// Property: a tiny direct-mapped cache agrees with a brute-force model.
func TestAgainstReferenceModel(t *testing.T) {
	cfg := Config{Name: "dm", Size: 64, Assoc: 1, BlockSize: 16}
	c := mustCache(t, cfg, nil)
	ref := map[uint32]uint32{} // set -> block address
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		addr := uint32(rng.Intn(1 << 10))
		block := addr &^ 15
		set := (addr >> 4) & 3
		wantHit := ref[set] == block+1 // +1 marks validity
		gotHit := c.Read(addr)
		if gotHit != wantHit {
			t.Fatalf("access %d addr %#x: hit=%v want %v", i, addr, gotHit, wantHit)
		}
		ref[set] = block + 1
	}
}
