package campaign

import (
	"sync"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
)

// TestSystemPoolReuse asserts the engine's pool hands a returned System
// back, reset to the requested identity, for the same geometry; builds
// a fresh one for any other geometry; and survives concurrent get/put.
func TestSystemPoolReuse(t *testing.T) {
	var pool systemPool
	geom := dram.Geometry{Banks: 4, RowsPerBank: 64}
	sys, err := pool.get(geom, dram.PaperDDR4(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess()
	base, err := p.Mmap(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(base, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	sys.InjectFaults(dram.FaultModel{FlipFailProb: 0.5, Seed: 1})
	arena := sys.Module().ArenaBytes()
	if arena == 0 {
		t.Fatal("the write materialized no arena slab")
	}
	pool.put(sys)

	again, err := pool.get(geom, dram.PaperDDR3(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if again != sys {
		t.Fatal("pool did not reuse the returned System")
	}
	mod := again.Module()
	if mod.Profile() != dram.PaperDDR3() || mod.ResidentPages() != 0 ||
		mod.FaultModelInstalled() != (dram.FaultModel{}) || again.FrameCacheDepth() != 0 {
		t.Fatal("reused System was not reset to the requested identity")
	}
	if mod.ArenaBytes() != arena {
		t.Fatalf("reused System lost its arena slabs: %d bytes, want %d", mod.ArenaBytes(), arena)
	}

	pool.put(again)
	other, err := pool.get(dram.Geometry{Banks: 8, RowsPerBank: 32}, dram.PaperDDR3(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if other == again {
		t.Fatal("pool reused a System across geometries")
	}

	// Concurrent get/put (run under -race by make test-race): every
	// System handed out is owned by exactly one goroutine at a time.
	var mu sync.Mutex
	owned := make(map[*memsys.System]bool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s, err := pool.get(geom, dram.PaperDDR3(), int64(g*100+i))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if owned[s] {
					t.Error("pool handed one System to two owners")
				}
				owned[s] = true
				mu.Unlock()
				if _, err := s.NewProcess().Mmap(4); err != nil {
					t.Error(err)
				}
				mu.Lock()
				owned[s] = false
				mu.Unlock()
				pool.put(s)
			}
		}(g)
	}
	wg.Wait()
}
