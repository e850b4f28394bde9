package bench

import (
	"hash/fnv"
	"reflect"
	"testing"

	"giantsan/internal/parallel"
	"giantsan/internal/rt"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// The quarantine study's results hinge on order: which chunk the FIFO
// evicts first decides which address the next malloc recycles, and every
// probe verdict is a poison-state read of that history. These tests pin
// that the study — and the eviction machinery it exercises, including the
// merged eviction sweeps — is bit-identical whether the parallel engine
// runs the budgets on one worker or eight.

// TestQuarantineAblationParallelDeterminism: same budgets, same pressure,
// any worker count → identical rows in budget order.
func TestQuarantineAblationParallelDeterminism(t *testing.T) {
	budgets := []uint64{96, 960, 9600, 96 * 200}
	one, err := QuarantineAblation(budgets, 150, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := QuarantineAblation(budgets, 150, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("rows diverged across worker counts:\n-parallel 1: %+v\n-parallel 8: %+v", one, eight)
	}
	for i, r := range one {
		if r.Budget != budgets[i] {
			t.Fatalf("row %d carries budget %d, want %d: merge is not index-ordered", i, r.Budget, budgets[i])
		}
	}
}

// quarantineChurnDigest runs a malloc/free churn that keeps the quarantine
// overflowing and folds every recycled address and the final shadow state
// into one hash. Eviction order decides the address sequence; the eviction
// sweeps and re-allocation templates decide the shadow bytes — so the
// digest moves if either FIFO order or a poison-state transition does.
func quarantineChurnDigest(budget uint64) uint64 {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 8 << 20, QuarantineBytes: budget})
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	var live []vmem.Addr
	for i := 0; i < 800; i++ {
		p, err := env.Malloc(uint64(32 + 8*(i%7)))
		if err != nil {
			panic(err)
		}
		word(uint64(p))
		live = append(live, p)
		if len(live) > 6 {
			if rerr := env.Free(live[0]); rerr != nil {
				panic(rerr)
			}
			live = live[1:]
		}
	}
	word(env.San().(interface{ Shadow() *shadow.Memory }).Shadow().Digest())
	return h.Sum64()
}

// TestQuarantineChurnDigestDeterminism: the same churn replayed under the
// parallel engine at -parallel 1 and -parallel 8 yields the same
// address-sequence + shadow digest for every budget. This is the guard
// against cross-environment state (the shared template caches) or sweep
// scheduling leaking nondeterminism into eviction order or poison-state
// transitions.
func TestQuarantineChurnDigestDeterminism(t *testing.T) {
	budgets := []uint64{64, 512, 4096, 1 << 20}
	run := func(workers int) []uint64 {
		digs, err := parallel.Map(len(budgets), parallel.Options{Workers: workers}, func(i int) (uint64, error) {
			return quarantineChurnDigest(budgets[i]), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return digs
	}
	one := run(1)
	eight := run(8)
	for i := range budgets {
		if one[i] != eight[i] {
			t.Errorf("budget %d: digest %#x at -parallel 1 but %#x at -parallel 8", budgets[i], one[i], eight[i])
		}
	}
}
