package lru

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCacheEvictionOrder fills a 3-entry cache, refreshes the oldest
// entry, and checks the next insert evicts the least *recently used*
// entry, not the least recently inserted one.
func TestCacheEvictionOrder(t *testing.T) {
	c := New[[]byte](3, 0)
	c.Add("a", []byte("A"), 1)
	c.Add("b", []byte("B"), 1)
	c.Add("c", []byte("C"), 1)
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"c", "b", "a"}) {
		t.Fatalf("keys = %v, want [c b a]", got)
	}
	// Touch "a": now "b" is the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a must be present")
	}
	c.Add("d", []byte("D"), 1)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU after a was touched)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was recently used and must survive")
	}
	if got := c.Len(); got != 3 {
		t.Errorf("len = %d, want 3", got)
	}
}

// TestCacheEvictsInUseOrderUnderPressure drives more inserts than
// capacity and asserts the survivor set is exactly the most recent ones.
func TestCacheEvictsInUseOrderUnderPressure(t *testing.T) {
	c := New[[]byte](4, 0)
	for i := 0; i < 10; i++ {
		c.Add(fmt.Sprintf("k%d", i), []byte{byte(i)}, 1)
	}
	want := []string{"k9", "k8", "k7", "k6"}
	if got := c.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want %v", got, want)
	}
}

// TestCacheReAddRefreshes: re-adding an existing key must update the body
// and move it to the front, never duplicate it.
func TestCacheReAddRefreshes(t *testing.T) {
	c := New[[]byte](2, 0)
	c.Add("a", []byte("v1"), 2)
	c.Add("b", []byte("B"), 1)
	c.Add("a", []byte("v2"), 2)
	if body, _ := c.Get("a"); string(body) != "v2" {
		t.Errorf("a = %q, want v2", body)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	c.Add("c", []byte("C"), 1)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted, a was refreshed above it")
	}
}

// TestStore is the retention contract the timeline store relies on:
// capacity-bounded, prefix lookup, refreshing an ID consumes no
// capacity, and a nil cache is a no-op.
func TestStore(t *testing.T) {
	st := New[[]byte](2, 0)
	for _, id := range []string{"aaa1", "bbb2", "ccc3"} {
		st.Add(id, []byte(id), int64(len(id)))
	}
	if st.Len() != 2 || st.Evicted() != 1 || st.Cap() != 2 {
		t.Fatalf("len %d evicted %d cap %d, want 2 / 1 / 2", st.Len(), st.Evicted(), st.Cap())
	}
	if _, ok := st.Find("aaa1"); ok {
		t.Error("evicted id still resolvable")
	}
	if _, ok := st.Find("bbb"); !ok {
		t.Error("prefix lookup failed")
	}
	// Refreshing an existing id does not consume capacity.
	st.Add("ccc3", []byte("ccc3 again"), 10)
	if st.Len() != 2 || st.Evicted() != 1 {
		t.Errorf("refresh consumed capacity: len %d evicted %d", st.Len(), st.Evicted())
	}
	var nilStore *Cache[[]byte]
	nilStore.Add("x", []byte("x"), 1)
	if nilStore.Len() != 0 || nilStore.Cap() != 0 {
		t.Error("nil store accessors not zero")
	}
	if _, ok := nilStore.Find("x"); ok {
		t.Error("nil store Find must miss")
	}
}

// TestRingAndPrefix: past capacity the oldest ID goes, and a short prefix
// resolves to the full ID.
func TestRingAndPrefix(t *testing.T) {
	st := New[string](2, 0)
	for _, id := range []string{"aaaa1111", "bbbb2222", "cccc3333"} {
		st.Add(id, id, 0)
	}
	if st.Len() != 2 {
		t.Fatalf("ring len = %d, want 2 (capacity)", st.Len())
	}
	if _, ok := st.Find("aaaa1111"); ok {
		t.Error("oldest trace must be evicted")
	}
	if id, ok := st.Find("cccc"); !ok || id != "cccc3333" {
		t.Error("prefix lookup failed")
	}
	if got := st.Keys(); len(got) != 2 {
		t.Errorf("IDs = %v, want 2 entries", got)
	}
}

// TestFindLeavesOrder: Find, unlike Get, must not change which entry is
// evicted next, and its prefix match prefers the most recently used key.
func TestFindLeavesOrder(t *testing.T) {
	c := New[int](2, 0)
	c.Add("ab1", 1, 0)
	c.Add("ab2", 2, 0)
	if v, _ := c.Find("ab"); v != 2 {
		t.Errorf("prefix match = %d, want the most recent (2)", v)
	}
	if _, ok := c.Find("ab1"); !ok {
		t.Fatal("ab1 must be present")
	}
	c.Add("ab3", 3, 0)
	if _, ok := c.Find("ab1"); ok {
		t.Error("Find refreshed ab1; it should have been evicted")
	}
}

// TestByteBudgetKeepsNewest: the byte bound evicts oldest first, the
// count of evictions is kept, and an entry larger than the whole budget
// is still held, alone.
func TestByteBudgetKeepsNewest(t *testing.T) {
	c := New[[]byte](0, 100)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprint(i), nil, 30)
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"4", "3", "2"}) || c.Bytes() != 90 || c.Evicted() != 2 {
		t.Fatalf("keys %v bytes %d evicted %d, want [4 3 2] / 90 / 2", got, c.Bytes(), c.Evicted())
	}
	c.Add("big", nil, 1000)
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"big"}) || c.Bytes() != 1000 {
		t.Errorf("keys %v bytes %d, want only the oversized newest entry", got, c.Bytes())
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 || c.Evicted() != 5 {
		t.Errorf("after purge: len %d bytes %d evicted %d, want 0 / 0 / 5", c.Len(), c.Bytes(), c.Evicted())
	}
}

// TestConcurrentBounds hammers one cache with Add, Get, Find and Purge
// under both bounds (run it with -race). Len never exceeds the entry
// cap, and once the writers stop, Bytes is exactly the summed sizes of
// the entries held (each value is its own size).
func TestConcurrentBounds(t *testing.T) {
	const maxEntries, maxBytes = 16, 400
	c := New[int64](maxEntries, maxBytes)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%02d", rng.Intn(40))
				switch op := rng.Intn(100); {
				case op < 50:
					size := int64(1 + rng.Intn(60))
					c.Add(key, size, size)
				case op < 75:
					c.Get(key)
				case op < 99:
					c.Find(key[:2])
				default:
					c.Purge()
				}
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := c.Len(); n > maxEntries {
				t.Errorf("len %d exceeds cap %d", n, maxEntries)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	var sum int64
	for _, k := range c.Keys() {
		v, ok := c.Get(k)
		if !ok {
			t.Fatalf("listed key %s missing", k)
		}
		sum += v
	}
	if c.Bytes() != sum {
		t.Errorf("bytes %d, summed sizes held %d", c.Bytes(), sum)
	}
	if c.Len() > 1 && c.Bytes() > maxBytes {
		t.Errorf("bytes %d over the %d budget with %d entries", c.Bytes(), maxBytes, c.Len())
	}
}
