package lru

import "testing"

func TestLRUEvictsLeastRecentlyUsedFirst(t *testing.T) {
	c := New[string, int](30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	c.Get("a") // b is now the least recently used
	if n := c.Put("d", 4, 15); n != 2 {
		t.Fatalf("Put evicted %d entries, want 2 (b, then c)", n)
	}
	for key, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.Get(key); ok != want {
			t.Errorf("%s resident = %v, want %v", key, ok, want)
		}
	}
	if c.Len() != 2 || c.Bytes() != 25 {
		t.Fatalf("len/bytes = %d/%d, want 2/25", c.Len(), c.Bytes())
	}
}

func TestLRURePutReplacesValueAndSize(t *testing.T) {
	c := New[string, string](20)
	c.Put("a", "small", 5)
	c.Put("b", "b", 5)
	if n := c.Put("a", "larger", 12); n != 0 {
		t.Fatalf("replacing a within budget evicted %d", n)
	}
	if v, _ := c.Get("a"); v != "larger" || c.Bytes() != 17 {
		t.Fatalf("a = %q with %d bytes held, want larger with 17", v, c.Bytes())
	}
	// a is the most recent; growing it past the room evicts b, not a.
	if n := c.Put("a", "largest", 18); n != 1 {
		t.Fatalf("growing a evicted %d entries, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived a's growth past the budget")
	}
}

func TestLRUDropsAValueLargerThanTheBudget(t *testing.T) {
	c := New[string, string](8)
	c.Put("a", "kept", 4)
	if n := c.Put("a", "too large", 9); n != 0 {
		t.Fatalf("oversized put evicted %d entries", n)
	}
	if v, ok := c.Get("a"); !ok || v != "kept" || c.Bytes() != 4 {
		t.Fatalf("oversized put changed the key's entry: %q %v, %d bytes", v, ok, c.Bytes())
	}
}
