// Package cache is a content-addressed on-disk result store. Every
// simulation in this repository is deterministic (twlint's determinism
// analyzer bans wall-clock and unseeded randomness from the simulation
// tree), so a cell's result is a pure function of its construction inputs:
// (scheme, system config, seed, workload). Hash those inputs into a key and
// a result computed once is correct forever — the dedupe layer that lets
// the twlsimd service serve a resubmitted cell with zero recomputed writes.
//
// The store is a flat directory of JSON payloads fanned out over 256
// two-hex-digit subdirectories (git-object style, so huge campaigns don't
// degrade into one directory with a million entries). Writes are atomic
// (temp file + fsync + rename into place, snap.AtomicWriteFile), so a crash
// mid-Put leaves either the old entry or no entry — never a torn one — and
// concurrent Puts of the same key are idempotent last-writer-wins races
// between identical bytes.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"twl/internal/snap"
)

// Key derives the content address for a cell from its canonical key
// material. Callers are responsible for making material canonical and
// collision-free for their domain: include every construction input that
// can change the result, in a fixed field order, with an explicit version
// prefix so a change to result semantics invalidates old entries (see
// serve.CellKey for the service's derivation).
func Key(material string) string {
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

// Stats is a point-in-time snapshot of the cache's hit/miss counters.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Cache is a content-addressed store rooted at one directory. Safe for
// concurrent use: entries are immutable once written, and the counters are
// atomics.
type Cache struct {
	dir    string
	hits   atomic.Uint64 //twl:guardedby atomic
	misses atomic.Uint64 //twl:guardedby atomic
}

// New opens (creating if necessary) a cache rooted at dir.
func New(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path fans the key out over a two-hex-digit subdirectory.
func (c *Cache) path(key string) (string, error) {
	if len(key) < 3 {
		return "", fmt.Errorf("cache: key %q too short", key)
	}
	return filepath.Join(c.dir, key[:2], key[2:]+".json"), nil
}

// Get returns the payload stored under key, or ok=false on a miss. A miss
// is not an error; an unreadable entry is.
func (c *Cache) Get(key string) (payload []byte, ok bool, err error) {
	p, err := c.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			c.misses.Add(1)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: read %s: %w", key, err)
	}
	c.hits.Add(1)
	return b, true, nil
}

// Put stores payload under key, atomically. Re-putting an existing key
// replaces the entry (by the determinism contract the bytes are identical,
// so this is a no-op in effect).
func (c *Cache) Put(key string, payload []byte) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := snap.AtomicWriteFile(p, payload); err != nil {
		return fmt.Errorf("cache: put %s: %w", key, err)
	}
	return nil
}

// Len walks the store and counts entries. It exists for tests and the
// service's status endpoint; it is O(entries), not a counter.
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("cache: %w", err)
	}
	return n, nil
}

// Stats snapshots the hit/miss counters (process-lifetime, not persisted).
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
