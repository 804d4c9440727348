// Package rel implements the storage layer shared by every Datalog
// evaluator in this repository: append-only relations of ground tuples
// with hash indexes built lazily per binding pattern.
//
// Relations are append-only (Datalog is monotone), so a "delta" for
// semi-naive evaluation is just a watermark pair [lo,hi) of positions, and
// index posting lists — which are ascending position slices — support
// delta-restricted scans by binary search.
//
// Tuples live in a columnar arena: one flat []term.ID buffer where tuple i
// occupies the slice [i*arity, (i+1)*arity). The full-tuple dedup set and
// the per-mask indexes are open-addressing tables hashed over the term IDs
// of the (masked) columns, so the probe path — Contains, Scan, ensureIndex
// — never materializes a string key and never allocates.
package rel

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/term"
)

// Name identifies a relation. Distributed code composes names like
// "trans@p1" or adorned names like "R#bf"; the storage layer is agnostic.
type Name string

// Relation is a set of ground tuples of a fixed arity. It is append-only;
// Insert ignores duplicates. Not safe for concurrent use — peers own their
// relations.
type Relation struct {
	arity int
	flat  []term.ID // arena; tuple i occupies flat[i*arity:(i+1)*arity]
	n     int       // number of tuples
	seen  table     // full-tuple dedup: slots hold position+1
	idx   []maskIndex
}

// table is an open-addressing (linear probing, power-of-two sized) hash
// table. Slot values are payload+1 so zero marks an empty slot.
type table struct {
	slots []int32
	n     int
}

// index is the per-mask hash index: slots map a masked-column hash to a
// key number, postings[key] is the ascending list of tuple positions whose
// masked columns equal that key.
type index struct {
	slots    []int32
	postings [][]int32
	built    int // number of tuples absorbed so far
}

// maskIndex pairs a binding mask with its index. Relations see only a
// handful of masks, so a linear scan beats a map on the probe path.
type maskIndex struct {
	mask uint64
	ix   *index
}

// New returns an empty relation of the given arity. Arity 0 is allowed and
// models propositional facts; arity must be < 64 so binding masks fit a
// word.
func New(arity int) *Relation {
	if arity < 0 || arity >= 64 {
		panic(fmt.Sprintf("rel: unsupported arity %d", arity))
	}
	return &Relation{arity: arity}
}

// Arity reports the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of distinct tuples.
func (r *Relation) Len() int { return r.n }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix finalizes a hash with a 64-bit avalanche so nearby term IDs spread
// across the table.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashTuple hashes every column of a tuple (FNV-1a over the IDs).
func hashTuple(tuple []term.ID) uint64 {
	h := uint64(fnvOffset)
	for _, t := range tuple {
		h ^= uint64(uint32(t))
		h *= fnvPrime
	}
	return mix(h)
}

// hashCols hashes the columns selected by mask.
func hashCols(tuple []term.ID, mask uint64) uint64 {
	h := uint64(fnvOffset)
	for m := mask; m != 0; m &= m - 1 {
		h ^= uint64(uint32(tuple[bits.TrailingZeros64(m)]))
		h *= fnvPrime
	}
	return mix(h)
}

func eqTuple(a, b []term.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eqCols reports whether a and b agree on the columns selected by mask.
func eqCols(a, b []term.ID, mask uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// row returns the arena view of the tuple at pos. The capped slice keeps an
// appending caller from stomping the next tuple.
func (r *Relation) row(pos int) []term.ID {
	lo, hi := pos*r.arity, (pos+1)*r.arity
	return r.flat[lo:hi:hi]
}

// fullMask is the mask selecting every column of the relation.
func (r *Relation) fullMask() uint64 {
	return (uint64(1) << uint(r.arity)) - 1
}

// Insert adds a ground tuple, returning true if it was new. The tuple is
// copied into the arena. It panics on arity mismatch.
func (r *Relation) Insert(tuple []term.ID) bool {
	_, added := r.InsertPos(tuple)
	return added
}

// InsertPos is Insert returning also the tuple's position: the existing
// position on a duplicate, the newly assigned one otherwise. Callers that
// need a stable view of the stored tuple combine it with At.
func (r *Relation) InsertPos(tuple []term.ID) (int, bool) {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("rel: arity mismatch: inserting %d-tuple into %d-ary relation", len(tuple), r.arity))
	}
	if len(r.seen.slots) == 0 {
		r.seen.slots = make([]int32, 16)
	}
	m := uint64(len(r.seen.slots) - 1)
	i := hashTuple(tuple) & m
	for {
		s := r.seen.slots[i]
		if s == 0 {
			break
		}
		if pos := int(s - 1); eqTuple(r.row(pos), tuple) {
			return pos, false
		}
		i = (i + 1) & m
	}
	pos := r.n
	r.flat = append(r.flat, tuple...)
	r.n++
	r.seen.slots[i] = int32(pos + 1)
	r.seen.n++
	if r.seen.n*4 >= len(r.seen.slots)*3 {
		r.growSeen()
	}
	return pos, true
}

// growSeen doubles the dedup table and reinserts every tuple position.
func (r *Relation) growSeen() {
	slots := make([]int32, 2*len(r.seen.slots))
	m := uint64(len(slots) - 1)
	for _, s := range r.seen.slots {
		if s == 0 {
			continue
		}
		i := hashTuple(r.row(int(s-1))) & m
		for slots[i] != 0 {
			i = (i + 1) & m
		}
		slots[i] = s
	}
	r.seen.slots = slots
}

// Contains reports whether the ground tuple is present.
func (r *Relation) Contains(tuple []term.ID) bool {
	if len(tuple) != r.arity || len(r.seen.slots) == 0 {
		return false
	}
	m := uint64(len(r.seen.slots) - 1)
	i := hashTuple(tuple) & m
	for {
		s := r.seen.slots[i]
		if s == 0 {
			return false
		}
		if eqTuple(r.row(int(s-1)), tuple) {
			return true
		}
		i = (i + 1) & m
	}
}

// At returns the tuple at position pos (insertion order). The returned
// slice is a view into the arena and must not be modified; it stays valid
// across later Inserts.
func (r *Relation) At(pos int) []term.ID { return r.row(pos) }

// findIndex returns the index for mask, or nil if none was built yet.
func (r *Relation) findIndex(mask uint64) *index {
	for i := range r.idx {
		if r.idx[i].mask == mask {
			return r.idx[i].ix
		}
	}
	return nil
}

// ensureIndex brings the index for mask up to date with all tuples.
func (r *Relation) ensureIndex(mask uint64) *index {
	ix := r.findIndex(mask)
	if ix == nil {
		ix = &index{slots: make([]int32, 16)}
		r.idx = append(r.idx, maskIndex{mask: mask, ix: ix})
	}
	for pos := ix.built; pos < r.n; pos++ {
		r.indexInsert(ix, mask, pos)
	}
	ix.built = r.n
	return ix
}

// indexInsert files tuple position pos under its masked-column key.
func (r *Relation) indexInsert(ix *index, mask uint64, pos int) {
	row := r.row(pos)
	m := uint64(len(ix.slots) - 1)
	i := hashCols(row, mask) & m
	for {
		s := ix.slots[i]
		if s == 0 {
			break
		}
		k := int(s - 1)
		if eqCols(r.row(int(ix.postings[k][0])), row, mask) {
			ix.postings[k] = append(ix.postings[k], int32(pos))
			return
		}
		i = (i + 1) & m
	}
	ix.postings = append(ix.postings, []int32{int32(pos)})
	ix.slots[i] = int32(len(ix.postings))
	if len(ix.postings)*4 >= len(ix.slots)*3 {
		r.growIndex(ix, mask)
	}
}

// growIndex doubles an index's slot table and reinserts every key.
func (r *Relation) growIndex(ix *index, mask uint64) {
	slots := make([]int32, 2*len(ix.slots))
	m := uint64(len(slots) - 1)
	for k, posting := range ix.postings {
		i := hashCols(r.row(int(posting[0])), mask) & m
		for slots[i] != 0 {
			i = (i + 1) & m
		}
		slots[i] = int32(k + 1)
	}
	ix.slots = slots
}

// lookup returns the posting list for key's masked columns, or nil.
func (ix *index) lookup(r *Relation, mask uint64, key []term.ID) []int32 {
	m := uint64(len(ix.slots) - 1)
	i := hashCols(key, mask) & m
	for {
		s := ix.slots[i]
		if s == 0 {
			return nil
		}
		posting := ix.postings[s-1]
		if eqCols(r.row(int(posting[0])), key, mask) {
			return posting
		}
		i = (i + 1) & m
	}
}

// searchPos returns the first index in the ascending posting list whose
// value is >= lo.
func searchPos(posting []int32, lo int32) int {
	i, j := 0, len(posting)
	for i < j {
		h := int(uint(i+j) >> 1)
		if posting[h] < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// smallScan is the relation size up to which a masked Scan with no index
// for its mask filters the window linearly instead of building one. Most
// relations a delta join probes stay this small, and an index per binding
// pattern over a handful of tuples costs heap while saving next to no
// time.
const smallScan = 16

// Scan calls f for each tuple position in [lo,hi) whose columns selected by
// mask equal the corresponding entries of key (a full-width tuple; columns
// outside mask are ignored), in ascending position order. Iteration stops
// early if f returns false. A zero mask scans the whole window.
func (r *Relation) Scan(mask uint64, key []term.ID, lo, hi int, f func(pos int, tuple []term.ID) bool) {
	if hi > r.n {
		hi = r.n
	}
	if lo >= hi {
		return
	}
	if mask == 0 || r.n <= smallScan && r.findIndex(mask) == nil {
		for pos := lo; pos < hi; pos++ {
			if row := r.row(pos); eqCols(row, key, mask) && !f(pos, row) {
				return
			}
		}
		return
	}
	posting := r.ensureIndex(mask).lookup(r, mask, key)
	start := searchPos(posting, int32(lo))
	for _, p := range posting[start:] {
		pos := int(p)
		if pos >= hi {
			return
		}
		if !f(pos, r.row(pos)) {
			return
		}
	}
}

// All returns the tuples in insertion order as views into the arena.
// Neither the slice nor its tuples may be modified.
func (r *Relation) All() [][]term.ID {
	out := make([][]term.ID, r.n)
	for i := range out {
		out[i] = r.row(i)
	}
	return out
}

// DB is a named collection of relations sharing one term store.
type DB struct {
	Store *term.Store
	rels  map[Name]*Relation
	order []Name // creation order, for deterministic dumps
}

// NewDB returns an empty database over the given store.
func NewDB(store *term.Store) *DB {
	return &DB{Store: store, rels: make(map[Name]*Relation)}
}

// Rel returns the relation called name, creating it with the given arity on
// first use. It panics if the name exists with a different arity.
func (db *DB) Rel(name Name, arity int) *Relation {
	if r, ok := db.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("rel: %s has arity %d, requested %d", name, r.arity, arity))
		}
		return r
	}
	r := New(arity)
	db.rels[name] = r
	db.order = append(db.order, name)
	return r
}

// Lookup returns the relation called name, or nil.
func (db *DB) Lookup(name Name) *Relation { return db.rels[name] }

// Names returns the relation names in creation order.
func (db *DB) Names() []Name {
	out := make([]Name, len(db.order))
	copy(out, db.order)
	return out
}

// FactCount returns the total number of tuples across all relations — the
// materialization metric used throughout the experiments.
func (db *DB) FactCount() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Dump renders the database deterministically, one fact per line, sorted by
// relation name then tuple order, for golden tests and CLI output.
func (db *DB) Dump() string {
	names := db.Names()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	var b strings.Builder
	for _, n := range names {
		r := db.rels[n]
		lines := make([]string, 0, r.Len())
		for _, tup := range r.All() {
			lines = append(lines, formatFact(db.Store, n, tup))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func formatFact(s *term.Store, n Name, tuple []term.ID) string {
	var b strings.Builder
	b.WriteString(string(n))
	b.WriteByte('(')
	for i, t := range tuple {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String(t))
	}
	b.WriteByte(')')
	return b.String()
}
