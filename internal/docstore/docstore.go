// Package docstore simulates a MongoDB-style document database: schemaless
// JSON-like documents in collections, secondary indexes over scalar fields,
// and geospatial indexes over coordinate fields. The paper's software layer
// uses MongoDB for "storing unstructured or semi-structured documents such
// as JSON data ... equipped with various indexing techniques for efficient
// query processing"; this package supplies that role for tweets, Waze
// reports, and open city data.
//
// Both kinds of index are postings of document sequence numbers, kept by
// every write: an equality index by encoded field value, a geo index by the
// cell of one global 0.02° lat/lon grid the document's point falls in. Find
// plans per query: of the conditions that have an index it takes the one
// with the fewest candidates (for a radius, the postings of the cells
// geo.Grid.RadiusCover says the cap can touch), then checks every condition
// on each candidate's document — the index narrows, the document decides,
// so an answer never depends on which index was picked. A query no index
// covers scans the collection. There is no range index: a range condition
// is only ever a filter.
package docstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
)

// Sentinel errors.
var (
	ErrNotFound   = errors.New("docstore: document not found")
	ErrNoIndex    = errors.New("docstore: index not found")
	ErrBadQuery   = errors.New("docstore: invalid query")
	ErrBadGeo     = errors.New("docstore: field is not a coordinate pair")
	ErrCollection = errors.New("docstore: collection not found")
)

// Document is a schemaless record. Values are JSON-like: string, float64,
// int, bool, nested maps/slices. The store assigns "_id".
type Document map[string]any

func (d Document) clone() Document {
	out := make(Document, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// numeric coerces int/float values for comparison.
func numeric(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// compare orders two field values: numerics numerically, strings
// lexicographically, mixed types by type name. ok=false when incomparable.
func compare(a, b any) (int, bool) {
	if na, aok := numeric(a); aok {
		if nb, bok := numeric(b); bok {
			switch {
			case na < nb:
				return -1, true
			case na > nb:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	sa, aok := a.(string)
	sb, bok := b.(string)
	if aok && bok {
		switch {
		case sa < sb:
			return -1, true
		case sa > sb:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// Condition is one query predicate.
type Condition struct {
	Field string
	// Exactly one of the following applies.
	Eq       any
	Min, Max any // inclusive range; nil side = unbounded
	IsRange  bool
	// Geo query: documents whose Field is a {lat, lon} pair within RadiusKm
	// of Center.
	GeoCenter *geo.Point
	RadiusKm  float64
}

// Eq builds an equality condition.
func Eq(field string, value any) Condition { return Condition{Field: field, Eq: value} }

// Range builds an inclusive range condition (nil = unbounded side).
func Range(field string, minV, maxV any) Condition {
	return Condition{Field: field, Min: minV, Max: maxV, IsRange: true}
}

// GeoWithin builds a radius condition over a coordinate field.
func GeoWithin(field string, center geo.Point, radiusKm float64) Condition {
	c := center
	return Condition{Field: field, GeoCenter: &c, RadiusKm: radiusKm}
}

// Query is a conjunction of conditions.
type Query struct {
	Conditions []Condition
	Limit      int // 0 = unlimited
}

// geoGrid is the grid every geo index files its postings by: the globe in
// 0.02° cells, about 2.2 km of latitude, so a city-block radius touches a
// 3×3 block. Only occupied cells exist (the postings are a map), so the
// 162 million cells cost nothing.
var geoGrid = geo.Grid{Box: geo.BBox{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180}, Rows: 9000, Cols: 18000}

// offGrid files the points that are not coordinates (latitude 95, say):
// Insert has always accepted them and HaversineKm gives them a distance, but
// a cover speaks only for real coordinates, so every radius query takes
// these as candidates too.
const offGrid = -1

func geoCell(p geo.Point) int {
	if p.Validate() != nil {
		return offGrid
	}
	return geoGrid.CellOf(p)
}

// Collection holds documents with optional secondary and geo indexes.
type Collection struct {
	mu     sync.RWMutex
	prefix string             // name + "-": an id is prefix + decimal sequence number
	docs   map[int64]Document // by sequence number
	// Postings are sequence numbers in no particular order; an emptied
	// posting list is deleted, so len of a geo index is its occupied cells.
	indexes map[string]map[string][]int64 // field → encoded value → documents
	geoIdx  map[string]map[int][]int64    // field → geoGrid cell → documents
	seq     int64
	// Planner decisions, for tests and benches.
	scansFull, scansIndexed atomic.Int64
}

// Database is a set of named collections.
type Database struct {
	mu          sync.Mutex
	collections map[string]*Collection
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{collections: make(map[string]*Collection)}
}

// Collection returns (creating if needed) a named collection.
func (db *Database) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = &Collection{
			prefix:  name + "-",
			docs:    make(map[int64]Document),
			indexes: make(map[string]map[string][]int64),
			geoIdx:  make(map[string]map[int][]int64),
		}
		db.collections[name] = c
	}
	return c
}

// Collections lists collection names, sorted.
func (db *Database) Collections() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.collections))
	for n := range db.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func encodeIndexKey(v any) (string, bool) {
	if n, ok := numeric(v); ok {
		return "n:" + strconv.FormatFloat(n, 'g', -1, 64), true
	}
	if s, ok := v.(string); ok {
		return "s:" + s, true
	}
	if b, ok := v.(bool); ok {
		return "b:" + strconv.FormatBool(b), true
	}
	return "", false
}

// CreateIndex builds an equality index over a scalar field.
func (c *Collection) CreateIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := make(map[string][]int64)
	for seq, d := range c.docs {
		if key, ok := encodeIndexKey(d[field]); ok {
			idx[key] = append(idx[key], seq)
		}
	}
	c.indexes[field] = idx
}

// CreateGeoIndex builds a geo index over a field holding {lat, lon} values:
// the documents already stored are filed by grid cell, every later write
// keeps the postings, and from then on a write whose field is not a
// coordinate pair fails with ErrBadGeo. Find answers GeoWithin on the field
// from the cells the radius can touch.
func (c *Collection) CreateGeoIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := make(map[int][]int64)
	for seq, d := range c.docs {
		if p, ok := pointOf(d[field]); ok {
			cell := geoCell(p)
			cells[cell] = append(cells[cell], seq)
		}
	}
	c.geoIdx[field] = cells
}

// pointOf extracts a geo.Point from a document field of form
// map[string]any{"lat": .., "lon": ..} or geo.Point.
func pointOf(v any) (geo.Point, bool) {
	switch x := v.(type) {
	case geo.Point:
		return x, true
	case map[string]any:
		lat, lok := numeric(x["lat"])
		lon, nok := numeric(x["lon"])
		if lok && nok {
			return geo.Point{Lat: lat, Lon: lon}, true
		}
	}
	return geo.Point{}, false
}

// checkGeo rejects a document whose geo-indexed field is present and not a
// coordinate pair, so bad data fails at the write.
func (c *Collection) checkGeo(doc Document) error {
	for field := range c.geoIdx {
		if v, ok := doc[field]; ok {
			if _, pok := pointOf(v); !pok {
				return fmt.Errorf("%w: %s", ErrBadGeo, field)
			}
		}
	}
	return nil
}

// index files a stored document in every index; unindex takes it out again,
// and must be given the document as it was filed.
func (c *Collection) index(seq int64, doc Document) {
	for field, idx := range c.indexes {
		if key, ok := encodeIndexKey(doc[field]); ok {
			idx[key] = append(idx[key], seq)
		}
	}
	for field, cells := range c.geoIdx {
		if p, ok := pointOf(doc[field]); ok {
			cell := geoCell(p)
			cells[cell] = append(cells[cell], seq)
		}
	}
}

func (c *Collection) unindex(seq int64, doc Document) {
	for field, idx := range c.indexes {
		if key, ok := encodeIndexKey(doc[field]); ok {
			removePosting(idx, key, seq)
		}
	}
	for field, cells := range c.geoIdx {
		if p, ok := pointOf(doc[field]); ok {
			removePosting(cells, geoCell(p), seq)
		}
	}
}

func removePosting[K comparable](postings map[K][]int64, key K, seq int64) {
	list := postings[key]
	i := slices.Index(list, seq)
	if i < 0 {
		return
	}
	if len(list) == 1 {
		delete(postings, key)
		return
	}
	list[i] = list[len(list)-1]
	postings[key] = list[:len(list)-1]
}

// Insert stores a document and returns its id. The input map is copied.
func (c *Collection) Insert(d Document) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := c.prefix + strconv.FormatInt(c.seq, 10)
	doc := d.clone()
	doc["_id"] = id
	if err := c.checkGeo(doc); err != nil {
		return "", err
	}
	c.docs[c.seq] = doc
	c.index(c.seq, doc)
	return id, nil
}

// lookup resolves an id this collection assigned to its sequence number and
// stored document. Callers hold c.mu.
func (c *Collection) lookup(id string) (int64, Document, error) {
	if digits, ok := strings.CutPrefix(id, c.prefix); ok {
		// The comparison with the stored id turns away other spellings of
		// the number ("+7", "007").
		if seq, err := strconv.ParseInt(digits, 10, 64); err == nil {
			if d, ok := c.docs[seq]; ok && d["_id"] == id {
				return seq, d, nil
			}
		}
	}
	return 0, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Get returns a copy of the document with the given id.
func (c *Collection) Get(id string) (Document, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, d, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	return d.clone(), nil
}

// Delete removes a document.
func (c *Collection) Delete(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq, d, err := c.lookup(id)
	if err != nil {
		return err
	}
	delete(c.docs, seq)
	c.unindex(seq, d)
	return nil
}

// Update replaces the non-id fields of a document, in one step: a reader
// sees the old document or the new one, and a replacement Insert would have
// refused leaves the old one stored and indexed.
func (c *Collection) Update(id string, d Document) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq, old, err := c.lookup(id)
	if err != nil {
		return err
	}
	doc := d.clone()
	doc["_id"] = id
	if err := c.checkGeo(doc); err != nil {
		return err
	}
	c.unindex(seq, old)
	c.docs[seq] = doc
	c.index(seq, doc)
	return nil
}

// Count returns the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

func (c *Collection) matches(d Document, cond Condition) bool {
	v, ok := d[cond.Field]
	if !ok {
		return false
	}
	switch {
	case cond.GeoCenter != nil:
		p, pok := pointOf(v)
		if !pok {
			return false
		}
		return geo.HaversineKm(*cond.GeoCenter, p) <= cond.RadiusKm
	case cond.IsRange:
		if cond.Min != nil {
			if cmp, cok := compare(v, cond.Min); !cok || cmp < 0 {
				return false
			}
		}
		if cond.Max != nil {
			if cmp, cok := compare(v, cond.Max); !cok || cmp > 0 {
				return false
			}
		}
		return true
	default:
		cmp, cok := compare(v, cond.Eq)
		return cok && cmp == 0
	}
}

// geoCandidates returns the postings of every cell a radius can touch, and
// of the off-grid points. A cover wider than the index walks the occupied
// cells and asks the cover, never the other way round: a continental radius
// is millions of cells, nearly all of them empty.
func geoCandidates(cells map[int][]int64, cover geo.CellCover) []int64 {
	out := slices.Clone(cells[offGrid])
	if cover.Len() <= len(cells) {
		cover.Each(func(cell int) { out = append(out, cells[cell]...) })
		return out
	}
	for cell, list := range cells {
		if cover.Contains(cell) {
			out = append(out, list...)
		}
	}
	return out
}

// plan picks the candidates Find filters: among the conditions an index
// covers — equality on an indexed field, radius on a geo-indexed one — the
// one with the fewest. ok is false when no condition has an index.
func (c *Collection) plan(q Query) (candidates []int64, ok bool) {
	for _, cond := range q.Conditions {
		var list []int64
		switch {
		case cond.GeoCenter != nil:
			cells, has := c.geoIdx[cond.Field]
			if !has {
				continue
			}
			list = geoCandidates(cells, geoGrid.RadiusCover(*cond.GeoCenter, cond.RadiusKm))
		case cond.IsRange:
			continue
		default:
			key, kok := encodeIndexKey(cond.Eq)
			idx, has := c.indexes[cond.Field]
			if !has || !kok {
				continue
			}
			list = idx[key]
		}
		if !ok || len(list) < len(candidates) {
			candidates, ok = list, true
		}
	}
	return candidates, ok
}

// Find returns copies of all documents matching every condition, sorted by
// _id for determinism; Limit keeps the first of them in that order. The
// planner narrows the search to an index's candidates when a condition has
// one; every condition is then checked on the document itself.
func (c *Collection) Find(q Query) ([]Document, error) {
	for _, cond := range q.Conditions {
		if cond.Field == "" {
			return nil, fmt.Errorf("%w: empty field", ErrBadQuery)
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	type hit struct {
		id  string
		doc Document
	}
	var hits []hit
	keep := func(d Document) {
		for _, cond := range q.Conditions {
			if !c.matches(d, cond) {
				return
			}
		}
		hits = append(hits, hit{d["_id"].(string), d})
	}
	if candidates, ok := c.plan(q); ok {
		c.scansIndexed.Add(1)
		for _, seq := range candidates {
			keep(c.docs[seq])
		}
	} else {
		c.scansFull.Add(1)
		for _, d := range c.docs {
			keep(d)
		}
	}
	// Sort before Limit: the limit keeps the lowest ids, not the first found.
	slices.SortFunc(hits, func(a, b hit) int { return strings.Compare(a.id, b.id) })
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	if len(hits) == 0 {
		return nil, nil
	}
	out := make([]Document, len(hits))
	for i, h := range hits {
		out[i] = h.doc.clone()
	}
	return out, nil
}

// PlannerStats reports how many Find calls used an index vs a full scan.
type PlannerStats struct {
	FullScans    int
	IndexedScans int
}

// Planner returns planner counters.
func (c *Collection) Planner() PlannerStats {
	return PlannerStats{FullScans: int(c.scansFull.Load()), IndexedScans: int(c.scansIndexed.Load())}
}
