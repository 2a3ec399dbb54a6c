package docstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
)

// modelCollection drives a Collection and keeps, beside it, the documents it
// should hold: a map and a filter written here, sharing no code with Find.
type modelCollection struct {
	t      *testing.T
	col    *Collection
	docs   map[string]Document // id → the stored document
	hasEq  bool                // CreateIndex("kind") has run
	hasGeo bool                // CreateGeoIndex("loc") has run
	*modelTally
}

// modelTally counts, over all histories, what the tameness guard wants seen.
type modelTally struct {
	byGeo, byEq, byEither, fullScans, limited, badGeo int
}

func modelNum(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}

func modelPoint(v any) (geo.Point, bool) {
	switch x := v.(type) {
	case geo.Point:
		return x, true
	case map[string]any:
		lat, ok1 := modelNum(x["lat"])
		lon, ok2 := modelNum(x["lon"])
		return geo.Point{Lat: lat, Lon: lon}, ok1 && ok2
	}
	return geo.Point{}, false
}

// holds is the reference meaning of one condition. The histories keep "t"
// numeric and "kind" a string, so ordering never has to compare across types.
func holds(d Document, cond Condition) bool {
	v, ok := d[cond.Field]
	if !ok {
		return false
	}
	less := func(a, b any) bool { // a < b
		if x, ok := modelNum(a); ok {
			y, _ := modelNum(b)
			return x < y
		}
		return a.(string) < b.(string)
	}
	switch {
	case cond.GeoCenter != nil:
		p, ok := modelPoint(v)
		return ok && geo.HaversineKm(*cond.GeoCenter, p) <= cond.RadiusKm
	case cond.IsRange:
		return (cond.Min == nil || !less(v, cond.Min)) && (cond.Max == nil || !less(cond.Max, v))
	default:
		return !less(v, cond.Eq) && !less(cond.Eq, v)
	}
}

// want is Find by brute force: every document, in id order, every condition,
// the first Limit of them.
func (m *modelCollection) want(q Query) []Document {
	ids := make([]string, 0, len(m.docs))
	for id := range m.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Document
	for _, id := range ids {
		all := true
		for _, cond := range q.Conditions {
			all = all && holds(m.docs[id], cond)
		}
		if all {
			out = append(out, m.docs[id])
			if q.Limit > 0 && len(out) == q.Limit {
				break
			}
		}
	}
	return out
}

// query runs one Find against the reference and checks that the planner
// counted it as what the indexes in place make it.
func (m *modelCollection) query(q Query) {
	m.t.Helper()
	before := m.col.Planner()
	got, err := m.col.Find(q)
	if err != nil {
		m.t.Fatalf("Find(%+v): %v", q, err)
	}
	if want := m.want(q); !reflect.DeepEqual(got, want) {
		m.t.Errorf("Find(%s) = %v\nwant %v", describe(q), ids(got), ids(want))
	}
	geoCond, eqCond := false, false
	for _, cond := range q.Conditions {
		geoCond = geoCond || (cond.GeoCenter != nil && m.hasGeo)
		eqCond = eqCond || (cond.GeoCenter == nil && !cond.IsRange && cond.Field == "kind" && m.hasEq)
	}
	after := m.col.Planner()
	wantPlan := before
	if geoCond || eqCond {
		wantPlan.IndexedScans++
	} else {
		wantPlan.FullScans++
		m.fullScans++
	}
	if after != wantPlan {
		m.t.Errorf("Find(%s): planner %+v → %+v, want %+v", describe(q), before, after, wantPlan)
	}
	switch {
	case geoCond && eqCond:
		m.byEither++
	case geoCond:
		m.byGeo++
	case eqCond:
		m.byEq++
	}
	if q.Limit > 0 && len(got) == q.Limit {
		m.limited++
	}
}

func ids(docs []Document) []any {
	out := make([]any, len(docs))
	for i, d := range docs {
		out[i] = d["_id"]
	}
	return out
}

func describe(q Query) string {
	s := fmt.Sprintf("limit %d", q.Limit)
	for _, c := range q.Conditions {
		switch {
		case c.GeoCenter != nil:
			s += fmt.Sprintf(", %s within %g km of %+v", c.Field, c.RadiusKm, *c.GeoCenter)
		case c.IsRange:
			s += fmt.Sprintf(", %s in [%v, %v]", c.Field, c.Min, c.Max)
		default:
			s += fmt.Sprintf(", %s = %v", c.Field, c.Eq)
		}
	}
	return s
}

// checkIndexes is the half of the contract no query can see: every index
// must hold exactly the documents that have the field, each once, each under
// the key its document has, and no empty list.
func (m *modelCollection) checkIndexes() {
	m.t.Helper()
	c := m.col
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.docs) != len(m.docs) {
		m.t.Errorf("collection holds %d documents, model %d", len(c.docs), len(m.docs))
	}
	for field, cells := range c.geoIdx {
		filed := map[int64]bool{}
		for cell, list := range cells {
			if len(list) == 0 {
				m.t.Errorf("geo index %s keeps an empty cell %d", field, cell)
			}
			for _, seq := range list {
				p, ok := pointOf(c.docs[seq][field])
				if !ok || geoCell(p) != cell || filed[seq] {
					m.t.Errorf("geo index %s: posting %d in cell %d: stored %v, filed twice %v", field, seq, cell, c.docs[seq], filed[seq])
				}
				filed[seq] = true
			}
		}
		for seq, d := range c.docs {
			if _, ok := pointOf(d[field]); ok && !filed[seq] {
				m.t.Errorf("geo index %s misses document %d", field, seq)
			}
		}
	}
	for field, idx := range c.indexes {
		filed := map[int64]bool{}
		for key, list := range idx {
			if len(list) == 0 {
				m.t.Errorf("index %s keeps an empty key %q", field, key)
			}
			for _, seq := range list {
				if k, ok := encodeIndexKey(c.docs[seq][field]); !ok || k != key || filed[seq] {
					m.t.Errorf("index %s: posting %d under %q: stored %v, filed twice %v", field, seq, key, c.docs[seq], filed[seq])
				}
				filed[seq] = true
			}
		}
		for seq, d := range c.docs {
			if _, ok := encodeIndexKey(d[field]); ok && !filed[seq] {
				m.t.Errorf("index %s misses document %d", field, seq)
			}
		}
	}
}

var modelKinds = []string{"theft", "assault", "robbery", "fraud"}

// modelRadii runs from nothing to more than the half circumference.
var modelRadii = []float64{0, 1e-9, 0.3, 2, 2, 25, 500, 5000, 12000, 20100}

// arctic is a cap at latitude 80° over a field of points: its widest
// meridians are asin(sin 8.09°/cos 80°) = 54° from the centre's, where
// radius/(111 km·cos 80°) would stop at 47°.
var arctic = GeoWithin("loc", geo.Point{Lat: 80, Lon: -40}, 900)

// modelPointAt draws a point from the places the index can go wrong: a
// city's worth of neighbouring cells, exact cell corners, both names of the
// antimeridian, the poles, anywhere, and values that are not coordinates.
func modelPointAt(rng *rand.Rand) geo.Point {
	cellDeg := 180 / float64(geoGrid.Rows)
	switch rng.Intn(13) {
	case 12:
		return geo.Point{Lat: 78 + 6*rng.Float64(), Lon: -40 + 112*(rng.Float64()-0.5)}
	case 0, 1, 2, 3, 4:
		return geo.Point{Lat: 30.45 + 0.03*rng.NormFloat64(), Lon: -91.19 + 0.03*rng.NormFloat64()}
	case 5, 6:
		return geo.Point{Lat: -90 + cellDeg*float64(6020+rng.Intn(5)), Lon: -180 + cellDeg*float64(4438+rng.Intn(5))}
	case 7:
		lons := []float64{180, -180, 179.995, -179.995, 179.97, -179.97}
		return geo.Point{Lat: 10 + 0.01*rng.NormFloat64(), Lon: lons[rng.Intn(len(lons))]}
	case 8:
		lats := []float64{90, -90, 89.99, -89.99, 89.9}
		return geo.Point{Lat: lats[rng.Intn(len(lats))], Lon: -180 + 360*rng.Float64()}
	case 9:
		return geo.Point{Lat: 30.45 + 0.03*rng.NormFloat64(), Lon: 179.99 + 0.02*rng.Float64() - 360*float64(rng.Intn(2))}
	case 10:
		return geo.Point{Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}
	default:
		off := []geo.Point{{Lat: 95, Lon: 10}, {Lat: 30.45, Lon: 268.81}, {Lat: -91, Lon: -181}}
		return off[rng.Intn(len(off))]
	}
}

func (m *modelCollection) randomDoc(rng *rand.Rand, step int) Document {
	d := Document{"t": float64(rng.Intn(100)), "step": step}
	if rng.Intn(10) > 0 {
		d["kind"] = modelKinds[rng.Intn(len(modelKinds))]
	}
	if rng.Intn(3) == 0 {
		d["t"] = rng.Intn(100) // an int beside the float64s
	}
	switch p := modelPointAt(rng); rng.Intn(10) {
	case 0: // no location
	case 1, 2:
		d["loc"] = map[string]any{"lat": p.Lat, "lon": p.Lon}
	default:
		d["loc"] = p
	}
	return d
}

func (m *modelCollection) randomID(rng *rand.Rand) (string, bool) {
	if len(m.docs) == 0 {
		return "", false
	}
	all := make([]string, 0, len(m.docs))
	for id := range m.docs {
		all = append(all, id)
	}
	sort.Strings(all)
	return all[rng.Intn(len(all))], true
}

func (m *modelCollection) randomQuery(rng *rand.Rand) Query {
	var q Query
	if rng.Intn(4) > 0 {
		centre := modelPointAt(rng)
		if id, ok := m.randomID(rng); ok && rng.Intn(3) == 0 {
			if p, ok := modelPoint(m.docs[id]["loc"]); ok {
				centre = p // radius 0 round a stored point must find it
			}
		}
		cond := GeoWithin("loc", centre, modelRadii[rng.Intn(len(modelRadii))])
		if rng.Intn(8) == 0 {
			cond = arctic
		}
		q.Conditions = append(q.Conditions, cond)
	}
	if rng.Intn(3) == 0 {
		lo := rng.Intn(100)
		switch rng.Intn(3) {
		case 0:
			q.Conditions = append(q.Conditions, Range("t", lo, nil))
		case 1:
			q.Conditions = append(q.Conditions, Range("t", nil, float64(lo)))
		default:
			q.Conditions = append(q.Conditions, Range("t", float64(lo), lo+rng.Intn(60)))
		}
	}
	if rng.Intn(3) == 0 {
		q.Conditions = append(q.Conditions, Condition{Field: "kind", Eq: modelKinds[rng.Intn(len(modelKinds))]})
	}
	if rng.Intn(8) == 0 {
		q.Conditions = append(q.Conditions, Range("kind", "b", "s"))
	}
	rng.Shuffle(len(q.Conditions), func(i, j int) { q.Conditions[i], q.Conditions[j] = q.Conditions[j], q.Conditions[i] })
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(5)
	}
	return q
}

// stored is what the collection should now hold for d under id.
func stored(d Document, id string) Document {
	out := d.clone()
	out["_id"] = id
	return out
}

func (m *modelCollection) step(rng *rand.Rand, step int) {
	switch op := rng.Intn(100); {
	case op < 92:
		d := m.randomDoc(rng, step)
		id, err := m.col.Insert(d)
		if err != nil {
			m.t.Fatalf("Insert(%v): %v", d, err)
		}
		if _, dup := m.docs[id]; dup {
			m.t.Fatalf("Insert issued id %s twice", id)
		}
		m.docs[id] = stored(d, id)
	default:
		// Something that is not a point, at a geo-indexed field: refused once
		// the index exists, and nothing changes.
		bad := Document{"loc": "nowhere", "kind": modelKinds[0], "t": 1.0}
		id, err := m.col.Insert(bad)
		if m.hasGeo {
			if !errors.Is(err, ErrBadGeo) {
				m.t.Errorf("Insert of a non-point with a geo index: %v", err)
			}
			m.badGeo++
		} else if err != nil {
			m.t.Fatalf("Insert(%v): %v", bad, err)
		} else {
			m.docs[id] = stored(bad, id)
		}
	}
	if n := m.col.Count(); n != len(m.docs) {
		m.t.Errorf("Count = %d, model %d", n, len(m.docs))
	}
}

// TestModelRandomHistories runs seeded histories of inserts and
// refused writes, with the equality and the geo index created at a seeded
// step part-way through, against a map and a brute-force filter; after every step the indexes must hold exactly
// the stored documents and three random conjunctions of radius, range and
// equality, with and without Limit, must return reflect.DeepEqual what the
// filter returns.
func TestModelRandomHistories(t *testing.T) {
	var total modelTally
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &modelCollection{t: t, col: NewDatabase().Collection(fmt.Sprintf("h%d", seed)), docs: map[string]Document{}, modelTally: &total}
		// Seed 1 has both indexes from the start; the rest build them over
		// whatever the first steps left, in either order.
		geoAt, eqAt := 0, 0
		if seed > 1 {
			geoAt, eqAt = rng.Intn(120), rng.Intn(120)
		}
		for step := 0; step < 400; step++ {
			if step == geoAt {
				m.col.CreateGeoIndex("loc")
				m.hasGeo = true
			}
			if step == eqAt {
				m.col.CreateIndex("kind")
				m.hasEq = true
			}
			m.step(rng, step)
			m.checkIndexes()
			for i := 0; i < 3; i++ {
				m.query(m.randomQuery(rng))
			}
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
	}
	// Guard against a history that stopped exercising what it is here for.
	if total.byGeo < 1000 || total.byEq < 200 ||
		total.byEither < 200 || total.fullScans < 200 || total.limited < 200 || total.badGeo < 50 {
		t.Fatalf("history too tame: %d queries answered from the geo index, %d from the equality index, "+
			"%d from the smaller of the two, %d by full scan, %d cut by Limit, %d refused writes",
			total.byGeo, total.byEq, total.byEither, total.fullScans, total.limited, total.badGeo)
	}
}
