package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/citydata"
	"repro/internal/docstore"
	"repro/internal/geo"
)

// The feed and frame codec (feedcodec.go) is held to encoding/json: the
// encoder must write json.Marshal's bytes and fail where it fails, and the
// decoder must return json.Unmarshal's value and error text for any input at
// all.

// codecSeeds is generator output from all three feeds.
func codecSeeds(t testing.TB) ([]citydata.Tweet, []citydata.WazeReport, []citydata.Call911) {
	t.Helper()
	epoch := DefaultConfig().Epoch
	rng := rand.New(rand.NewSource(42))
	cams, err := citydata.CameraNetwork(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(epoch), []string{"m1", "m2", "m3"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := citydata.DefaultTweetConfig(epoch)
	cfg.Count = 40
	tweets, err := citydata.GenerateTweets(cfg, incidents, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	waze, err := citydata.GenerateWaze(40, cams, epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := citydata.Generate911(40, epoch, rng)
	if err != nil {
		t.Fatal(err)
	}
	return tweets, waze, calls
}

// hostileStrings exercise every escape rule of json.Marshal's string
// encoder and every way the decoder's fast path turns an input away.
var hostileStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>alert('&')</script>",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "line\u2028para\u2029", "caf\u00e9 \u65e5\u672c \U0001F600",
	"\xff\xfe invalid", "truncated \xe2\x80", "\ufffd", "/slash/",
}

// hostileFloats sit on json.Marshal's format switches and at the edges of
// float64.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1e20, 123456789e300,
	-5e-324, math.MaxFloat64, 30.4515, -91.1871, math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzTime builds a time from fuzz input: zone 0 is UTC, anything else a
// fixed zone of that many seconds east (past ±24 h, json.Marshal refuses it).
func fuzzTime(sec, nsec int64, zone int32) time.Time {
	t := time.Unix(sec, nsec)
	if zone == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(zone)))
}

func FuzzFeedCodecMatchesJSON(f *testing.F) {
	tweets, waze, calls := codecSeeds(f)
	for i := range tweets {
		tw, r, c := &tweets[i], &waze[i], &calls[i]
		raw, _ := json.Marshal(tw)
		f.Add(tw.ID, tw.Author, tw.Text, tw.Location.Lat, tw.Location.Lon, r.SpeedKmh, r.Severity, r.UserReport,
			tw.Time.Unix(), int64(tw.Time.Nanosecond()), int32(0), raw)
		raw, _ = json.Marshal(r)
		f.Add(r.ID, string(r.Kind), c.Category, r.Location.Lat, r.Location.Lon, r.SpeedKmh, r.Severity, r.UserReport,
			r.Time.Unix(), int64(r.Time.Nanosecond()), int32(0), raw)
		raw, _ = json.Marshal(c)
		f.Add(c.ID, c.Category, tw.Text, c.Location.Lat, c.Location.Lon, r.SpeedKmh, c.Priority, false,
			c.Time.Unix(), int64(c.Time.Nanosecond()), int32(0), raw)
	}
	for i, s := range hostileStrings {
		x := hostileFloats[i%len(hostileFloats)]
		raw, _ := json.Marshal(s)
		f.Add(s, s, s, x, -x, x, -i, i%2 == 0, int64(1519862400+i), int64(i*1e8), int32((i-6)*1800), raw)
	}
	for i, x := range hostileFloats {
		f.Add("id", "a", "t", x, x, x, i, true, int64(1519862400), int64(0), int32(0), []byte(`{"id":"x"}`))
	}
	// Years outside [0, 9999], a zone 25 h east and 30 min west.
	f.Add("y", "a", "t", 1.0, 2.0, 3.0, 1, false, int64(253402300800), int64(0), int32(0), []byte("null"))
	f.Add("y", "a", "t", 1.0, 2.0, 3.0, 1, false, int64(-62167219201), int64(0), int32(0), []byte("{}"))
	f.Add("z", "a", "t", 1.0, 2.0, 3.0, 1, false, int64(1519862400), int64(5), int32(25*3600), []byte(" {} "))
	f.Add("z", "a", "t", 1.0, 2.0, 3.0, 1, false, int64(1519862400), int64(5), int32(-1800), []byte(`{"ID":"upper"}`))
	// Frame records: the benchmark's frame, as encoded and as a producer
	// that is not the encoder might write it, and hostile camera ids with
	// negative sequence numbers and every non-finite confidence.
	frame := FrameEvent{CameraID: "dotd-017", Seq: 4711, Class: "vehicle", Confidence: 0.42131, RawBytes: 64 << 10, FeatureBytes: 8 << 10, Priority: 2}
	canonical, _ := json.Marshal(frame)
	for _, raw := range []string{
		string(canonical),
		`{"seq":4711,"cameraId":"dotd-017","class":"vehicle","confidence":0.42131,"rawBytes":65536,"featureBytes":8192,"priority":2}`,
		"{ \"cameraId\": \"dotd-017\", \"seq\": 4711, \"class\": \"vehicle\", \"confidence\": 0.42131, \"rawBytes\": 65536, \"featureBytes\": 8192, \"priority\": 2 }\n",
		`{"cameraId":"dotd-\u003c17","seq":-1,"class":"vehicle","confidence":4.2e-1,"rawBytes":65536,"featureBytes":8192,"priority":2}`,
		`{"cameraId":"dotd-017","seq":1.5,"class":"vehicle","confidence":0.42131,"rawBytes":65536,"featureBytes":8192,"priority":2}`,
		`{"cameraId":"x"}`,
		"null",
		string(canonical[:len(canonical)-1]),
	} {
		f.Add(frame.CameraID, frame.Class, "t", frame.Confidence, 1.0, 2.0, frame.Seq, false,
			int64(frame.RawBytes), int64(frame.FeatureBytes), int32(frame.Priority), []byte(raw))
	}
	for i, s := range hostileStrings {
		conf := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5}[i%4]
		f.Add(s, "vehicle", "t", conf, 1.0, 2.0, -1-i*7919, false, int64(-i), int64(1<<40), int32(-i), canonical)
	}
	// Random records: generator text, hostile strings and floats, random-bit
	// floats, years −6 700…10 700 and zones up to ±27.8 h.
	rng := rand.New(rand.NewSource(7))
	str := func() string {
		if rng.Intn(2) == 0 {
			return hostileStrings[rng.Intn(len(hostileStrings))]
		}
		return tweets[rng.Intn(len(tweets))].Text
	}
	num := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return hostileFloats[rng.Intn(len(hostileFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return waze[rng.Intn(len(waze))].Location.Lat
	}
	for i := 0; i < 500; i++ {
		sec, nsec, zone := rng.Int63n(1<<39)-1<<38, rng.Int63n(2e9), int32(rng.Intn(3)*(rng.Intn(200_000)-100_000))
		tw := citydata.Tweet{ID: str(), Author: str(), Text: str(), Time: fuzzTime(sec, nsec, zone), Location: geo.Point{Lat: num(), Lon: num()}}
		n := rng.Intn(21) - 10
		if i%2 == 1 {
			n = rng.Int()
		}
		raw, _ := json.Marshal(&tw)
		f.Add(tw.ID, tw.Author, tw.Text, tw.Location.Lat, tw.Location.Lon, num(), n, rng.Intn(2) == 0, sec, nsec, zone, raw)
	}
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, x, y, z float64, n int, flag bool, sec, nsec int64, zone int32, raw []byte) {
		tm := fuzzTime(sec, nsec, zone)
		checkFeedCodec(t, appendTweet, decodeTweet,
			&citydata.Tweet{ID: s1, Author: s2, Text: s3, Time: tm, Location: geo.Point{Lat: x, Lon: y}}, raw)
		checkFeedCodec(t, appendWaze, decodeWaze,
			&citydata.WazeReport{ID: s1, Kind: citydata.WazeKind(s2), Severity: n, Location: geo.Point{Lat: x, Lon: y},
				Time: tm, SpeedKmh: z, UserReport: flag}, raw)
		checkFeedCodec(t, appendCall911, decodeCall911,
			&citydata.Call911{ID: s1, Category: s3, Location: geo.Point{Lat: y, Lon: z}, Time: tm, Priority: n}, raw)
		fr := FrameEvent{CameraID: s1, Seq: n, Class: s2, Confidence: x, RawBytes: int(sec), FeatureBytes: int(nsec), Priority: int(zone)}
		checkFeedCodec(t, appendFrame, decodeFrame, &fr, raw)
		// A frame whose strings need no escape fits the buffer frameSize
		// sized for it.
		if body, err := encodeFrame(&fr); err == nil && unescaped(s1) && unescaped(s2) && len(body) > frameSize(&fr) {
			t.Fatalf("frame encodes to %d bytes, frameSize says at most %d: %q", len(body), frameSize(&fr), body)
		}
	})
}

// unescaped reports whether json.Marshal writes s between its quotes as it
// is.
func unescaped(s string) bool {
	b, _ := json.Marshal(s)
	return len(b) == len(s)+2
}

// checkFeedCodec holds one record's encoding, the decoding of that
// encoding, and the decoding of the arbitrary input raw to encoding/json.
func checkFeedCodec[T any](t *testing.T, enc func([]byte, *T) ([]byte, error), dec func([]byte, *T) error, item *T, raw []byte) {
	t.Helper()
	want, wantErr := json.Marshal(item)
	const prefix = "prefix"
	got, err := enc([]byte(prefix), item)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%T encode error %v, json.Marshal error %v", item, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%T encode error %q, json.Marshal error %q", item, err, wantErr)
		}
	case !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("%T encode\n got %q\nwant %q", item, got, want)
	default:
		checkFeedDecode(t, dec, want)
	}
	checkFeedDecode(t, dec, raw)
}

// checkFeedDecode decodes data over a record that already holds values, as
// the drain's reused record does, and wants json.Unmarshal's result into a
// zero record.
func checkFeedDecode[T any](t *testing.T, dec func([]byte, *T) error, data []byte) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	var got T
	_ = json.Unmarshal([]byte(`{"id":"stale","location":{"lat":1,"lon":2},"time":"2001-02-03T04:05:06Z","severity":9,"priority":9,"speedKmh":3,"userReport":true,`+
		`"cameraId":"stale","seq":9,"class":"stale","confidence":0.5,"rawBytes":9,"featureBytes":9}`), &got)
	err := dec(data, &got)
	if errText(err) != errText(wantErr) {
		t.Fatalf("decode %q: error %q, json.Unmarshal error %q", data, errText(err), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestHandMadeFeedJSONStoredAsEncodingJSONWould produces valid JSON that is
// not the encoder's layout straight onto each feed topic: the drain must
// store the document encoding/json's decoding gives.
func TestHandMadeFeedJSONStoredAsEncodingJSONWould(t *testing.T) {
	cases := []struct {
		name, tweet, waze, call string
	}{
		{"canonical",
			`{"id":"h-1","author":"a","text":"t","time":"2018-03-02T01:02:03.5Z","location":{"lat":30.4,"lon":-91.1}}`,
			`{"id":"h-1","kind":"jam","severity":3,"location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","speedKmh":12.5,"userReport":true}`,
			`{"id":"h-1","category":"medical","location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","priority":2}`},
		{"reordered fields",
			`{"location":{"lon":-91.1,"lat":30.4},"text":"t","time":"2018-03-02T01:02:03Z","author":"a","id":"h-2"}`,
			`{"userReport":false,"speedKmh":40,"time":"2018-03-02T01:02:03Z","location":{"lon":-91.1,"lat":30.4},"severity":1,"kind":"hazard","id":"h-2"}`,
			`{"priority":1,"time":"2018-03-02T01:02:03Z","location":{"lon":-91.1,"lat":30.4},"category":"burglary","id":"h-2"}`},
		{"whitespace",
			"{ \"id\" : \"h-3\",\n\t\"author\":\"a\", \"text\":\"t\", \"time\":\"2018-03-02T01:02:03Z\", \"location\":{ \"lat\":30.4, \"lon\":-91.1 } }\n",
			"{ \"id\":\"h-3\", \"kind\":\"jam\", \"severity\":2, \"location\":{\"lat\":30.4,\"lon\":-91.1}, \"time\":\"2018-03-02T01:02:03Z\", \"speedKmh\":1e1, \"userReport\":true }",
			"{ \"id\":\"h-3\", \"category\":\"medical\", \"location\":{\"lat\":30.4,\"lon\":-91.1}, \"time\":\"2018-03-02T01:02:03Z\", \"priority\":3 }"},
		{"unknown field",
			`{"id":"h-4","author":"a","text":"t","time":"2018-03-02T01:02:03Z","location":{"lat":30.4,"lon":-91.1},"lang":"en"}`,
			`{"id":"h-4","kind":"jam","severity":3,"location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","speedKmh":12.5,"userReport":true,"source":"ccp"}`,
			`{"id":"h-4","category":"medical","location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","priority":2,"unit":"E7"}`},
		{"escaped string",
			`{"id":"h-5","author":"caf\u00e9","text":"caf\u00e9 on Plank Rd","time":"2018-03-02T01:02:03Z","location":{"lat":30.4,"lon":-91.1}}`,
			`{"id":"h-5","kind":"caf\u00e9","severity":3,"location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","speedKmh":12.5,"userReport":false}`,
			`{"id":"h-5","category":"caf\u00e9","location":{"lat":30.4,"lon":-91.1},"time":"2018-03-02T01:02:03Z","priority":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inf := bootSmall(t)
			checkHandMade(t, inf, &tweetFeed, tc.tweet, func() (PipelineStats, error) { return inf.IngestTweets(nil) })
			checkHandMade(t, inf, &wazeFeed, tc.waze, func() (PipelineStats, error) { return inf.IngestWaze(nil) })
			checkHandMade(t, inf, &call911Feed, tc.call, func() (PipelineStats, error) { return inf.Ingest911(nil) })
		})
	}
}

// checkHandMade produces body onto the feed's topic, drains it with ingest,
// and compares the stored document with the one f.doc builds from
// json.Unmarshal's decoding.
func checkHandMade[T any](t *testing.T, inf *Infrastructure, f *feed[T], body string, ingest func() (PipelineStats, error)) {
	t.Helper()
	var item T
	if err := json.Unmarshal([]byte(body), &item); err != nil {
		t.Fatalf("%s: case is not valid JSON: %v", f.topic, err)
	}
	want := docstore.Document{}
	f.doc(&item, want)
	if _, _, err := inf.Broker.Produce(f.topic, "hand-made", []byte(body)); err != nil {
		t.Fatal(err)
	}
	st, err := ingest()
	if err != nil || st.Streamed != 1 || st.Stored != 1 {
		t.Fatalf("%s: stats %+v, err %v", f.topic, st, err)
	}
	docs, err := inf.DocDB.Collection(f.topic).Find(docstore.Query{Conditions: []docstore.Condition{{Field: "id", Eq: f.id(&item)}}})
	if err != nil || len(docs) != 1 {
		t.Fatalf("%s: found %d documents for %q, err %v", f.topic, len(docs), f.id(&item), err)
	}
	got := docs[0]
	delete(got, "_id")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stored %v, encoding/json gives %v", f.topic, got, want)
	}
}
