package telemetry

import (
	"io"
	"strconv"
	"sync"
)

// expositionBufs holds the buffers WritePrometheus encodes into, so a scrape
// appends into the bytes the last scrape grew instead of growing its own.
// The pool keeps about one exposition's worth of bytes (≈ 62 KB for the full
// stack) per concurrent scrape, and drops a buffer that two GC cycles find
// unused.
var expositionBufs = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE lines once per metric
// family, histograms as cumulative _bucket/_sum/_count series. The
// exposition is encoded from the live instruments on every call and handed
// to w in one Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bp := expositionBufs.Get().(*[]byte)
	b := (*bp)[:0]
	lastFamily := ""
	for _, m := range r.sortedMetrics() {
		family := baseName(m.name)
		if family != lastFamily {
			if m.help != "" {
				b = append(b, "# HELP "...)
				b = append(b, family...)
				b = append(b, ' ')
				b = append(b, m.help...)
				b = append(b, '\n')
			}
			b = append(b, "# TYPE "...)
			b = append(b, family...)
			b = append(b, ' ')
			b = append(b, m.kind.String()...)
			b = append(b, '\n')
			lastFamily = family
		}
		if m.kind == kindHistogram {
			b = appendHistogram(b, family, m.name[len(family):], m.hist)
			continue
		}
		b = append(append(b, m.name...), ' ')
		switch m.kind {
		case kindCounter:
			b = strconv.AppendUint(b, m.counter.Value(), 10)
		case kindGauge:
			b = appendFloat(b, m.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			b = appendFloat(b, m.fn())
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	*bp = b
	expositionBufs.Put(bp)
	return err
}

// appendHistogram emits cumulative buckets plus _sum and _count, reading h in
// place. labels is the series' own label block ("" or `{k="v"}`), which each
// bucket line extends with le. A bucket that retained an exemplar gets an
// OpenMetrics-style trailer (`# {trace_id="..."} value`) linking the tail to
// an inspectable trace; when several share a bucket, the first one stored is
// written.
func appendHistogram(b []byte, family, labels string, h *Histogram) []byte {
	var held [maxExemplars]Exemplar
	h.exMu.Lock()
	exemplars := held[:copy(held[:], h.exemplars)]
	h.exMu.Unlock()
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		b = append(b, family...)
		b = append(b, "_bucket"...)
		if labels == "" {
			b = append(b, '{')
		} else {
			b = append(b, labels[:len(labels)-1]...)
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		if i < len(h.bounds) {
			b = appendFloat(b, h.bounds[i])
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		for _, e := range exemplars {
			if e.Bucket == i {
				b = append(b, " # {trace_id="...)
				b = strconv.AppendQuote(b, e.TraceID)
				b = append(b, "} "...)
				b = appendFloat(b, e.Value)
				break
			}
		}
		b = append(b, '\n')
	}
	b = append(b, family...)
	b = append(b, "_sum"...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = append(appendFloat(b, h.Sum()), '\n')
	b = append(b, family...)
	b = append(b, "_count"...)
	b = append(b, labels...)
	b = append(b, ' ')
	return append(strconv.AppendUint(b, h.Count(), 10), '\n')
}

// appendFloat renders floats the way Prometheus expects: shortest exact
// representation, integers without a trailing ".0".
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
