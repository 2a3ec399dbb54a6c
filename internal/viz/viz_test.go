package viz

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "city", "cameras")
	tb.AddRow("Baton Rouge", 42)
	tb.AddRow("New Orleans", 57.5)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "Baton Rouge") || !strings.Contains(out, "57.5") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, sep, 2 rows → 5? title+header+sep+2 = 5
		// title + header + separator + 2 data rows
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %q", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

func TestStats(t *testing.T) {
	mean, lo, hi := Stats([]float64{1, 2, 3})
	if mean != 2 || lo != 1 || hi != 3 {
		t.Fatalf("Stats = %g %g %g", mean, lo, hi)
	}
	if m, l, h := Stats(nil); m != 0 || l != 0 || h != 0 {
		t.Fatal("empty stats should be zeros")
	}
}

func TestScatterMap(t *testing.T) {
	out := ScatterMap("Map", []float64{0, 1, 0.5}, []float64{0, 1, 0.5}, 11, 5, '#')
	if !strings.Contains(out, "== Map ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Corners and center carry markers.
	if []rune(lines[1])[0] != '#' {
		t.Fatalf("top-left missing marker:\n%s", out)
	}
	if []rune(lines[5])[10] != '#' {
		t.Fatalf("bottom-right missing marker:\n%s", out)
	}
	if []rune(lines[3])[5] != '#' {
		t.Fatalf("center missing marker:\n%s", out)
	}
	// Out-of-range points are ignored without panic.
	_ = ScatterMap("", []float64{-1, 2}, []float64{0.5, 0.5}, 5, 3, 'x')
}

func TestConfusionMatrix(t *testing.T) {
	tb := ConfusionMatrix("CM", []int{0, 0, 1, 1}, []int{0, 1, 1, 1}, []string{"a", "b"})
	out := tb.String()
	if !strings.Contains(out, "truth\\pred") {
		t.Fatalf("headers:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Row a: [1 1]; row b: [0 2].
	if !strings.Contains(out, "a") || !strings.Contains(out, "2") {
		t.Fatalf("content:\n%s", out)
	}
}

func TestSparklineSpansLowestToHighestRune(t *testing.T) {
	s := []rune(Sparkline([]float64{-3, 0, 4, 11}))
	if s[0] != '▁' || s[len(s)-1] != '█' {
		t.Fatalf("sparkline %q must run from the lowest to the highest rune", string(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("rising series rendered non-monotone: %q", string(s))
		}
	}
}
