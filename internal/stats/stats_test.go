package stats

import (
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %f", g)
	}
	if g := Geomean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("geomean(1,1,1) = %f", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %f", g)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "alpha") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, rule, two rows.
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// Aligned: both data rows have the same prefix width for column 2.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2") {
		t.Errorf("columns misaligned:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Errorf("rows = %d", tb.Rows())
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if !strings.Contains(tb.Render(), "only") {
		t.Error("short row lost")
	}
}

func TestTableLongRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlong row silently truncated")
		}
	}()
	tb := NewTable("overflow", "a", "b")
	tb.AddRow("1", "2", "3")
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("F1", "normalized runtime")
	f.AddGroup("wl1", []string{"ce", "arc"}, []float64{2.0, 1.0})
	f.AddGroup("wl2", []string{"ce", "arc"}, []float64{4.0, 1.5})
	out := f.Render()
	if !strings.Contains(out, "F1") || !strings.Contains(out, "wl1") {
		t.Fatalf("missing parts:\n%s", out)
	}
	// The 4.0 bar must be the longest.
	var maxHashes, hashesFor4 int
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#")
		if n > maxHashes {
			maxHashes = n
		}
		if strings.Contains(line, "4.000") {
			hashesFor4 = n
		}
	}
	if hashesFor4 != maxHashes || maxHashes == 0 {
		t.Errorf("scaling wrong (max=%d for4=%d):\n%s", maxHashes, hashesFor4, out)
	}
}

func TestFigureInfinity(t *testing.T) {
	f := NewFigure("inf", "x")
	f.AddGroup("g", []string{"a"}, []float64{math.Inf(1)})
	if out := f.Render(); !strings.Contains(out, "#") {
		t.Errorf("infinite bar not drawn:\n%s", out)
	}
}

func TestFormatCount(t *testing.T) {
	tests := []struct {
		v    uint64
		want string
	}{
		{5, "5"},
		{9999, "9999"},
		{12345, "12.3K"},
		{3_456_000, "3.46M"},
		{7_890_000_000, "7.89G"},
	}
	for _, tt := range tests {
		if got := FormatCount(tt.v); got != tt.want {
			t.Errorf("FormatCount(%d) = %q, want %q", tt.v, got, tt.want)
		}
	}
}
