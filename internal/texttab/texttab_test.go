package texttab

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("name", "value").AlignRight(1)
	tb.Row("alpha", 1.5)
	tb.Row("b", 100)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.5") {
		t.Errorf("row: %q", lines[2])
	}
	// Right-aligned column: "100" ends at same position as "1.5".
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned: %q vs %q", lines[2], lines[3])
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != "#####....." {
		t.Errorf("half bar = %q", got)
	}
	if got := Bar(0, 100, 4); got != "...." {
		t.Errorf("empty bar = %q", got)
	}
	if got := Bar(200, 100, 4); got != "####" {
		t.Errorf("overflow bar = %q", got)
	}
	if got := Bar(1, 0, 4); got != "####" {
		t.Errorf("zero max bar = %q", got)
	}
	if got := Bar(-5, 100, 4); got != "...." {
		t.Errorf("negative bar = %q", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.876); got != "87.6%" {
		t.Errorf("Pct = %q", got)
	}
}
