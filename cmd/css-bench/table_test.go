package main

import (
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	tbl := newTable("name", "value", "ratio")
	tbl.Row("alpha", 42, 1.5)
	tbl.Row("a-much-longer-name", 7, 0.25)
	var b strings.Builder
	tbl.Write(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/separator wrong:\n%s", out)
	}
	if !strings.Contains(out, "1.50") || !strings.Contains(out, "0.25") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	// Alignment: the "value" column must start at the same offset.
	idx0 := strings.Index(lines[2], "42")
	idx1 := strings.Index(lines[3], "7")
	if idx0 != idx1 {
		t.Errorf("columns misaligned:\n%s", out)
	}
}
