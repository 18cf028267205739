package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// quickGolden is what `figures -quick -csv` writes: every figure at Quick
// scale, one CSV table each.
const quickGolden = "../../results/quick.csv"

// TestQuickGolden regenerates every figure at Quick scale and requires the
// committed CSV byte for byte. It pins the experiment layer end to end:
// replication, Fig. 4's replica merge, fairness, the tables and the CSV
// writer. A change that means to move a figure records the file again and
// quotes the rows that moved:
//
//	rm results/quick.csv && go run ./cmd/figures -quick -csv results/quick.csv
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every figure at quick scale, a few seconds")
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, ex := range All() {
		got.WriteString(ex.Run(Quick(), nil).CSV())
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", quickGolden, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(g), quickGolden, len(w))
}
