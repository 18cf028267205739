package main

import (
	"testing"

	"wormnet/internal/campaign"
)

// A sweep that was not told a cadence checkpoints periodically exactly where
// the checkpoint can be resumed from.
func TestDefaultCheckpointEvery(t *testing.T) {
	def := campaign.DefaultSpec().CheckpointEvery
	if def <= 0 {
		t.Fatalf("the spec's default cadence is %d: nothing to resolve", def)
	}
	for _, c := range []struct {
		name         string
		out, connect string
		want         int64
	}{
		{"local, no journal", "", "", 0},
		{"local, journalled", "runs/", "", def},
		{"worker half", "", "http://127.0.0.1:1", def},
	} {
		if got := defaultCheckpointEvery(def, c.out, c.connect); got != c.want {
			t.Errorf("%s: checkpoint every %d cycles, want %d", c.name, got, c.want)
		}
	}
}
