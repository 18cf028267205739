package main

import "testing"

// A flag whose help says it needs another is refused without it, not ignored.
func TestUnmetFlagNeeds(t *testing.T) {
	for _, c := range []struct {
		name               string
		flightSatThreshold int
		flightOut          string
		ckptEveryGiven     bool
		ckptPath           string
		wantErr            bool
	}{
		{"defaults", 0, "", false, "", false},
		{"saturation trigger with a flight recorder", 64, "flight.jsonl", false, "", false},
		{"saturation trigger alone", 64, "", false, "", true},
		{"flight recorder alone", 0, "flight.jsonl", false, "", false},
		{"cadence with a checkpoint file", 0, "", true, "run.wncp", false},
		{"cadence alone", 0, "", true, "", true},
		{"checkpoint file at the default cadence", 0, "", false, "run.wncp", false},
	} {
		err := unmetFlagNeeds(c.flightSatThreshold, c.flightOut, c.ckptEveryGiven, c.ckptPath)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error %v", c.name, err, c.wantErr)
		}
	}
}
