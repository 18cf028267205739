package campaign

import (
	"errors"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"
)

// TestClientStatus pins the status view over HTTP — what `sweep -connect`
// prints its rows from — to the coordinator's own, and the unknown-campaign
// error to the in-process one.
func TestClientStatus(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	id, _, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	got, err := cl.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := marshal(got), marshal(want); string(g) != string(w) {
		t.Errorf("status over HTTP:\n got  %s\n want %s", g, w)
	}
	if _, err := cl.Status("nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("unknown campaign over HTTP: %v", err)
	}
}

// TestLeaseTTL pins the lease time-to-live a coordinator reports (campaignd
// logs it at start): the one its options give, else DefaultLeaseTTL.
func TestLeaseTTL(t *testing.T) {
	if c, _ := newTestCoordinator(t, ""); c.LeaseTTL() != time.Second {
		t.Errorf("lease TTL %v, options give 1s", c.LeaseTTL())
	}
	c, err := NewCoordinator(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if c.LeaseTTL() != DefaultLeaseTTL {
		t.Errorf("lease TTL %v without one in the options, want %v", c.LeaseTTL(), DefaultLeaseTTL)
	}
}

// TestShortHash pins the digest fingerprint of the digest-mismatch error: 12
// hex digits, the same for the same digest, others for another.
func TestShortHash(t *testing.T) {
	a, b := shortHash("k=4 n=2 rate=0.5"), shortHash("k=4 n=2 rate=0.6")
	if !regexp.MustCompile(`^[0-9a-f]{12}$`).MatchString(a) || a != shortHash("k=4 n=2 rate=0.5") || a == b {
		t.Errorf("fingerprints %q and %q", a, b)
	}
}
