package traffic

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"wormnet/internal/topology"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestUniformNeverSelf(t *testing.T) {
	tp := topology.New(4, 2)
	u := NewUniform(tp)
	r := rng()
	for src := 0; src < tp.Nodes(); src++ {
		for i := 0; i < 200; i++ {
			d := u.Destination(topology.NodeID(src), r)
			if d == topology.NodeID(src) {
				t.Fatalf("uniform returned self for %d", src)
			}
			if !tp.Valid(d) {
				t.Fatalf("uniform returned invalid node %d", d)
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	tp := topology.New(4, 2)
	u := NewUniform(tp)
	r := rng()
	seen := make(map[topology.NodeID]int)
	const draws = 16000
	for i := 0; i < draws; i++ {
		seen[u.Destination(0, r)]++
	}
	if len(seen) != tp.Nodes()-1 {
		t.Fatalf("uniform covered %d destinations, want %d", len(seen), tp.Nodes()-1)
	}
	// Chi-square-ish sanity: each of the 15 destinations expects ~1066 hits.
	for d, c := range seen {
		if c < 800 || c > 1350 {
			t.Errorf("destination %d drawn %d times, expected ~%d", d, c, draws/(tp.Nodes()-1))
		}
	}
}

func TestButterflyExamples(t *testing.T) {
	tp := topology.New(8, 3) // 512 nodes, 9 bits
	b := NewButterfly(tp)
	cases := []struct{ src, dst int }{
		{0, 0},                // 000000000 fixed
		{1, 256},              // swap LSB into MSB
		{256, 1},              // and back
		{0x1FF, 0x1FF},        // all ones fixed
		{0x101, 0x101},        // msb==lsb fixed
		{0x100 | 0x02, 0x102}, // lsb=0,msb=1? 0x102: lsb=0 msb=1 -> swap -> 0x003? compute below
	}
	// Recompute last case properly: addr=0x102 = 1_0000_0010, msb=1,lsb=0 -> swapped: 0_0000_0011 = 0x003.
	cases[5].dst = 0x003
	for _, c := range cases {
		if got := b.Destination(topology.NodeID(c.src), nil); got != topology.NodeID(c.dst) {
			t.Errorf("butterfly(%#x)=%#x want %#x", c.src, got, c.dst)
		}
	}
}

func TestComplementExamples(t *testing.T) {
	tp := topology.New(8, 3)
	c := NewComplement(tp)
	if got := c.Destination(0, nil); got != 511 {
		t.Errorf("complement(0)=%d want 511", got)
	}
	if got := c.Destination(0x155, nil); got != 0x0AA {
		t.Errorf("complement(0x155)=%#x want 0xAA", got)
	}
}

func TestBitReversalExamples(t *testing.T) {
	tp := topology.New(8, 3)
	p := NewBitReversal(tp)
	cases := []struct{ src, dst int }{
		{0, 0},
		{1, 256}, // 000000001 -> 100000000
		{0b110000000, 0b000000011},
		{0b101010101, 0b101010101}, // palindrome
	}
	for _, c := range cases {
		if got := p.Destination(topology.NodeID(c.src), nil); got != topology.NodeID(c.dst) {
			t.Errorf("reversal(%#b)=%#b want %#b", c.src, got, c.dst)
		}
	}
}

func TestPerfectShuffleExamples(t *testing.T) {
	tp := topology.New(8, 3)
	p := NewPerfectShuffle(tp)
	cases := []struct{ src, dst int }{
		{0, 0},
		{1, 2},
		{256, 1}, // msb rotates to lsb
		{0b100000001, 0b000000011},
	}
	for _, c := range cases {
		if got := p.Destination(topology.NodeID(c.src), nil); got != topology.NodeID(c.dst) {
			t.Errorf("shuffle(%#b)=%#b want %#b", c.src, got, c.dst)
		}
	}
}

func TestTransposeExamples(t *testing.T) {
	tp := topology.New(4, 2) // 16 nodes, 4 bits
	p := NewTranspose(tp)
	cases := []struct{ src, dst int }{
		{0b0000, 0b0000},
		{0b0011, 0b1100},
		{0b1100, 0b0011},
		{0b0110, 0b1001},
	}
	for _, c := range cases {
		if got := p.Destination(topology.NodeID(c.src), nil); got != topology.NodeID(c.dst) {
			t.Errorf("transpose(%#b)=%#b want %#b", c.src, got, c.dst)
		}
	}
	// Odd bit count: middle bit fixed.
	tp9 := topology.New(8, 3)
	p9 := NewTranspose(tp9)
	if got := p9.Destination(0b000010000, nil); got != 0b000010000 {
		t.Errorf("transpose middle bit moved: %#b", got)
	}
}

// Property: all bit patterns are permutations (bijective on the node set).
func TestBitPatternsAreBijections(t *testing.T) {
	tp := topology.New(8, 3)
	pats := []Pattern{
		NewButterfly(tp), NewComplement(tp), NewBitReversal(tp),
		NewPerfectShuffle(tp), NewTranspose(tp),
	}
	for _, p := range pats {
		seen := make(map[topology.NodeID]bool, tp.Nodes())
		for s := 0; s < tp.Nodes(); s++ {
			d := p.Destination(topology.NodeID(s), nil)
			if !tp.Valid(d) {
				t.Fatalf("%s: invalid destination %d", p.Name(), d)
			}
			if seen[d] {
				t.Fatalf("%s: destination %d repeated — not a bijection", p.Name(), d)
			}
			seen[d] = true
		}
	}
}

// Property: butterfly, complement and bit-reversal are involutions.
func TestInvolutions(t *testing.T) {
	tp := topology.New(4, 4) // 256 nodes, 8 bits (even, exercises transpose too)
	for _, p := range []Pattern{NewButterfly(tp), NewComplement(tp), NewBitReversal(tp), NewTranspose(tp)} {
		f := func(x uint16) bool {
			s := topology.NodeID(int(x) % tp.Nodes())
			return p.Destination(p.Destination(s, nil), nil) == s
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not an involution: %v", p.Name(), err)
		}
	}
}

// Perfect shuffle applied bits times is the identity.
func TestShuffleOrder(t *testing.T) {
	tp := topology.New(8, 3)
	p := NewPerfectShuffle(tp)
	for s := 0; s < tp.Nodes(); s++ {
		d := topology.NodeID(s)
		for i := 0; i < 9; i++ {
			d = p.Destination(d, nil)
		}
		if d != topology.NodeID(s) {
			t.Fatalf("shuffle^9(%d)=%d", s, d)
		}
	}
}

func TestTornado(t *testing.T) {
	tp := topology.New(8, 2)
	p := NewTornado(tp)
	// offset = ceil(8/2)-1 = 3 in each dimension.
	src := tp.FromCoords([]int{1, 2})
	want := tp.FromCoords([]int{4, 5})
	if got := p.Destination(src, nil); got != want {
		t.Errorf("tornado dest = %d want %d", got, want)
	}
	// Odd radix: offset = ceil(5/2)-1 = 2.
	tp5 := topology.New(5, 1)
	if got := NewTornado(tp5).Destination(0, nil); got != 2 {
		t.Errorf("tornado k=5 dest = %d want 2", got)
	}
}

func TestByName(t *testing.T) {
	tp := topology.New(8, 3)
	for _, name := range PaperPatterns() {
		p, err := ByName(name, tp)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	for _, alias := range []string{"shuffle", "bitreversal", "reversal", "transpose", "tornado"} {
		if _, err := ByName(alias, tp); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
	if _, err := ByName("nope", tp); err == nil {
		t.Error("unknown pattern must error")
	}
	// Bit patterns on non-power-of-two networks must error, not panic.
	tp3 := topology.New(3, 3)
	if _, err := ByName("butterfly", tp3); err == nil {
		t.Error("butterfly on 27 nodes must error")
	}
	if _, err := ByName("uniform", tp3); err != nil {
		t.Errorf("uniform on 27 nodes should work: %v", err)
	}
}

func TestPatternNames(t *testing.T) {
	tp := topology.New(8, 3)
	want := map[Pattern]string{
		NewUniform(tp):        "uniform",
		NewButterfly(tp):      "butterfly",
		NewComplement(tp):     "complement",
		NewBitReversal(tp):    "bit-reversal",
		NewPerfectShuffle(tp): "perfect-shuffle",
		NewTranspose(tp):      "transpose",
		NewTornado(tp):        "tornado",
	}
	for p, n := range want {
		if p.Name() != n {
			t.Errorf("Name()=%q want %q", p.Name(), n)
		}
	}
}
