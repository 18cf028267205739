// Package traffic provides synthetic workload generation for the wormhole
// simulator: message-destination patterns and per-node Poisson (exponential
// inter-arrival) injection processes.
//
// The five patterns evaluated in the paper are implemented — uniform,
// butterfly, complement, bit-reversal and perfect-shuffle — plus transpose,
// tornado and hotspot as commonly used extensions. The bit-permutation
// patterns interpret node IDs as log2(N)-bit binary addresses and therefore
// require a power-of-two network size (the paper's 8-ary 3-cube has
// 512 = 2^9 nodes).
package traffic

import (
	"fmt"
	"math/rand/v2"

	"wormnet/internal/topology"
)

// Pattern produces a destination for each newly generated message.
//
// Implementations must be deterministic given the source node and the
// provided random stream, and safe for concurrent use as long as each
// goroutine uses its own *rand.Rand.
type Pattern interface {
	// Destination returns the destination node for a message generated at
	// src. The returned node may equal src only if the pattern maps a node
	// to itself (permutation fixed points are delivered locally and skipped
	// by the engine).
	Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID
	// Name returns the pattern's short name (e.g. "uniform").
	Name() string
}

// Uniform sends each message to a destination chosen uniformly at random
// among all nodes other than the source.
type Uniform struct {
	nodes int
}

// NewUniform returns the uniform pattern for a network of t.Nodes() nodes.
func NewUniform(t *topology.Torus) *Uniform { return &Uniform{nodes: t.Nodes()} }

// Destination implements Pattern.
func (u *Uniform) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	d := topology.NodeID(rng.IntN(u.nodes - 1))
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// bitPattern is a deterministic permutation of the binary node address.
type bitPattern struct {
	name string
	bits int
	perm func(addr, bits int) int
}

// Destination implements Pattern.
func (p *bitPattern) Destination(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	return topology.NodeID(p.perm(int(src), p.bits))
}

// Name implements Pattern.
func (p *bitPattern) Name() string { return p.name }

func addressBits(t *topology.Torus, name string) int {
	b, ok := t.AddressBits()
	if !ok {
		panic(fmt.Sprintf("traffic: %s pattern requires a power-of-two node count, have %d", name, t.Nodes()))
	}
	return b
}

// butterflyPerm swaps the most and least significant address bits.
func butterflyPerm(addr, bits int) int {
	if bits < 2 {
		return addr
	}
	lo := addr & 1
	hi := (addr >> (bits - 1)) & 1
	if lo == hi {
		return addr
	}
	return addr ^ 1 ^ (1 << (bits - 1))
}

// NewButterfly returns the butterfly pattern: destination is the source with
// its most and least significant address bits swapped.
func NewButterfly(t *topology.Torus) Pattern {
	return &bitPattern{name: "butterfly", bits: addressBits(t, "butterfly"), perm: butterflyPerm}
}

// complementPerm inverts every address bit.
func complementPerm(addr, bits int) int {
	return ^addr & (1<<bits - 1)
}

// NewComplement returns the complement pattern: destination is the bitwise
// complement of the source address.
func NewComplement(t *topology.Torus) Pattern {
	return &bitPattern{name: "complement", bits: addressBits(t, "complement"), perm: complementPerm}
}

// reversalPerm mirrors the address bit string.
func reversalPerm(addr, bits int) int {
	out := 0
	for i := 0; i < bits; i++ {
		out = out<<1 | (addr>>i)&1
	}
	return out
}

// NewBitReversal returns the bit-reversal pattern: destination address is
// the source address with its bit string reversed.
func NewBitReversal(t *topology.Torus) Pattern {
	return &bitPattern{name: "bit-reversal", bits: addressBits(t, "bit-reversal"), perm: reversalPerm}
}

// shufflePerm rotates the address left by one bit.
func shufflePerm(addr, bits int) int {
	msb := (addr >> (bits - 1)) & 1
	return (addr<<1 | msb) & (1<<bits - 1)
}

// NewPerfectShuffle returns the perfect-shuffle pattern: destination address
// is the source address rotated left by one bit.
func NewPerfectShuffle(t *topology.Torus) Pattern {
	return &bitPattern{name: "perfect-shuffle", bits: addressBits(t, "perfect-shuffle"), perm: shufflePerm}
}

// transposePerm swaps the high and low halves of the address bit string
// (for odd bit counts the middle bit stays in place).
func transposePerm(addr, bits int) int {
	h := bits / 2
	low := addr & (1<<h - 1)
	high := (addr >> (bits - h)) & (1<<h - 1)
	mid := addr & ^((1<<h - 1) | ((1<<h - 1) << (bits - h)))
	return mid | low<<(bits-h) | high
}

// NewTranspose returns the matrix-transpose pattern: the high and low halves
// of the address bit string are exchanged.
func NewTranspose(t *topology.Torus) Pattern {
	return &bitPattern{name: "transpose", bits: addressBits(t, "transpose"), perm: transposePerm}
}

// Tornado sends each message ceil(k/2)-1 hops in the Plus direction of every
// dimension — the classic adversarial torus pattern. Unlike the bit
// permutations it works for any radix.
type Tornado struct {
	t *topology.Torus
}

// NewTornado returns the tornado pattern for the given torus.
func NewTornado(t *topology.Torus) *Tornado { return &Tornado{t: t} }

// Destination implements Pattern.
func (p *Tornado) Destination(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	n := p.t.N()
	offset := (p.t.K()+1)/2 - 1
	coords := make([]int, n)
	p.t.Coords(src, coords)
	for i := range coords {
		coords[i] += offset
	}
	return p.t.FromCoords(coords)
}

// Name implements Pattern.
func (p *Tornado) Name() string { return "tornado" }

// ByName constructs one of the named patterns for torus t. Recognised names:
// uniform, butterfly, complement, bit-reversal, perfect-shuffle, transpose,
// tornado. It returns an error for unknown names or when a bit-permutation
// pattern is requested on a non-power-of-two network.
func ByName(name string, t *topology.Torus) (p Pattern, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("traffic: %v", r)
		}
	}()
	switch name {
	case "uniform":
		return NewUniform(t), nil
	case "butterfly":
		return NewButterfly(t), nil
	case "complement":
		return NewComplement(t), nil
	case "bit-reversal", "bitreversal", "reversal":
		return NewBitReversal(t), nil
	case "perfect-shuffle", "shuffle":
		return NewPerfectShuffle(t), nil
	case "transpose":
		return NewTranspose(t), nil
	case "tornado":
		return NewTornado(t), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// PaperPatterns lists the five pattern names evaluated in the paper, in the
// order of its figures.
func PaperPatterns() []string {
	return []string{"uniform", "butterfly", "complement", "bit-reversal", "perfect-shuffle"}
}
