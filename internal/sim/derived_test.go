package sim

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// generatedTap files every generation event by message id.
type generatedTap map[int64]trace.Event

func (g generatedTap) Emit(ev trace.Event) {
	if ev.Kind == trace.KindGenerated {
		g[ev.Msg] = ev
	}
}

// derivedCounts returns how many nodes have a derived suffix, how many
// messages those hold, and how many nodes queue records ahead of one.
func (e *Engine) derivedCounts() (nodes, msgs, mixed int) {
	for i := range e.nodes {
		if s := e.suffixOf(&e.nodes[i]); s != nil {
			nodes++
			msgs += int(s.n)
			if s.n < e.nodes[i].queue.n {
				mixed++
			}
		}
	}
	return nodes, msgs, mixed
}

// saturatedConfigs are quick-scale runs far beyond saturation under ALO, so
// every source queue backs up: uniform, a permutation with fixed points
// (bit reversal maps 0000, 0110, 1001 and 1111 to themselves), and bursty
// sources, whose phase boundaries the replay has to walk.
func saturatedConfigs() map[string]Config {
	uniform := QuickConfig()
	uniform.Rate = 2.0
	reversal := uniform
	reversal.Pattern = "bit-reversal"
	bursty := uniform
	bursty.Rate = 1.6
	bursty.Burst = traffic.BurstProfile{OnMean: 150, OffMean: 250}
	return map[string]Config{"uniform": uniform, "bit-reversal": reversal, "bursty": bursty}
}

// TestDerivedQueueMatchesGenerated holds every waiting message to its
// generation event: at several cycles of saturated runs, on one shard and on
// two, each message SnapshotInto lists in a source queue — records and
// derived messages replayed from the generator's stream alike — is the one
// the KindGenerated event announced (id, source, destination, cycle, length),
// with Measured what the collector's window says of its cycle.
func TestDerivedQueueMatchesGenerated(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2) // a single P builds one shard whatever Workers says
	for name, cfg := range saturatedConfigs() {
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.par.shards) != workers {
				t.Fatalf("%s: %d shards, want %d", name, len(e.par.shards), workers)
			}
			gen := generatedTap{}
			e.SetListener(gen)
			var snap Snapshot
			for _, at := range []int64{600, 1900, 3500} {
				for e.Now() < at {
					e.Step()
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s workers=%d cycle %d: %v", name, workers, at, err)
				}
				if err := e.SnapshotInto(&snap); err != nil {
					t.Fatal(err)
				}
				nodes, derived, _ := e.derivedCounts()
				if nodes < len(e.nodes)/2 || derived < 4*nodes {
					t.Fatalf("%s workers=%d cycle %d: %d nodes derive %d messages; the run does not back up", name, workers, at, nodes, derived)
				}
				queued := 0
				for n, sn := range snap.Nodes {
					for _, id := range sn.Queue {
						i, ok := slices.BinarySearchFunc(snap.Messages, id, func(m SnapMessage, id int64) int { return cmp.Compare(m.ID, id) })
						ev, generated := gen[id]
						if !ok || !generated {
							t.Fatalf("%s workers=%d cycle %d: node %d queues message %d (listed %v, generated %v)", name, workers, at, n, id, ok, generated)
						}
						sm := &snap.Messages[i]
						if sm.Src != int32(n) || sm.Injector != int32(n) || sm.Dst != int32(ev.Dst) || sm.GenTime != ev.Cycle ||
							sm.Length != ev.Len || ev.Src != topology.NodeID(n) || sm.State != int8(message.StateQueued) ||
							sm.Measured != e.col.InWindow(sm.GenTime) {
							t.Fatalf("%s workers=%d cycle %d: node %d queues %+v, generated as %+v", name, workers, at, n, *sm, ev)
						}
						queued++
					}
				}
				if source, _ := e.QueueLengths(); queued != source || queued < derived {
					t.Fatalf("%s workers=%d cycle %d: %d messages listed, %d queued, %d derived", name, workers, at, queued, source, derived)
				}
			}
			e.Close()
		}
	}
}

// escapes counts the deltas of e's suffixes that are escapes to a whole id.
func (e *Engine) escapes() (n int) {
	a := &e.suffixes
	for i := range e.nodes {
		s := e.suffixOf(&e.nodes[i])
		if s == nil {
			continue
		}
		for p := s.rd; p != s.wr; {
			if a.get(&p) == escape {
				n++
				for range 4 {
					a.get(&p)
				}
			}
		}
	}
	return n
}

// TestDerivedMatchesExplicit runs a saturated engine beside a twin that
// queues every message as a record, in lockstep, and holds their snapshots
// (raw ids included) and event streams equal. Between cycles both get the
// same nudges: ids that jump by more than a delta word holds — past 2^32 once
// — so the deltas escape to whole ids, and Inject at nodes whose queue ends in
// a derived suffix, which spills it into records for the injected record to
// follow.
func TestDerivedMatchesExplicit(t *testing.T) {
	cfg := saturatedConfigs()["uniform"]
	engines := [2]*Engine{}
	taps := [2]*eventTap{{}, {}}
	for k := range engines {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.SetListener(taps[k])
		engines[k] = e
	}
	derived, explicit := engines[0], engines[1]
	explicit.replay = false
	var snaps [2]Snapshot
	sawEscape, sawSpill, sawMixed := false, false, false
	for derived.Now() < 4000 {
		now := derived.Now()
		for _, e := range engines {
			switch {
			case now%500 == 300:
				e.nextID += 1 << 16
			case now == 1700:
				e.nextID += 1 << 33
			case now%250 == 120:
				src := topology.NodeID(now / 250 % int64(len(e.nodes)))
				if e == derived && e.nodes[src].sfx != 0 {
					sawSpill = true
				}
				e.Inject(src, (src+5)%topology.NodeID(len(e.nodes)), 3+int(now%7))
				if e.nodes[src].sfx != 0 {
					t.Fatalf("cycle %d: node %d still derives behind an injected record", now, src)
				}
			}
			e.Step()
		}
		if derived.escapes() > 0 {
			sawEscape = true
		}
		if _, _, mixed := derived.derivedCounts(); mixed > 0 {
			sawMixed = true
		}
		if now%100 != 0 {
			continue
		}
		for k, e := range engines {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d engine %d: %v", now, k, err)
			}
			if err := e.SnapshotInto(&snaps[k]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(&snaps[0], &snaps[1]) {
			t.Fatalf("cycle %d: the derived engine snapshots unlike its explicit twin", now)
		}
	}
	if nodes, _, _ := explicit.derivedCounts(); nodes != 0 || len(explicit.suffixes.slots) != 0 {
		t.Fatalf("the explicit twin derived at %d nodes", nodes)
	}
	if !sawEscape || !sawSpill || !sawMixed {
		t.Fatalf("escape %v, spill %v, records ahead of a suffix %v: the run missed a case", sawEscape, sawSpill, sawMixed)
	}
	if !slices.Equal(taps[0].events, taps[1].events) {
		t.Fatal("the derived engine's event stream differs from its explicit twin's")
	}
}

// TestRestoredBacklogThenDerived restores a snapshot whose queues hold a
// backlog — loaded as records — and runs on until the sources' new messages
// queue as derived suffixes behind it. At one shard and at two, the restored
// engine must snapshot to an uninterrupted run's canonical bytes at every
// check, with records still ahead of derived messages at the first.
func TestRestoredBacklogThenDerived(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)
	cfg := saturatedConfigs()["uniform"]
	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	for whole.Now() < 1500 {
		whole.Step()
	}
	backlog, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checks := []int64{1700, 2400, 3200}
	wants := make([]*Snapshot, len(checks))
	for i, at := range checks {
		for whole.Now() < at {
			whole.Step()
		}
		if wants[i], err = whole.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		c := cfg
		c.Workers = workers
		e, err := RestoreEngine(c, gobRoundTrip(t, backlog))
		if err != nil {
			t.Fatal(err)
		}
		if nodes, _, _ := e.derivedCounts(); nodes != 0 {
			t.Fatalf("a restored backlog derives at %d nodes", nodes)
		}
		ref, err := RestoreEngine(cfg, backlog)
		if err != nil {
			t.Fatal(err)
		}
		for i, at := range checks {
			for e.Now() < at {
				e.Step()
				ref.Step()
			}
			if _, _, mixed := e.derivedCounts(); i == 0 && mixed < len(e.nodes)/2 {
				t.Fatalf("workers=%d cycle %d: records ahead of a suffix at %d nodes only", workers, at, mixed)
			}
			assertSnapshotsTo(t, e, wants[i])
			assertSnapshotsTo(t, ref, wants[i])
		}
		e.Close()
		ref.Close()
	}
}

// TestWaitingBytesPerMessage pins what a waiting message costs beyond
// saturation: the records, suffix slots and delta chunks the queues hold,
// divided by the messages waiting, at most 3 bytes at quick scale — a 16-bit
// delta, the chunks' links and the per-node slots spread over a backlog —
// where a record alone is 24. The chunk pages grow fourfold up to maxPage
// chunks and then stay there, so they hold at most four times the chunks cut
// and one page more.
func TestWaitingBytesPerMessage(t *testing.T) {
	cfg := saturatedConfigs()["uniform"]
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for e.Now() < 6000 {
		e.Step()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	waiting, _ := e.QueueLengths()
	a := &e.suffixes
	held := len(e.waiting.recs)*int(unsafe.Sizeof(queued{})) + len(a.slots)*int(unsafe.Sizeof(suffix{})) + int(a.chunks)*chunkWords*2
	pages := 0
	for _, p := range a.pages {
		pages += 2 * len(p)
	}
	per := float64(held) / float64(waiting)
	t.Logf("%d waiting messages: %d bytes held (%.2f a message), %d in pages", waiting, held, per, pages)
	if waiting < 100*len(e.nodes) || per > 3 {
		t.Errorf("%d messages wait in %d bytes, %.2f a message; want a backlog at every node, at most 3 bytes each", waiting, held, per)
	}
	if cut := int(a.chunks) * chunkWords * 2; pages > 4*cut+maxPage*chunkWords*2 {
		t.Errorf("chunk pages hold %d bytes for %d bytes of chunks", pages, cut)
	}
}

// TestDeltaEscapes files ids whose deltas sit on either side of every
// boundary of the encoding — 1, escape-1, escape itself, escape+1, a jump
// past 2^32, and a delta that is not positive — across several chunks, and
// reads them back. Each delta a word cannot hold below escape takes five
// words; the rest one.
func TestDeltaEscapes(t *testing.T) {
	var a suffixArena
	s := &suffix{last: 7, rd: -1, wr: -1, hold: -1}
	ids := []message.ID{7}
	words := 0
	for round := 0; round < 40; round++ {
		for _, d := range []message.ID{1, escape - 1, escape, escape + 1, 1 << 33, 3, -2, 1} {
			id := ids[len(ids)-1] + d
			a.putID(s, id)
			ids = append(ids, id)
			if words++; d <= 0 || d >= escape {
				words += 4
			}
		}
	}
	if s.n != int32(len(ids)-1) || s.last != ids[len(ids)-1] {
		t.Fatalf("%d ids filed, last %d; want %d, %d", s.n, s.last, len(ids)-1, ids[len(ids)-1])
	}
	if want := int32((words + deltaWords - 1) / deltaWords); a.chunks != want {
		t.Fatalf("%d words in %d chunks, want %d", words, a.chunks, want)
	}
	for p, i := s.rd, 1; i < len(ids); i++ {
		if got := a.getID(&p, ids[i-1]); got != ids[i] {
			t.Fatalf("id %d reads %d, want %d", i, got, ids[i])
		}
		if i == len(ids)-1 && p != s.wr {
			t.Fatalf("read to %d, written to %d", p, s.wr)
		}
	}
	s.n = 0
	a.trim(s)
	if s.hold != -1 || a.freeCh == 0 {
		t.Fatal("an emptied suffix kept its chunks")
	}
	free := int32(0)
	for c := a.freeCh; c != 0 && free <= a.chunks; c = a.link(c-1) + 1 {
		free++
	}
	if free != a.chunks {
		t.Fatalf("%d chunks on the free list of %d", free, a.chunks)
	}
}

// TestInvariantCatchesCorruptSuffix breaks one derived suffix of a saturated
// engine at a time, each way the engine could get it wrong, and holds
// CheckInvariants to catching every one — as an error, before anything walks
// the broken suffix.
func TestInvariantCatchesCorruptSuffix(t *testing.T) {
	corruptions := map[string]func(e *Engine, nd *node, s *suffix){
		"a message lost from the back": func(e *Engine, nd *node, s *suffix) { s.n--; nd.queue.n-- },
		"a message past the deltas":    func(e *Engine, nd *node, s *suffix) { s.n++; nd.queue.n++ },
		"the cursor one message ahead": func(e *Engine, nd *node, s *suffix) { nd.replayer().Replay(&s.cur, e.now) },
		"the last id off by one":       func(e *Engine, nd *node, s *suffix) { s.last++ },
		"more derived than queued":     func(e *Engine, nd *node, s *suffix) { nd.queue.n = s.n - 1 },
		"a chunk leaked":               func(e *Engine, nd *node, s *suffix) { e.suffixes.newChunk() },
		"a slot leaked":                func(e *Engine, nd *node, s *suffix) { e.suffixes.newSlot(len(e.nodes)) },
		"a head from the future":       func(e *Engine, nd *node, s *suffix) { s.head.gen = e.now },
	}
	for name, corrupt := range corruptions {
		e, err := New(saturatedConfigs()["uniform"])
		if err != nil {
			t.Fatal(err)
		}
		for e.Now() < 1000 {
			e.Step()
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var nd *node
		for i := range e.nodes {
			if s := e.suffixOf(&e.nodes[i]); s != nil && s.n > 3 {
				nd = &e.nodes[i]
				break
			}
		}
		if nd == nil {
			t.Fatal("no suffix of more than three messages")
		}
		corrupt(e, nd, e.suffixOf(nd))
		if err := e.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
		e.Close()
	}
}
