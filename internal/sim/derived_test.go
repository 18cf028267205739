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

// spellOut rewrites s, a snapshot e took and e's state still, as an engine
// that queues every message as a record would have written it: each derived
// suffix replayed into the records it stands for, listed in the node's queue
// and the message table.
func (e *Engine) spellOut(s *Snapshot) *Snapshot {
	for i := range e.nodes {
		nd := &e.nodes[i]
		sn := &s.Nodes[i]
		if sf := e.suffixOf(nd); sf != nil {
			w := *sf
			for w.n > 0 {
				r := w.head
				sn.Queue = append(sn.Queue, int64(r.id))
				s.Messages = append(s.Messages, SnapMessage{
					ID: int64(r.id), Src: int32(nd.id), Dst: int32(r.dst), Length: int32(e.cfg.MsgLen),
					GenTime: r.gen, InjectTime: -1, DeliverTime: -1,
					State: int8(message.StateQueued), Injector: int32(nd.id),
					Measured: e.col.InWindow(r.gen),
				})
				e.popDerived(nd, &w)
			}
		}
		sn.Derived = SnapSuffix{}
	}
	slices.SortFunc(s.Messages, func(a, b SnapMessage) int { return cmp.Compare(a.ID, b.ID) })
	return s
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
// two, each message a source queue holds — records SnapshotInto lists and
// derived messages replayed from the generator's stream alike — is the one
// the KindGenerated event announced (id, source, destination, cycle, length),
// with Measured what the collector's window says of its cycle. The snapshot
// lists the records alone, and each derived suffix as its head and count.
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
				for n, sn := range snap.Nodes {
					if sf := e.suffixOf(&e.nodes[n]); sf == nil && sn.Derived.N != 0 ||
						sf != nil && (sn.Derived.N != sf.n || sn.Derived.GenTime != sf.head.gen || sn.Derived.Dst != int32(sf.head.dst)) {
						t.Fatalf("%s workers=%d cycle %d: node %d's derived suffix snapshots as %+v", name, workers, at, n, sn.Derived)
					}
				}
				listed := len(snap.Messages)
				e.spellOut(&snap)
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
				if source, _ := e.QueueLengths(); queued != source || queued < derived || listed+derived != len(snap.Messages) {
					t.Fatalf("%s workers=%d cycle %d: %d messages queued, %d waiting, %d derived; the snapshot lists %d messages, %d spelt out",
						name, workers, at, queued, source, derived, listed, len(snap.Messages))
				}
			}
			e.Close()
		}
	}
}

// TestDerivedMatchesExplicit runs a saturated engine beside a twin that
// queues every message as a record, in lockstep, and holds their snapshots
// (raw ids included, each derived suffix spelt out) and event streams equal. Between cycles both get the
// same nudges: Inject at nodes whose queue ends in a derived suffix, which
// spills it into records for the injected record to follow.
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
	sawSpill, sawMixed := false, false
	for derived.Now() < 4000 {
		now := derived.Now()
		for _, e := range engines {
			switch {
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
			e.spellOut(&snaps[k])
		}
		if !reflect.DeepEqual(&snaps[0], &snaps[1]) {
			t.Fatalf("cycle %d: the derived engine snapshots unlike its explicit twin", now)
		}
	}
	if nodes, _, _ := explicit.derivedCounts(); nodes != 0 || len(explicit.suffixes.slots) != 0 {
		t.Fatalf("the explicit twin derived at %d nodes", nodes)
	}
	if !sawSpill || !sawMixed {
		t.Fatalf("spill %v, records ahead of a suffix %v: the run missed a case", sawSpill, sawMixed)
	}
	if !slices.Equal(taps[0].events, taps[1].events) {
		t.Fatal("the derived engine's event stream differs from its explicit twin's")
	}
}

// TestRestoredBacklogThenDerived restores a snapshot whose queues hold a
// backlog of records — what a file of an older layout, or an engine that
// does not derive, wrote — and runs on until the sources' new messages queue
// as derived suffixes behind it. At one shard and at two, the restored engine
// must snapshot to an uninterrupted run's bytes, suffixes spelt out, at every
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
	whole.spellOut(backlog)
	checks := []int64{1700, 2400, 3200}
	wants := make([]*Snapshot, len(checks))
	for i, at := range checks {
		for whole.Now() < at {
			whole.Step()
		}
		if wants[i], err = whole.Snapshot(); err != nil {
			t.Fatal(err)
		}
		whole.spellOut(wants[i])
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
			for _, r := range []*Engine{e, ref} {
				got, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.spellOut(got), wants[i]) {
					t.Fatalf("workers=%d cycle %d: the restored engine snapshots unlike the uninterrupted run", workers, at)
				}
			}
		}
		e.Close()
		ref.Close()
	}
}

// queueBytes returns the bytes e's source queues hold: the record arena's
// slots in use and the suffix slots, per slot the size of a record or a
// suffix.
func (e *Engine) queueBytes() int {
	return (len(e.waiting.recs)-e.waiting.freeSlots())*int(unsafe.Sizeof(queued{})) +
		len(e.suffixes.slots)*int(unsafe.Sizeof(suffix{}))
}

// TestWaitingBytesPerMessage pins what a waiting message costs beyond
// saturation: the records and suffix slots the queues hold, divided by the
// messages waiting. A derived message costs nothing — its node's suffix is
// one slot, however long — so at quick scale, about 270 messages waiting at
// every node, the queues hold one suffix slot a node and no record: 16 slots
// of 88 bytes for 4 365 messages, 0.32 bytes a message, where a record alone
// is 24.
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
	held := e.queueBytes()
	per := float64(held) / float64(waiting)
	t.Logf("%d waiting messages: %d bytes held (%.3f a message), %d suffix slots", waiting, held, per, len(e.suffixes.slots))
	if perNode := int(unsafe.Sizeof(suffix{})); waiting < 100*len(e.nodes) || held > perNode*len(e.nodes) {
		t.Errorf("%d messages wait in %d bytes; want a backlog at every node, held in at most a suffix slot (%d bytes) a node", waiting, held, perNode)
	}
}

// TestSaturatedQueuesFlat holds a saturated engine's source queues to O(1) a
// node: at twice the run length, with twice the backlog, they hold the same
// record slots and suffix slots as before.
func TestSaturatedQueuesFlat(t *testing.T) {
	e, err := New(saturatedConfigs()["uniform"])
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var waiting [2]int
	var held [2]int
	for k, at := range []int64{3000, 6000} {
		for e.Now() < at {
			e.Step()
		}
		waiting[k], _ = e.QueueLengths()
		held[k] = e.queueBytes()
	}
	t.Logf("cycle 3000: %d waiting in %d bytes; cycle 6000: %d in %d", waiting[0], held[0], waiting[1], held[1])
	if waiting[1] < waiting[0]*3/2 || held[1] != held[0] {
		t.Errorf("the backlog grew from %d to %d messages, the queues from %d to %d bytes; want a growing backlog in the same bytes",
			waiting[0], waiting[1], held[0], held[1])
	}
}

// TestSaturatedSnapshotListsNoDerived holds a saturated engine's snapshot to
// what the engine cannot derive: its message table lists the messages the
// network holds and the waiting records, and no derived message — a backlog
// costs a checkpoint its cursor, head and count.
func TestSaturatedSnapshotListsNoDerived(t *testing.T) {
	e, err := New(saturatedConfigs()["uniform"])
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for e.Now() < 4000 {
		e.Step()
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	records, derived := 0, 0
	for i := range e.nodes {
		records += int(e.records(&e.nodes[i]))
		derived += int(s.Nodes[i].Derived.N)
	}
	held := len(e.held())
	if len(s.Messages) > held+records || derived < 100*len(e.nodes) {
		t.Errorf("the snapshot lists %d messages for %d in the network and %d records, and derives %d", len(s.Messages), held, records, derived)
	}
}

// TestInvariantCatchesCorruptSuffix breaks one derived suffix of a saturated
// engine at a time, each way the engine could get it wrong, and holds
// CheckInvariants to catching every one — as an error, before anything walks
// the broken suffix.
func TestInvariantCatchesCorruptSuffix(t *testing.T) {
	corruptions := map[string]func(e *Engine, nd *node, s *suffix){
		"a message lost from the back":  func(e *Engine, nd *node, s *suffix) { s.n--; nd.queue.n-- },
		"a message not drawn yet":       func(e *Engine, nd *node, s *suffix) { s.n++; nd.queue.n++; nd.seq++ },
		"the cursor one message ahead":  func(e *Engine, nd *node, s *suffix) { nd.replayer().Replay(&s.cur, e.now) },
		"the head id off by one":        func(e *Engine, nd *node, s *suffix) { s.head.id++ },
		"an id drawn behind the suffix": func(e *Engine, nd *node, s *suffix) { nd.seq++ },
		"more derived than queued":      func(e *Engine, nd *node, s *suffix) { nd.queue.n = s.n - 1 },
		"a slot leaked":                 func(e *Engine, nd *node, s *suffix) { e.suffixes.newSlot(len(e.nodes)) },
		"a head from the future":        func(e *Engine, nd *node, s *suffix) { s.head.gen = e.now },
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
