package mpirt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// mailboxOps is a random mailbox workload for the differential test:
// each word decodes to one enqueue, take or match query (see step).
type mailboxOps []uint32

// Generate makes workloads long enough to drain and refill lists and to
// push tag indexes through several compactions.
func (mailboxOps) Generate(r *rand.Rand, size int) reflect.Value {
	ops := make(mailboxOps, r.Intn(40*size+1))
	for i := range ops {
		ops[i] = r.Uint32()
	}
	return reflect.ValueOf(ops)
}

// refMailbox is the specification: one queue in enqueue order, where a
// receive takes the first (earliest-stamped) matching message.
type refMailbox []*Msg

func refMatches(m *Msg, src, tag int) bool {
	return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
}

func (r refMailbox) find(src, tag int) int {
	for i, m := range r {
		if refMatches(m, src, tag) {
			return i
		}
	}
	return -1
}

// decodeMatch picks a (src, tag) pattern from w: 4 sources and 5 tags,
// each a wildcard one time in four.
func decodeMatch(w uint32) (src, tag int) {
	src, tag = int(w%4), int((w>>2)%5)
	if (w>>5)%4 == 0 {
		src = AnySource
	}
	if (w>>7)%4 == 0 {
		tag = AnyTag
	}
	return src, tag
}

// TestMailboxMatchesLinearScan drives random enqueue / take / match
// sequences through the mailbox and through refMailbox, and requires
// the same message (by identity) at every take and the same answer at
// every match query, across exact, AnySource, AnyTag and full-wildcard
// patterns.
func TestMailboxMatchesLinearScan(t *testing.T) {
	check := func(ops mailboxOps) bool {
		var b mailbox
		var ref refMailbox
		for i, w := range ops {
			src, tag := decodeMatch(w >> 4)
			switch w % 16 {
			case 0, 1, 2, 3, 4, 5, 6:
				m := &Msg{Src: int((w >> 4) % 4), Tag: int((w >> 6) % 5)}
				b.enqueueLocked(m)
				ref = append(ref, m)
			case 7, 8, 9, 10, 11, 12:
				got := b.takeLocked(src, tag)
				var want *Msg
				if j := ref.find(src, tag); j >= 0 {
					want = ref[j]
					ref = append(ref[:j], ref[j+1:]...)
				}
				if got != want {
					t.Logf("op %d: take(%d, %d) = %+v, want %+v", i, src, tag, got, want)
					return false
				}
			default:
				if got, want := b.matchesLocked(src, tag), ref.find(src, tag) >= 0; got != want {
					t.Logf("op %d: matches(%d, %d) = %v, want %v", i, src, tag, got, want)
					return false
				}
			}
			if b.count != len(ref) {
				t.Logf("op %d: count %d, want %d", i, b.count, len(ref))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxExactOnlyTagIndexEmpty: a tag that is only ever received
// exactly keeps no arrival entries, however much traffic it carries,
// while an AnySource-received tag in the same mailbox does.
func TestMailboxExactOnlyTagIndexEmpty(t *testing.T) {
	var b mailbox
	for i := 0; i < 1000; i++ {
		b.enqueueLocked(&Msg{Src: i % 3, Tag: 7})
		b.enqueueLocked(&Msg{Src: i % 3, Tag: 8})
		if b.takeLocked(i%3, 7) == nil || b.takeLocked(AnySource, 8) == nil {
			t.Fatalf("round %d: queued message not matched", i)
		}
	}
	if x := b.tags[7]; x.keep || cap(x.q) != 0 {
		t.Errorf("exact-only tag index: keep %v, cap %d; want false, 0", x.keep, cap(x.q))
	}
	if x := b.tags[8]; !x.keep {
		t.Error("AnySource-received tag keeps no arrival index")
	}
}

// TestMailboxIndexBounded: once a tag's index is kept, exact receives
// on it leave stale entries behind; compaction must hold the index to
// the tag's backlog instead of its traffic.
func TestMailboxIndexBounded(t *testing.T) {
	var b mailbox
	b.enqueueLocked(&Msg{Src: 0, Tag: 3})
	if b.takeLocked(AnySource, 3) == nil {
		t.Fatal("queued message not matched")
	}
	const backlog = 4
	for i := 0; i < backlog; i++ {
		b.enqueueLocked(&Msg{Src: 1, Tag: 3})
	}
	for i := 0; i < 100_000; i++ {
		b.enqueueLocked(&Msg{Src: 1, Tag: 3})
		if b.takeLocked(1, 3) == nil {
			t.Fatalf("round %d: queued message not matched", i)
		}
	}
	if c := cap(b.tags[3].q); c > 4*(backlog+1) {
		t.Errorf("index capacity %d after 100000 exact receives with backlog %d", c, backlog+1)
	}
}

// TestMailboxAnySourceAllocFree: a steady-state AnySource receive on a
// named tag — with a backlog on other keys — allocates nothing.
func TestMailboxAnySourceAllocFree(t *testing.T) {
	var b mailbox
	for s := 0; s < 64; s++ {
		b.enqueueLocked(&Msg{Src: s, Tag: 100 + s%8})
	}
	msgs := []*Msg{{Src: 1, Tag: 5}, {Src: 2, Tag: 5}, {Src: 3, Tag: 5}}
	round := func() {
		for _, m := range msgs {
			b.enqueueLocked(m)
		}
		for range msgs {
			if b.takeLocked(AnySource, 5) == nil {
				panic("queued message not matched")
			}
		}
	}
	round() // warm: creates the lists, the index and their capacity
	if a := testing.AllocsPerRun(1000, round); a != 0 {
		t.Errorf("steady-state AnySource receive: %v allocs/round, want 0", a)
	}
}
