package fabric

import (
	"math/rand"
	"testing"
)

// refNIC is the capacity timeline as one map entry per slot: the
// reference model the paged timeline must match reservation for
// reservation.
type refNIC struct {
	slots          map[int64]int64
	busyPs, waitPs int64
}

func (r *refNIC) reserve(notBefore, cost int64) int64 {
	if r.slots == nil {
		r.slots = make(map[int64]int64)
	}
	slot := notBefore / nicSlotPs
	start := int64(-1)
	for rem := cost; rem > 0; slot++ {
		avail := nicSlotPs - r.slots[slot]
		if avail <= 0 {
			continue
		}
		if start < 0 {
			start = max(slot*nicSlotPs, notBefore)
		}
		take := min(avail, rem)
		r.slots[slot] += take
		rem -= take
	}
	if start < 0 {
		start = notBefore
	}
	if start > notBefore {
		r.waitPs += start - notBefore
	}
	r.busyPs += cost
	return start
}

// TestNICTimelineMatchesReference drives the paged timeline and the map
// model with one randomized trace: out-of-order notBefore (clients whose
// clocks lag the NIC), costs that spill over many slots and across page
// boundaries, saturated stretches, zero costs, negative times and
// ResetTimelines in between.
func TestNICTimelineMatchesReference(t *testing.T) {
	f := New(DefaultConfig())
	f.AddNode(1 << 20)
	n, err := f.node(0)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refNIC{}
	rng := rand.New(rand.NewSource(1))
	pagePs := int64(nicPageSlots * nicSlotPs)
	head := int64(0)
	for i := 0; i < 100_000; i++ {
		var notBefore, cost int64
		switch r := rng.Intn(1000); {
		case r < 600: // a lagging or leading client near the head
			notBefore = head + rng.Int63n(40*nicSlotPs) - 30*nicSlotPs
			cost = 8_000 + rng.Int63n(300_000)
		case r < 750: // a burst that saturates several slots
			notBefore = head
			cost = rng.Int63n(5 * nicSlotPs)
		case r < 850: // just before a page boundary, spilling over it
			notBefore = (head/pagePs+1)*pagePs - rng.Int63n(3*nicSlotPs)
			cost = rng.Int63n(4 * nicSlotPs)
		case r < 852: // a reservation longer than a page
			notBefore = head
			cost = pagePs + rng.Int63n(pagePs)
		case r < 900:
			notBefore, cost = head, 0
		case r < 950: // far in the past, including negative times
			notBefore = -rng.Int63n(3 * pagePs)
			cost = rng.Int63n(2 * nicSlotPs)
		default: // a jump ahead, leaving untouched pages behind
			head += rng.Int63n(10 * pagePs)
			notBefore, cost = head, 1+rng.Int63n(nicSlotPs)
		}
		if rng.Intn(10_000) == 0 {
			f.ResetTimelines()
			ref.slots = nil
		}
		got := n.nic.reserve(notBefore, cost, 1, 64)
		want := ref.reserve(notBefore, cost)
		if got != want {
			t.Fatalf("reservation %d (notBefore %d, cost %d): start %d, reference %d", i, notBefore, cost, got, want)
		}
		if n.nic.waitPs != ref.waitPs || n.nic.busyPs != ref.busyPs {
			t.Fatalf("reservation %d: waitPs/busyPs %d/%d, reference %d/%d", i, n.nic.waitPs, n.nic.busyPs, ref.waitPs, ref.busyPs)
		}
		// Demand averages under 2 slots per reservation; advancing the
		// head by 2 on average keeps the queue bounded while bursts still
		// saturate.
		head += rng.Int63n(4 * nicSlotPs)
	}
	st := f.NICStats()[0]
	if st.WaitPs != ref.waitPs || st.BusyPs != ref.busyPs || st.Verbs != 100_000 {
		t.Fatalf("NICStats %+v, reference wait %d busy %d", st, ref.waitPs, ref.busyPs)
	}
}
