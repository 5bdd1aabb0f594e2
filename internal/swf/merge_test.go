package swf

import "testing"

func TestMergeOrdersAndRenumbers(t *testing.T) {
	a := &Log{Header: []string{"A"}, Jobs: []Job{
		{ID: 5, Submit: 10, Queue: QueueBatch, PrecedingID: 4, ThinkTime: 2},
		{ID: 6, Submit: 30, Queue: QueueBatch, PrecedingID: -1, ThinkTime: -1},
	}}
	b := &Log{Header: []string{"B"}, Jobs: []Job{
		{ID: 1, Submit: 20, Queue: QueueInteractive, PrecedingID: -1, ThinkTime: -1},
	}}
	m := Merge(a, b)
	if len(m.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(m.Jobs))
	}
	if len(m.Header) != 2 {
		t.Fatalf("header = %v", m.Header)
	}
	wantSubmits := []float64{10, 20, 30}
	for i, j := range m.Jobs {
		if j.Submit != wantSubmits[i] {
			t.Fatalf("order wrong: %v", m.Jobs)
		}
		if j.ID != i+1 {
			t.Fatalf("IDs not renumbered: %v", j.ID)
		}
		if j.PrecedingID != -1 || j.ThinkTime != -1 {
			t.Fatal("stale feedback links survived the merge")
		}
	}
	// Sources untouched.
	if a.Jobs[0].ID != 5 {
		t.Fatal("merge mutated its input")
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	m := Merge(nil, &Log{})
	if len(m.Jobs) != 0 {
		t.Fatal("expected empty merge")
	}
}

func TestShiftTime(t *testing.T) {
	l := &Log{Jobs: []Job{{Submit: 1}, {Submit: 5}}}
	s := l.ShiftTime(100)
	if s.Jobs[0].Submit != 101 || s.Jobs[1].Submit != 105 {
		t.Fatalf("shift = %+v", s.Jobs)
	}
	if l.Jobs[0].Submit != 1 {
		t.Fatal("shift mutated input")
	}
}
