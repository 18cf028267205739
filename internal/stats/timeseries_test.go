package stats

import "testing"

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries(100, 5)
	if ts.Interval() != 100 || ts.Len() != 5 {
		t.Fatal("geometry")
	}
	ts.Add(0, 3)
	ts.Add(99, 2)
	ts.Add(100, 7)
	ts.Add(499, 1)
	ts.Add(500, 100) // out of range: dropped
	ts.Add(-5, 100)  // negative: dropped
	if ts.Bucket(0) != 5 || ts.Bucket(1) != 7 || ts.Bucket(4) != 1 {
		t.Errorf("buckets: %v", ts.Values())
	}
	if got := ts.Rate(1); got != 0.07 {
		t.Errorf("Rate=%v", got)
	}
	idx, v := ts.Peak()
	if idx != 1 || v != 7 {
		t.Errorf("Peak=(%d,%v)", idx, v)
	}
	vals := ts.Values()
	vals[0] = 999
	if ts.Bucket(0) == 999 {
		t.Error("Values must copy")
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTimeSeries(0, 5) },
		func() { NewTimeSeries(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCollectorDeliverySeries(t *testing.T) {
	c := NewCollector(2, 0, 1000)
	if c.DeliverySeries() != nil {
		t.Fatal("series enabled by default")
	}
	ts := c.EnableDeliverySeries(100, 10)
	if ts != c.DeliverySeries() {
		t.Fatal("accessor mismatch")
	}
	c.OnDelivered(50, 0, 10, 16, true, 0)
	c.OnDelivered(150, 0, 10, 16, true, 0)
	c.OnDelivered(155, 0, 10, 16, true, 0)
	if ts.Bucket(0) != 16 || ts.Bucket(1) != 32 {
		t.Errorf("series buckets: %v", ts.Values())
	}
	c.DropDeliverySeries()
	if c.DeliverySeries() != nil {
		t.Fatal("DropDeliverySeries kept the series")
	}
	c.OnDelivered(160, 0, 10, 16, true, 0) // no series: nothing to record into
}
