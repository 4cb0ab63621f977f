package metrics

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestThroughputWindow(t *testing.T) {
	c := NewCollector()
	c.SetWindow(1*time.Second, 3*time.Second)
	c.RecordExecution(500*time.Millisecond, 100, 0) // warm-up, excluded
	c.RecordExecution(1500*time.Millisecond, 100, 5)
	c.RecordExecution(2500*time.Millisecond, 100, 5)
	c.RecordExecution(3500*time.Millisecond, 100, 0) // cool-down, excluded
	if got := c.Committed(); got != 200 {
		t.Fatalf("Committed = %d, want 200", got)
	}
	if got := c.Throughput(); got != 100 {
		t.Fatalf("Throughput = %v, want 100", got)
	}
	if got := c.Aborted(); got != 10 {
		t.Fatalf("Aborted = %d, want 10", got)
	}
	if got := c.Entries(); got != 2 {
		t.Fatalf("Entries = %d, want 2", got)
	}
	if r := c.AbortRate(); r < 0.047 || r > 0.048 {
		t.Fatalf("AbortRate = %v", r)
	}
}

func TestNoWindowCountsEverything(t *testing.T) {
	c := NewCollector()
	c.RecordExecution(0, 10, 0)
	c.RecordExecution(10*time.Second, 10, 0)
	if c.Committed() != 20 {
		t.Fatal("unwindowed collector dropped samples")
	}
	if c.Throughput() != 0 {
		t.Fatal("throughput undefined without window must be 0")
	}
}

func TestLatencyStats(t *testing.T) {
	c := NewCollector()
	c.SetWindow(0, 10*time.Second)
	for _, ms := range []int{10, 20, 30, 40, 100} {
		c.RecordLatency(time.Second, time.Duration(ms)*time.Millisecond)
	}
	if got := c.AvgLatency(); got != 40*time.Millisecond {
		t.Fatalf("AvgLatency = %v", got)
	}
	// Ceil nearest-rank: p50 of 5 samples is the 3rd smallest.
	if got := c.PercentileLatency(50); got != 30*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := c.PercentileLatency(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := c.PercentileLatency(1); got != 10*time.Millisecond {
		t.Fatalf("p1 = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := []struct {
		name    string
		samples []int
		p       float64
		want    time.Duration
	}{
		{"p50-of-5-is-3rd", []int{10, 20, 30, 40, 100}, 50, ms(30)},
		{"p50-of-4-is-2nd", []int{10, 20, 30, 40}, 50, ms(20)},
		{"p99-of-100-is-99th", seq(1, 100), 99, ms(99)},
		{"p99-of-200-is-198th", seq(1, 200), 99, ms(198)},
		{"p90-of-10-is-9th", seq(1, 10), 90, ms(9)},
		{"p91-of-10-rounds-up-to-10th", seq(1, 10), 91, ms(10)},
		{"p100-is-max", seq(1, 10), 100, ms(10)},
		{"p1-of-10-is-min", seq(1, 10), 1, ms(1)},
		{"single-sample", []int{42}, 50, ms(42)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector()
			c.SetWindow(0, 10*time.Second)
			for _, v := range tc.samples {
				c.RecordLatency(time.Second, ms(v))
			}
			if got := c.PercentileLatency(tc.p); got != tc.want {
				t.Fatalf("p%v of %d samples = %v, want %v", tc.p, len(tc.samples), got, tc.want)
			}
		})
	}
}

// seq returns the ints from lo through hi inclusive.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func TestEmptyLatency(t *testing.T) {
	c := NewCollector()
	if c.AvgLatency() != 0 || c.PercentileLatency(50) != 0 {
		t.Fatal("empty latency stats not zero")
	}
}

func TestSeries(t *testing.T) {
	c := NewCollector()
	c.SetWindow(0, 100*time.Second)
	c.RecordExecution(500*time.Millisecond, 10, 0)
	c.RecordExecution(2500*time.Millisecond, 30, 0)
	c.RecordLatency(2600*time.Millisecond, 50*time.Millisecond)
	s := c.Series()
	if len(s) != 3 {
		t.Fatalf("series length %d, want 3", len(s))
	}
	if s[0].Throughput != 10 || s[1].Throughput != 0 || s[2].Throughput != 30 {
		t.Fatalf("series = %+v", s)
	}
	if s[2].AvgLatency != 50*time.Millisecond {
		t.Fatalf("series latency = %v", s[2].AvgLatency)
	}
	// Out-of-window samples must still appear in the series (Fig 15 plots
	// the whole run including the fault window).
	c2 := NewCollector()
	c2.SetWindow(5*time.Second, 6*time.Second)
	c2.RecordExecution(1*time.Second, 42, 0)
	if c2.Series()[1].Throughput != 42 {
		t.Fatal("out-of-window execution missing from series")
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	c := NewCollector()
	if c.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestCounterNames: each Counts field derives a distinct kebab-case name, and
// Counter and Counters read the field of that name; Counters leaves out what
// is zero and Counter reads zero for an undeclared name.
func TestCounterNames(t *testing.T) {
	kebab := regexp.MustCompile(`^[a-z]+(-[a-z]+)*$`)
	c := NewCollector()
	v := reflect.ValueOf(&c.Counts).Elem()
	if len(counterNames) != v.NumField() || len(counterField) != v.NumField() {
		t.Fatalf("%d fields, %d names, %d distinct", v.NumField(), len(counterNames), len(counterField))
	}
	for i, name := range counterNames {
		if !kebab.MatchString(name) {
			t.Errorf("field %s is named %q", v.Type().Field(i).Name, name)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	all := c.Counters()
	for i, name := range counterNames {
		if c.Counter(name) != int64(i+1) || all[name] != int64(i+1) {
			t.Errorf("%s: Counter %d, Counters %d, field %d", name, c.Counter(name), all[name], i+1)
		}
	}
	if len(all) != len(counterNames) {
		t.Errorf("Counters holds %d names, want %d", len(all), len(counterNames))
	}
	c.Counts = Counts{RepairReqs: 3, RejoinBadsuffix: 1}
	if got := c.Counters(); len(got) != 2 || got["repair-reqs"] != 3 || got["rejoin-badsuffix"] != 1 {
		t.Errorf("Counters = %v", got)
	}
	if c.Counter("repair-req") != 0 {
		t.Error("an undeclared name reads non-zero")
	}
	if s := c.Summary(); !strings.HasSuffix(s, " rejoin-badsuffix=1 repair-reqs=3") {
		t.Errorf("Summary = %q", s)
	}
}
