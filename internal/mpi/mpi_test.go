package mpi

import (
	"math"
	"testing"

	"repro/internal/la"
)

func TestAllreduceSum(t *testing.T) {
	comms := Run(8, DefaultModel(), func(c *Comm) {
		v := []float64{float64(c.Rank()), 1}
		c.Allreduce(v, Sum)
		if v[0] != 28 || v[1] != 8 { // 0+..+7 = 28
			t.Errorf("rank %d: allreduce sum = %v", c.Rank(), v)
		}
	})
	if len(comms) != 8 {
		t.Fatal("wrong comm count")
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	Run(5, DefaultModel(), func(c *Comm) {
		v := []float64{float64(c.Rank())}
		c.Allreduce(v, Max)
		if v[0] != 4 {
			t.Errorf("max = %g", v[0])
		}
		v[0] = float64(c.Rank())
		c.Allreduce(v, Min)
		if v[0] != 0 {
			t.Errorf("min = %g", v[0])
		}
	})
}

func TestAllreduceScalar(t *testing.T) {
	Run(4, DefaultModel(), func(c *Comm) {
		got := c.AllreduceScalar(2, Sum)
		if got != 8 {
			t.Errorf("scalar sum = %g", got)
		}
	})
}

func TestRepeatedCollectivesNoCorruption(t *testing.T) {
	// Stress the sense-reversing slots: many back-to-back reductions.
	Run(16, DefaultModel(), func(c *Comm) {
		for iter := 0; iter < 200; iter++ {
			v := []float64{float64(c.Rank() + iter)}
			c.Allreduce(v, Sum)
			want := float64(16*iter + 120) // sum_{r=0..15}(r+iter)
			if v[0] != want {
				t.Errorf("iter %d rank %d: %g != %g", iter, c.Rank(), v[0], want)
				return
			}
		}
	})
}

func TestHaloRing(t *testing.T) {
	// Each rank passes its id around a ring once.
	const p = 6
	Run(p, DefaultModel(), func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() + p - 1) % p
		buf := []float64{float64(c.Rank())}
		recv := make([]float64, 1)
		c.Send(right, buf)
		c.Recv(left, recv)
		if recv[0] != float64(left) {
			t.Errorf("rank %d got %g, want %d", c.Rank(), recv[0], left)
		}
	})
}

func TestClocksAdvanceAndSynchronize(t *testing.T) {
	comms := Run(4, DefaultModel(), func(c *Comm) {
		// Rank-dependent compute; the collective must level all clocks.
		c.Compute(1e6 * float64(c.Rank()+1))
		c.AllreduceScalar(0, Sum)
	})
	want := comms[0].Clock()
	if want <= 0 {
		t.Fatal("clock did not advance")
	}
	for _, c := range comms {
		if math.Abs(c.Clock()-want) > 1e-12 {
			t.Fatalf("clocks diverged: %g vs %g", c.Clock(), want)
		}
	}
	// The synchronized clock must cover the slowest rank's compute.
	slowest := DefaultModel().ComputeTime(4e6)
	if want < slowest {
		t.Fatalf("clock %g below slowest compute %g", want, slowest)
	}
}

func TestRecvRespectsArrivalTime(t *testing.T) {
	comms := Run(2, DefaultModel(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1e9) // 0.5 s of virtual work before sending
			c.Send(1, []float64{1})
		} else {
			c.Recv(0, make([]float64, 1))
		}
	})
	if comms[1].Clock() < comms[0].Clock() {
		t.Fatalf("receiver clock %g before sender clock %g", comms[1].Clock(), comms[0].Clock())
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultModel()
	if m.ComputeTime(2e9) != 1 {
		t.Fatalf("ComputeTime wrong: %g", m.ComputeTime(2e9))
	}
	// 1 latency + 8 bytes/5e9.
	if got := m.MessageTime(1); math.Abs(got-(2e-6+8/5e9)) > 1e-18 {
		t.Fatalf("MessageTime wrong: %g", got)
	}
}

// TestAllreduceChargesAllreduceTime: a collective from equal clocks adds
// exactly the cost model's AllreduceTime, the one place the log-tree cost
// is written (package scaling charges it without a World).
func TestAllreduceChargesAllreduceTime(t *testing.T) {
	m := DefaultModel()
	if got, want := m.AllreduceTime(4096, 2), 24*m.MessageTime(2); got != want {
		t.Fatalf("AllreduceTime(4096, 2) = %g, want %g", got, want)
	}
	for _, p := range []int{1, 2, 3, 8} {
		comms := Run(p, m, func(c *Comm) { c.Allreduce(make([]float64, 2), Sum) })
		for _, c := range comms {
			if c.Clock() != m.AllreduceTime(p, 2) {
				t.Fatalf("p=%d rank %d: clock %g after one Allreduce, want %g",
					p, c.Rank(), c.Clock(), m.AllreduceTime(p, 2))
			}
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	for _, tc := range [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {512, 9}, {4096, 12}} {
		if got := log2ceil(tc[0]); got != tc[1] {
			t.Fatalf("log2ceil(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestBigWorld(t *testing.T) {
	// 1024 goroutine ranks complete a collective without trouble.
	Run(1024, DefaultModel(), func(c *Comm) {
		if got := c.AllreduceScalar(1, Sum); got != 1024 {
			t.Errorf("sum = %g", got)
		}
	})
}

func TestNewWorldPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0, DefaultModel())
}

func TestDistributedWRMSMatchesSerial(t *testing.T) {
	// The adaptive controller's scaled error norm computed by per-rank
	// partial sums + Allreduce must equal the serial norm bit-for-bit-ish.
	const m = 120
	e := make([]float64, m)
	w := make([]float64, m)
	for i := range e {
		e[i] = math.Sin(float64(i)) * 1e-6
		w[i] = 1e-6 * (1 + math.Abs(math.Cos(float64(i))))
	}
	serial := la.WRMS(e, w)
	const p = 6
	results := make([]float64, p)
	Run(p, DefaultModel(), func(c *Comm) {
		lo := c.Rank() * m / p
		hi := (c.Rank() + 1) * m / p
		sumsq, n := la.WRMSPartial(e[lo:hi], w[lo:hi])
		part := []float64{sumsq, float64(n)}
		c.Allreduce(part, Sum)
		results[c.Rank()] = la.WRMSFinish(part[0], int(part[1]))
	})
	for r, got := range results {
		if math.Abs(got-serial) > 1e-14*serial {
			t.Fatalf("rank %d: distributed WRMS %g != serial %g", r, got, serial)
		}
	}
}

func TestGather(t *testing.T) {
	const p = 5
	Run(p, DefaultModel(), func(c *Comm) {
		dst := make([]float64, p)
		c.Gather(float64(c.Rank()*c.Rank()), dst)
		for r := 0; r < p; r++ {
			if dst[r] != float64(r*r) {
				t.Errorf("rank %d: gather[%d] = %g", c.Rank(), r, dst[r])
				return
			}
		}
	})
}

func TestGatherWrongSizePanics(t *testing.T) {
	defer func() { recover() }()
	Run(2, DefaultModel(), func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Gather(1, make([]float64, 1))
	})
}
