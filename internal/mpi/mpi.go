// Package mpi provides the message-passing substrate of the distributed
// solvers in internal/dist: a goroutine-backed SPMD communicator with real
// point-to-point and collective data movement, plus a virtual-clock cluster
// cost model so runs on a laptop report the timing behaviour of a cluster.
// Package scaling prices Table V and Figure 3 with the same CostModel on
// one rank's clock; it builds no World.
//
// Every rank owns a virtual clock. Local computation advances it through
// the cost model; point-to-point exchanges add latency and bandwidth terms
// and synchronize the two endpoints; collectives synchronize all ranks to
// the slowest clock plus a log-tree cost. The collective semantics (real
// reductions over real data) are exact, so distributed algorithms such as
// the WRMS error norm of the adaptive controller can be validated against
// their serial counterparts while their simulated wall-clock is measured.
package mpi

import (
	"fmt"
	"sync"
)

// CostModel parameterizes the simulated cluster. The defaults (via
// DefaultModel) approximate a Sandy-Bridge-era machine like the paper's
// Blues cluster: ~2 Gflop/s effective per core, ~2 us MPI latency,
// ~5 GB/s link bandwidth.
type CostModel struct {
	FlopRate  float64 // effective flop/s per core
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second per link
}

// DefaultModel returns the Blues-like cost model.
func DefaultModel() CostModel {
	return CostModel{FlopRate: 2e9, Latency: 2e-6, Bandwidth: 5e9}
}

// ComputeTime returns the modeled seconds for the given flop count.
func (m CostModel) ComputeTime(flops float64) float64 { return flops / m.FlopRate }

// MessageTime returns the modeled seconds to move n float64 values.
func (m CostModel) MessageTime(n int) float64 {
	return m.Latency + float64(8*n)/m.Bandwidth
}

// AllreduceTime returns the modeled seconds an Allreduce of n float64
// values over p ranks adds to the slowest clock: a log-tree of
// 2·⌈log2 p⌉ messages.
func (m CostModel) AllreduceTime(p, n int) float64 {
	return float64(log2ceil(p)*2) * m.MessageTime(n)
}

// World is a set of ranks sharing collectives and a cost model.
type World struct {
	P     int
	Model CostModel

	mu   sync.Mutex
	cond *sync.Cond
	data rendezvous
	clk  rendezvous
	mail []chan message
}

// rendezvous is a reusable all-ranks synchronization point with a reduction
// buffer. Two slots alternate by phase parity (sense reversal) so a fast
// rank starting the next rendezvous cannot corrupt the buffer a slow rank
// is still reading from the previous one.
type rendezvous struct {
	arrived int
	phase   int
	slots   [2][]float64
	n       int
	op      ReduceOp
}

type message struct {
	from    int
	data    []float64
	arrival float64 // sender clock + transit time
}

// ReduceOp selects the elementwise reduction of Allreduce.
type ReduceOp int

// The supported reductions.
const (
	Sum ReduceOp = iota
	Max
	Min
)

// NewWorld creates a world of p ranks.
func NewWorld(p int, model CostModel) *World {
	if p < 1 {
		panic("mpi: world needs at least one rank")
	}
	w := &World{P: p, Model: model}
	w.cond = sync.NewCond(&w.mu)
	w.mail = make([]chan message, p)
	for i := range w.mail {
		w.mail[i] = make(chan message, p)
	}
	return w
}

// Comm is one rank's endpoint. Each rank goroutine owns exactly one Comm;
// a Comm is not safe for concurrent use.
type Comm struct {
	world   *World
	rank    int
	clock   float64
	pending []message // stash for out-of-order arrivals (tag matching)
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.P }

// Clock returns the rank's virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Compute advances the clock by the modeled time of flops floating-point
// operations.
func (c *Comm) Compute(flops float64) { c.clock += c.world.Model.ComputeTime(flops) }

// Run spawns fn on every rank of a fresh world and waits for completion.
// It returns the per-rank communicators so callers can read final clocks.
func Run(p int, model CostModel, fn func(c *Comm)) []*Comm {
	w := NewWorld(p, model)
	comms := make([]*Comm, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		comms[r] = &Comm{world: w, rank: r}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(comms[r])
	}
	wg.Wait()
	return comms
}

// Send transmits data to rank dst (buffered, non-blocking up to world
// size). The data slice is copied.
func (c *Comm) Send(dst int, data []float64) {
	if dst < 0 || dst >= c.world.P {
		panic(fmt.Sprintf("mpi: bad destination rank %d", dst))
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	transit := c.world.Model.MessageTime(len(data))
	c.clock += transit
	c.world.mail[dst] <- message{from: c.rank, data: cp, arrival: c.clock}
}

// Recv blocks for a message from rank src and copies it into data,
// returning the element count. Messages from other sources arriving first
// are stashed and matched by later Recv calls, like MPI tag matching.
func (c *Comm) Recv(src int, data []float64) int {
	var msg message
	found := false
	for i, m := range c.pending {
		if m.from == src {
			msg = m
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			found = true
			break
		}
	}
	for !found {
		m := <-c.world.mail[c.rank]
		if m.from == src {
			msg = m
			found = true
		} else {
			c.pending = append(c.pending, m)
		}
	}
	n := copy(data, msg.data)
	// The message cannot be consumed before it arrived in virtual time.
	if msg.arrival > c.clock {
		c.clock = msg.arrival
	}
	c.clock += c.world.Model.MessageTime(0) // receive-side processing latency
	return n
}

// log2ceil returns ceil(log2(p)) with log2ceil(1) = 0.
func log2ceil(p int) int {
	n := 0
	for (1 << n) < p {
		n++
	}
	return n
}

// reduceInto folds v into the slot buffer elementwise under op.
func reduceInto(buf, v []float64, op ReduceOp) {
	for i, x := range v {
		switch op {
		case Sum:
			buf[i] += x
		case Max:
			if x > buf[i] {
				buf[i] = x
			}
		case Min:
			if x < buf[i] {
				buf[i] = x
			}
		}
	}
}

// rendezvousReduce runs one all-ranks reduction through r, returning the
// slot holding the result (valid until the slot's phase parity recurs,
// which under SPMD discipline is after every rank has left).
func (c *Comm) rendezvousReduce(r *rendezvous, vals []float64, op ReduceOp) []float64 {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := &r.slots[r.phase&1]
	if r.arrived == 0 {
		if cap(*slot) < len(vals) {
			*slot = make([]float64, len(vals))
		}
		*slot = (*slot)[:len(vals)]
		copy(*slot, vals)
		r.n = len(vals)
		r.op = op
	} else {
		if len(vals) != r.n || op != r.op {
			panic("mpi: mismatched collective participants")
		}
		reduceInto(*slot, vals, op)
	}
	r.arrived++
	phase := r.phase
	result := *slot
	if r.arrived == w.P {
		r.arrived = 0
		r.phase++
		w.cond.Broadcast()
	} else {
		for phase == r.phase {
			w.cond.Wait()
		}
	}
	return result
}

// Allreduce reduces vals elementwise across all ranks with op, leaving the
// result in vals on every rank. All ranks must pass the same length. The
// virtual cost is a log-tree of latency-dominated messages, and the
// collective synchronizes all clocks to the slowest participant.
func (c *Comm) Allreduce(vals []float64, op ReduceOp) {
	res := c.rendezvousReduce(&c.world.data, vals, op)
	copy(vals, res)
	c.syncClocks(c.world.Model.AllreduceTime(c.world.P, len(vals)))
}

// syncClocks sets every clock to max(clocks) + cost.
func (c *Comm) syncClocks(cost float64) {
	buf := [1]float64{c.clock}
	res := c.rendezvousReduce(&c.world.clk, buf[:], Max)
	c.clock = res[0] + cost
}

// AllreduceScalar reduces one float64.
func (c *Comm) AllreduceScalar(v float64, op ReduceOp) float64 {
	buf := [1]float64{v}
	c.Allreduce(buf[:], op)
	return buf[0]
}

// Gather collects one value from every rank into dst (len = world size) on
// every rank (an allgather of scalars, enough for the interface system of
// dist.ParallelTridiag).
func (c *Comm) Gather(v float64, dst []float64) {
	w := c.world
	if len(dst) != w.P {
		panic("mpi: Gather dst must have world-size length")
	}
	contrib := make([]float64, w.P)
	contrib[c.rank] = v
	res := c.rendezvousReduce(&w.data, contrib, Sum)
	copy(dst, res)
	c.syncClocks(float64(log2ceil(w.P)) * w.Model.MessageTime(w.P))
}
