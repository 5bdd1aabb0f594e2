// Package sched is an event-driven simulator of the three scheduling
// regimes behind the paper's production logs: NQS-style FCFS batch
// queueing, EASY backfilling, and gang scheduling (Ousterhout matrix),
// combined with the three processor-allocation schemes (power-of-two
// buddy partitions, limited/contiguous placement, unlimited).
//
// The simulator turns a stream of job requests into an executed SWF log
// with wait times, (possibly time-shared) runtimes, allocated partition
// sizes, and completion statuses — the raw material from which the
// workload variables of Table 1 are computed. It is the substitution for
// the archive's production traces: the schedulers and allocators give the
// paper's "scheduler flexibility" and "allocation flexibility" ordinal
// variables concrete semantics.
package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"coplot/internal/machine"
	"coplot/internal/swf"
)

// Request is one job submission presented to the simulator.
type Request struct {
	ID       int
	Submit   float64 // submission time, seconds from log start
	Procs    int     // requested processors
	Runtime  float64 // dedicated execution time needed
	Estimate float64 // user runtime estimate; <= 0 means Runtime×estimateFactor

	User, Group, Executable, Queue int

	// CPUFraction is the fraction of runtime spent computing (vs. I/O or
	// idling); <= 0 means 1. It populates the SWF CPU-time field.
	CPUFraction float64
	// Completes marks whether the job finishes successfully; failed jobs
	// still consume their runtime but get StatusFailed.
	Completes bool
}

// estimateFactor scales actual runtime into the user estimate when a
// request carries none (users overestimate).
const estimateFactor = 2

// Options tune the simulation.
type Options struct {
	// MinPartition is the smallest partition of the power-of-two
	// allocator (e.g. 32 on the LANL CM-5). Ignored by other allocators.
	MinPartition int
	// GangSlots is the multiprogramming level of the gang scheduler
	// (number of Ousterhout matrix rows). Default 4.
	GangSlots int
}

func (o Options) withDefaults() Options {
	if o.GangSlots <= 0 {
		o.GangSlots = 4
	}
	return o
}

// Stats summarizes a simulation run.
type Stats struct {
	Utilization float64 // fraction of node-seconds actually used
	AvgWait     float64 // mean queue wait in seconds
	MaxWait     float64
	// AvgSlowdown is the mean bounded slowdown
	// max(1, (wait+runtime)/max(runtime, SlowdownBound)) — the standard
	// responsiveness metric of the job-scheduling literature the paper
	// belongs to.
	AvgSlowdown float64
	Makespan    float64 // time from first submit to last completion
	Backfilled  int     // jobs started out of order by EASY
	Completed   int
	Rejected    int // jobs larger than the machine
}

// SlowdownBound is the runtime floor of the bounded-slowdown metric
// (10 seconds, the customary value), preventing near-zero-length jobs
// from dominating the average.
const SlowdownBound = 10.0

// slowdownOf computes one job's bounded slowdown.
func slowdownOf(wait, runtime float64) float64 {
	den := runtime
	if den < SlowdownBound {
		den = SlowdownBound
	}
	s := (wait + runtime) / den
	if s < 1 {
		s = 1
	}
	return s
}

// Simulate runs the request stream through the machine's scheduler and
// returns the executed log. Requests are processed in submit order.
func Simulate(m machine.Machine, reqs []Request, opts Options) (*swf.Log, Stats, error) {
	if err := m.Validate(); err != nil {
		return nil, Stats{}, err
	}
	opts = opts.withDefaults()
	sorted := append([]Request(nil), reqs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Submit < sorted[b].Submit })
	for i := range sorted {
		if sorted[i].Estimate <= 0 {
			sorted[i].Estimate = sorted[i].Runtime * estimateFactor
		}
		if sorted[i].CPUFraction <= 0 {
			sorted[i].CPUFraction = 1
		}
	}
	switch m.Scheduler {
	case machine.SchedulerNQS:
		return simulateQueued(m, sorted, opts, false)
	case machine.SchedulerEASY:
		return simulateQueued(m, sorted, opts, true)
	case machine.SchedulerGang:
		return simulateGang(m, sorted, opts)
	}
	return nil, Stats{}, fmt.Errorf("sched: unknown scheduler %v", m.Scheduler)
}

// runningJob is a started job inside the space-sharing simulators.
type runningJob struct {
	req       Request
	place     Placement
	start     float64
	end       float64 // actual completion time
	estEnd    float64 // completion per the user estimate (for reservations)
	heapIndex int
}

// endHeap orders running jobs by completion time.
type endHeap []*runningJob

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIndex = i; h[j].heapIndex = j }
func (h *endHeap) Push(x interface{}) {
	j := x.(*runningJob)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}
func (h *endHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	*h = old[:n-1]
	return j
}

// simulateQueued implements FCFS (backfill=false) and EASY backfilling
// (backfill=true) over any space-sharing allocator.
func simulateQueued(m machine.Machine, reqs []Request, opts Options, backfill bool) (*swf.Log, Stats, error) {
	alloc, err := NewAllocator(m, opts.MinPartition)
	if err != nil {
		return nil, Stats{}, err
	}
	log := &swf.Log{Header: []string{
		fmt.Sprintf("Computer: %s", m.Name),
		fmt.Sprintf("Processors: %d", m.Procs),
		fmt.Sprintf("Scheduler: %s", m.Scheduler),
		fmt.Sprintf("Allocation: %s", m.Allocator),
	}}
	var st Stats

	running := &endHeap{}
	var queue []Request
	next := 0 // next arrival index
	now := 0.0
	nodeSeconds := 0.0
	var waits []float64

	start := func(req Request, t float64) bool {
		p, ok := alloc.Alloc(req.Procs)
		if !ok {
			return false
		}
		j := &runningJob{req: req, place: p, start: t, end: t + req.Runtime, estEnd: t + req.Estimate}
		heap.Push(running, j)
		return true
	}
	finish := func(j *runningJob) {
		alloc.Free(j.place)
		wait := j.start - j.req.Submit
		waits = append(waits, wait)
		status := swf.StatusFailed
		if j.req.Completes {
			status = swf.StatusCompleted
			st.Completed++
		}
		nodeSeconds += j.req.Runtime * float64(j.place.Size())
		log.Jobs = append(log.Jobs, swf.Job{
			ID: j.req.ID, Submit: j.req.Submit, Wait: wait,
			Runtime: j.req.Runtime, Procs: j.place.Size(),
			CPUTime: j.req.Runtime * j.req.CPUFraction, Memory: -1,
			ReqProcs: j.req.Procs, ReqTime: j.req.Estimate, ReqMemory: -1,
			Status: status, User: j.req.User, Group: j.req.Group,
			Executable: j.req.Executable, Queue: j.req.Queue,
			Partition: -1, PrecedingID: -1, ThinkTime: -1,
		})
	}

	trySchedule := func(t float64) {
		for len(queue) > 0 {
			head := queue[0]
			if start(head, t) {
				queue = queue[1:]
				continue
			}
			if !backfill {
				return
			}
			// EASY: reserve for the head, then backfill behind it.
			shadow, extra := reservation(alloc, running, head, t)
			kept := queue[:1]
			progressed := false
			for _, cand := range queue[1:] {
				allowed := t+cand.Estimate <= shadow || alloc.AllocSize(cand.Procs) <= extra
				if allowed && start(cand, t) {
					if alloc.AllocSize(cand.Procs) <= extra {
						extra -= alloc.AllocSize(cand.Procs)
					}
					st.Backfilled++
					progressed = true
					continue
				}
				kept = append(kept, cand)
			}
			queue = kept
			if !progressed {
				return
			}
			// A backfill may have freed nothing for the head, but re-run
			// the loop once in case sizes interact; guard against
			// infinite looping via the progressed flag above.
			if !alloc.CanAlloc(head.Procs) {
				return
			}
		}
	}

	for next < len(reqs) || running.Len() > 0 {
		// Choose the next event time.
		var tArr, tEnd float64
		hasArr := next < len(reqs)
		hasEnd := running.Len() > 0
		if hasArr {
			tArr = reqs[next].Submit
		}
		if hasEnd {
			tEnd = (*running)[0].end
		}
		switch {
		case hasArr && (!hasEnd || tArr <= tEnd):
			now = tArr
			req := reqs[next]
			next++
			if alloc.AllocSize(req.Procs) > alloc.Total() || req.Procs <= 0 {
				st.Rejected++
				log.Jobs = append(log.Jobs, swf.Job{
					ID: req.ID, Submit: req.Submit, Wait: 0, Runtime: 0,
					Procs: 0, CPUTime: -1, Memory: -1, ReqProcs: req.Procs,
					ReqTime: req.Estimate, ReqMemory: -1,
					Status: swf.StatusCancelled, User: req.User,
					Group: req.Group, Executable: req.Executable,
					Queue: req.Queue, Partition: -1, PrecedingID: -1, ThinkTime: -1,
				})
				continue
			}
			queue = append(queue, req)
			trySchedule(now)
		default:
			now = tEnd
			j := heap.Pop(running).(*runningJob)
			finish(j)
			trySchedule(now)
		}
	}

	log.SortBySubmit()
	fillStats(&st, waits, nodeSeconds, log, m)
	return log, st, nil
}

// reservation computes the EASY shadow time for the queue head: the
// earliest time at which, assuming running jobs end at their estimated
// completions, enough processors are free for the head — and the number
// of "extra" processors that will remain free at that time. Placement
// constraints are approximated by capacity counts, which is exact for the
// unlimited allocator and optimistic for the others.
func reservation(alloc Allocator, running *endHeap, head Request, now float64) (shadow float64, extra int) {
	need := alloc.AllocSize(head.Procs)
	free := alloc.FreeCapacity()
	if free >= need {
		return now, free - need
	}
	jobs := append([]*runningJob(nil), (*running)...)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].estEnd < jobs[b].estEnd })
	for _, j := range jobs {
		free += j.place.Size()
		if free >= need {
			return j.estEnd, free - need
		}
	}
	// Should not happen (head fits an empty machine), but stay safe.
	return now + head.Estimate, 0
}

func fillStats(st *Stats, waits []float64, nodeSeconds float64, log *swf.Log, m machine.Machine) {
	if len(waits) > 0 {
		s, mx := 0.0, 0.0
		for _, w := range waits {
			s += w
			if w > mx {
				mx = w
			}
		}
		st.AvgWait = s / float64(len(waits))
		st.MaxWait = mx
	}
	var slow float64
	var cnt int
	for _, j := range log.Jobs {
		if j.Status == swf.StatusCancelled {
			continue
		}
		slow += slowdownOf(j.Wait, j.Runtime)
		cnt++
	}
	if cnt > 0 {
		st.AvgSlowdown = slow / float64(cnt)
	}
	st.Makespan = log.Duration()
	if st.Makespan > 0 {
		st.Utilization = nodeSeconds / (st.Makespan * float64(m.Procs))
	}
}
