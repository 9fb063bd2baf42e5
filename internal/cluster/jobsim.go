package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// This file implements the batch-queue simulator behind Figure 1 of the
// paper: how long jobs wait before starting, as a function of how many nodes
// they request, on a shared cluster with an FCFS + EASY-backfill scheduler.
// The paper's point: on their small shared cluster, requests under 16 nodes
// started within minutes while 32-node requests waited half an hour and
// 100+-node requests waited hours — which is why running out-of-core on
// fewer nodes can beat running in-core on many.

// Job is one batch job.
type Job struct {
	ID       int
	Submit   time.Duration // submission time since simulation start
	Nodes    int           // requested node count
	Runtime  time.Duration // actual runtime
	Estimate time.Duration // user-provided estimate (for backfill)

	start time.Duration
}

// Wait returns the queue wait time of a scheduled job.
func (j *Job) Wait() time.Duration { return j.start - j.Submit }

// JobSimConfig configures the simulator.
type JobSimConfig struct {
	ClusterNodes int  // total nodes in the machine
	Backfill     bool // EASY backfill vs plain FCFS
}

// SimulateJobs schedules the jobs (in submission order) and fills in their
// start times. It uses an event-driven simulation: at any moment the
// scheduler knows which nodes free up when, starts the queue head as soon as
// possible, and (with Backfill) lets smaller jobs jump ahead when they do
// not delay the head's reservation.
func SimulateJobs(cfg JobSimConfig, jobs []*Job) error {
	if cfg.ClusterNodes <= 0 {
		return fmt.Errorf("jobsim: cluster must have nodes")
	}
	for _, j := range jobs {
		if j.Nodes <= 0 || j.Nodes > cfg.ClusterNodes {
			return fmt.Errorf("jobsim: job %d requests %d of %d nodes", j.ID, j.Nodes, cfg.ClusterNodes)
		}
		if j.Estimate < j.Runtime {
			j.Estimate = j.Runtime
		}
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Submit < jobs[k].Submit })

	var active []runningJob
	free := cfg.ClusterNodes

	freeAt := func(now time.Duration) {
		// Release all jobs that ended by now.
		keep := active[:0]
		for _, r := range active {
			if r.end <= now {
				free += r.nodes
			} else {
				keep = append(keep, r)
			}
		}
		active = keep
	}
	// nextEnd returns the earliest completion time of active jobs.
	nextEnd := func() time.Duration {
		e := time.Duration(math.MaxInt64)
		for _, r := range active {
			if r.end < e {
				e = r.end
			}
		}
		return e
	}

	pending := append([]*Job(nil), jobs...)
	now := time.Duration(0)
	for len(pending) > 0 {
		head := pending[0]
		if head.Submit > now {
			now = head.Submit
		}
		freeAt(now)
		if free >= head.Nodes {
			head.start = now
			active = append(active, runningJob{end: now + head.Runtime, nodes: head.Nodes})
			free -= head.Nodes
			pending = pending[1:]
			continue
		}
		// Head cannot start: compute its reservation (when enough nodes
		// will be free, assuming estimates hold).
		resAt, resOK := reservationTime(active, free, head.Nodes, now)
		if cfg.Backfill && resOK {
			// Backfill: start any later-submitted job that fits in the
			// free nodes now and finishes before the reservation (or uses
			// nodes the head doesn't need).
			for i := 1; i < len(pending); i++ {
				j := pending[i]
				if j.Submit > now || j.Nodes > free {
					continue
				}
				if now+j.Estimate <= resAt || j.Nodes <= free-head.Nodes {
					j.start = now
					active = append(active, runningJob{end: now + j.Runtime, nodes: j.Nodes})
					free -= j.Nodes
					pending = append(pending[:i], pending[i+1:]...)
					i--
				}
			}
		}
		// Advance time to the next event: a completion, or a later
		// submission (which may open a backfill opportunity).
		adv := nextEnd()
		if adv == time.Duration(math.MaxInt64) {
			return fmt.Errorf("jobsim: deadlock — head needs %d nodes, none active", head.Nodes)
		}
		for _, j := range pending[1:] {
			if j.Submit > now && j.Submit < adv {
				adv = j.Submit
			}
		}
		now = adv
	}
	return nil
}

// runningJob tracks one executing job's completion time and node count.
type runningJob struct {
	end   time.Duration
	nodes int
}

// reservationTime computes when `need` nodes will be available given the
// active jobs (by simulated completion) and `free` nodes available now.
func reservationTime(active []runningJob, free, need int, now time.Duration) (time.Duration, bool) {
	if free >= need {
		return now, true
	}
	ends := append([]runningJob(nil), active...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].end < ends[j].end })
	avail := free
	for _, e := range ends {
		avail += e.nodes
		if avail >= need {
			return e.end, true
		}
	}
	return 0, false
}

// WorkloadConfig describes the synthetic job mix for Figure 1.
type WorkloadConfig struct {
	Jobs         int
	ClusterNodes int
	Seed         int64
	// MeanInterarrival is the mean time between submissions.
	MeanInterarrival time.Duration
	// MeanRuntime is the mean job runtime.
	MeanRuntime time.Duration
}

// SyntheticWorkload generates a job mix resembling a small university
// cluster: mostly small jobs (1-8 nodes), some medium (16-32), few large
// (64+), exponential interarrival and runtime distributions.
func SyntheticWorkload(cfg WorkloadConfig) []*Job {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 4 * time.Minute
	}
	if cfg.MeanRuntime == 0 {
		cfg.MeanRuntime = 45 * time.Minute
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 96, 128}
	weights := []float64{0.22, 0.2, 0.18, 0.14, 0.10, 0.08, 0.05, 0.02, 0.01}
	pick := func() int {
		x := rng.Float64()
		acc := 0.0
		for i, w := range weights {
			acc += w
			if x < acc {
				return sizes[i]
			}
		}
		return sizes[len(sizes)-1]
	}
	var jobs []*Job
	at := time.Duration(0)
	for i := 0; i < cfg.Jobs; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		n := pick()
		if n > cfg.ClusterNodes {
			n = cfg.ClusterNodes
		}
		run := time.Duration(rng.ExpFloat64() * float64(cfg.MeanRuntime))
		if run < time.Minute {
			run = time.Minute
		}
		est := time.Duration(float64(run) * (1.1 + rng.Float64()))
		jobs = append(jobs, &Job{ID: i, Submit: at, Nodes: n, Runtime: run, Estimate: est})
	}
	return jobs
}

// WaitByBucket aggregates mean wait time per requested-node bucket — the
// series of Figure 1.
func WaitByBucket(jobs []*Job, buckets []int) map[int]time.Duration {
	sum := make(map[int]time.Duration)
	cnt := make(map[int]int)
	bucketOf := func(n int) int {
		best := buckets[len(buckets)-1]
		for _, b := range buckets {
			if n <= b {
				best = b
				break
			}
		}
		return best
	}
	for _, j := range jobs {
		b := bucketOf(j.Nodes)
		sum[b] += j.Wait()
		cnt[b]++
	}
	out := make(map[int]time.Duration)
	for b, s := range sum {
		out[b] = s / time.Duration(cnt[b])
	}
	return out
}
