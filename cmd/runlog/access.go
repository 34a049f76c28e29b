package main

// The access and slo subcommands are the offline consumers of the
// serving path's serve_access events (cmd/serve -access -events …):
// `runlog access` summarizes the structured access log per route —
// status and outcome counts plus histogram-estimated latency quantiles
// split into queue-wait and evaluator components — and `runlog slo`
// replays the same log through the burn-rate engine of internal/obs/slo
// on the log's own clock, reproducing after the fact the /slo evaluation
// the live server would have shown.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/slo"
)

// accessLatencyBuckets match the serving-side histogram bounds (ms).
var accessLatencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250}

// routeStats accumulates one route's serve_access events.
type routeStats struct {
	route    string
	requests int
	byStatus map[int]int
	shed     int
	timeouts int
	total    *obs.Histogram
	queue    *obs.Histogram
	eval     *obs.Histogram
}

func newRouteStats(route string) *routeStats {
	return &routeStats{
		route:    route,
		byStatus: map[int]int{},
		total:    obs.NewHistogram(accessLatencyBuckets),
		queue:    obs.NewHistogram(accessLatencyBuckets),
		eval:     obs.NewHistogram(accessLatencyBuckets),
	}
}

// runAccess implements "runlog access [run.jsonl]".
func runAccess(args []string) error {
	fs := flag.NewFlagSet("runlog access", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return errors.New("at most one input file")
	}
	in, closeIn, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closeIn()

	byRoute := map[string]*routeStats{}
	var order []string
	total := 0
	err = obs.ScanEvents(in, func(ev *obs.Event) error {
		if ev.Type != "serve_access" {
			return nil
		}
		total++
		route := ev.Labels["route"]
		rs := byRoute[route]
		if rs == nil {
			rs = newRouteStats(route)
			byRoute[route] = rs
			order = append(order, route)
		}
		rs.requests++
		rs.byStatus[int(ev.Data["status"])]++
		if ev.Data["shed"] == 1 {
			rs.shed++
		}
		if ev.Data["timeout"] == 1 {
			rs.timeouts++
		}
		rs.total.Observe(ev.Data["total_ms"])
		rs.queue.Observe(ev.Data["queue_ms"])
		if ev.Data["shed"] != 1 && ev.Data["timeout"] != 1 {
			rs.eval.Observe(ev.Data["eval_ms"])
		}
		return nil
	})
	if err != nil && (!errors.Is(err, io.ErrUnexpectedEOF) || total == 0) {
		return err
	}
	if total == 0 {
		return errors.New("no serve_access events in the log (serve with -access -events)")
	}

	fmt.Printf("%d access events across %d route(s)\n", total, len(order))
	sort.Strings(order)
	for _, route := range order {
		rs := byRoute[route]
		fmt.Printf("\n%s: %d requests (%d shed, %d timed out)\n", rs.route, rs.requests, rs.shed, rs.timeouts)
		statuses := make([]int, 0, len(rs.byStatus))
		for st := range rs.byStatus {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Printf("  status %d: %d\n", st, rs.byStatus[st])
		}
		for _, h := range []struct {
			name string
			hist *obs.Histogram
		}{{"total", rs.total}, {"queue", rs.queue}, {"eval", rs.eval}} {
			if h.hist.N == 0 {
				continue
			}
			fmt.Printf("  %-5s ms p50=%.4f p95=%.4f p99=%.4f (n=%d, histogram estimate)\n",
				h.name, h.hist.Quantile(0.50), h.hist.Quantile(0.95), h.hist.Quantile(0.99), h.hist.N)
		}
	}
	return nil
}

// runSLO implements "runlog slo [-p99 ms] [-availability frac] [run.jsonl]":
// it replays serve_access events through a burn-rate engine whose clock
// is the log's own wall_ms timeline, so window rotation happens exactly
// as it did (or would have) live.
func runSLO(args []string) error {
	fs := flag.NewFlagSet("runlog slo", flag.ContinueOnError)
	p99 := fs.Float64("p99", 100, "latency objective: p99 total latency in ms (0 disables)")
	avail := fs.Float64("availability", 0.999, "availability objective (0 disables)")
	jsonOut := fs.Bool("json", false, "emit the full slo.Report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return errors.New("at most one input file")
	}
	in, closeIn, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closeIn()

	rep, total, err := replaySLO(in, slo.Objectives{LatencyP99MS: *p99, Availability: *avail})
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSONReport(os.Stdout, rep)
	}
	fmt.Printf("replayed %d requests: %d ok, %d client errors, %d shed, %d timeouts, %d server errors, %d slow\n",
		total, rep.OK, rep.ClientErrors, rep.Shed, rep.Timeouts, rep.ServerErrors, rep.SlowRequests)
	for _, d := range []struct {
		name string
		dist slo.Dist
	}{{"total", rep.TotalMS}, {"queue", rep.QueueMS}, {"eval", rep.EvalMS}} {
		fmt.Printf("%-5s ms p50=%.4f p95=%.4f p99=%.4f max=%.4f\n",
			d.name, d.dist.P50MS, d.dist.P95MS, d.dist.P99MS, d.dist.MaxMS)
	}
	printReplayBurn := func(name string, w5, w1h, all *slo.Burn) {
		if all == nil {
			return
		}
		line := fmt.Sprintf("%-12s overall burn %.3f (bad %d/%d)", name, all.Rate, all.Bad, all.Requests)
		if w5 != nil && w1h != nil {
			line += fmt.Sprintf(", final windows 5m=%.3f 1h=%.3f", w5.Rate, w1h.Rate)
		}
		fmt.Println(line)
	}
	printReplayBurn("latency", rep.Window5m.Latency, rep.Window1h.Latency, rep.Overall.Latency)
	printReplayBurn("availability", rep.Window5m.Availability, rep.Window1h.Availability, rep.Overall.Availability)
	if br := slo.GateBreaches(rep); len(br) > 0 {
		fmt.Printf("verdict: BREACHED (%v)\n", br)
	} else {
		fmt.Println("verdict: within budget")
	}
	return nil
}

// replaySLO streams a JSONL event log into a fresh burn-rate engine,
// driving the engine's clock from the events' wall_ms stamps (relative
// to a fixed epoch) so the 5m/1h windows rotate on replay exactly as
// they did live. Returns the final evaluation and the number of
// serve_access events replayed.
func replaySLO(in io.Reader, obj slo.Objectives) (slo.Report, int, error) {
	eng := slo.NewEngine(obj)
	epoch := time.Unix(0, 0)
	now := epoch
	eng.SetClock(func() time.Time { return now })

	total := 0
	err := obs.ScanEvents(in, func(ev *obs.Event) error {
		if ev.Type != "serve_access" {
			return nil
		}
		total++
		now = epoch.Add(time.Duration(ev.WallMS * float64(time.Millisecond)))
		outcome := slo.OK
		switch {
		case ev.Data["shed"] == 1:
			outcome = slo.Shed
		case ev.Data["timeout"] == 1:
			outcome = slo.Timeout
		case ev.Data["status"] >= 500:
			outcome = slo.ServerError
		case ev.Data["status"] >= 400 && ev.Data["status"] < 500:
			outcome = slo.ClientError
		}
		eng.Record(outcome, ev.Data["queue_ms"], ev.Data["eval_ms"], ev.Data["total_ms"])
		return nil
	})
	if err != nil && (!errors.Is(err, io.ErrUnexpectedEOF) || total == 0) {
		return slo.Report{}, total, err
	}
	if total == 0 {
		return slo.Report{}, 0, errors.New("no serve_access events in the log (serve with -access -events)")
	}
	return eng.Report(), total, nil
}

func writeJSONReport(w io.Writer, rep slo.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
