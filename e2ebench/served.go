package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"viator/internal/serve"
)

const (
	servedHorizon = 20.0 // sim seconds: twice the stock S1 horizon
	servedRuns    = 3    // runs per repetition, one after another
	heapProbeAt   = 0.9  // share of the horizon at which live heap is read
	publishEvery  = 0.5  // sim seconds between published snapshots: the server's default
)

// prepareServed POSTs S1 specs with a stretched horizon to an in-process
// live server at pace 0, one run after another, with one stream
// subscriber reading every line and one open-loop scraper reading
// /metrics and the current run's status once per published snapshot
// (see publications). The benchmark seed expands to
// servedRuns simulation seeds, so one repetition averages over several
// trajectories. Each repetition gets a fresh server, so every
// repetition renders the same runs.
func prepareServed(e *env) (func(*tracer) (*repOut, error), error) {
	horizon := servedHorizon
	if e.smoke {
		horizon = 2
	}
	spec, err := loadSpec(e.root, "s1.json", map[string]any{"horizon": horizon})
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, seed := range expandSeed(e.seed, servedRuns) {
		body, err := json.Marshal(map[string]any{"spec": json.RawMessage(spec), "seed": seed})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return func(tr *tracer) (*repOut, error) { return servedRep(tr, bodies, horizon) }, nil
}

// expandSeed derives n independent simulation seeds from one benchmark
// seed with the splitmix64 sequence.
func expandSeed(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = z ^ (z >> 31)
	}
	return out
}

// publications is the served workload's serve.Pacer. The server calls
// Pace on a run's driver goroutine after each published snapshot; Pace
// never waits, so runs free-run as at pace 0. It does two things there.
// Once per run, at the first snapshot at or past the probe time, it reads
// the live heap while the driver is parked, so the simulation does not
// advance during the forced collection and its time can be taken out of
// run_s. And it hands every snapshot to the scraper as a due time: the
// scraper reads each snapshot once, the rate a scraper polling at the
// publication period would see at any pace, so the number of scrapes is
// fixed by simulated time rather than wall time.
type publications struct {
	mu        sync.Mutex
	run       int     // 1-based index of the current run
	sim       float64 // sim time of the current run's last snapshot
	probeAt   float64
	probed    bool
	heaps     []float64
	probeTime time.Duration // wall time spent in probes, with the driver parked
	dropped   int           // snapshots the scraper's queue had no room for

	due chan scrapeDue
}

// scrapeDue is one snapshot's scrape: when it was published, and of which run.
type scrapeDue struct {
	at  time.Time
	run int
}

func newPublications(horizon float64, queue int) *publications {
	// Probe no later than the last snapshot before the horizon; the
	// driver does not pace after the final step.
	return &publications{probeAt: min(heapProbeAt*horizon, horizon-publishEvery), due: make(chan scrapeDue, queue)}
}

// next starts counting the windows of run k. Runs are sequential, so the
// previous run's driver has stopped pacing.
func (p *publications) next(k int) {
	p.mu.Lock()
	p.run, p.sim, p.probed = k, 0, false
	p.mu.Unlock()
}

func (p *publications) Pace(simDelta float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sim += simDelta
	if !p.probed && p.sim >= p.probeAt {
		p.probed = true
		t := time.Now()
		p.heaps = append(p.heaps, float64(liveHeap()))
		p.probeTime += time.Since(t)
	}
	select {
	case p.due <- scrapeDue{time.Now(), p.run}:
	default:
		p.dropped++
	}
}

// streamStatus is the part of a "kind":"status" stream line the load
// generator reads.
type streamStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Delivered uint64 `json:"delivered"`
	Lost      uint64 `json:"lost"`
}

// httpLoad counts the requests of one repetition; the scraper goroutine
// and the main goroutine both add to it.
type httpLoad struct {
	mu     sync.Mutex
	ops    int
	failed int
}

func (l *httpLoad) note(err error, code int) {
	l.mu.Lock()
	l.ops++
	if err != nil || code < 200 || code > 299 {
		l.failed++
	}
	l.mu.Unlock()
}

// get fetches url and returns its body; a transport error or non-2xx
// status is counted as a failed operation and returned as an error.
func (l *httpLoad) get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		l.note(err, 0)
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	l.note(err, resp.StatusCode)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

func servedRep(tr *tracer, bodies [][]byte, horizon float64) (*repOut, error) {
	o := &repOut{counts: map[string]float64{}}
	// Every snapshot of every run fits the scraper's queue, so a slow
	// scraper makes requests late but never skips one.
	pub := newPublications(horizon, len(bodies)*(int(horizon/publishEvery)+1))
	srv := serve.New(serve.Config{Pacer: pub, PublishEvery: publishEvery})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() { defer close(served); _ = hs.Serve(ln) }() // returns ErrServerClosed after Close
	defer func() { hs.Close(); <-served }()
	base := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	load := &httpLoad{}
	root := tr.begin("rep", -1)

	// Subscribe before the first run exists so the stream carries every
	// line of every run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream", nil)
	if err != nil {
		return nil, err
	}
	stream, err := transport.RoundTrip(req)
	load.note(err, statusOf(stream))
	if err != nil {
		return nil, err
	}
	defer stream.Body.Close()
	done := make(chan streamStatus, len(bodies))
	var sr streamResult
	go func() {
		sr = readStream(stream.Body, len(bodies), done)
		close(done)
	}()

	var m meter
	var finals []streamStatus
	m.begin()
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		scrape(tr, root, client, base, pub.due, load, o)
	}()
	for k, body := range bodies {
		id := fmt.Sprintf("r%d", k+1) // a fresh server numbers its runs from r1
		pub.next(k + 1)
		t0 := time.Now()
		sp := tr.begin("http_start", root)
		resp, err := client.Post(base+"/api/v1/runs", "application/json", bytes.NewReader(body))
		tr.end(sp)
		load.note(err, statusOf(resp))
		if err != nil {
			o.failures = append(o.failures, "POST /api/v1/runs: "+err.Error())
			break
		}
		created, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			o.failures = append(o.failures, fmt.Sprintf("POST /api/v1/runs: %s %s", resp.Status, created))
			break
		}
		t1 := time.Now()
		o.setups = append(o.setups, t1.Sub(t0).Seconds())
		final, ok := <-done
		o.run += time.Since(t1)
		if !ok {
			o.failures = append(o.failures, "stream ended before run "+id+" was done")
			break
		}
		if final.ID != id {
			o.failures = append(o.failures, fmt.Sprintf("stream reported run %s done while %s was running", final.ID, id))
			break
		}
		finals = append(finals, final)
	}
	// Close the scraper's queue once every driver has sealed its run and
	// stopped pacing, including one the loop above gave up on.
	for k := range bodies {
		if run, ok := srv.Get(fmt.Sprintf("r%d", k+1)); ok {
			run.Wait()
		}
	}
	close(pub.due)
	<-scraped
	m.end(o)
	cancel()
	for range done { // closed once the reader has returned and set sr
	}
	if sr.err != nil && len(finals) < len(bodies) {
		o.failures = append(o.failures, "stream: "+sr.err.Error())
	}
	// The probes' forced collections ran with every driver parked: they
	// are the benchmark's work, not the runs'.
	o.run -= pub.probeTime
	o.gcCycles -= uint32(len(pub.heaps))
	o.liveHeap = uint64(median(pub.heaps))
	if len(pub.heaps) != len(finals) {
		o.failures = append(o.failures, fmt.Sprintf("%d live-heap probes for %d runs", len(pub.heaps), len(finals)))
	}
	if pub.dropped > 0 {
		o.failures = append(o.failures, fmt.Sprintf("scraper queue dropped %d snapshots", pub.dropped))
	}

	var tables strings.Builder
	for k := range finals {
		id := fmt.Sprintf("r%d", k+1)
		var result serve.RunResult
		b, err := load.get(client, base+"/api/v1/runs/"+id+"/result")
		if err == nil {
			err = json.Unmarshal(b, &result)
		}
		if err != nil {
			o.failures = append(o.failures, id+" result: "+err.Error())
			continue
		}
		tables.WriteString(result.Table)
		o.failures = append(o.failures, verdictFailures(result.Verdicts)...)
		if !result.Pass && len(result.Verdicts) == 0 {
			o.failures = append(o.failures, id+" did not pass")
		}
		if finals[k].State != serve.StateDone {
			o.failures = append(o.failures, id+" ended in state "+finals[k].State)
		}
		o.counts["viator.shuttles_delivered"] += float64(finals[k].Delivered)
		o.counts["viator.shuttles_lost"] += float64(finals[k].Lost)
	}
	prom, err := load.get(client, base+"/metrics")
	if err != nil {
		o.failures = append(o.failures, "final scrape: "+err.Error())
	}
	tr.end(root)

	o.output = tables.String()
	o.counts["serve.stream_lines"] = float64(sr.lines)
	o.counts["serve.scrapes"] = float64(o.scrapes)
	last := seriesLast(prom)
	seriesCounts(last, o.counts)
	o.counts["mobility.links_up"] = last["links_up"]
	o.ops, o.opsFailed = load.ops, load.failed
	return o, nil
}

func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

// streamResult is what the stream subscriber saw.
type streamResult struct {
	lines int
	err   error
}

// readStream counts every stream line until runs runs are done, sending
// each run's final status line on done.
func readStream(r io.Reader, runs int, done chan<- streamStatus) streamResult {
	var res streamResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	statusPrefix := []byte(`{"kind":"status"`)
	for sc.Scan() {
		res.lines++
		if !bytes.HasPrefix(sc.Bytes(), statusPrefix) {
			continue
		}
		var st streamStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			res.err = err
			return res
		}
		if st.State == serve.StateDone || st.State == serve.StateStopped {
			done <- st
			if runs--; runs == 0 {
				return res
			}
		}
	}
	res.err = sc.Err()
	if res.err == nil {
		res.err = io.ErrUnexpectedEOF
	}
	return res
}

// scrape is the open-loop scraper. For every published snapshot it GETs
// /metrics, timed from when the snapshot was published so a stall counts
// against every request it delays, then the snapshot's run status, timed
// from when it was sent. It returns when the queue is closed and drained.
func scrape(tr *tracer, parent int, c *http.Client, base string, due <-chan scrapeDue, load *httpLoad, o *repOut) {
	for d := range due {
		o.scrapeLate = append(o.scrapeLate, time.Since(d.at))
		o.scrapes++
		_, _ = load.get(c, base+"/metrics") // failures are counted by get
		tr.add("http_metrics", parent, d.at, time.Now())
		t := time.Now()
		_, _ = load.get(c, fmt.Sprintf("%s/api/v1/runs/r%d", base, d.run))
		tr.add("http_status", parent, t, time.Now())
	}
}
