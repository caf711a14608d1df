package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// The open-loop generator replays a call trace against an admission server
// on a fixed schedule: wall time = (model time − start) / rate. Admits are
// due at arrivals and each admitted call's release at its departure. A
// request is sent when due whether or not earlier ones have been answered;
// with every connection busy it waits in the generator's queue, and that
// wait counts. Every latency is taken
// from the request's due time, not its send time.

// stepSpec describes one open-loop step.
type stepSpec struct {
	url   string     // http://host:port of the server
	calls []sim.Call // sorted by arrival
	names []string   // node display names by id
	rate  float64    // model time units per wall second
	warm  float64    // requests due before this model time are not measured
	end   float64    // admits arriving at or after this model time are not sent
	conns int        // connections, one request in flight on each
	tr    *tracer    // records one span per request when non-nil
}

// stepResult is what one step measured. Latencies are in microseconds; a
// failed admit is +Inf, so it misses any limit.
type stepResult struct {
	admitLat   []float64
	lag        []float64
	backlogMax int
	// backlogFirst and backlogLast are the median backlog over the first
	// and the last quarter of the measured window.
	backlogFirst, backlogLast float64
	attempted, failed         int64
	admitsSent                int64
	admitted, alternates      int64
	blocked                   int64
	loopback                  bool // every connection's peer was a loopback address
	errors                    []string
}

// growing reports whether the backlog grew across the step: in the last
// quarter the median request found more than one extra request per
// connection queued ahead of it than in the first quarter. Medians keep a
// single stall of the host from counting as growth.
func (r *stepResult) growing(conns int) bool {
	return r.backlogLast > r.backlogFirst+float64(conns)
}

// reqKind tags a scheduled request.
type reqKind uint8

const (
	kAdmit reqKind = iota
	kRelease
)

// job is one scheduled request.
type job struct {
	due      time.Duration // since step start
	kind     reqKind
	idx      int // call index
	measured bool
}

// releaseHeap orders pending releases by due time.
type releaseHeap []job

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(job)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// queue is the generator's FIFO of due requests waiting for a connection.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []job
	head   int
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a job and returns the backlog it joined, itself included.
func (q *queue) push(j job) int {
	q.mu.Lock()
	q.items = append(q.items, j)
	n := len(q.items) - q.head
	q.mu.Unlock()
	q.cond.Signal()
	return n
}

// pop blocks for the next job; ok is false once the queue is closed and
// empty.
func (q *queue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return job{}, false
	}
	j := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return j, true
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// runStep executes one open-loop step and returns its measurements. It
// returns once every request it sent has been answered, including the
// releases of calls still in flight at the end, which are sent unmeasured
// as soon as the step's horizon passes.
func runStep(ctx context.Context, s stepSpec) (*stepResult, error) {
	if s.rate <= 0 || s.conns < 1 || len(s.calls) == 0 {
		return nil, fmt.Errorf("loadgen: bad step (rate %v, conns %d, %d calls)", s.rate, s.conns, len(s.calls))
	}
	wall := func(model float64) time.Duration {
		return time.Duration(model / s.rate * float64(time.Second))
	}
	first := s.calls[0].Arrival
	due := func(model float64) time.Duration { return wall(model - first) }

	res := &stepResult{loopback: true}
	var mu sync.Mutex // guards res, pending, outstanding
	pending := &releaseHeap{}
	outstanding := 0 // admits sent and not yet answered
	q := newQueue()

	type sample struct {
		at      time.Duration
		backlog int
	}
	var samples []sample

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(s.conns)
	for c := 0; c < s.conns; c++ {
		go func() {
			defer wg.Done()
			w := newWorker(s)
			defer w.closeIdle()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				sent := time.Now()
				admitted, status, err := w.send(ctx, j)
				done := time.Now()
				if s.tr != nil {
					// Requests overlap on the connections, so each is a
					// root span of its own, from due time to reply, keyed
					// by its call index.
					s.tr.record("loadgen.request."+j.kind.String(), 0, int64(j.idx), start.Add(j.due), done)
				}
				mu.Lock()
				res.attempted++
				if !w.loopback {
					res.loopback = false
				}
				failed := err != nil || status != http.StatusOK
				if failed {
					res.failed++
					if len(res.errors) < 5 {
						res.errors = append(res.errors, fmt.Sprintf("%v request %d: status %d, %v", j.kind, j.idx, status, err))
					}
				}
				if j.measured {
					res.lag = append(res.lag, float64(sent.Sub(start)-j.due)/1e3)
				}
				if j.kind == kAdmit {
					outstanding--
					lat := float64(done.Sub(start)-j.due) / 1e3
					if failed {
						lat = math.Inf(1)
					}
					if j.measured {
						res.admitLat = append(res.admitLat, lat)
					}
					if !failed && admitted.Admitted {
						res.admitted++
						if admitted.Alternate {
							res.alternates++
						}
						c := s.calls[j.idx]
						heap.Push(pending, job{due: due(c.Arrival + c.Holding), kind: kRelease, idx: j.idx,
							measured: c.Arrival+c.Holding >= s.warm && c.Arrival+c.Holding < s.end})
					} else if !failed {
						res.blocked++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Dispatcher: hand every request to the queue when it falls due.
	nextCall := 0
	endDue := due(s.end)
	warmDue := due(s.warm)
	dispatch := func(j job) {
		if j.kind == kAdmit {
			mu.Lock()
			outstanding++
			res.admitsSent++
			mu.Unlock()
		}
		n := q.push(j)
		mu.Lock()
		if j.measured {
			samples = append(samples, sample{at: j.due, backlog: n})
			if n > res.backlogMax {
				res.backlogMax = n
			}
		}
		mu.Unlock()
	}
	const none = time.Duration(math.MaxInt64)
	for {
		if err := ctx.Err(); err != nil {
			q.close()
			wg.Wait()
			return nil, err
		}
		// The earlier of the next admit and the earliest pending release
		// due before the horizon.
		next, from := none, -1
		if nextCall < len(s.calls) && s.calls[nextCall].Arrival < s.end {
			next, from = due(s.calls[nextCall].Arrival), 0
		}
		mu.Lock()
		if pending.Len() > 0 && (*pending)[0].due < endDue && (*pending)[0].due < next {
			next, from = (*pending)[0].due, 1
		}
		idle := outstanding == 0
		mu.Unlock()

		now := time.Since(start)
		if from < 0 {
			// Nothing left to schedule before the horizon; answers still
			// in flight may yet schedule releases.
			if now >= endDue && idle {
				break
			}
			nap(200 * time.Microsecond)
			continue
		}
		if next > now {
			nap(next - now - napSlack)
			continue
		}
		switch from {
		case 0:
			c := s.calls[nextCall]
			dispatch(job{due: next, kind: kAdmit, idx: nextCall, measured: c.Arrival >= s.warm})
			nextCall++
		case 1:
			mu.Lock()
			j := heap.Pop(pending).(job)
			mu.Unlock()
			dispatch(j)
		}
	}
	// Horizon passed and every admit answered: release what is still in
	// flight, unmeasured, then stop the connections.
	mu.Lock()
	for pending.Len() > 0 {
		j := heap.Pop(pending).(job)
		j.measured = false
		j.due = time.Since(start)
		q.push(j)
	}
	mu.Unlock()
	q.close()
	wg.Wait()

	if len(samples) > 0 {
		quarter := (endDue - warmDue) / 4
		var f, l []float64
		for _, sm := range samples {
			switch {
			case sm.at < warmDue+quarter:
				f = append(f, float64(sm.backlog))
			case sm.at >= endDue-quarter:
				l = append(l, float64(sm.backlog))
			}
		}
		res.backlogFirst, res.backlogLast = median(f), median(l)
	}
	return res, nil
}

// requestTimeout bounds one request's write and reply.
const requestTimeout = 10 * time.Second

// napSlack is how much later than asked a short sleep returns on Linux
// (the default timer slack plus wake-up); the dispatcher asks for that
// much less.
const napSlack = 60 * time.Microsecond

// nap sleeps for about d. The runtime's timers wake up to a millisecond
// late, which would make every request late by as much, so the
// dispatcher sleeps in nanosleep(2), which blocks only its own thread and
// wakes within tens of microseconds.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(max(d, 5*time.Microsecond)))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap; the loop re-checks the clock
}

// admitReply is the part of the admit response the generator reads.
type admitReply struct {
	Admitted, Alternate bool
}

// worker owns one keep-alive HTTP/1.1 connection. It writes requests and
// parses responses itself rather than going through http.Client, whose
// per-connection read and write goroutines would add two goroutine
// hand-offs to every request on the generator's side of the measurement.
type worker struct {
	s        stepSpec
	host     string
	conn     net.Conn
	rd       *bufio.Reader
	body     []byte // request body scratch
	req      []byte // request scratch
	resp     []byte // response body scratch
	loopback bool
}

func newWorker(s stepSpec) *worker {
	return &worker{s: s, host: strings.TrimPrefix(s.url, "http://"), loopback: true}
}

// dial (re)connects the worker and records whether the peer is loopback.
func (w *worker) dial(ctx context.Context) error {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", w.host)
	if err != nil {
		return err
	}
	if a, ok := c.RemoteAddr().(*net.TCPAddr); !ok || !a.IP.IsLoopback() {
		w.loopback = false
	}
	w.conn, w.rd = c, bufio.NewReaderSize(c, 4096)
	return nil
}

// send issues one request and returns the admit reply (admits only), the
// HTTP status and any transport error. A broken connection is redialled
// once for the next request.
func (w *worker) send(ctx context.Context, j job) (admitReply, int, error) {
	if w.conn == nil {
		if err := w.dial(ctx); err != nil {
			return admitReply{}, 0, err
		}
	}
	path, b := w.encode(j)
	r := append(w.req[:0], "POST "...)
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, w.host...)
	r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	r = strconv.AppendInt(r, int64(len(b)), 10)
	r = append(r, "\r\n\r\n"...)
	r = append(r, b...)
	w.req = r
	// A server that stops answering fails the request instead of hanging
	// the step.
	if err := w.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		w.closeIdle()
		return admitReply{}, 0, err
	}
	if _, err := w.conn.Write(r); err != nil {
		w.closeIdle()
		return admitReply{}, 0, err
	}
	status, body, err := w.readResponse()
	if err != nil {
		w.closeIdle()
		return admitReply{}, status, err
	}
	var ar admitReply
	if j.kind == kAdmit && status == http.StatusOK {
		// The control API encodes its replies compactly with
		// encoding/json, so the two flags appear exactly like this.
		ar.Admitted = bytes.Contains(body, []byte(`"admitted":true`))
		ar.Alternate = bytes.Contains(body, []byte(`"alternate":true`))
	}
	return ar, status, nil
}

// readResponse reads one HTTP/1.1 response. The control API's replies are
// small and always carry a Content-Length; anything else is an error and
// costs the connection.
func (w *worker) readResponse() (int, []byte, error) {
	line, err := w.rd.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, keep := -1, true
	for {
		h, err := w.rd.ReadSlice('\n')
		if err != nil {
			return status, nil, err
		}
		if len(bytes.TrimSpace(h)) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return status, nil, fmt.Errorf("bad header line %q", h)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return status, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Connection")) && bytes.EqualFold(v, []byte("close")):
			keep = false
		}
	}
	if length < 0 {
		return status, nil, errors.New("response without Content-Length")
	}
	if cap(w.resp) < length {
		w.resp = make([]byte, length)
	}
	body := w.resp[:length]
	if _, err := io.ReadFull(w.rd, body); err != nil {
		return status, nil, err
	}
	if !keep {
		w.closeIdle()
	}
	return status, body, nil
}

// encode renders a job's path and JSON body.
func (w *worker) encode(j job) (string, []byte) {
	s := w.s
	b := w.body[:0]
	var path string
	switch j.kind {
	case kAdmit:
		c := s.calls[j.idx]
		path = "/admit"
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(c.ID), 10)
		b = append(b, `,"from":`...)
		b = strconv.AppendQuote(b, s.names[c.Origin])
		b = append(b, `,"to":`...)
		b = strconv.AppendQuote(b, s.names[c.Dest])
		b = append(b, `,"at":`...)
		b = strconv.AppendFloat(b, c.Arrival, 'g', -1, 64)
		b = append(b, '}')
	case kRelease:
		c := s.calls[j.idx]
		path = "/release"
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(c.ID), 10)
		b = append(b, `,"at":`...)
		b = strconv.AppendFloat(b, c.Arrival+c.Holding, 'g', -1, 64)
		b = append(b, '}')
	}
	w.body = b
	return path, b
}

func (k reqKind) String() string {
	return [...]string{"admit", "release"}[k]
}

// closeIdle closes the worker's connection, if any.
func (w *worker) closeIdle() {
	if w.conn != nil {
		_ = w.conn.Close() // nothing is pending on it
		w.conn = nil
	}
}
