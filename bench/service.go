package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemon is one running omend process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	exited chan error
}

// freePort asks the kernel for a free loopback port. omend logs the
// address it was given, not the one it bound, so ":0" cannot be passed
// through; the small window between close and re-bind is covered by the
// retry in startDaemon.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots omend over dataDir and returns once /healthz
// answers ok.
func startDaemon(bin, dataDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{
			base:   fmt.Sprintf("http://127.0.0.1:%d", port),
			stderr: new(bytes.Buffer),
			exited: make(chan error, 1),
		}
		d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data", dataDir,
			"-max-running", "2", "-default-workers", "1")
		d.cmd.Stderr = d.stderr
		if err := startGroup(d.cmd); err != nil {
			return nil, err
		}
		go func() { d.exited <- d.cmd.Wait() }()
		if lastErr = d.awaitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.kill()
	}
	return nil, fmt.Errorf("omend did not come up: %w", lastErr)
}

func (d *daemon) awaitHealthy(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	client := &http.Client{Timeout: time.Second}
	var lastErr error = errors.New("no attempt made")
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("omend exited during boot: %v: %s", err, tail(d.stderr.String(), 300))
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
			err = fmt.Errorf("healthz: status %d %q", resp.StatusCode, h.Status)
		}
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return lastErr
}

// stop drains the daemon with SIGTERM and waits for it; a daemon that
// does not leave in time is killed and reported.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		reapGroup(d.cmd.Process.Pid)
		if err != nil {
			return fmt.Errorf("omend exit: %w: %s", err, tail(d.stderr.String(), 300))
		}
		return nil
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("omend did not drain within 15s of SIGTERM")
	}
}

func (d *daemon) kill() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	reapGroup(d.cmd.Process.Pid)
}

// svcClient is one closed-loop client on one keep-alive connection.
type svcClient struct {
	name string
	base string
	http *http.Client
}

func newSvcClient(name, base string) *svcClient {
	return &svcClient{name: name, base: base, http: &http.Client{
		Timeout: unitTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *svcClient) close() { c.http.CloseIdleConnections() }

// jobOutcome is one unit of service work: POST, follow the stream to
// done, fetch the result.
type jobOutcome struct {
	id         string
	postWall   time.Duration // POST sent → response read
	firstPoint time.Duration // POST sent → first point event
	pointTimes []time.Time   // receipt time of every point event
	wall       time.Duration // POST sent → result body read
	resultWall time.Duration // GET /result alone
	points     int
	final      jobView
	result     []byte
}

// jobView is the part of the service's job JSON the checks read.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Replayed  bool       `json:"replayed"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// submit POSTs a spec and decodes the job view.
func (c *svcClient) submit(body []byte) (jobView, int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobView{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return jobView{}, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, resp.StatusCode, err
	}
	var v jobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &v); err != nil {
			return v, resp.StatusCode, fmt.Errorf("submit: decode: %w", err)
		}
		return v, resp.StatusCode, nil
	}
	return v, resp.StatusCode, fmt.Errorf("submit: status %d: %s", resp.StatusCode, tail(string(raw), 200))
}

// runJob drives one job end to end. wantStatus is 202 for a job the
// daemon has not seen in this lifetime (fresh or replayed from disk).
func (c *svcClient) runJob(body []byte, wantStatus int) (jobOutcome, error) {
	var o jobOutcome
	t0 := time.Now()
	v, status, err := c.submit(body)
	o.postWall = time.Since(t0)
	if err != nil {
		return o, err
	}
	if status != wantStatus {
		return o, fmt.Errorf("submit: status %d, want %d", status, wantStatus)
	}
	o.id = v.ID

	resp, err := c.http.Get(c.base + "/v1/jobs/" + o.id + "/stream")
	if err != nil {
		return o, err
	}
	err = o.followStream(resp.Body, t0)
	resp.Body.Close()
	if err != nil {
		return o, err
	}
	if o.final.State != "done" {
		return o, fmt.Errorf("job %s ended %q: %s", short(o.id), o.final.State, o.final.Error)
	}

	t1 := time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + o.id + "/result")
	if err != nil {
		return o, err
	}
	o.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.resultWall = time.Since(t1)
	o.wall = time.Since(t0)
	if err != nil {
		return o, err
	}
	if resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("result: status %d: %s", resp.StatusCode, tail(string(o.result), 200))
	}
	return o, nil
}

// followStream reads the SSE stream to its done event.
func (o *jobOutcome) followStream(body io.Reader, t0 time.Time) error {
	r := bufio.NewReaderSize(body, 64<<10)
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if event == "point" {
				now := time.Now()
				if o.points == 0 {
					o.firstPoint = now.Sub(t0)
				}
				o.points++
				o.pointTimes = append(o.pointTimes, now)
			}
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "done":
				return json.Unmarshal([]byte(line[len("data: "):]), &o.final)
			case "error":
				return fmt.Errorf("stream error event: %s", line)
			}
		}
	}
}

// checkJob validates a job runJob saw through to "done" against its spec.
func checkJob(o jobOutcome, u unitSpec, wantReplayed bool) error {
	if o.final.Replayed != wantReplayed {
		return fmt.Errorf("job %s replayed=%v, want %v", short(o.id), o.final.Replayed, wantReplayed)
	}
	if o.points != u.NE {
		return fmt.Errorf("job %s streamed %d points, want %d", short(o.id), o.points, u.NE)
	}
	if _, err := checkSweep(o.result, u.NE); err != nil {
		return fmt.Errorf("job %s result: %w", short(o.id), err)
	}
	return nil
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
