package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every child runs in its own process group, and every live group is
// registered here, so that any exit path of the benchmark — normal,
// fatal, or a signal — can kill what it started, grandchildren included.
var groups = struct {
	sync.Mutex
	live map[int]bool
}{live: make(map[int]bool)}

func startGroup(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// Register under the lock so a concurrent killAllGroups either runs
	// before the start or sees the new group.
	groups.Lock()
	defer groups.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	groups.live[cmd.Process.Pid] = true
	return nil
}

// reapGroup is called once the group leader has been waited for: any
// straggler left in the group (a worker whose coordinator died) is
// killed, and the group is forgotten.
func reapGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH when the group is already empty
	groups.Lock()
	delete(groups.live, pgid)
	groups.Unlock()
}

func killAllGroups() {
	groups.Lock()
	defer groups.Unlock()
	for pgid := range groups.live {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

// procResult is what one finished child process cost.
type procResult struct {
	wall     time.Duration
	cpu      time.Duration // user+sys of the child and every descendant it reaped
	maxRSSKB int64         // peak RSS over the child and its reaped descendants
	stdout   []byte
	stderr   []byte
}

const unitTimeout = 90 * time.Second

// runProc runs one command to completion in its own process group and
// returns its cost. A non-zero exit or a timeout is an error; the
// captured stderr tail is folded into it.
func runProc(bin string, args ...string) (procResult, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := startGroup(cmd); err != nil {
		return procResult{}, err
	}
	pgid := cmd.Process.Pid
	timer := time.AfterFunc(unitTimeout, func() { _ = syscall.Kill(-pgid, syscall.SIGKILL) })
	werr := cmd.Wait()
	timedOut := !timer.Stop()
	res := procResult{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	reapGroup(pgid)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.cpu = tvDur(ru.Utime) + tvDur(ru.Stime)
		res.maxRSSKB = ru.Maxrss
	}
	switch {
	case timedOut:
		return res, fmt.Errorf("%s: timed out after %v", bin, unitTimeout)
	case werr != nil:
		return res, fmt.Errorf("%s: %w: %s", bin, werr, tail(errb.String(), 400))
	}
	return res, nil
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		s = "…" + s[len(s)-n:]
	}
	return s
}

// procCPU reads the CPU seconds a live process has been charged so far,
// its reaped children included (utime+stime+cutime+cstime of
// /proc/<pid>/stat). Used at the edges of the service window, when the
// daemon is idle and every job's workers have been reaped.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted from the
	// closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 15 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, k := range []int{11, 12, 13, 14} { // utime stime cutime cstime
		v, err := strconv.ParseInt(f[k], 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const userHZ = 100 // Linux reports these in USER_HZ, fixed at 100
	return float64(ticks) / userHZ, nil
}

// procKB reads a "Key:   N kB" line of /proc/meminfo or
// /proc/<pid>/status; 0 when the file or the key is missing.
func procKB(path, key string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// procPeakRSSMB reads VmHWM of a live process.
func procPeakRSSMB(pid int) float64 {
	return float64(procKB("/proc/"+strconv.Itoa(pid)+"/status", "VmHWM:")) / 1024
}
