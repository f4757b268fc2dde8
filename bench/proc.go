package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rationality/internal/service"
	"rationality/internal/transport"
)

// env owns everything a run leaves behind: the built authority binary's
// location, the scratch directory and the live child processes. close is the
// one place children are reaped and scratch is removed, on every exit path.
type env struct {
	binary string // the built cmd/authority
	root   string // scratch directory for this run, removed on close

	mu        sync.Mutex
	children  map[*authority]struct{}
	handedOut map[string]bool // addresses freeAddr has returned
	dirSeq    int
}

// buildDir is where build outputs and scratch live, inside the checkout and
// named in .gitignore. The driver points CARGO_TARGET_DIR at the same name.
const buildDir = ".bench_build"

// newEnv builds cmd/authority from the module in the working directory and
// makes the run's scratch directory. It reports how long the build took.
func newEnv(ctx context.Context) (*env, time.Duration, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, 0, fmt.Errorf("run from the repository root (no go.mod here): %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, 0, err
	}
	binary, err := filepath.Abs(filepath.Join(buildDir, "authority"))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", binary, "./cmd/authority")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building cmd/authority: %w\n%s", err, out)
	}
	took := time.Since(start)
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, 0, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, 0, err
	}
	return &env{binary: binary, root: root, children: make(map[*authority]struct{}), handedOut: make(map[string]bool)}, took, nil
}

// close kills every child still running, waits for each, and removes the
// scratch directory.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*authority, 0, len(e.children))
	for a := range e.children {
		live = append(live, a)
	}
	e.mu.Unlock()
	for _, a := range live {
		a.kill()
	}
	os.RemoveAll(e.root)
}

// tempDir makes a fresh directory under the run's scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirSeq++
	n := e.dirSeq
	e.mu.Unlock()
	dir := filepath.Join(e.root, fmt.Sprintf("%s-%d", prefix, n))
	return dir, os.MkdirAll(dir, 0o755)
}

// freeAddr asks the kernel for a free loopback port. The listener is closed
// before the child binds the port; the window is a few milliseconds on a box
// the benchmark has to itself. The kernel may offer a just-closed port again
// at once, so no address is handed out twice in a run.
func (e *env) freeAddr() (string, error) {
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := l.Addr().String()
		l.Close()
		e.mu.Lock()
		fresh := !e.handedOut[addr]
		e.handedOut[addr] = true
		e.mu.Unlock()
		if fresh {
			return addr, nil
		}
	}
}

// authority is one running `authority verifier` process.
type authority struct {
	env   *env
	id    string
	dir   string // -persist directory
	addr  string // service port
	admin string // operator plane
	extra []string

	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been waited for
}

// startAuthority launches a verifier the way production would run it:
// persisted, 4096-entry cache, default fsync cadence and workers, operator
// plane on. extra carries the per-workload flags (admission, keys, peers).
func (e *env) startAuthority(id, dir, addr, admin string, extra ...string) (*authority, error) {
	a := &authority{env: e, id: id, dir: dir, addr: addr, admin: admin, extra: extra}
	return a, a.start()
}

func (a *authority) start() error {
	args := append([]string{"verifier",
		"-id", a.id,
		"-listen", a.addr,
		"-persist", a.dir,
		"-cache-size", "4096",
		"-admin", a.admin,
	}, a.extra...)
	logFile, err := os.OpenFile(filepath.Join(a.dir, "authority.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close() // the child holds its own descriptor
	a.cmd = exec.Command(a.env.binary, args...)
	a.cmd.Stdout = logFile
	a.cmd.Stderr = logFile
	if err := a.cmd.Start(); err != nil {
		return fmt.Errorf("starting authority %s: %w", a.id, err)
	}
	a.done = make(chan struct{})
	a.env.mu.Lock()
	a.env.children[a] = struct{}{}
	a.env.mu.Unlock()
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // exit status is judged by the caller of stop
		close(done)
	}(a.cmd, a.done)
	return nil
}

func (a *authority) pid() int { return a.cmd.Process.Pid }

// stop drains the process with SIGTERM, as an operator would, and waits. A
// process that has not exited after ten seconds is killed and reported.
func (a *authority) stop() error {
	if a.cmd == nil {
		return nil
	}
	_ = a.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: done closes
	select {
	case <-a.done:
	case <-time.After(10 * time.Second):
		a.kill()
		return fmt.Errorf("authority %s ignored SIGTERM for 10s; killed\n%s", a.id, a.logTail())
	}
	a.forget()
	if code := a.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("authority %s exited with code %d\n%s", a.id, code, a.logTail())
	}
	return nil
}

func (a *authority) kill() {
	if a.cmd == nil || a.cmd.Process == nil {
		return
	}
	_ = a.cmd.Process.Kill() // already-exited is fine
	<-a.done
	a.forget()
}

func (a *authority) forget() {
	a.env.mu.Lock()
	delete(a.env.children, a)
	a.env.mu.Unlock()
}

func (a *authority) logTail() string {
	data, err := os.ReadFile(filepath.Join(a.dir, "authority.log"))
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// waitUp dials the service port until the listener answers. It polls every
// half millisecond: a refused loopback connect returns at once, so a start
// time measured through it is accurate to the poll interval.
func (a *authority) waitUp(ctx context.Context) error {
	c, err := a.dialWhenUp(ctx)
	if err != nil {
		return err
	}
	return c.Close()
}

func (a *authority) dialWhenUp(ctx context.Context) (*transport.TCPClient, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := transport.DialTCP(a.addr, time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case <-a.done:
			return nil, fmt.Errorf("authority %s exited during start-up\n%s", a.id, a.logTail())
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("authority %s not listening on %s after 15s: %w\n%s", a.id, a.addr, err, a.logTail())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stats fetches the service-stats snapshot over the wire.
func fetchStats(ctx context.Context, c transport.Client) (service.Stats, error) {
	req, err := transport.NewMessage(service.MsgServiceStats, struct{}{})
	if err != nil {
		return service.Stats{}, err
	}
	resp, err := c.Call(ctx, req)
	if err != nil {
		return service.Stats{}, fmt.Errorf("service-stats: %w", err)
	}
	return parseStats(resp)
}

func parseStats(resp transport.Message) (service.Stats, error) {
	var sr service.StatsResponse
	if err := resp.Decode(&sr); err != nil {
		return service.Stats{}, fmt.Errorf("service-stats reply: %w", err)
	}
	return sr.Stats, nil
}

// cpuTimes is a process's consumed CPU. User and Sys come from
// /proc/<pid>/stat at clock-tick resolution (10 ms); Total, when the kernel
// keeps schedstat, is the nanosecond run time summed over the process's
// threads and is what per-verdict costs are computed from.
type cpuTimes struct {
	User, Sys, Total time.Duration
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{User: c.User - o.User, Sys: c.Sys - o.Sys, Total: c.Total - o.Total}
}

func (c cpuTimes) add(o cpuTimes) cpuTimes {
	return cpuTimes{User: c.User + o.User, Sys: c.Sys + o.Sys, Total: c.Total + o.Total}
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func readCPU(pid int) (cpuTimes, error) {
	proc := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(proc, "stat"))
	if err != nil {
		return cpuTimes{}, err
	}
	utime, stime, err := parseProcStat(stat)
	if err != nil {
		return cpuTimes{}, err
	}
	c := cpuTimes{User: time.Duration(utime) * clockTick, Sys: time.Duration(stime) * clockTick}
	c.Total = c.User + c.Sys
	if tasks, err := filepath.Glob(filepath.Join(proc, "task", "*", "schedstat")); err == nil && len(tasks) > 0 {
		var ns uint64
		for _, t := range tasks {
			data, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			run, err := parseSchedstat(data)
			if err != nil {
				return cpuTimes{}, err
			}
			ns += run
		}
		if ns > 0 {
			c.Total = time.Duration(ns)
		}
	}
	return c, nil
}

// parseProcStat extracts utime and stime (fields 14 and 15, in clock ticks)
// from /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is field 3 (state); utime is field 14, stime field 15.
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	if utime, err = strconv.ParseUint(fields[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(fields[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseSchedstat returns the first field of a schedstat file: nanoseconds
// spent on a CPU.
func parseSchedstat(data []byte) (uint64, error) {
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, errors.New("schedstat: empty")
	}
	return strconv.ParseUint(fields[0], 10, 64)
}

// readSteal returns the clock ticks the hypervisor has run something else
// while this guest wanted a CPU, summed over CPUs; 0 where /proc/stat has no
// such column. A repetition with steal in it measured the neighbours too.
func readSteal() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(data)
}

// parseSteal extracts the eighth value of /proc/stat's aggregate "cpu" line.
func parseSteal(data []byte) uint64 {
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// readPeakRSS returns VmHWM, the process's peak resident set, in bytes.
func readPeakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	return parseProcStatus(data, "VmHWM")
}

// parseProcStatus reads one "<key>:  <n> kB" line of /proc/<pid>/status.
func parseProcStatus(data []byte, key string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", key, rest)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", key, err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// memStats are the runtime.MemStats counters the operator plane prints at the
// end of /debug/pprof/allocs?debug=1.
type memStats struct {
	Mallocs, TotalAlloc, NumGC uint64
}

func (m memStats) sub(o memStats) memStats {
	return memStats{Mallocs: m.Mallocs - o.Mallocs, TotalAlloc: m.TotalAlloc - o.TotalAlloc, NumGC: m.NumGC - o.NumGC}
}

func (m memStats) add(o memStats) memStats {
	return memStats{Mallocs: m.Mallocs + o.Mallocs, TotalAlloc: m.TotalAlloc + o.TotalAlloc, NumGC: m.NumGC + o.NumGC}
}

func (a *authority) fetchMemStats(ctx context.Context) (memStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+a.admin+"/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return memStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return memStats{}, fmt.Errorf("admin plane of %s: %w", a.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("admin plane of %s: %s", a.id, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(body)
}

// parseMemStats reads the "# Name = value" trailer of a debug=1 heap profile.
func parseMemStats(body []byte) (memStats, error) {
	var m memStats
	want := map[string]*uint64{"Mallocs": &m.Mallocs, "TotalAlloc": &m.TotalAlloc, "NumGC": &m.NumGC}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024) // PauseNs is one long line
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, value, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		if dst := want[name]; dst != nil {
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return memStats{}, fmt.Errorf("memstats %s: %w", name, err)
			}
			*dst = n
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return memStats{}, err
	}
	if found != len(want) {
		return memStats{}, fmt.Errorf("memstats: found %d of %d counters", found, len(want))
	}
	return m, nil
}

// calibrate hashes 64 KiB blocks on one thread for 100 ms and reports MB/s,
// so a slow moment of the shared box is visible beside each repetition's raw
// values.
func calibrate() float64 {
	block := make([]byte, 64*1024)
	start := time.Now()
	n := 0
	for time.Since(start) < 100*time.Millisecond {
		sum := sha256.Sum256(block)
		block[0] = sum[0]
		n++
	}
	return float64(n) * float64(len(block)) / 1e6 / time.Since(start).Seconds()
}
