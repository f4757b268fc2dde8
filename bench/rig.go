package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/quorum"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// The four workloads. Later issues refer to these names verbatim.
const (
	wlHot    = "hot-verify"
	wlFresh  = "fresh-verify"
	wlStream = "stream-mixed"
	wlPanel  = "panel-certify"
)

var workloadNames = []string{wlHot, wlFresh, wlStream, wlPanel}

// Roles number a repetition's request sources, so every source of a
// repetition draws its own sequence and makes its own fresh ids.
const (
	roleConn0 = iota
	roleConn1
	roleStreamProbe
	rolePanelProbe
	roleWirePass
	roleUnloadedHot
	roleUnloadedFresh
	roleStoreReplay
	rolesPerRep
)

// rig is one repetition's processes and connections. Single-server workloads
// run their traffic against `single` and keep `panel` for the certificate
// probe; panel-certify has no single server and its panel is the workload.
type rig struct {
	env    *env
	wl     string
	cat    *catalog
	rep    int
	single *authority
	panel  *panel
	// conns are the two load connections to the primary: the single server,
	// or panel member A.
	conns [2]*transport.TCPClient
}

func (r *rig) source(role int) *source {
	return newSource(r.cat, uint64(r.rep*rolesPerRep+role))
}

// primary lists the processes whose CPU and memory the workload is charged
// with: the ones its own traffic runs against.
func (r *rig) primary() []*authority {
	if r.single != nil {
		return []*authority{r.single}
	}
	return r.panel.members[:]
}

// primaryAddr is where unary and stream traffic goes.
func (r *rig) primaryAddr() string {
	if r.single != nil {
		return r.single.addr
	}
	return r.panel.members[0].addr
}

// restartTarget is the process the warm restart is timed on: the single
// server, or panel member C, the one that holds only replicated certificates.
func (r *rig) restartTarget() *authority {
	if r.single != nil {
		return r.single
	}
	return r.panel.members[2]
}

// setUp builds the catalog, starts the repetition's processes, connects and
// warms the primary with the whole catalog, checking every verdict.
func setUp(ctx context.Context, e *env, wl string, seed int64, rep int, failures *opLog) (*rig, error) {
	cat, err := buildCatalog(seed)
	if err != nil {
		return nil, err
	}
	r := &rig{env: e, wl: wl, cat: cat, rep: rep}
	if wl != wlPanel {
		extra := []string(nil)
		if wl == wlStream {
			// Admission on, with budgets no traffic here can exhaust: the
			// controller's bookkeeping runs, nothing is shed.
			extra = []string{"-admission-interactive", "1e7", "-admission-batch", "1e7"}
		}
		if r.single, err = startSingle(e, wl, extra); err != nil {
			return nil, err
		}
	}
	if r.panel, err = startPanel(ctx, e, seed, rep); err != nil {
		return nil, err
	}
	if r.single != nil {
		if err := r.single.waitUp(ctx); err != nil {
			return nil, err
		}
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	// Warm-up: every template once, in slot order, each checked.
	i := 0
	unaryLoop(ctx, r.conns[0], func() (core.VerifyRequest, bool) {
		e := cat.Entries[i]
		i++
		return e.req, e.Accept
	}, time.Time{}, catalogSize, failures, nil, "")
	if failures.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", failures.firstErr)
	}
	return r, nil
}

func startSingle(e *env, wl string, extra []string) (*authority, error) {
	dir, err := e.tempDir(wl)
	if err != nil {
		return nil, err
	}
	addr, err := e.freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := e.freeAddr()
	if err != nil {
		return nil, err
	}
	return e.startAuthority("bench-"+wl, dir, addr, admin, extra...)
}

// startPanel generates three seeded identities, starts members A, B and C,
// each allowlisting the other two and pulling from them every 250 ms with no
// jitter, in the default replication mode, and connects the generator.
func startPanel(ctx context.Context, e *env, seed int64, rep int) (*panel, error) {
	p := &panel{}
	rng := rand.New(rand.NewSource(seed*31 + int64(rep)))
	var dirs, addrs, admins [3]string
	var ids [3]string
	for i := range p.members {
		kp, err := identity.NewKeyPairFrom(rng)
		if err != nil {
			return nil, err
		}
		if dirs[i], err = e.tempDir("panel-" + string(rune('a'+i))); err != nil {
			return nil, err
		}
		if err := identity.SaveKeyFile(filepath.Join(dirs[i], "bench.key"), kp); err != nil {
			return nil, err
		}
		if addrs[i], err = e.freeAddr(); err != nil {
			return nil, err
		}
		if admins[i], err = e.freeAddr(); err != nil {
			return nil, err
		}
		ids[i] = string(kp.ID())
		p.keyset = append(p.keyset, kp.ID())
	}
	for i := range p.members {
		var peerKeys, peerAddrs []string
		for j := range p.members {
			if j != i {
				peerKeys = append(peerKeys, ids[j])
				peerAddrs = append(peerAddrs, addrs[j])
			}
		}
		var err error
		p.members[i], err = e.startAuthority("panel-"+string(rune('a'+i)), dirs[i], addrs[i], admins[i],
			"-key", filepath.Join(dirs[i], "bench.key"),
			"-peer-keys", strings.Join(peerKeys, ","),
			"-panel-keys", strings.Join(ids[:], ","),
			"-peers", strings.Join(peerAddrs, ","),
			"-sync-interval", "250ms",
			"-sync-jitter", "0",
		)
		if err != nil {
			return nil, err
		}
	}
	var up [3]string
	for i, m := range p.members {
		if err := m.waitUp(ctx); err != nil {
			return nil, err
		}
		up[i] = m.addr
	}
	return p, p.connect(up)
}

// connect (re)makes the generator's connections to the three members at the
// given addresses: the members' own, or relays in front of them.
func (p *panel) connect(addrs [3]string) error {
	p.closeClients()
	p.clients = p.clients[:0]
	dial := func(member int) (*transport.TCPClient, error) {
		c, err := transport.DialTCP(addrs[member], 5*time.Second)
		if err == nil {
			p.clients = append(p.clients, c)
		}
		return c, err
	}
	members := make([]quorum.Member, len(p.members))
	for i, m := range p.members {
		c, err := dial(i)
		if err != nil {
			return err
		}
		p.timed[i] = &timedClient{inner: c, log: &opLog{}}
		members[i] = quorum.Member{ID: m.id, Client: p.timed[i]}
	}
	var err error
	if p.certifier, err = quorum.NewCertifier(quorum.CertifierConfig{Members: members, Keyset: p.keyset}); err != nil {
		return err
	}
	if p.putA, err = dial(0); err != nil {
		return err
	}
	if p.getA, err = dial(0); err != nil {
		return err
	}
	p.getC, err = dial(2)
	return err
}

// connect (re)makes the two load connections to the primary.
func (r *rig) connect() error {
	for i := range r.conns {
		if r.conns[i] != nil {
			r.conns[i].Close()
		}
		c, err := transport.DialTCP(r.primaryAddr(), 5*time.Second)
		if err != nil {
			return err
		}
		r.conns[i] = c
	}
	return nil
}

// tearDown closes the connections and drains every process with SIGTERM.
func (r *rig) tearDown() error {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
	var first error
	if r.panel != nil {
		r.panel.closeClients()
		for _, m := range r.panel.members {
			if m != nil {
				if err := m.stop(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	if r.single != nil {
		if err := r.single.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshot is what the generator reads about the primary processes, and
// itself, at a phase boundary.
type snapshot struct {
	at    time.Time
	cpu   cpuTimes
	self  cpuTimes
	stats []service.Stats // one per primary process
	mem   memStats        // traced repetitions only
	io    uint64          // bytes the primaries sent to the storage layer
}

func (r *rig) snapshot(ctx context.Context, withMem bool) (snapshot, error) {
	s := snapshot{at: time.Now()}
	for i, a := range r.primary() {
		c, err := readCPU(a.pid())
		if err != nil {
			return s, err
		}
		s.cpu = s.cpu.add(c)
		if w, err := readWriteBytes(a.pid()); err == nil {
			s.io += w
		}
		client := transport.Client(r.conns[0])
		if r.single == nil {
			client = r.panel.clients[i]
		}
		st, err := fetchStats(ctx, client)
		if err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
		if withMem {
			m, err := a.fetchMemStats(ctx)
			if err != nil {
				return s, err
			}
			s.mem = s.mem.add(m)
		}
	}
	s.self = selfCPU()
	return s, nil
}

func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	c := cpuTimes{
		User: time.Duration(ru.Utime.Nano()),
		Sys:  time.Duration(ru.Stime.Nano()),
	}
	c.Total = c.User + c.Sys
	return c
}

// readWriteBytes returns write_bytes from /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func readWriteBytes(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			var n uint64
			_, err := fmt.Sscan(rest, &n)
			return n, err
		}
	}
	return 0, fmt.Errorf("proc io: no write_bytes line")
}

// repResult is one repetition's measurements.
type repResult struct {
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	Traced   bool               `json:"traced,omitempty"`
	E2E      map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"per_layer"`
	Samples  map[string]int     `json:"samples"`
	// Attempted and Failed count every checked operation of the repetition,
	// warm-up and probes included.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
	// mainLatencies are the latencies of the workload's main operation: the
	// unary verifies, or the certificates on panel-certify.
	mainLatencies []float64
}

// phaseLogs are the outcomes of a workload's own traffic.
type phaseLogs struct {
	unary   opLog // client-observed unary verifies, µs
	ttfv    opLog // stream time to first verdict, ms
	frames  int   // stream verdict frames delivered
	panel   *panelLogs
	src0    *source // connection 0's request source
	elapsed time.Duration
}

// mainPhase runs the workload's own traffic for the given time: two
// goroutines, each with its own connection and request source.
func (r *rig) mainPhase(ctx context.Context, seconds float64, tr *tracer) *phaseLogs {
	logs := &phaseLogs{}
	start := time.Now()
	until := start.Add(time.Duration(seconds * float64(time.Second)))
	switch r.wl {
	case wlPanel:
		logs.panel = r.panel.run(ctx, r.source(roleConn0), seconds, 0, tr, fmt.Sprintf("r%d-cert", r.rep))
	default:
		var wg sync.WaitGroup
		for i := range r.conns {
			src := r.source(roleConn0 + i)
			if i == 0 {
				logs.src0 = src
			}
			tag := fmt.Sprintf("r%d-c%d", r.rep, i)
			wg.Add(1)
			go func(c *transport.TCPClient) {
				defer wg.Done()
				switch {
				case r.wl == wlStream && c == r.conns[0]:
					streamLoop(ctx, c, src, until, 0, &logs.ttfv, &logs.frames, tr, tag)
				case r.wl == wlFresh:
					unaryLoop(ctx, c, src.freshRequest, until, 0, &logs.unary, tr, tag)
				default:
					unaryLoop(ctx, c, src.hotRequest, until, 0, &logs.unary, tr, tag)
				}
			}(r.conns[i])
		}
		wg.Wait()
	}
	logs.elapsed = time.Since(start)
	if logs.panel != nil {
		logs.elapsed = logs.panel.issuing
	}
	return logs
}

// warmRestart stops the restart target, starts it again on the same
// directory and times exec to the first correct reply; that reply must have
// been a cache hit, served from the replayed log without running a procedure.
func (r *rig) warmRestart(ctx context.Context, req core.VerifyRequest, want bool) (time.Duration, error) {
	a := r.restartTarget()
	if err := a.stop(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := a.start(); err != nil {
		return 0, err
	}
	c, err := a.dialWhenUp(ctx)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := verifyOnce(ctx, c, req, want); err != nil {
		return 0, fmt.Errorf("first request after restart: %w", err)
	}
	took := time.Since(start)
	st, err := fetchStats(ctx, c)
	if err != nil {
		return 0, err
	}
	if st.CacheHits != 1 || st.CacheMisses != 0 {
		return 0, fmt.Errorf("first request after restart was not a cache hit (hits=%d misses=%d): the log did not replay it",
			st.CacheHits, st.CacheMisses)
	}
	return took, nil
}
