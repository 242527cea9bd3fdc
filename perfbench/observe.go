package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wholegraph/internal/sim"
)

// span is one host-time interval around a call into the program. Parent
// is the index of the enclosing span, -1 at the top level.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// spans records host spans in memory.
type spans struct {
	t0   time.Time
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (s *spans) begin(name string) func() {
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{Name: name, Start: since(s.t0), Parent: parent})
	s.open = append(s.open, id)
	return func() {
		s.list[id].End = since(s.t0)
		s.open = s.open[:len(s.open)-1]
	}
}

// total sums the durations of the spans with the given names.
func (s *spans) total(names ...string) float64 {
	var sum float64
	for _, sp := range s.list {
		for _, n := range names {
			if sp.Name == n {
				sum += sp.End - sp.Start
			}
		}
	}
	return sum
}

// Device-time families: each busy interval's tag is mapped by its first
// dot-separated segment; segments not listed fall into "other".
var familyOf = map[string]string{
	"sample": "sample", "appendunique": "appendunique", "gather": "gather",
	"spmm": "spmm", "sddmm": "spmm", "segsoftmax": "spmm", "leakyrelu": "spmm",
	"linear": "linear", "gemm": "linear",
	"eltwise": "eltwise", "adam": "eltwise",
	"allreduce": "allreduce", "allgather": "allreduce",
	"featstore": "featstore", "topostore": "topostore",
	"ann": "ann", "serve": "serve", "infer": "infer",
	"mirror":     "mirror",
	"step-graph": "launch", "graph-launch": "launch",
}

func family(tag string) string {
	head, _, _ := strings.Cut(tag, ".")
	if f, ok := familyOf[head]; ok {
		return f
	}
	return "other"
}

// Idle causes: the wait.* tags keep their suffix, the store fault and
// collective waits their own names; everything else is "other". Chunked
// inference's wait.block and wait.gather are not listed: the public
// infer.Embeddings never chunks, so no workload reaches them.
var waitCauses = []string{"wait", "batch", "slot", "issue",
	"grad_sync", "comm", "pcie", "ipc", "featstore_fault", "featstore_wait",
	"topostore_fault", "topostore_wait", "other"}

func waitCause(tag string) string {
	switch {
	case tag == "wait":
		return "wait"
	case strings.HasPrefix(tag, "wait."):
		c := strings.TrimPrefix(tag, "wait.")
		for _, k := range waitCauses {
			if k == c {
				return c
			}
		}
		return "other"
	case tag == "grad-sync":
		return "grad_sync"
	case tag == "comm-wait":
		return "comm"
	case tag == "pcie", tag == "ipc":
		return tag
	case strings.HasPrefix(tag, "featstore."), strings.HasPrefix(tag, "topostore."):
		store, _, _ := strings.Cut(tag, ".")
		if strings.HasSuffix(tag, ".fault") {
			return store + "_fault"
		}
		return store + "_wait"
	}
	return "other"
}

// devTotals accumulates device counters and traced intervals across the
// set-up and the measured phase. Set-up and serving reset the machine
// between stages, so callers harvest before every Reset and after the
// last stage.
type devTotals struct {
	busy         map[string]*[2]float64 // family -> seconds on [compute, copy]
	idle         map[string]float64     // cause -> seconds
	comm         [2]float64             // collective transfer seconds by stream
	unattributed float64                // per-stream span not covered by busy or idle
	stats        sim.DeviceStats        // summed over devices and harvests
	devices      int
}

func newDevTotals() *devTotals {
	return &devTotals{busy: map[string]*[2]float64{}, idle: map[string]float64{}}
}

func (a *devTotals) harvest(devs []*sim.Device) {
	a.devices = len(devs)
	for _, d := range devs {
		s := d.Stats
		a.stats.Kernels += s.Kernels
		a.stats.FLOPs += s.FLOPs
		a.stats.LocalBytes += s.LocalBytes
		a.stats.RemoteBytes += s.RemoteBytes
		a.stats.HostBytes += s.HostBytes
		a.stats.BusySeconds += s.BusySeconds
		a.stats.IdleSeconds += s.IdleSeconds
		a.stats.CopyBusySeconds += s.CopyBusySeconds
		a.stats.CopyIdleSeconds += s.CopyIdleSeconds
		a.stats.NVLinkTxBytes += s.NVLinkTxBytes
		a.stats.IBTxBytes += s.IBTxBytes
		a.stats.CommSeconds += s.CommSeconds
		a.stats.GraphLaunches += s.GraphLaunches
		a.stats.GraphKernels += s.GraphKernels
		a.unattributed += d.StreamNow(sim.StreamCompute) - s.BusySeconds - s.IdleSeconds
		a.unattributed += d.StreamNow(sim.StreamCopy) - s.CopyBusySeconds - s.CopyIdleSeconds
		for _, iv := range d.Trace() {
			if iv.Decision {
				continue
			}
			dt := iv.End - iv.Start
			st := 0
			if iv.Stream == sim.StreamCopy {
				st = 1
			}
			if !iv.Busy {
				a.idle[waitCause(iv.Tag)] += dt
				continue
			}
			if iv.Comm {
				a.comm[st] += dt
			}
			f := family(iv.Tag)
			if a.busy[f] == nil {
				a.busy[f] = new([2]float64)
			}
			a.busy[f][st] += dt
		}
	}
}

func (a *devTotals) busyMs(fams ...string) float64 {
	var s float64
	for _, f := range fams {
		if b := a.busy[f]; b != nil {
			s += b[0] + b[1]
		}
	}
	return s * 1e3
}

// observer is the traced run's instrumentation: host spans plus device
// totals. A nil *observer is the untraced run.
type observer struct {
	sp  *spans
	dev *devTotals
}

func (o *observer) begin(name string) func() {
	if o == nil {
		return func() {}
	}
	return o.sp.begin(name)
}

// trace turns tracing on for every device of m, so that set-up stages
// (infer.Embeddings, ann.Build, the stores' IPC exchange) are traced too.
func (o *observer) trace(m *sim.Machine) {
	if o != nil {
		for _, d := range m.Devs {
			d.Tracing = true
		}
	}
}

// harvest folds in what devs counted and traced since the last machine
// reset.
func (o *observer) harvest(devs []*sim.Device) {
	if o != nil {
		o.dev.harvest(devs)
	}
}

// cpuPackages are the packages host CPU is attributed to; samples whose
// stack holds no frame of the program are "runtime" (GC, scheduler, the
// benchmark itself).
var cpuPackages = []string{"dataset", "graph", "core", "wholemem", "sampling", "unique",
	"gather", "cache", "blockcache", "featstore", "topostore", "tensor", "autograd", "nn",
	"spops", "gnn", "train", "sched", "sim", "nccl", "infer", "ann", "serve", "runtime"}

// perLayer runs the workload twice: untraced, then with every device
// tracing from set-up on, host spans around each public call and a CPU
// profile. The traced run's virtual results and the counters read through
// the public API must equal the untraced run's bit for bit; the difference
// in host seconds of the measured phase is the tracing overhead. Spans, device totals and CPU attribution are written to out.
func perLayer(w *workload, seed int64, t *tally, stamp map[string]any, out string) (*report, error) {
	inst, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, err := inst.measure(t, nil)
	if err != nil {
		return nil, err
	}
	inst = nil
	runtime.GC()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ob := &observer{sp: newSpans(), dev: newDevTotals()}
	inst, err = w.setup(seed, ob)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	traced, err := inst.measure(t, ob)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	cpu, err := cpuByPackage(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	moved := func(name string, untraced, traced float64) {
		t.check(math.Float64bits(untraced) == math.Float64bits(traced),
			"tracing moved %s: %v untraced, %v traced", name, untraced, traced)
	}
	moved("virtual_ms", plain.virtualMs, traced.virtualMs)
	moved("ops_per_s", plain.opsPerS, traced.opsPerS)
	for _, r := range [][2]*report{{plain.result, traced.result}, {plain.layers, traced.layers}} {
		for _, n := range r[0].names {
			moved(n, r[0].m[n].Value, r[1].m[n].Value)
		}
	}

	rep := newReport()
	for _, n := range traced.result.names {
		rep.set("result."+n, traced.result.m[n].Unit, traced.result.m[n].Value)
	}
	rep.set("bench.trace_overhead_s", "s", traced.hostTotal-plain.hostTotal)
	rep.set("bench.untraced_host_s", "s", plain.hostTotal)
	hwm, err := procStatusMiB("VmHWM")
	if err != nil {
		return nil, err
	}
	rep.set("bench.peak_rss_mib", "MiB", hwm)
	for _, n := range traced.layers.names {
		rep.set(n, traced.layers.m[n].Unit, traced.layers.m[n].Value)
	}

	d := ob.dev
	st := d.stats
	rep.set("sim.kernels", "count", float64(st.Kernels))
	rep.set("sim.flops_g", "GFLOP", st.FLOPs/1e9)
	rep.set("sim.graph_launches", "count", float64(st.GraphLaunches))
	rep.set("sim.compute_busy_ms", "ms", st.BusySeconds*1e3)
	rep.set("sim.copy_busy_ms", "ms", st.CopyBusySeconds*1e3)
	rep.set("sim.compute_idle_ms", "ms", st.IdleSeconds*1e3)
	rep.set("sim.copy_idle_ms", "ms", st.CopyIdleSeconds*1e3)
	rep.set("sim.unattributed_ms", "ms", d.unattributed*1e3)
	for _, c := range waitCauses {
		rep.set("sim.wait."+c+"_ms", "ms", d.idle[c]*1e3)
	}
	rep.set("nccl.nvlink_gb", "GB", st.NVLinkTxBytes/1e9)
	rep.set("nccl.ib_gb", "GB", st.IBTxBytes/1e9)
	rep.set("nccl.comm_ms", "ms", st.CommSeconds*1e3)
	rep.set("nccl.compute_stream_ms", "ms", d.comm[0]*1e3)
	rep.set("nccl.copy_stream_ms", "ms", d.comm[1]*1e3)
	rep.set("sampling.busy_ms", "ms", d.busyMs("sample"))
	rep.set("unique.busy_ms", "ms", d.busyMs("appendunique"))
	rep.set("gather.busy_ms", "ms", d.busyMs("gather"))
	// Device memory traffic by where the bytes lived; feature gathers are
	// most of it on every workload but serve-retrieval (see ann.remote_gb).
	rep.set("gather.local_gb", "GB", st.LocalBytes/1e9)
	rep.set("gather.remote_gb", "GB", st.RemoteBytes/1e9)
	rep.set("gather.host_gb", "GB", st.HostBytes/1e9)
	rep.set("spops.busy_ms", "ms", d.busyMs("spmm"))
	rep.set("nn.busy_ms", "ms", d.busyMs("linear", "eltwise"))
	rep.set("ann.search_busy_ms", "ms", d.busyMs("ann"))
	rep.set("serve.busy_ms", "ms", d.busyMs("serve"))
	rep.set("infer.busy_ms", "ms", d.busyMs("infer"))
	rep.set("train.mirror_busy_ms", "ms", d.busyMs("mirror"))
	rep.set("sim.graph_launch_ms", "ms", d.busyMs("launch"))
	rep.set("sim.other_busy_ms", "ms", d.busyMs("other"))
	rep.set("featstore.fault_ms", "ms", d.idle["featstore_fault"]*1e3)
	rep.set("topostore.fault_ms", "ms", d.idle["topostore_fault"]*1e3)

	sp := ob.sp
	rep.set("dataset.gen_host_s", "s", sp.total("dataset.Generate", "dataset.GenerateOutOfCore"))
	rep.set("store.build_host_s", "s", sp.total("train.New", "serve.New", "core.NewStore"))
	rep.set("infer.embed_host_s", "s", sp.total("infer.Embeddings"))
	rep.set("ann.build_host_s", "s", sp.total("ann.Build"))
	rep.set("serve.run_host_s", "s", sp.total("serve.Run"))
	rep.set("train.epoch_host_s", "s", sp.total("train.RunEpoch"))
	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, p := range cpuPackages {
		share := 0.0
		if cpuTotal > 0 {
			share = cpu[p] / cpuTotal
		}
		rep.set(p+".cpu_share", "ratio", share)
	}
	fmt.Println("per-layer metrics (traced run):")

	if err := writeTrace(out, w.name, seed, stamp, rep, sp, d, cpu); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeTrace writes the traced run's spans, device busy/idle breakdown,
// CPU attribution and per-layer metrics as one JSON file.
func writeTrace(dir, name string, seed int64, stamp map[string]any, rep *report, sp *spans, d *devTotals, cpu map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	busy := map[string]map[string]float64{}
	for f, b := range d.busy {
		busy[f] = map[string]float64{"compute_s": b[0], "copy_s": b[1]}
	}
	doc := map[string]any{
		"stamp":          stamp,
		"metrics":        rep.m,
		"spans":          sp.list,
		"device_busy":    busy,
		"device_idle_s":  d.idle,
		"devices":        d.devices,
		"cpu_profile_ns": cpu,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}
