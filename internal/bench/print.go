package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/tpcb"
)

// PrintFig7 renders the Figure 7 table (Kops/s per workload x backend).
func PrintFig7(w io.Writer, rows []Fig7Row) {
	backends := []BackendKind{JPDT, JPFA, FS, PCJ}
	fmt.Fprintf(w, "Figure 7 — YCSB throughput (Kops/s)\n")
	fmt.Fprintf(w, "%-10s", "workload")
	for _, b := range backends {
		fmt.Fprintf(w, "%12s", b)
	}
	fmt.Fprintln(w)
	byWL := map[string]map[BackendKind]float64{}
	var wls []string
	for _, r := range rows {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[BackendKind]float64{}
			wls = append(wls, r.Workload)
		}
		byWL[r.Workload][r.Backend] = r.KopsSec
	}
	for _, wl := range wls {
		fmt.Fprintf(w, "%-10s", wl)
		for _, b := range backends {
			fmt.Fprintf(w, "%12.1f", byWL[wl][b])
		}
		fmt.Fprintln(w)
	}
	if jp, fs := byWL["A"][JPDT], byWL["A"][FS]; fs > 0 {
		fmt.Fprintf(w, "# YCSB-A: J-PDT/FS speedup = %.1fx", jp/fs)
		if pcj := byWL["A"][PCJ]; pcj > 0 {
			fmt.Fprintf(w, ", J-PDT/PCJ = %.1fx", jp/pcj)
		}
		if jf := byWL["A"][JPFA]; jf > 0 {
			fmt.Fprintf(w, ", J-PDT/J-PFA = %.2fx", jp/jf)
		}
		fmt.Fprintln(w)
	}
	// Persistence-primitive rates per operation, from the shared obs layer
	// (the accounting Table 3 does per data-structure op). NVMM-backed
	// backends only; the FS family never issues pwb/pfence.
	printed := false
	for _, r := range rows {
		if r.PWBPerOp == 0 && r.PFencePerOp == 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "# persistence per op: %-10s%-10s%10s%10s%14s\n",
				"workload", "backend", "pwb/op", "pfence/op", "coalesced/op")
			printed = true
		}
		// Commit-pipeline column: lines the FA flush set coalesced away.
		var coalescedPerOp float64
		if r.Stack != nil && r.Stack.FA != nil && r.Stack.Ops > 0 {
			coalescedPerOp = float64(r.Stack.FA.SavedLines) / float64(r.Stack.Ops)
		}
		fmt.Fprintf(w, "#                     %-10s%-10s%10.2f%10.2f%14.2f\n",
			r.Workload, r.Backend, r.PWBPerOp, r.PFencePerOp, coalescedPerOp)
	}
	// Cross-layer drill-down for the headline cell (YCSB-A on J-PDT),
	// straight from the shared obs reporter.
	for _, r := range rows {
		if r.Workload == "A" && r.Backend == JPDT && r.Stack != nil {
			fmt.Fprintf(w, "# YCSB-A / %s cross-layer detail:\n", JPDT)
			r.Stack.Report(w)
			break
		}
	}
}

// PrintFig8 renders the Figure 8 series (completion time vs record size).
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8 — marshalling cost: YCSB-A completion time\n")
	fmt.Fprintf(w, "%-10s%12s%12s%12s%12s\n", "recordKB", Volatile, NullFS, TmpFS, FS)
	bySize := map[int]map[BackendKind]time.Duration{}
	var sizes []int
	for _, r := range rows {
		if bySize[r.RecordKB] == nil {
			bySize[r.RecordKB] = map[BackendKind]time.Duration{}
			sizes = append(sizes, r.RecordKB)
		}
		bySize[r.RecordKB][r.Backend] = r.Completion
	}
	for _, s := range sizes {
		m := bySize[s]
		fmt.Fprintf(w, "%-10d%12s%12s%12s%12s\n", s,
			round(m[Volatile]), round(m[NullFS]), round(m[TmpFS]), round(m[FS]))
	}
}

// PrintFig9 renders one Figure 9 panel's sensitivity series.
func PrintFig9(w io.Writer, panel string, rows []Fig9Row) {
	fmt.Fprintf(w, "%s\n", fig9Panels[panel].title)
	fmt.Fprintf(w, "%-10s%-8s%16s%16s%16s%16s\n", "knob", "value",
		"read(J-PDT)", "update(J-PDT)", "read(FS)", "update(FS)")
	type pair struct{ jp, fs Fig9Row }
	byVal := map[int]*pair{}
	var vals []int
	for _, r := range rows {
		p := byVal[r.Value]
		if p == nil {
			p = &pair{}
			byVal[r.Value] = p
			vals = append(vals, r.Value)
		}
		if r.Backend == JPDT {
			p.jp = r
		} else {
			p.fs = r
		}
	}
	for _, v := range vals {
		p := byVal[v]
		fmt.Fprintf(w, "%-10s%-8d%16s%16s%16s%16s\n", p.jp.Knob, v,
			round(p.jp.Read), round(p.jp.Update), round(p.fs.Read), round(p.fs.Update))
	}
}

// PrintFig10 renders the thread-scaling table.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10 — multi-threaded throughput (Kops/s)\n")
	fmt.Fprintf(w, "%-10s%-9s%12s%12s%12s\n", "workload", "threads", JPDT, FS, Volatile)
	type key struct {
		wl string
		th int
	}
	cells := map[key]map[BackendKind]float64{}
	var keys []key
	for _, r := range rows {
		k := key{r.Workload, r.Threads}
		if cells[k] == nil {
			cells[k] = map[BackendKind]float64{}
			keys = append(keys, k)
		}
		cells[k][r.Backend] = r.KopsSec
	}
	for _, k := range keys {
		m := cells[k]
		fmt.Fprintf(w, "%-10s%-9d%12.1f%12.1f%12.1f\n", k.wl, k.th, m[JPDT], m[FS], m[Volatile])
	}
}

// PrintFig11 renders the recovery timelines.
func PrintFig11(w io.Writer, tls []*tpcb.Timeline) {
	fmt.Fprintf(w, "Figure 11 — TPC-B recovery\n")
	fmt.Fprintf(w, "%-12s%16s%18s%18s\n", "system", "restart delay", "Kops/s before", "Kops/s after")
	for _, tl := range tls {
		fmt.Fprintf(w, "%-12s%16s%18.1f%18.1f\n", tl.System,
			round(tl.RestartDelay), tl.NominalBefore()/1000, tl.NominalAfter()/1000)
	}
	for _, tl := range tls {
		fmt.Fprintf(w, "\n# timeline %s (ops per bucket):\n", tl.System)
		var b strings.Builder
		for i, p := range tl.Points {
			if i%8 == 0 && i > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "%6.2fs:%-7d", p.T.Seconds(), p.Ops)
		}
		fmt.Fprintln(w, b.String())
	}
}

// PrintFig1 renders the G1 cache-ratio table.
func PrintFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintf(w, "Figure 1 — managed-cache ratio vs GC cost and tail latency (YCSB-F)\n")
	fmt.Fprintf(w, "%-8s%14s%14s%14s%10s%12s%12s\n",
		"cache%", "completion", "gc", "compute", "gc%", "p50", "p99.99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d%14s%14s%14s%9.1f%%%12s%12s\n", r.CacheRatio,
			round(r.Completion), round(r.GCCPUTime), round(r.ComputeTime),
			r.GCShare*100, round(r.P50), round(r.P9999))
	}
}

// PrintFig2 renders the go-pmem dataset sweep.
func PrintFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "Figure 2 — go-pmem-style GC vs persistent dataset size (YCSB-F)\n")
	fmt.Fprintf(w, "%-10s%14s%14s%14s%10s%8s%12s\n",
		"dataset", "completion", "gc", "compute", "gc%", "GCs", "live objs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9dM%14s%14s%14s%9.1f%%%8d%12d\n", r.DatasetMB,
			round(r.Completion), round(r.GCCPUTime), round(r.ComputeTime),
			r.GCShare*100, r.Collections, r.LiveObjects)
	}
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Fprintf(w, "# completion blow-up %.1fx (paper: 3.4x); final GC share %.0f%% (paper: 67%%)\n",
			float64(last.Completion)/float64(first.Completion), last.GCShare*100)
	}
}

// PrintTable3 renders the block-bandwidth table with the flush/fence rates
// each cell measured through the shared obs layer.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3 — 256B block access (GB/s)\n")
	fmt.Fprintf(w, "%-10s%14s%14s%14s%14s\n", "", "seq read", "seq write", "rand read", "rand write")
	cell := map[string]map[string]Table3Row{"J-NVM": {}, "native": {}}
	for _, r := range rows {
		key := "rand"
		if r.Sequential {
			key = "seq"
		}
		if r.Write {
			key += " write"
		} else {
			key += " read"
		}
		cell[r.Path][key] = r
	}
	for _, p := range []string{"J-NVM", "native"} {
		m := cell[p]
		fmt.Fprintf(w, "%-10s%14.2f%14.2f%14.2f%14.2f\n", p,
			m["seq read"].GBps, m["seq write"].GBps, m["rand read"].GBps, m["rand write"].GBps)
	}
	for _, p := range []string{"J-NVM", "native"} {
		sw, rw := cell[p]["seq write"], cell[p]["rand write"]
		fmt.Fprintf(w, "# %-8s writes: %.2f pwb + %.2f pfence per block (seq), %.2f + %.2f (rand)\n",
			p, sw.PWBPerOp, sw.PFencePerOp, rw.PWBPerOp, rw.PFencePerOp)
	}
}

// PrintTable1 renders the deletion-site count of each tree and its sites.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 — deletion sites of persistent objects (non-test Go)\n")
	fmt.Fprintf(w, "%-40s%10s%10s\n", "tree", "SLOC", "# sites")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s%10d%10d\n", r.Tree, r.SLOC, len(r.Sites))
		for _, s := range r.Sites {
			fmt.Fprintf(w, "    %s\n", s)
		}
	}
}

// PrintFragmentation renders the §5.3.5 internal-fragmentation table.
func PrintFragmentation(w io.Writer, rows []FragRow) {
	fmt.Fprintln(w, "Internal fragmentation (10-field record stored as one chained object)")
	fmt.Fprintf(w, "%-14s%14s%14s%12s\n", "field size", "user bytes", "raw bytes", "lost")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d%14d%14d%11.1f%%\n", r.FieldLen, r.User, r.Raw,
			float64(r.Raw-r.User)/float64(r.Raw)*100)
	}
	fmt.Fprintln(w, "# paper: 21.2% at 100B fields, 9.4% at 10KB fields")
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Nanosecond) }
