package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
)

// A CPU profile taken in-process with runtime/pprof and reduced here by a
// small decoder of the pprof protobuf. Samples are attributed to the leaf
// function's name prefix, so a renamed function moves share into
// cpu.other_share and never breaks the build.

// cpuBuckets maps function-name prefixes to share metrics; the first match
// wins. strconv is counted with encoding/json because number formatting is
// most of what the encoder does with a KPI series.
var cpuBuckets = []struct{ prefix, metric string }{
	{"gendt/internal/nn.ModulateF32", "cpu.modulate_share"},
	{"gendt/internal/nn.", "cpu.nn_share"},
	{"gendt/internal/core.", "cpu.core_share"},
	{"math/rand.", "cpu.rand_share"},
	{"gendt/internal/serve.", "cpu.serve_share"},
	{"gendt/internal/lb.", "cpu.lb_share"},
	// Route annotation, which serve's prepare runs on a cache miss.
	{"gendt/internal/sim.", "cpu.world_share"},
	{"gendt/internal/radio.", "cpu.world_share"},
	{"gendt/internal/env.", "cpu.world_share"},
	{"gendt/internal/geo.", "cpu.world_share"},
	{"gendt/internal/cells.", "cpu.world_share"},
	{"encoding/json.", "cpu.json_share"},
	{"strconv.", "cpu.json_share"},
	{"net/http.", "cpu.http_share"},
	{"net/http/", "cpu.http_share"},
	{"net/textproto.", "cpu.http_share"},
	{"net.", "cpu.http_share"},
	{"bufio.", "cpu.http_share"},
	{"internal/poll.", "cpu.http_share"},
	{"syscall.", "cpu.http_share"},
	{"internal/runtime/syscall.", "cpu.http_share"},
	{"runtime.", "cpu.runtime_share"},
	{"runtime/", "cpu.runtime_share"},
	{"internal/runtime/", "cpu.runtime_share"},
	{"sync.", "cpu.runtime_share"},
	{"sync/atomic.", "cpu.runtime_share"},
	{"time.", "cpu.runtime_share"},
}

func cpuBucket(fn string) string {
	for _, b := range cpuBuckets {
		if strings.HasPrefix(fn, b.prefix) {
			return b.metric
		}
	}
	return "cpu.other_share"
}

// profileCPU runs f under the CPU profiler and returns the percentage of
// samples per bucket.
func profileCPU(f func()) (values, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	return cpuShares(flat), nil
}

func cpuShares(flat map[string]int64) values {
	out := values{}
	total := int64(0)
	for fn, v := range flat {
		out[cpuBucket(fn)] += float64(v)
		total += v
	}
	for k := range out {
		out[k] *= 100 / float64(total)
	}
	return out
}

// flatByFunction decodes a gzipped pprof profile and sums each sample's last
// value (cpu nanoseconds) under its leaf function.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		locFn    = map[uint64]uint64{} // location id -> function id of its innermost line
		fnNameIx = map[uint64]uint64{} // function id -> string table index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf, s.value = locs[0], int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !seenLine {
						seenLine = true
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnNameIx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		name := "(unknown)"
		if ix, ok := fnNameIx[locFn[s.leaf]]; ok && ix < uint64(len(strs)) {
			name = strs[ix]
		}
		flat[name] += s.value
	}
	return flat, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField walks one protobuf message: f gets the field number and either
// the varint value or the length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, n = varint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// procStats is a reading of the process's allocation and GC counters.
type procStats struct {
	allocBytes, mallocs, gcPauseNs uint64
}

func readProcStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{m.TotalAlloc, m.Mallocs, m.PauseTotalNs}
}

// memMetrics is the allocation and GC cost of the ops run between two
// readings, with the process's peak resident set.
func memMetrics(before, after procStats, ops int) values {
	return values{
		"mem.alloc_kb_per_op": float64(after.allocBytes-before.allocBytes) / 1024 / float64(ops),
		"mem.gc_pause_ms":     float64(after.gcPauseNs-before.gcPauseNs) / 1e6,
		"mem.peak_rss_mb":     peakRSSMB(),
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument; a zero reading then
	return ru
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports kilobytes

// cpuSeconds is the CPU time, user and system, the process has used so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
