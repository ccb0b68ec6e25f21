package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// hostProfile is a CPU profile of the benchmark process, taken with
// runtime/pprof around the traced runs.
type hostProfile struct{ buf bytes.Buffer }

func startProfile() (*hostProfile, error) {
	p := &hostProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each host-time group's share of the
// samples.
func (p *hostProfile) stop() (metrics, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return groupShares(stacks), nil
}

// groupOf names the host-time group one function belongs to, or "" for
// a function that belongs to none (the Go runtime, the standard
// library): such a frame is charged to the nearest caller that does.
func groupOf(fn string) string {
	const mach = "kmem/internal/machine."
	switch {
	case strings.HasPrefix(fn, mach+"fnvMix"):
		return "machine.host_share.schedhash"
	case strings.HasPrefix(fn, mach+"(*SpinLock)"), strings.HasPrefix(fn, mach+"(*IntrLock)"),
		strings.HasPrefix(fn, mach+"(*Machine).lockJitter"):
		return "machine.host_share.spinlock"
	case strings.HasPrefix(fn, mach+"(*Machine).runSim"), strings.HasPrefix(fn, mach+"(*Machine).Run"),
		strings.HasPrefix(fn, mach+"cpuHeap"), strings.HasPrefix(fn, mach+"(*cpuHeap)"),
		strings.HasPrefix(fn, mach+"(*Machine).SyncClocks"), strings.HasPrefix(fn, "container/heap."):
		return "machine.host_share.sched"
	case strings.HasPrefix(fn, mach):
		// The cache, coherence, bus and interconnect cost model.
		return "machine.host_share.bus"
	case strings.HasPrefix(fn, "kmem/internal/objcache."), strings.HasPrefix(fn, "kmem/internal/streams."),
		strings.HasPrefix(fn, "kmem/internal/dlm."), strings.HasPrefix(fn, "kmem/internal/allocif."):
		return "objcache_streams_dlm.host_share"
	case strings.HasPrefix(fn, "kmem/internal/"), strings.HasPrefix(fn, "kmem."):
		// core and the packages it is built from (blocklist, physmem,
		// arena, harden, faultpoint), and the facade.
		return "core.host_share"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "kmem/perfbench"):
		return "perfbench.host_share"
	}
	return ""
}

// groupShares charges each sample to the group of its innermost frame
// that has one (the benchmark itself when none has) and returns each group's
// share of all samples.
func groupShares(stacks []sample) metrics {
	out := metrics{}
	for _, g := range hostGroups {
		out[g] = 0
	}
	var total float64
	for _, s := range stacks {
		g := "perfbench.host_share"
		for _, fn := range s.frames {
			if x := groupOf(fn); x != "" {
				g = x
				break
			}
		}
		out[g] += float64(s.count)
		total += float64(s.count)
	}
	for g := range out {
		out[g] = ratio(out[g], total)
	}
	return out
}

// sample is one profile sample: its stack, innermost frame first, and
// how many times it was seen.
type sample struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto runtime/pprof writes,
// keeping only what grouping needs: each sample's first value and its
// function names. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames: frames, count: s.count})
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value, body nil) or packed (body holds the varints).
func appendPacked(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
