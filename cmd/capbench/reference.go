package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The box this benchmark is sized for is not steady. For minutes at a time
// its memory system slows down (neighbours on the host; no steal time shows
// it): a fixed cache-missing loop then takes up to twice as long and a cold
// plan request 1.4× as long, while a fixed arithmetic loop keeps its time —
// measured while writing this file, see README.md. Two runs of the same
// code minutes apart then differ by more than any bound worth having.
//
// So every end-to-end run takes its own measure of the box, with a kernel
// that has nothing to do with the program. It runs between the slices of
// the measured window, on every CPU at once, and each slice's times are
// divided by
//
//	factor = cpuShare + (1 − cpuShare) × slowdown
//
// where slowdown is how much slower than nominal the box's memory system
// was around the slice. On a quiet box the factor is 1 and the times are
// the stopwatch's.
//
// The kernel lives in a child process (`capbench -box`), idle while the
// clients run: its 100 MB working set inside the measured process would
// make the collector run a third as often there (it paces on the live
// heap) and double the peak resident set — on cache_hot that alone halved
// op_p90_ms while this file was written.
const (
	// cpuShare is the share of a workload's time taken not to wait for
	// memory. The runs that caught a slow spell put it between 0.3 and 0.8
	// for every workload, too loosely to tell the workloads apart
	// (README.md), so one value serves all. A wrong share leaves some of
	// the box's noise in; it never moves a reading taken on a quiet box.
	cpuShare = 0.5
	// ratioNominal is the big kernel's time over the small kernel's on the
	// quiet box, between the slices of a run (README.md, "The box").
	ratioNominal = 5.3
	refRepeats   = 9 // each reading is the median of this many kernel runs per CPU
)

// factor is how much slower than on the quiet box a workload runs when
// memory is slowdown times slower.
func factor(slowdown float64) float64 { return cpuShare + (1-cpuShare)*slowdown }

// kernels holds two working sets for the one kernel: a big one, several
// times the size of the last-level cache, and a small one that stays in the
// core's own cache.
type kernels struct {
	big, small workingSet
	sink       float64
}

type workingSet struct {
	keys   []string
	table  map[string]*[8]float64
	stream []float64
	// Passes per kernel run over the map and over the slice, chosen so
	// that both sets do the same number of accesses.
	lookups, strides int
}

func newWorkingSet(keys, lookups, floats, strides int) workingSet {
	ws := workingSet{table: make(map[string]*[8]float64, keys), stream: make([]float64, floats), lookups: lookups, strides: strides}
	for i := range ws.stream {
		ws.stream[i] = 1 // touch every page now, not inside the first reading
	}
	for i := 0; i < keys; i++ {
		k := "server-" + strconv.Itoa(i*7919)
		ws.keys = append(ws.keys, k)
		ws.table[k] = &[8]float64{1}
	}
	return ws
}

func newKernels() *kernels {
	return &kernels{
		big:   newWorkingSet(200_000, 1, 8<<20, 1),    // ~30 MB of map, 64 MB of slice
		small: newWorkingSet(1_000, 200, 4<<10, 2048), // ~150 KB of map, 32 KB of slice
	}
}

// run looks every key up in the set's map and strides over its slice one
// cache line at a time. Over the big set nearly every access misses the
// caches; over the small set none does. It only reads, so all CPUs can run
// it over the one set.
func (ws workingSet) run() float64 {
	s := 0.0
	for r := 0; r < ws.lookups; r++ {
		for _, k := range ws.keys {
			s += ws.table[k][0]
		}
	}
	for r := 0; r < ws.strides; r++ {
		for i := 0; i < len(ws.stream); i += 8 {
			s += ws.stream[i]
		}
	}
	return s
}

// read times the kernel over both sets, refRepeats times on every CPU at
// once (the workloads keep both CPUs busy too), and returns each set's
// median time in ms. The kernels allocate nothing, so no collection runs
// meanwhile. A reading takes about 150 ms.
func (k *kernels) read(cpus int) (bigMs, smallMs float64) {
	var big, small []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < cpus; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink float64
			for i := 0; i < refRepeats; i++ {
				t0 := time.Now()
				sink += k.small.run()
				t1 := time.Now()
				sink += k.big.run()
				t2 := time.Now()
				mu.Lock()
				small, big = append(small, ms(t1.Sub(t0))), append(big, ms(t2.Sub(t1)))
				mu.Unlock()
			}
			mu.Lock()
			k.sink += sink
			mu.Unlock()
		}()
	}
	wg.Wait()
	return median(big), median(small)
}

// serveBox is `capbench -box`: it builds the working sets, says "ready",
// and then answers every line it reads with one reading, "<big ms> <small
// ms>", until its input ends. By hand: press Enter for a reading.
func serveBox(in io.Reader, out io.Writer) error {
	k := newKernels()
	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		big, small := k.read(runtime.GOMAXPROCS(0))
		if _, err := fmt.Fprintf(out, "%.4f %.4f\n", big, small); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reference is the running child. Its first failure sticks: later readings
// say 1 (times stay the stopwatch's) and close reports it, so a run whose
// reference died ends in an error, not in numbers divided by nothing.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	err error
}

// startReference starts this same binary as `-box` and waits until its
// working sets are built.
func startReference(ctx context.Context) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-box")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &reference{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := r.out.ReadString('\n'); err != nil || line != "ready\n" {
		return nil, fmt.Errorf("box reference did not start (said %q): %v; %v", line, err, r.close())
	}
	return r, nil
}

// slowdown asks the child for a reading: the big kernel's time over the
// small kernel's, as a multiple of that ratio's nominal value (1 = the
// quiet reference box). Whatever slows the box as a whole — a busy CPU —
// slows both alike and cancels; what slows only memory does not. This
// process collects first, so that its collector is not marking on the CPUs
// the kernels are timed on.
func (r *reference) slowdown() float64 {
	if r.err != nil {
		return 1
	}
	runtime.GC()
	var big, small float64
	if _, r.err = io.WriteString(r.in, "\n"); r.err == nil {
		_, r.err = fmt.Fscanln(r.out, &big, &small)
	}
	if r.err == nil && (big <= 0 || small <= 0) {
		r.err = fmt.Errorf("reading of %v ms over %v ms", big, small)
	}
	if r.err != nil {
		r.err = fmt.Errorf("box reference: %w", r.err)
		return 1
	}
	return big / small / ratioNominal
}

// close ends the child, waits for it, and returns the first failure.
func (r *reference) close() error {
	r.in.Close()
	if err := r.cmd.Wait(); r.err == nil && err != nil {
		r.err = fmt.Errorf("box reference: %w", err)
	}
	return r.err
}
