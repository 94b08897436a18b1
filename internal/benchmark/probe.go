package benchmark

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// refProbeRate is the reference machine's speed in probe operations per
// CPU-second: a round number inside the 320–530 k that the 2-vCPU
// virtual machine the benchmark was calibrated on measured
// (calibration.json).
const refProbeRate = 4e5

// probe runs a fixed standard-library kernel — hashing, map updates,
// number formatting and sorting — on every CPU the generator may use for
// d, and returns the operations completed and the CPU time they took. It
// uses no code of the repository, so two commits are measured against
// the same yardstick, and it allocates nothing, so the generator's
// garbage collector does not run inside it. CPU time, unlike wall time,
// leaves out steal, which hostCPU measures on its own.
func probe(d time.Duration) (ops, cpuSec float64) {
	var n atomic.Int64
	cpu0 := selfCPUSeconds()
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [1024]byte
			keys := make([]string, 64)
			counts := make(map[string]int, len(keys))
			for i := range keys {
				keys[i] = "key-" + strconv.Itoa(i)
			}
			text := make([]byte, 0, 64)
			order := make([]int, 32)
			for i := 0; time.Now().Before(end); i++ {
				sum := sha256.Sum256(buf[:])
				buf[i%len(buf)] = sum[0]
				counts[keys[int(sum[1])%len(keys)]] += i
				text = strconv.AppendFloat(text[:0], float64(i)*1.37, 'g', -1, 64)
				for k := range order {
					order[k] = int(sum[k]) ^ i
				}
				slices.Sort(order)
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(n.Load()), selfCPUSeconds() - cpu0
}

// speed accumulates probe bursts.
type speed struct{ ops, cpuSec float64 }

func (s *speed) add(ops, cpuSec float64) { s.ops, s.cpuSec = s.ops+ops, s.cpuSec+cpuSec }

// factor is the measured probe rate over refProbeRate: below 1 on a
// machine (or at a moment) slower than the reference.
func (s speed) factor() float64 {
	if s.cpuSec <= 0 {
		return 1
	}
	return s.ops / s.cpuSec / refProbeRate
}

// selfCPUSeconds is the generator process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
