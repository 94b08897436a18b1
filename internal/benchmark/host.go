package benchmark

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// hostCPU is the machine's CPU time so far, summed over its CPUs, from
// the first line of /proc/stat, in clock ticks: all of it, and steal, the
// part during which the hypervisor ran something else on this virtual
// machine's CPUs.
type hostCPU struct{ total, steal float64 }

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, fmt.Errorf("read host CPU times: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("unexpected /proc/stat layout")
	}
	var h hostCPU
	for i, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// since is the CPU time from h0 to h.
func (h hostCPU) since(h0 hostCPU) hostCPU {
	return hostCPU{h.total - h0.total, h.steal - h0.steal}
}

func (h hostCPU) add(d hostCPU) hostCPU { return hostCPU{h.total + d.total, h.steal + d.steal} }

// availability is the share of the CPU time in h that the hypervisor gave
// this machine: 1 on a machine of its own, or when no time was counted.
func (h hostCPU) availability() float64 {
	if h.total <= 0 {
		return 1
	}
	return 1 - h.steal/h.total
}
