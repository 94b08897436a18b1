//go:build darwin || freebsd || netbsd

package store

import (
	"syscall"
	"time"
)

// mtime is the modification time in a stat result.
func mtime(st *syscall.Stat_t) time.Time { return time.Unix(st.Mtimespec.Unix()) }
