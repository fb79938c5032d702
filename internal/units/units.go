// Package units parses byte counts with binary-unit suffixes. It is shared
// by every binary that takes a byte budget on its command line (blitzsplit
// -mem-budget, blitzbench -mem-budget/-cache-bytes, blitzd's
// cache/arena/admission budgets).
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses a byte count with an optional binary-unit suffix:
// "1048576", "64KiB"/"64KB"/"64K", "32MiB", "2GiB". Units are powers of
// 1024; suffixes are case-insensitive and may be separated by spaces.
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	var shift uint
	for _, u := range []struct {
		suffix string
		shift  uint
	}{
		{"KIB", 10}, {"MIB", 20}, {"GIB", 30},
		{"KB", 10}, {"MB", 20}, {"GB", 30},
		{"K", 10}, {"M", 20}, {"G", 30},
	} {
		if strings.HasSuffix(upper, u.suffix) && len(upper) > len(u.suffix) {
			shift = u.shift
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid byte count %q (use e.g. 1048576, 64KiB, 32MiB)", s)
	}
	if shift > 0 && v > (uint64(1)<<(64-shift))-1 {
		return 0, fmt.Errorf("byte count %q overflows", s)
	}
	return v << shift, nil
}
