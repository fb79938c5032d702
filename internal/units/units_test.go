package units

import "testing"

func TestParseBytes(t *testing.T) {
	good := []struct {
		in   string
		want uint64
	}{
		{"0", 0},
		{"1048576", 1 << 20},
		{"64KiB", 64 << 10},
		{"64KB", 64 << 10},
		{"64K", 64 << 10},
		{"64k", 64 << 10},
		{"32MiB", 32 << 20},
		{"2GiB", 2 << 30},
		{" 7 MiB ", 7 << 20},
		{"18446744073709551615", 1<<64 - 1},
	}
	for _, c := range good {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "MiB", "-1", "12.5K", "12QB", "99999999999999999999", "18446744073709551615K"} {
		if v, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error", in, v)
		}
	}
}
