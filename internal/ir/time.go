package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an LLHD time value: a physical time in femtoseconds plus a delta
// step count and an epsilon step count. Delta steps order zero-time events
// (the classic HDL "delta cycle"); epsilon steps order events within one
// delta step.
type Time struct {
	Fs    int64 // femtoseconds of physical time
	Delta int   // delta steps
	Eps   int   // epsilon steps
}

// Common physical time units, expressed in femtoseconds.
const (
	Femtosecond int64 = 1
	Picosecond        = 1000 * Femtosecond
	Nanosecond        = 1000 * Picosecond
	Microsecond       = 1000 * Nanosecond
	Millisecond       = 1000 * Microsecond
	Second            = 1000 * Millisecond
)

// Nanoseconds constructs a time of n nanoseconds.
func Nanoseconds(n int64) Time { return Time{Fs: n * Nanosecond} }

// Picoseconds constructs a time of n picoseconds.
func Picoseconds(n int64) Time { return Time{Fs: n * Picosecond} }

// DeltaTime is a pure delta step with no physical time.
func DeltaTime(n int) Time { return Time{Delta: n} }

// Add returns t + u with component-wise semantics: adding physical time
// resets the delta and epsilon counters of the smaller operand, matching
// event-queue ordering (a drive "after 1ns" lands at delta 0 of t+1ns).
func (t Time) Add(u Time) Time {
	if u.Fs > 0 {
		return Time{Fs: t.Fs + u.Fs, Delta: u.Delta, Eps: u.Eps}
	}
	return Time{Fs: t.Fs, Delta: t.Delta + u.Delta, Eps: t.Eps + u.Eps}
}

// Compare orders times lexicographically by (Fs, Delta, Eps). It returns
// -1, 0, or +1.
func (t Time) Compare(u Time) int {
	switch {
	case t.Fs < u.Fs:
		return -1
	case t.Fs > u.Fs:
		return 1
	case t.Delta < u.Delta:
		return -1
	case t.Delta > u.Delta:
		return 1
	case t.Eps < u.Eps:
		return -1
	case t.Eps > u.Eps:
		return 1
	}
	return 0
}

// Before reports whether t sorts strictly before u.
func (t Time) Before(u Time) bool { return t.Compare(u) < 0 }

// IsZero reports whether t is the zero time.
func (t Time) IsZero() bool { return t.Fs == 0 && t.Delta == 0 && t.Eps == 0 }

// String renders the time in LLHD assembly syntax, e.g. "1ns", "0s 1d",
// "2ns 1d 3e": Append onto a small stack buffer.
func (t Time) String() string {
	var buf [24]byte
	return string(t.Append(buf[:0]))
}

// timeUnits are the physical-time suffixes, coarsest first.
var timeUnits = [...]struct {
	fs   int64
	name string
}{
	{Second, "s"},
	{Millisecond, "ms"},
	{Microsecond, "us"},
	{Nanosecond, "ns"},
	{Picosecond, "ps"},
	{Femtosecond, "fs"},
}

// Append appends the String form of t to b and returns the extended
// slice. It is the one formatter of a time: the physical part in the
// coarsest unit that divides it ("0s" for none), then the non-zero delta
// and epsilon counts. Renderers on the per-change path call it on a buffer
// they reuse, so a rendered time allocates nothing.
func (t Time) Append(b []byte) []byte {
	if t.Fs == 0 {
		b = append(b, "0s"...)
	} else {
		for _, u := range timeUnits {
			if t.Fs%u.fs == 0 {
				b = strconv.AppendInt(b, t.Fs/u.fs, 10)
				b = append(b, u.name...)
				break
			}
		}
	}
	if t.Delta != 0 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t.Delta), 10)
		b = append(b, 'd')
	}
	if t.Eps != 0 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t.Eps), 10)
		b = append(b, 'e')
	}
	return b
}

// ParseTime parses a physical-time literal such as "1ns", "250ps", "0s",
// optionally followed by delta ("2d") and epsilon ("3e") parts separated by
// spaces.
func ParseTime(s string) (Time, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Time{}, fmt.Errorf("ir: empty time literal")
	}
	var t Time
	fs, err := parseFs(fields[0])
	if err != nil {
		return Time{}, err
	}
	t.Fs = fs
	for _, f := range fields[1:] {
		switch {
		case strings.HasSuffix(f, "d"):
			n, err := strconv.Atoi(strings.TrimSuffix(f, "d"))
			if err != nil {
				return Time{}, fmt.Errorf("ir: bad delta in time literal %q", s)
			}
			t.Delta = n
		case strings.HasSuffix(f, "e"):
			n, err := strconv.Atoi(strings.TrimSuffix(f, "e"))
			if err != nil {
				return Time{}, fmt.Errorf("ir: bad epsilon in time literal %q", s)
			}
			t.Eps = n
		default:
			return Time{}, fmt.Errorf("ir: bad time literal %q", s)
		}
	}
	return t, nil
}

func parseFs(s string) (int64, error) {
	suffixes := []struct {
		suffix string
		fs     int64
	}{
		{"fs", Femtosecond},
		{"ps", Picosecond},
		{"ns", Nanosecond},
		{"us", Microsecond},
		{"ms", Millisecond},
		{"s", Second},
	}
	for _, u := range suffixes {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSuffix(s, u.suffix)
			n, err := strconv.ParseInt(num, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("ir: bad time literal %q", s)
			}
			return n * u.fs, nil
		}
	}
	return 0, fmt.Errorf("ir: time literal %q lacks a unit", s)
}
