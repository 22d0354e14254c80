package model

import "strconv"

// digitPairs holds the two-character renderings of 00…99.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendDecimal appends the base-10 rendering of v to b, byte for byte
// what strconv.AppendInt(b, v, 10) appends. It is the one integer
// formatter of the trace digest encoder, where almost every value is a
// process ID, a tick, an event index or a message ID: non-negative and
// below 10⁸. Those are split into two-digit pairs with no loop — only
// as many divisions as the magnitude needs — and appended with one
// fixed-size append per digit count (a digit loop, or an append of a
// variable-length slice, measured twice as slow); anything else (the
// -1 sentinels, huge payloads) goes through strconv.
func AppendDecimal(b []byte, v int64) []byte {
	if uint64(v) >= 1e8 {
		return strconv.AppendInt(b, v, 10)
	}
	const d = digitPairs
	u := uint32(v)
	if u < 100 {
		if u < 10 {
			return append(b, byte('0'+u))
		}
		return append(b, d[2*u], d[2*u+1])
	}
	if u < 1e4 {
		p2, p3 := 2*(u/100), 2*(u%100)
		if u < 1e3 {
			return append(b, d[p2+1], d[p3], d[p3+1])
		}
		return append(b, d[p2], d[p2+1], d[p3], d[p3+1])
	}
	hi, lo := u/1e4, u%1e4
	p2, p3 := 2*(lo/100), 2*(lo%100)
	if u < 1e6 {
		p1 := 2 * hi
		if u < 1e5 {
			return append(b, d[p1+1], d[p2], d[p2+1], d[p3], d[p3+1])
		}
		return append(b, d[p1], d[p1+1], d[p2], d[p2+1], d[p3], d[p3+1])
	}
	p0, p1 := 2*(hi/100), 2*(hi%100)
	if u < 1e7 {
		return append(b, d[p0+1], d[p1], d[p1+1], d[p2], d[p2+1], d[p3], d[p3+1])
	}
	return append(b, d[p0], d[p0+1], d[p1], d[p1+1], d[p2], d[p2+1], d[p3], d[p3+1])
}
