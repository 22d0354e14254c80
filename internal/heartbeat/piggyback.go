package heartbeat

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Piggyback is one gossip heartbeat message: the sender's
// freshest-known heartbeat counter for every node plus its current
// suspicion verdicts, piggybacked so that one O(n)-sized frame per
// round disseminates the whole cluster's liveness state transitively.
//
// Counters are the van Renesse-style gossip heartbeat vector: node p
// increments Counters[p-1] once per round; receivers merge by maximum
// and treat each observed increase as a heartbeat arrival for the
// underlying estimator (φ-accrual, Chen, fixed — unchanged). Suspects
// carries the sender's local verdicts; receivers record the counter
// value each accusation was made at, so an accusation auto-expires the
// moment fresher news of the accused propagates.
//
// On the wire (version 2) the counters are packed as lags behind the
// largest of them, because live nodes all advance once a round and so
// sit within a few rounds of each other whatever the cluster's age:
//
//	version        1 byte, piggybackVersion
//	n              uvarint, node count
//	origin         uvarint, 1..n
//	base           uvarint, the largest counter
//	lags           ⌈n/2⌉ bytes, one nibble per node, node 1 in the low
//	               nibble of the first byte: base − counter, or 15 for
//	               "15 or more"; the unused high nibble of an odd n is 0
//	escapes        for each nibble of 15, in node order, uvarint lag − 15
//	suspects       ⌈n/8⌉ bytes, bit i%8 of byte i/8 set when node i+1 is
//	               suspected; unused bits are 0
//
// A steady frame is therefore ≈ n/2 + n/8 bytes at any counter
// magnitude; a node that stopped long ago adds its escape varint.
type Piggyback struct {
	// Origin is the sending node, 1-based.
	Origin int
	// Counters[i] is the freshest counter known for node i+1.
	Counters []uint64
	// Suspects[i] reports whether the sender currently suspects node
	// i+1.
	Suspects []bool
}

// piggybackVersion tags the wire format; bumping it invalidates old
// frames explicitly instead of mis-decoding them. Version 1 carried
// every counter as an absolute uvarint.
const piggybackVersion = 2

// maxPiggybackNodes bounds the node count a frame may claim, keeping
// adversarial frames from forcing large allocations.
const maxPiggybackNodes = 1 << 16

// lagEscape is the nibble that sends a lag to the escape list.
const lagEscape = 15

// Encode serializes the piggyback in the format described on the type,
// into one fresh slice.
func (pb Piggyback) Encode() ([]byte, error) {
	n := len(pb.Counters)
	if n == 0 || n > maxPiggybackNodes {
		return nil, fmt.Errorf("heartbeat: piggyback n = %d outside [1, %d]", n, maxPiggybackNodes)
	}
	if len(pb.Suspects) != n {
		return nil, fmt.Errorf("heartbeat: piggyback suspects length %d != n %d", len(pb.Suspects), n)
	}
	if pb.Origin < 1 || pb.Origin > n {
		return nil, fmt.Errorf("heartbeat: piggyback origin %d outside [1, %d]", pb.Origin, n)
	}
	var base uint64
	for _, c := range pb.Counters {
		base = max(base, c)
	}
	escapes := 0 // bytes of escape varints
	for _, c := range pb.Counters {
		if lag := base - c; lag >= lagEscape {
			escapes += (bits.Len64((lag-lagEscape)|1) + 6) / 7
		}
	}
	buf := make([]byte, 0, 1+3+3+binary.MaxVarintLen64+(n+1)/2+escapes+(n+7)/8)
	buf = append(buf, piggybackVersion)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(pb.Origin))
	buf = binary.AppendUvarint(buf, base)
	lags := len(buf)
	buf = buf[:lags+(n+1)/2] // within the capacity
	for i := 0; i+1 < n; i += 2 {
		lo, hi := min(base-pb.Counters[i], lagEscape), min(base-pb.Counters[i+1], lagEscape)
		buf[lags+i/2] = byte(lo | hi<<4)
	}
	if n%2 == 1 {
		buf[len(buf)-1] = byte(min(base-pb.Counters[n-1], lagEscape))
	}
	if escapes > 0 {
		for _, c := range pb.Counters {
			if lag := base - c; lag >= lagEscape {
				buf = binary.AppendUvarint(buf, lag-lagEscape)
			}
		}
	}
	bitmap := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	for i, s := range pb.Suspects {
		if s {
			buf[bitmap+i/8] |= 1 << (i % 8)
		}
	}
	return buf, nil
}

// DecodePiggyback parses one frame, rejecting truncated, oversized,
// mis-versioned and trailing-garbage inputs, set padding, and lags no
// counter can have.
func DecodePiggyback(data []byte) (Piggyback, error) {
	f, err := parseFrame(data, 0, nil)
	if err != nil {
		return Piggyback{}, err
	}
	// The escape list has room for every node, and escape k is the lag of
	// a node at index k or later: filled from the last node down, the
	// counters overwrite only escapes already read.
	counters := f.escapes[:0]
	if cap(counters) < f.n {
		counters = make([]uint64, f.n)
	}
	pb := Piggyback{Origin: f.origin, Counters: counters[:f.n], Suspects: make([]bool, f.n)}
	k := len(f.escapes)
	for i := f.n - 1; i >= 0; i-- {
		lag := uint64(f.lags[i>>1] & 0xf)
		if i&1 == 1 {
			lag = uint64(f.lags[i>>1] >> 4)
		}
		if lag == lagEscape {
			k--
			lag = pb.Counters[k]
		}
		pb.Counters[i] = f.base - lag
	}
	for j, b := range f.suspects {
		group := pb.Suspects[8*j : min(8*j+8, f.n)]
		for q := range group {
			group[q] = b>>q&1 != 0
		}
	}
	return pb, nil
}

// frameView is one received frame, checked whole and read in place: the
// lag nibbles and the suspect bitmap are the body's own bytes, and only
// the escaped lags are decoded — once, into a list.
type frameView struct {
	n, origin int
	base      uint64
	lags      []byte   // ⌈n/2⌉ bytes, one nibble per node
	escapes   []uint64 // the lag of each node whose nibble is lagEscape, in node order
	suspects  []byte   // ⌈n/8⌉ bytes, one bit per node
}

// parseFrame checks body with every check DecodePiggyback promises and
// returns a view of it, which refers to body. A non-zero wantN is the
// only node count accepted, and a frame claiming another is refused on
// its header. The escape list reuses the capacity of escapes, or is
// made with room for n.
func parseFrame(body []byte, wantN int, escapes []uint64) (frameView, error) {
	if len(body) == 0 {
		return frameView{}, fmt.Errorf("heartbeat: empty piggyback")
	}
	if body[0] != piggybackVersion {
		return frameView{}, fmt.Errorf("heartbeat: piggyback version %d, want %d", body[0], piggybackVersion)
	}
	rest := body[1:]
	var header [3]uint64 // n, origin, base
	for i := range header {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return frameView{}, fmt.Errorf("heartbeat: truncated piggyback header")
		}
		header[i], rest = v, rest[k:]
	}
	n64, origin, base := header[0], header[1], header[2]
	if n64 == 0 || n64 > maxPiggybackNodes {
		return frameView{}, fmt.Errorf("heartbeat: piggyback n = %d outside [1, %d]", n64, maxPiggybackNodes)
	}
	n := int(n64)
	if wantN != 0 && n != wantN {
		return frameView{}, fmt.Errorf("heartbeat: piggyback for %d nodes, want %d", n, wantN)
	}
	if origin < 1 || origin > n64 {
		return frameView{}, fmt.Errorf("heartbeat: piggyback origin %d outside [1, %d]", origin, n)
	}
	nibbles, bitmapLen := (n+1)/2, (n+7)/8
	if len(rest) < nibbles+bitmapLen {
		return frameView{}, fmt.Errorf("heartbeat: piggyback body is %d bytes, want at least %d", len(rest), nibbles+bitmapLen)
	}
	lags, rest := rest[:nibbles], rest[nibbles:]
	if n%2 == 1 && lags[nibbles-1]>>4 != 0 {
		return frameView{}, fmt.Errorf("heartbeat: piggyback padding nibble is set")
	}
	if base < lagEscape-1 { // only then can a nibble's lag exceed base
		for i, b := range lags {
			if lo, hi := uint64(b&0xf), uint64(b>>4); lo != lagEscape && lo > base || hi != lagEscape && hi > base {
				return frameView{}, fmt.Errorf("heartbeat: piggyback lag of node %d or %d exceeds base %d", 2*i+1, 2*i+2, base)
			}
		}
	}

	count := countEscapes(lags)
	if count > 0 && base < lagEscape {
		return frameView{}, fmt.Errorf("heartbeat: piggyback escapes a lag with base %d", base)
	}
	if len(rest) < count+bitmapLen { // every escape takes a byte at least
		return frameView{}, fmt.Errorf("heartbeat: piggyback has %d bytes for %d escapes and a %d-byte bitmap", len(rest), count, bitmapLen)
	}
	if cap(escapes) < count {
		escapes = make([]uint64, 0, n) // room for every node: DecodePiggyback fills it
	}
	escapes = escapes[:0]
	for range count {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return frameView{}, fmt.Errorf("heartbeat: truncated piggyback escape %d of %d", len(escapes)+1, count)
		}
		rest = rest[k:]
		if v > base-lagEscape { // so lagEscape + v cannot wrap
			return frameView{}, fmt.Errorf("heartbeat: piggyback escaped lag %d+%d exceeds base %d", lagEscape, v, base)
		}
		escapes = append(escapes, lagEscape+v)
	}
	if len(rest) != bitmapLen {
		return frameView{}, fmt.Errorf("heartbeat: piggyback bitmap is %d bytes, want %d", len(rest), bitmapLen)
	}
	if n%8 != 0 && rest[bitmapLen-1]>>(n%8) != 0 {
		return frameView{}, fmt.Errorf("heartbeat: piggyback padding bits are set")
	}
	return frameView{n: n, origin: int(origin), base: base, lags: lags, escapes: escapes, suspects: rest}, nil
}

// countEscapes counts the nibbles of lags that are lagEscape, a 64-bit
// word at a time: bit 4k of the AND of a word with its shifts by 1, 2
// and 3 is set exactly when all four bits of nibble k are.
func countEscapes(lags []byte) int {
	const nibbleLow = 0x1111111111111111
	count := 0
	for ; len(lags) >= 8; lags = lags[8:] {
		w := binary.LittleEndian.Uint64(lags)
		count += bits.OnesCount64(w & (w >> 1) & (w >> 2) & (w >> 3) & nibbleLow)
	}
	for _, b := range lags {
		if b&0xf == lagEscape {
			count++
		}
		if b>>4 == lagEscape {
			count++
		}
	}
	return count
}
