package heartbeat

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPiggybackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		pb := Piggyback{
			Origin:   1 + rng.Intn(n),
			Counters: make([]uint64, n),
			Suspects: make([]bool, n),
		}
		// Even trials are a cluster in step (lags in the nibbles), odd
		// ones counters of any magnitude (every lag escaped).
		spread := int64(1 << 40)
		if trial%2 == 0 {
			spread = 20
		}
		for i := range pb.Counters {
			pb.Counters[i] = 1<<41 - uint64(rng.Int63n(spread))
			pb.Suspects[i] = rng.Intn(3) == 0
		}
		data, err := pb.Encode()
		if err != nil {
			t.Fatalf("encode n=%d: %v", n, err)
		}
		got, err := DecodePiggyback(data)
		if err != nil {
			t.Fatalf("decode n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, pb) {
			t.Fatalf("round-trip mismatch at n=%d:\nsent %+v\ngot  %+v", n, pb, got)
		}
	}
}

func TestPiggybackEncodeRejectsBadInput(t *testing.T) {
	cases := []Piggyback{
		{Origin: 1}, // empty
		{Origin: 0, Counters: make([]uint64, 4), Suspects: make([]bool, 4)}, // origin 0
		{Origin: 5, Counters: make([]uint64, 4), Suspects: make([]bool, 4)}, // origin > n
		{Origin: 1, Counters: make([]uint64, 4), Suspects: make([]bool, 3)}, // length skew
	}
	for i, pb := range cases {
		if _, err := pb.Encode(); err == nil {
			t.Errorf("case %d: bad piggyback encoded without error", i)
		}
	}
}

func TestPiggybackDecodeRejectsTruncation(t *testing.T) {
	pb := Piggyback{
		Origin:   2,
		Counters: []uint64{10, 2000, 3, 1 << 50},
		Suspects: []bool{false, true, false, true},
	}
	data, err := pb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodePiggyback(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(data))
		}
	}
	if _, err := DecodePiggyback(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	bad := append([]byte{}, data...)
	bad[0] = 99
	if _, err := DecodePiggyback(bad); err == nil {
		t.Fatal("wrong version decoded without error")
	}
}

// malformedFrames are frames that each break one rule of the wire
// format, every one next to a valid rendering.
var malformedFrames = map[string][]byte{
	"padding nibble set on odd n":   {piggybackVersion, 3, 1, 7, 0x12, 0x10, 0x00},
	"padding bits set in bitmap":    {piggybackVersion, 3, 1, 7, 0x12, 0x00, 0x08},
	"nibble lag above base":         {piggybackVersion, 3, 1, 7, 0x82, 0x00, 0x00},
	"escaped lag above base":        {piggybackVersion, 3, 1, 20, 0x0f, 0x00, 6, 0x00},
	"escaped lag wrapping uint64":   {piggybackVersion, 2, 1, 20, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
	"escape varint missing":         {piggybackVersion, 3, 1, 20, 0x0f, 0x00, 0x00},
	"escape varint beyond the data": {piggybackVersion, 2, 1, 20, 0xff, 0x01},
	"n of zero":                     {piggybackVersion, 0, 1, 7},
	"origin beyond n":               {piggybackVersion, 3, 4, 7, 0x12, 0x00, 0x00},
}

// TestPiggybackDecodeRejectsMalformed holds the decoder to the one
// rendering Encode gives each field: no old-format frame, no set
// padding, no lag that would put a counter below zero, no escape
// without its varint.
func TestPiggybackDecodeRejectsMalformed(t *testing.T) {
	// Version 1 of {origin 1, counters 5 6 7, no suspects}: absolute
	// uvarint counters, then the bitmap.
	if _, err := DecodePiggyback([]byte{1, 3, 1, 5, 6, 7, 0}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("a version 1 frame was not refused by its version: %v", err)
	}
	// The same value in version 2: base 7, lags 2 1 0.
	good := []byte{piggybackVersion, 3, 1, 7, 0x12, 0x00, 0x00}
	pb, err := DecodePiggyback(good)
	if err != nil || !reflect.DeepEqual(pb.Counters, []uint64{5, 6, 7}) {
		t.Fatalf("hand-built frame decoded as %+v, %v", pb, err)
	}
	if re, _ := pb.Encode(); !bytes.Equal(re, good) {
		t.Fatalf("hand-built frame % x re-encodes as % x", good, re)
	}
	for name, data := range malformedFrames {
		if pb, err := DecodePiggyback(data); err == nil {
			t.Errorf("%s: decoded as %+v", name, pb)
		}
	}
	// One step inside each lag bound decodes.
	for name, data := range map[string][]byte{
		"nibble lag equal to base":  {piggybackVersion, 3, 1, 7, 0x27, 0x00, 0x00},
		"escaped lag equal to base": {piggybackVersion, 3, 1, 20, 0x0f, 0x00, 5, 0x00},
	} {
		pb, err := DecodePiggyback(data)
		if err != nil || pb.Counters[0] != 0 {
			t.Errorf("%s: decoded as %+v, %v; want counter 0 for node 1", name, pb, err)
		}
	}
}

// TestParseFrameChecksNFirst pins receive's use of the parser: a frame
// for another cluster size is refused on its header, before the body is
// looked at and with the escape list as it was.
func TestParseFrameChecksNFirst(t *testing.T) {
	// A valid frame of the largest n there is, every node but one escaped.
	big := Piggyback{Origin: 1, Counters: make([]uint64, maxPiggybackNodes), Suspects: make([]bool, maxPiggybackNodes)}
	big.Counters[0] = 1 << 20
	huge, err := big.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePiggyback(huge); err != nil {
		t.Fatalf("the largest frame does not decode: %v", err)
	}
	escapes := []uint64{7, 8, 9}
	for _, body := range [][]byte{huge, huge[:8]} {
		if _, err := parseFrame(body, 4, escapes); err == nil || !strings.Contains(err.Error(), "want 4") {
			t.Fatalf("frame for %d nodes (%d of %d bytes) not refused on its node count: %v", maxPiggybackNodes, len(body), len(huge), err)
		}
	}
	if !reflect.DeepEqual(escapes, []uint64{7, 8, 9}) {
		t.Fatalf("refused frame changed the escape list: %v", escapes)
	}
}

// FuzzPiggybackDecode holds the decoder to memory safety and the
// decode-encode-decode fixpoint on arbitrary input: the wire format
// gains fields in live-cluster PRs, and a frame off the network is
// attacker-adjacent input.
func FuzzPiggybackDecode(f *testing.F) {
	seedPB := Piggyback{
		Origin:   1,
		Counters: []uint64{5, 0, 1 << 33},
		Suspects: []bool{false, true, true},
	}
	if data, err := seedPB.Encode(); err == nil {
		f.Add(data)
	}
	if data, err := steadyFrame(33, 3000, 4).Encode(); err == nil {
		f.Add(data)
	}
	f.Add([]byte{piggybackVersion, 1, 1, 0, 0, 0})
	f.Add([]byte{piggybackVersion, 3, 1, 20, 0x0f, 0x00, 5, 0x00}) // one escaped lag
	f.Add([]byte{piggybackVersion, 3, 1, 7, 0x12, 0x10, 0x00})     // set padding nibble
	f.Add([]byte{1, 3, 1, 5, 6, 7, 0})                             // version 1
	f.Add([]byte{piggybackVersion, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pb, err := DecodePiggyback(data)
		if err != nil {
			return
		}
		re, err := pb.Encode()
		if err != nil {
			t.Fatalf("decoded piggyback does not re-encode: %v", err)
		}
		back, err := DecodePiggyback(re)
		if err != nil {
			t.Fatalf("re-encoded piggyback does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, pb) {
			t.Fatalf("decode/encode not a fixpoint:\nfirst  %+v\nsecond %+v", pb, back)
		}
	})
}

// steadyFrame is what a node of an n-node cluster gossips in steady
// state: every live counter within a few rounds of base (the overlay's
// diameter in rounds), and the nodes in dead stopped long ago.
func steadyFrame(n int, base uint64, dead ...int) Piggyback {
	pb := Piggyback{Origin: 1, Counters: make([]uint64, n), Suspects: make([]bool, n)}
	for i := range pb.Counters {
		pb.Counters[i] = base - uint64(i%9) // lags 0..8
	}
	for _, d := range dead {
		pb.Counters[d-1] = base / 3
		pb.Suspects[d-1] = true
	}
	return pb
}

// TestPiggybackSteadySize pins what the lag packing is for: a steady
// frame costs about n/2 + n/8 bytes whatever the counters' magnitude,
// and a dead node adds only its escape.
func TestPiggybackSteadySize(t *testing.T) {
	size := func(pb Piggyback) int {
		t.Helper()
		data, err := pb.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	const n = 256
	young, old := size(steadyFrame(n, 100)), size(steadyFrame(n, 1_000_000_000))
	if young > 180 || old > 180 {
		t.Errorf("steady n=%d frame is %d B at base 100 and %d B at base 1e9, want ≤ 180", n, young, old)
	}
	// Only the base varint grows with the cluster's age: 1 byte at 100,
	// 5 at 1e9.
	if old-young != 4 {
		t.Errorf("frame grew %d B from base 100 to base 1e9, want the base varint's 4", old-young)
	}
	withSuspects := steadyFrame(n, 3000)
	withSuspects.Suspects[7], withSuspects.Suspects[90], withSuspects.Suspects[200] = true, true, true
	if got, plain := size(withSuspects), size(steadyFrame(n, 3000)); got != plain {
		t.Errorf("3 suspicions changed the frame from %d to %d B", plain, got)
	}
	if extra := size(steadyFrame(n, 3000, 77)) - size(steadyFrame(n, 3000)); extra < 1 || extra > 3 {
		t.Errorf("a node dead for 2000 rounds costs %d extra bytes, want its escape varint, 1 to 3", extra)
	}
	// The ledger's three sizes, for a cluster a few thousand rounds in.
	for n, want := range map[int]int{64: 45, 256: 166, 1024: 646} {
		if got := size(steadyFrame(n, 3000)); got != want {
			t.Errorf("steady n=%d frame is %d B, want %d", n, got, want)
		}
	}
}
