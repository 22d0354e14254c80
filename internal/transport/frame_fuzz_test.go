package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"realisticfd/internal/model"
)

// frameOf renders env as appendFrame does for a link.
func frameOf(t testing.TB, env Envelope) []byte {
	t.Helper()
	frame, err := appendFrame(nil, env)
	if err != nil {
		t.Fatalf("appendFrame(%+v): %v", env, err)
	}
	return frame
}

func readFrameBytes(data []byte) (Envelope, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(data)))
}

// FuzzFrameRoundTrip holds the frame codec to exact round-trips: any
// envelope, with any bytes for a body, reads back identical.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), "heartbeat", []byte(`"7"`))
	f.Add(int64(0), int64(0), "", []byte(nil))
	f.Add(int64(200), int64(199), "gossip", []byte{2, 3, 1, 0x80, 0x01, 0x10, 0x02, 0xff, 0x00})
	f.Add(int64(-1), int64(1<<40), "x\x00y", []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, from, to int64, typ string, body []byte) {
		env := Envelope{From: model.ProcessID(from), To: model.ProcessID(to), Type: typ, Body: body}
		got, err := readFrameBytes(frameOf(t, env))
		if err != nil {
			t.Fatalf("readFrame after appendFrame: %v", err)
		}
		if got.From != env.From || got.To != env.To || got.Type != env.Type {
			t.Fatalf("round-trip mismatch: sent %+v got %+v", env, got)
		}
		if !bytes.Equal(got.Body, env.Body) {
			t.Fatalf("body mismatch: sent %q got %q", env.Body, got.Body)
		}
	})
}

// FuzzReadFrame feeds the reader adversarial bytes: it must never
// panic, and must either error or produce an envelope whose re-encoding
// reads back as the same envelope.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameOf(f, Envelope{From: 1, To: 2, Type: "heartbeat"}))
	f.Add(frameOf(f, Envelope{From: 7, To: 300, Type: "gossip", Body: []byte{2, 2, 1, 9, 0x10, 0x01}}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 0})          // the smallest frame
	f.Add([]byte{0, 0, 0, 3, 1, 2, 5})          // type length beyond the frame
	f.Add([]byte{0, 0, 0, 4, 0x80, 0x00, 2, 0}) // a padded varint
	f.Add([]byte{0, 0, 0, 3, 0xff, 0xff, 0xff}) // an unterminated varint
	f.Add([]byte{0, 0, 0, 2, '{', '}'})         // the old JSON framing
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readFrameBytes(data)
		if err != nil {
			return
		}
		again, err := readFrameBytes(frameOf(t, env))
		if err != nil {
			t.Fatalf("decoded frame does not re-encode and read: %v", err)
		}
		if again.From != env.From || again.To != env.To || again.Type != env.Type || !bytes.Equal(again.Body, env.Body) {
			t.Fatalf("decode/encode not a fixpoint:\nfirst  %+v\nsecond %+v", env, again)
		}
	})
}

func TestReadFrameTruncated(t *testing.T) {
	whole := frameOf(t, Envelope{From: 1, To: 2, Type: "x", Body: []byte{0, 1, 2, 3}})
	for cut := 0; cut < len(whole); cut++ {
		if _, err := readFrameBytes(whole[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes was not rejected", cut, len(whole))
		}
	}
	if _, err := readFrameBytes(whole); err != nil {
		t.Fatalf("the whole frame was rejected: %v", err)
	}
}

func TestReadFrameRejectsBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":                   {0, 0, 0, 0},
		"header cut after from":         {0, 0, 0, 1, 1},
		"unterminated varint":           {0, 0, 0, 3, 0xff, 0xff, 0xff},
		"type length beyond the frame":  {0, 0, 0, 4, 1, 2, 2, 'x'},
		"type length that wraps an int": {0, 0, 0, 12, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for name, data := range cases {
		if env, err := readFrameBytes(data); err == nil {
			t.Errorf("%s: read as %+v", name, env)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	// Nothing follows the header: a reader that tried to allocate and
	// fill the claimed size would fail with an EOF, not with the limit.
	_, err := readFrameBytes(hdr[:])
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: err=%v", err)
	}
}

func TestAppendFrameOversized(t *testing.T) {
	dst := []byte{9}
	got, err := appendFrame(dst, Envelope{From: 1, To: 2, Type: "x", Body: make([]byte, maxFrame)})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized envelope not rejected: err=%v", err)
	}
	if !bytes.Equal(got, dst) {
		t.Fatalf("a refused envelope left %d bytes in the buffer", len(got)-len(dst))
	}
	body := make([]byte, maxFrame-4) // from, to, typeLen and a one-byte type fill the limit exactly
	if _, err := readFrameBytes(frameOf(t, Envelope{From: 1, To: 2, Type: "x", Body: body})); err != nil {
		t.Fatalf("a frame of exactly the limit was refused: %v", err)
	}
}

func TestWriteJSONOversized(t *testing.T) {
	big := strings.Repeat("a", maxFrame)
	err := WriteJSON(io.Discard, big)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized payload not rejected: err=%v", err)
	}
}

func TestReadJSONBadPayload(t *testing.T) {
	body := []byte("not json")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	var v any
	if err := ReadJSON(&buf, &v); err == nil {
		t.Fatal("malformed JSON frame was not rejected")
	}
}
