package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// decodeWire strips the length prefix off one encoded frame and
// decodes the body — the test-side composition of ReadFrame+Decode.
func decodeWire(t *testing.T, wire []byte) Frame {
	t.Helper()
	body, err := ReadFrame(bytes.NewReader(wire), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := DecodeFrame(body, nil)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	return f
}

func TestProtoRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpAccess, Addr: 0x1000},
		{Op: OpAccess, Write: true, Addr: 0xdeadbeefcafe},
		{Op: OpAlloc, Addr: 1 << 21, Size: 8 << 20},
		{Op: OpFree, Addr: 0, Size: 4096},
	}
	cases := []struct {
		name string
		wire []byte
		want Frame
	}{
		{"hello", AppendHello(nil, 7, "artload-3"),
			Frame{Type: FrameHello, Version: ProtoVersion, Tenant: 7, ClientID: "artload-3"}},
		{"hello ack", AppendHelloAck(nil, CodeDraining, "server draining"),
			Frame{Type: FrameHelloAck, Code: CodeDraining, Msg: "server draining"}},
		{"batch", AppendBatch(nil, 42, recs),
			Frame{Type: FrameBatch, Seq: 42, Records: recs}},
		{"empty batch", AppendBatch(nil, 1, nil),
			Frame{Type: FrameBatch, Seq: 1, Records: []Record{}}},
		{"ack", AppendAck(nil, 42, 4096, 12345),
			Frame{Type: FrameAck, Seq: 42, Count: 4096, QueueNs: 12345}},
		{"reject", AppendReject(nil, 9, CodeOverloaded, "queue full"),
			Frame{Type: FrameReject, Seq: 9, Code: CodeOverloaded, Msg: "queue full"}},
		{"bye", AppendBye(nil), Frame{Type: FrameBye}},
		{"drain", AppendDrain(nil), Frame{Type: FrameDrain}},
	}
	for _, c := range cases {
		got := decodeWire(t, c.wire)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestProtoAccessBatchFastPath(t *testing.T) {
	addrs := []uint64{1, 4096, 1 << 40}
	writes := []bool{false, true, false}
	fast := AppendAccessBatch(nil, 5, addrs, writes)
	var recs []Record
	for i := range addrs {
		recs = append(recs, Record{Op: OpAccess, Addr: addrs[i], Write: writes[i]})
	}
	if want := AppendBatch(nil, 5, recs); !bytes.Equal(fast, want) {
		t.Fatalf("AppendAccessBatch wire differs from AppendBatch:\n%x\n%x", fast, want)
	}
}

// TestProtoGarbage pins the robustness contract: truncated frames,
// oversized lengths, bad opcodes, and structural lies all error
// cleanly.
func TestProtoGarbage(t *testing.T) {
	t.Run("oversized length", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
		_, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), nil); err == nil {
			t.Fatal("short header decoded")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		wire := AppendBatch(nil, 1, []Record{{Op: OpAccess, Addr: 7}})
		_, err := ReadFrame(bytes.NewReader(wire[:len(wire)-3]), nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})

	bad := [][]byte{
		{},                                     // empty body
		{0x7f},                                 // unknown type
		{FrameHello},                           // short hello
		{FrameHello, 1, 0, 0, 0, 1, 0, 9, 'x'}, // id length lies
		{FrameHelloAck},                        // short hello ack
		{FrameBatch, 0, 0},                     // short batch header
		{FrameBye, 1},                          // body on a control frame
		{FrameDrain, 0},                        // body on a control frame
		{FrameAck, 1, 2, 3},                    // short ack
		{FrameReject, 0, 0, 0, 0, 0, 0, 0, 0},  // short reject
	}
	// Batch whose count exceeds what the payload can hold.
	{
		b := []byte{FrameBatch}
		b = binary.BigEndian.AppendUint64(b, 1)
		b = binary.BigEndian.AppendUint32(b, 1000)
		b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		bad = append(bad, b)
	}
	// Record with an undefined op.
	{
		b := []byte{FrameBatch}
		b = binary.BigEndian.AppendUint64(b, 1)
		b = binary.BigEndian.AppendUint32(b, 1)
		b = append(b, 0x05) // op 5: not access/alloc/free
		b = binary.BigEndian.AppendUint64(b, 0)
		bad = append(bad, b)
	}
	// Alloc record missing its size field.
	{
		b := []byte{FrameBatch}
		b = binary.BigEndian.AppendUint64(b, 1)
		b = binary.BigEndian.AppendUint32(b, 1)
		b = append(b, OpAlloc)
		b = binary.BigEndian.AppendUint64(b, 0)
		bad = append(bad, b)
	}
	// Valid batch with trailing garbage.
	{
		wire := AppendBatch(nil, 1, []Record{{Op: OpAccess, Addr: 7}})
		bad = append(bad, append(wire[4:len(wire):len(wire)], 0xff))
	}
	for i, body := range bad {
		if _, err := DecodeFrame(body, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("garbage case %d (% x): err = %v, want ErrMalformed", i, body, err)
		}
	}
}

// TestProtoStream pins that back-to-back frames decode in sequence off
// one buffered reader, as the conn read loops consume them.
func TestProtoStream(t *testing.T) {
	var wire []byte
	wire = AppendHello(wire, 0, "c")
	wire = AppendBatch(wire, 1, []Record{{Op: OpAccess, Addr: 64}})
	wire = AppendBye(wire)
	br := bufio.NewReader(bytes.NewReader(wire))
	types := []byte{}
	for {
		f, err := ReadDecode(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, f.Type)
	}
	if want := []byte{FrameHello, FrameBatch, FrameBye}; !bytes.Equal(types, want) {
		t.Fatalf("stream types = %v, want %v", types, want)
	}
}

func TestCodeString(t *testing.T) {
	for code, want := range map[byte]string{
		CodeOK: "ok", CodeOverloaded: "overloaded", CodeBadTenant: "bad_tenant",
		CodeDraining: "draining", CodeThrottled: "throttled", CodeMalformed: "malformed",
		99: "code99",
	} {
		if got := CodeString(code); got != want {
			t.Errorf("CodeString(%d) = %q, want %q", code, got, want)
		}
	}
}
