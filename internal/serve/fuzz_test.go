package serve

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame pins the decoder's no-panic contract: any byte
// string either decodes to a frame that re-encodes consistently or
// errors cleanly.
func FuzzDecodeFrame(f *testing.F) {
	seed := [][]byte{
		AppendHello(nil, 3, "fuzz"),
		AppendHelloAck(nil, CodeOK, ""),
		AppendBatch(nil, 7, []Record{
			{Op: OpAccess, Addr: 4096, Write: true},
			{Op: OpAlloc, Addr: 0, Size: 1 << 20},
			{Op: OpFree, Addr: 1 << 30, Size: 4096},
		}),
		AppendAck(nil, 7, 3, 999),
		AppendReject(nil, 7, CodeOverloaded, "queue full"),
		AppendBye(nil),
		AppendDrain(nil),
		{},
		{0xff, 0xff, 0xff},
	}
	for _, wire := range seed {
		if len(wire) > 4 {
			f.Add(wire[4:]) // frame body sans length prefix
		} else {
			f.Add(wire)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeFrame(body, nil)
		if err != nil {
			return
		}
		// A decodable body must re-encode to the identical wire bytes:
		// encode(decode(x)) == x for every accepted input.
		var wire []byte
		switch fr.Type {
		case FrameHello:
			// The decoder accepts any version byte (the handshake rejects
			// mismatches); the encoder only writes ProtoVersion, so the
			// re-encode identity only holds for current-version hellos.
			if fr.Version != ProtoVersion {
				return
			}
			wire = AppendHello(nil, fr.Tenant, fr.ClientID)
		case FrameHelloAck:
			wire = AppendHelloAck(nil, fr.Code, fr.Msg)
		case FrameBatch:
			wire = AppendBatch(nil, fr.Seq, fr.Records)
		case FrameAck:
			wire = AppendAck(nil, fr.Seq, fr.Count, fr.QueueNs)
		case FrameReject:
			wire = AppendReject(nil, fr.Seq, fr.Code, fr.Msg)
		case FrameBye:
			wire = AppendBye(nil)
		case FrameDrain:
			wire = AppendDrain(nil)
		default:
			t.Fatalf("decoded unknown frame type 0x%02x", fr.Type)
		}
		if !bytes.Equal(wire[4:], body) {
			t.Fatalf("re-encode mismatch:\n in % x\nout % x", body, wire[4:])
		}
	})
}
