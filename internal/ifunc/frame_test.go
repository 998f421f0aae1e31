package ifunc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCachedFrameIs26Bytes(t *testing.T) {
	// §V-A: "The cached ifunc message is just 26B" (1-byte payload).
	if got := TruncatedLen(1); got != 26 {
		t.Fatalf("cached frame = %d bytes, want 26", got)
	}
}

func TestBuildParseFullFrame(t *testing.T) {
	h := Header{Kind: KindBitcode, NameHash: NameHash("tsi"), Entry: 1,
		SrcNode: 3, Seq: 99}
	payload := []byte{1, 2, 3}
	code := []byte("fat bitcode archive bytes")
	frame := Build(h, payload, code)
	if want := FrameLen(FormFull, len(payload), len(code)); len(frame) != want {
		t.Fatalf("frame = %d bytes, want %d", len(frame), want)
	}
	f, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindBitcode || f.NameHash != NameHash("tsi") || f.Entry != 1 ||
		f.SrcNode != 3 || f.Seq != 99 {
		t.Fatalf("header round trip: %+v", f.Header)
	}
	if string(f.Payload) != string(payload) || string(f.Code) != string(code) {
		t.Fatal("payload/code round trip failed")
	}
}

func TestParseTruncatedFrame(t *testing.T) {
	h := Header{Kind: KindBinary, NameHash: 42}
	frame := Build(h, []byte{7}, []byte("code"))
	// The caching protocol sends only the truncated prefix; the frame
	// itself is never modified.
	trunc := frame[:TruncatedLen(1)]
	f, err := Parse(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Code != nil {
		t.Fatal("truncated frame decoded with code")
	}
	if len(f.Payload) != 1 || f.Payload[0] != 7 {
		t.Fatalf("payload %v", f.Payload)
	}
	// The full frame still parses with code intact (resend to a third
	// process).
	f2, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Code) != "code" {
		t.Fatal("full frame lost code after truncated view")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	h := Header{Kind: KindBitcode, NameHash: 1}
	frame := Build(h, []byte{1, 2}, []byte("xyz"))

	bad := append([]byte(nil), frame...)
	bad[0] = 0 // start magic
	if _, err := Parse(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad start magic: %v", err)
	}

	bad = append([]byte(nil), frame...)
	bad[HeaderLen+2] = 0 // separator magic
	if _, err := Parse(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad separator: %v", err)
	}

	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] = 0 // trailer magic
	if _, err := Parse(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad trailer: %v", err)
	}

	bad = append([]byte(nil), frame...)
	bad[1] = 77 // kind
	if _, err := Parse(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad kind: %v", err)
	}

	if _, err := Parse(frame[:10]); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short frame: %v", err)
	}
}

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		Parse(b) // must not panic
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	check := func(hash uint64, entry uint16, src uint16, seq uint32, payload, code []byte) bool {
		if len(payload) > 1<<16 || len(code) > 1<<16 {
			return true
		}
		h := Header{Kind: KindBitcode, NameHash: hash, Entry: entry, SrcNode: src, Seq: seq}
		f, err := Parse(Build(h, payload, code))
		if err != nil {
			return false
		}
		if f.NameHash != hash || f.Entry != entry || f.SrcNode != src || f.Seq != seq {
			return false
		}
		if len(f.Payload) != len(payload) || len(f.Code) != len(code) {
			return false
		}
		for i := range payload {
			if f.Payload[i] != payload[i] {
				return false
			}
		}
		for i := range code {
			if f.Code[i] != code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNameHashStable(t *testing.T) {
	if NameHash("tsi") != NameHash("tsi") {
		t.Fatal("hash not stable")
	}
	if NameHash("tsi") == NameHash("dapc") {
		t.Fatal("distinct names collide")
	}
}

func TestRegistry(t *testing.T) {
	rg := NewRegistry()
	if _, ok := rg.Get(1); ok {
		t.Fatal("empty registry returned a registration")
	}
	r := &Registration{Name: "x", Hash: 1, EntryNames: []string{"main", "aux"}}
	rg.Put(r)
	got, ok := rg.Get(1)
	if !ok || got != r || rg.Len() != 1 {
		t.Fatal("registry lookup failed")
	}
	if n, err := r.EntryName(1); err != nil || n != "aux" {
		t.Fatalf("entry name: %q %v", n, err)
	}
	if _, err := r.EntryName(5); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	// Replacement.
	r2 := &Registration{Name: "y", Hash: 1}
	rg.Put(r2)
	if got, _ := rg.Get(1); got != r2 {
		t.Fatal("replacement failed")
	}
}

func TestSentCache(t *testing.T) {
	c := NewSentCache()
	if c.Contains(1, 100) {
		t.Fatal("fresh cache reports seen")
	}
	c.Mark(1, 100)
	if !c.Contains(1, 100) {
		t.Fatal("marked entry not seen")
	}
	// Different endpoint, same type: unseen (per-endpoint tracking).
	if c.Contains(2, 100) {
		t.Fatal("endpoint 2 inherited endpoint 1's cache entry")
	}
	// Different type, same endpoint: unseen.
	if c.Contains(1, 200) {
		t.Fatal("type 200 inherited type 100's entry")
	}
	// Forget invalidates everywhere.
	c.Mark(2, 100)
	c.Forget(100)
	if c.Contains(1, 100) || c.Contains(2, 100) {
		t.Fatal("forget did not invalidate")
	}
}

// TestAppendFrameMatchesFrameLen pins the pricing rule to the encoder:
// for every form, AppendFrame emits exactly FrameLen bytes (appending to
// a non-empty buffer), and the result parses back as that form.
func TestAppendFrameMatchesFrameLen(t *testing.T) {
	h := Header{Kind: KindBitcode, NameHash: NameHash("tsi"), Entry: 1, SrcNode: 2, Seq: 3}
	code := []byte("fat bitcode archive bytes")
	ch := ContentHash(code)
	for _, payloadLen := range []int{0, 1, 8, 300} {
		payload := make([]byte, payloadLen)
		for _, form := range []FrameForm{FormFull, FormTruncated, FormHashRef} {
			prefix := []byte{0xEE, 0xEE}
			frame := AppendFrame(prefix, form, h, payload, code, ch)[len(prefix):]
			if want := FrameLen(form, payloadLen, len(code)); len(frame) != want {
				t.Fatalf("form %d/%d: encoded %d bytes, FrameLen %d", form, payloadLen, len(frame), want)
			}
			f, err := Parse(frame)
			if err != nil {
				t.Fatalf("form %d/%d: %v", form, payloadLen, err)
			}
			if (f.Code != nil) != (form == FormFull) || f.HashRef != (form == FormHashRef) ||
				(f.HashRef && f.CodeHash != ch) {
				t.Fatalf("form %d/%d: parsed %+v", form, payloadLen, f)
			}
		}
	}
	if FrameLen(FormTruncated, 1, 0) != 26 || FrameLen(FormHashRef, 1, 0) != 43 {
		t.Fatal("paper frame sizes drifted: truncated must be 26 B, hash-ref 43 B at a 1-byte payload")
	}
}

func TestHashRefFrameRoundTrip(t *testing.T) {
	h := Header{Kind: KindBitcode, NameHash: NameHash("tsi"), Entry: 2,
		SrcNode: 7, Seq: 11}
	payload := []byte{9}
	code := []byte("fat bitcode archive bytes")
	ch := ContentHash(code)
	frame := AppendHashRef(nil, h, payload, ch, len(code))
	if want := FrameLen(FormHashRef, len(payload), len(code)); len(frame) != want {
		t.Fatalf("frame = %d bytes, want %d", len(frame), want)
	}
	// The hash-ref form costs 17 bytes over the 26-byte cached frame —
	// still independent of code size.
	if got := FrameLen(FormHashRef, 1, len(code)); got != 43 {
		t.Fatalf("hash-ref frame = %d bytes, want 43", got)
	}
	f, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HashRef || f.CodeHash != ch || int(f.CodeLen) != len(code) {
		t.Fatalf("hash-ref round trip: %+v", f)
	}
	if f.Code != nil {
		t.Fatal("hash-ref frame decoded with inline code")
	}
	if f.Entry != 2 || f.Seq != 11 || string(f.Payload) != string(payload) {
		t.Fatalf("header/payload round trip: %+v", f)
	}
	// Re-parsing a truncated frame into the same Frame clears the
	// hash-ref fields (pooled Frame reuse).
	trunc := AppendTruncated(nil, h, payload)
	if err := f.ParseInto(trunc); err != nil {
		t.Fatal(err)
	}
	if f.HashRef || f.CodeHash != 0 || f.CodeLen != 0 {
		t.Fatalf("stale hash-ref state after reuse: %+v", f)
	}
}

func TestHashRefFrameRejectsCorruption(t *testing.T) {
	h := Header{Kind: KindBitcode, NameHash: 1}
	frame := AppendHashRef(nil, h, []byte{1}, 0xdeadbeef, 100)

	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] = 0 // trailer magic
	if _, err := Parse(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad trailer: %v", err)
	}

	// Truncated mid-hash: the sentinel promises 13 more bytes.
	if _, err := Parse(frame[:len(frame)-4]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short hash-ref: %v", err)
	}

	// Extra trailing byte.
	if _, err := Parse(append(append([]byte(nil), frame...), 0x5A)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized hash-ref: %v", err)
	}
}
