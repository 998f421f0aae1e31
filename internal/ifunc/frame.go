// Package ifunc defines the ifunc message frame — the wire format of
// Three-Chains messages (paper Figures 2 and 3) — and the transparent
// code-caching protocol that elides the code section once the target has
// seen an ifunc type (Figure 4, §III-D).
//
// Frame layout:
//
//	full:      HEADER | PAYLOAD | MAGIC1 | CODELEN | CODE | MAGIC2
//	truncated: HEADER | PAYLOAD | MAGIC1
//	hash-ref:  HEADER | PAYLOAD | MAGIC1 | 0xFFFFFFFF | CODEHASH | CODELEN | MAGIC2
//
// The header is 24 bytes; a truncated (cached) frame with the TSI
// benchmark's 1-byte payload is exactly 26 bytes, matching §V-A: the
// leading TruncatedLen bytes of the full frame. The sender encodes only
// the form it transmits (AppendFrame), priced by FrameLen.
//
// The hash-ref form is this reproduction's cluster-wide extension of the
// paper's pairwise protocol: when the destination's content-addressed
// store already holds the code section (shipped there by *any* peer,
// possibly under a different type name), the sender replaces the code
// section with its 64-bit content hash — the CODELEN slot carries the
// sentinel HashRefSentinel, followed by the 8-byte ContentHash and the
// real code length as a resolution sanity check. The receiver resolves
// the bytes from its local store, so the cold-send cost of a distinct
// module is paid once cluster-wide instead of once per (src, dst, name).
package ifunc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// CodeKind discriminates the shipped code representation.
type CodeKind uint8

const (
	// KindBitcode ships a fat-bitcode archive (§III-C).
	KindBitcode CodeKind = 1
	// KindBinary ships an ELF-like object for one ISA (§III-B).
	KindBinary CodeKind = 2
)

// String names the kind.
func (k CodeKind) String() string {
	switch k {
	case KindBitcode:
		return "bitcode"
	case KindBinary:
		return "binary"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// HeaderLen is the fixed frame header size.
const HeaderLen = 24

// Magic bytes: Magic0 marks the frame start; Magic1 separates payload
// from code; Magic2 terminates a full frame (the MAGIC fields of Figures
// 2-3, used to detect complete delivery of one-sided writes).
const (
	Magic0 byte = 0xC3
	Magic1 byte = 0xA5
	Magic2 byte = 0x5A
)

// Frame errors.
var (
	ErrShortFrame = errors.New("ifunc: frame too short")
	ErrBadFrame   = errors.New("ifunc: malformed frame")
	ErrNoCode     = errors.New("ifunc: truncated frame for unregistered ifunc")
)

// Header is the decoded frame header.
type Header struct {
	Kind       CodeKind
	Version    uint8
	NameHash   uint64 // ifunc type id (FNV-1a of the registered name)
	Entry      uint16 // entry function index within the shipped module
	SrcNode    uint16 // originating node id
	Seq        uint32 // sender sequence number
	PayloadLen uint32
}

// HashRefSentinel in the CODELEN slot marks a hash-ref frame: the code
// section is replaced by (content hash, real code length).
const HashRefSentinel uint32 = 0xFFFFFFFF

// Frame is a parsed ifunc message.
type Frame struct {
	Header
	Payload []byte
	// Code is nil for truncated (cache-hit) and hash-ref frames.
	Code []byte
	// HashRef marks a hash-ref frame; CodeHash/CodeLen then carry the
	// content key and the declared code length the receiver must find in
	// its store.
	HashRef  bool
	CodeHash uint64
	CodeLen  uint32
}

// NameHash derives the 64-bit ifunc type id from its registered name.
func NameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// FrameForm is the encoded shape of one ifunc frame: the caching
// protocol picks exactly one per send (Figure 4 plus the hash-ref
// extension), and FrameLen/AppendFrame are its pricing and encoding.
type FrameForm uint8

const (
	// FormFull carries the code section.
	FormFull FrameForm = iota
	// FormTruncated elides it: the target already has the type.
	FormTruncated
	// FormHashRef replaces it by its content hash: the target's store
	// holds the bytes (pinned) under some other type.
	FormHashRef
)

// FrameLen returns the wire length of a frame of the given form:
// header + payload + MAGIC1, then for a full frame CODELEN + CODE +
// MAGIC2 and for a hash-ref frame sentinel (4) + content hash (8) + code
// length (4) + MAGIC2. codeLen only matters for the full form.
func FrameLen(form FrameForm, payloadLen, codeLen int) int {
	n := HeaderLen + payloadLen + 1
	switch form {
	case FormFull:
		n += 4 + codeLen + 1
	case FormHashRef:
		n += 17
	}
	return n
}

// TruncatedLen returns how many bytes of a full frame the sender
// transmits when the target already has the code: header + payload +
// MAGIC1.
func TruncatedLen(payloadLen int) int { return FrameLen(FormTruncated, payloadLen, 0) }

// AppendFrame appends the encoding of form to dst and returns the
// extended slice: len(result)-len(dst) is always FrameLen(form,
// len(payload), len(code)). code is the section a full frame carries;
// codeHash is the content key a hash-ref frame carries instead.
func AppendFrame(dst []byte, form FrameForm, h Header, payload, code []byte, codeHash uint64) []byte {
	switch form {
	case FormTruncated:
		return AppendTruncated(dst, h, payload)
	case FormHashRef:
		return AppendHashRef(dst, h, payload, codeHash, len(code))
	}
	dst = AppendTruncated(dst, h, payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(code)))
	dst = append(dst, code...)
	return append(dst, Magic2)
}

// Build constructs the full frame bytes. Its leading TruncatedLen bytes
// are the truncated frame.
func Build(h Header, payload, code []byte) []byte {
	return AppendFrame(nil, FormFull, h, payload, code, 0)
}

// AppendTruncated appends the truncated (cache-hit) frame encoding —
// header, payload, MAGIC1, no code section — to dst and returns the
// extended slice. Cached-path senders use it to skip copying the code
// section entirely: the transmitted bytes are identical to the leading
// TruncatedLen bytes of the full frame.
func AppendTruncated(dst []byte, h Header, payload []byte) []byte {
	h.PayloadLen = uint32(len(payload))
	dst = append(dst, Magic0, byte(h.Kind), h.Version, 0)
	dst = binary.LittleEndian.AppendUint64(dst, h.NameHash)
	dst = binary.LittleEndian.AppendUint16(dst, h.Entry)
	dst = binary.LittleEndian.AppendUint16(dst, h.SrcNode)
	dst = binary.LittleEndian.AppendUint32(dst, h.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, h.PayloadLen)
	dst = append(dst, payload...)
	dst = append(dst, Magic1)
	return dst
}

// AppendHashRef appends the hash-ref frame encoding — header, payload,
// MAGIC1, the CODELEN sentinel, the 8-byte content hash, the real code
// length and MAGIC2 — to dst and returns the extended slice. Used when
// the destination's content-addressed store holds the code (pinned) but
// the ifunc type itself is not registered there.
func AppendHashRef(dst []byte, h Header, payload []byte, codeHash uint64, codeLen int) []byte {
	dst = AppendTruncated(dst, h, payload)
	dst = binary.LittleEndian.AppendUint32(dst, HashRefSentinel)
	dst = binary.LittleEndian.AppendUint64(dst, codeHash)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(codeLen))
	dst = append(dst, Magic2)
	return dst
}

// Parse decodes a frame (full or truncated). The returned frame aliases
// data; callers that retain it must copy.
func Parse(data []byte) (*Frame, error) {
	f := new(Frame)
	if err := f.ParseInto(data); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseInto decodes a frame (full or truncated) into f in place,
// overwriting every field — the allocation-free form of Parse for
// receivers that reuse one Frame per polling loop. The parsed frame
// aliases data; callers that retain payload or code must copy.
func (f *Frame) ParseInto(data []byte) error {
	f.Payload, f.Code = nil, nil
	f.HashRef, f.CodeHash, f.CodeLen = false, 0, 0
	if len(data) < HeaderLen+1 {
		return fmt.Errorf("%w: %d bytes", ErrShortFrame, len(data))
	}
	if data[0] != Magic0 {
		return fmt.Errorf("%w: bad start magic %#x", ErrBadFrame, data[0])
	}
	f.Kind = CodeKind(data[1])
	if f.Kind != KindBitcode && f.Kind != KindBinary {
		return fmt.Errorf("%w: kind %d", ErrBadFrame, data[1])
	}
	f.Version = data[2]
	// The reserved byte must be zero: enforcing it keeps every accepted
	// frame canonical (parse∘build is the identity), which the fuzz
	// harness checks.
	if data[3] != 0 {
		return fmt.Errorf("%w: nonzero reserved byte %#x", ErrBadFrame, data[3])
	}
	f.NameHash = binary.LittleEndian.Uint64(data[4:])
	f.Entry = binary.LittleEndian.Uint16(data[12:])
	f.SrcNode = binary.LittleEndian.Uint16(data[14:])
	f.Seq = binary.LittleEndian.Uint32(data[16:])
	f.PayloadLen = binary.LittleEndian.Uint32(data[20:])

	pEnd := HeaderLen + int(f.PayloadLen)
	if pEnd+1 > len(data) {
		return fmt.Errorf("%w: payload %d exceeds frame %d", ErrBadFrame, f.PayloadLen, len(data))
	}
	if data[pEnd] != Magic1 {
		return fmt.Errorf("%w: bad separator magic %#x", ErrBadFrame, data[pEnd])
	}
	f.Payload = data[HeaderLen:pEnd]
	if len(data) == pEnd+1 {
		// Truncated frame: code elided by the caching protocol.
		return nil
	}
	if pEnd+5 > len(data) {
		return fmt.Errorf("%w: dangling code length", ErrBadFrame)
	}
	codeLen := binary.LittleEndian.Uint32(data[pEnd+1:])
	cStart := pEnd + 5
	if codeLen == HashRefSentinel {
		// Hash-ref frame: 8-byte content hash + 4-byte real code length.
		if cStart+13 != len(data) {
			return fmt.Errorf("%w: hash-ref section %d bytes", ErrBadFrame, len(data)-cStart)
		}
		if data[cStart+12] != Magic2 {
			return fmt.Errorf("%w: bad trailer magic %#x", ErrBadFrame, data[cStart+12])
		}
		f.HashRef = true
		f.CodeHash = binary.LittleEndian.Uint64(data[cStart:])
		f.CodeLen = binary.LittleEndian.Uint32(data[cStart+8:])
		return nil
	}
	cEnd := cStart + int(codeLen)
	if cEnd+1 != len(data) {
		return fmt.Errorf("%w: code %d bytes does not fill frame %d", ErrBadFrame, codeLen, len(data))
	}
	if data[cEnd] != Magic2 {
		return fmt.Errorf("%w: bad trailer magic %#x", ErrBadFrame, data[cEnd])
	}
	f.Code = data[cStart:cEnd]
	return nil
}
