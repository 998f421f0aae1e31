package core

import (
	"fmt"

	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/linker"
)

// Guest-visible runtime libraries. Every node preloads libtc.so (the
// Three-Chains intrinsics: self-identification, recursive forwarding,
// completion) and libucx.so (one-sided operations issued from guest code
// — ifuncs "can interact with external libraries including UCX itself").
// ifunc modules name these in their deps list; the remote linker binds
// the GOT slots to the closures installed here.

// Guest-callable symbol names.
const (
	SymNodeID   = "tc.node_id"
	SymNumNodes = "tc.num_nodes"
	SymSendSelf = "tc.send_self"
	SymComplete = "tc.complete"
	SymNowNS    = "tc.now_ns"
	SymLog      = "tc.log"
	SymPutU64   = "ucx.put_u64"
)

// LibTC and LibUCX are the dependency names guest modules declare.
const (
	LibTC  = "libtc.so"
	LibUCX = "libucx.so"
)

func (r *Runtime) installRuntimeLibs() {
	tc := linker.NewDynLib(LibTC)
	tc.Funcs[SymNodeID] = func([]uint64) (uint64, error) {
		return uint64(r.Node.ID), nil
	}
	tc.Funcs[SymNumNodes] = func([]uint64) (uint64, error) {
		return uint64(len(r.Cluster.Runtimes)), nil
	}
	tc.Funcs[SymNowNS] = func([]uint64) (uint64, error) {
		return uint64(r.eng().Now() / 1000), nil
	}
	tc.Funcs[SymLog] = func(args []uint64) (uint64, error) {
		r.GuestLog = append(r.GuestLog, args...)
		return 0, nil
	}
	// tc.send_self(dstNode, entryIdx, payloadPtr, payloadLen):
	// forward the *currently executing* ifunc module to another node,
	// optionally through a different entry point — the recursive
	// injection primitive behind X-RDMA.
	tc.Funcs[SymSendSelf] = func(args []uint64) (uint64, error) {
		if len(args) != 4 {
			return 0, fmt.Errorf("core: %s needs 4 args, got %d", SymSendSelf, len(args))
		}
		return r.guestSendSelf(args[0], args[1], args[2], args[3])
	}
	// tc.complete(value): fire the node's completion signal (result
	// delivery to a waiting client, e.g. DAPC's ReturnResult).
	tc.Funcs[SymComplete] = func(args []uint64) (uint64, error) {
		v := uint64(0)
		if len(args) > 0 {
			v = args[0]
		}
		r.pendingDone = append(r.pendingDone, v)
		return 0, nil
	}
	if err := r.Loader.Preload(tc); err != nil {
		panic(err) // fresh loader; duplicate preload is a programming bug
	}

	ucxlib := linker.NewDynLib(LibUCX)
	// ucx.put_u64(dstNode, remoteAddr, value): one-sided 8-byte write
	// into a peer's heap, issued from guest code (X-RDMA memory update).
	ucxlib.Funcs[SymPutU64] = func(args []uint64) (uint64, error) {
		if len(args) != 3 {
			return 0, fmt.Errorf("core: %s needs 3 args, got %d", SymPutU64, len(args))
		}
		dst := int(args[0])
		if dst < 0 || dst >= len(r.Cluster.Runtimes) {
			return 0, fmt.Errorf("core: %s: bad node %d", SymPutU64, dst)
		}
		data := make([]byte, 8)
		for i := 0; i < 8; i++ {
			data[i] = byte(args[2] >> (8 * i))
		}
		r.pendingPuts = append(r.pendingPuts, pendingPut{dst: dst, addr: args[1], data: data})
		return 0, nil
	}
	if err := r.Loader.Preload(ucxlib); err != nil {
		panic(err)
	}
}

// guestSendSelf implements tc.send_self: it encodes a frame for the
// currently executing registration and buffers it for transmission at
// execution completion. The frame form is frameForm's decision, exactly
// as for host-initiated sends; for binary ifuncs a destination of a
// different ISA is unreachable (the §III-B limitation — fat bitcode
// does not have it). Every argument is guest-controlled, so each is
// range-checked without overflow before it indexes anything.
func (r *Runtime) guestSendSelf(dst, entry, payloadPtr, payloadLen uint64) (uint64, error) {
	reg := r.current
	if reg == nil {
		return 0, fmt.Errorf("core: %s outside ifunc execution", SymSendSelf)
	}
	if dst >= uint64(len(r.Cluster.Runtimes)) {
		return 0, fmt.Errorf("core: %s: bad node %d", SymSendSelf, dst)
	}
	if entry > 0xFFFF || entry >= uint64(len(reg.EntryNames)) {
		return 0, fmt.Errorf("core: %s: bad entry %d", SymSendSelf, entry)
	}
	mem := r.Node.Mem()
	if payloadLen > payloadArena || payloadPtr > uint64(len(mem)) || payloadLen > uint64(len(mem))-payloadPtr {
		return 0, fmt.Errorf("core: %s: payload out of bounds", SymSendSelf)
	}
	payload := mem[payloadPtr : payloadPtr+payloadLen]
	if r.currentAMID >= 0 {
		// Active Message transport: the handler table is predeployed
		// everywhere, so forwards never ship code — just the payload and
		// the entry index in the AM header.
		r.pendingAMs = append(r.pendingAMs, pendingAM{
			dst: int(dst), entry: uint16(entry), payload: append([]byte(nil), payload...),
		})
		return 0, nil
	}
	if reg.Kind == ifunc.KindBinary {
		dstArch := r.Cluster.Runtimes[dst].Node.March.Triple.Arch
		if dstArch != r.Node.March.Triple.Arch {
			return 0, fmt.Errorf("%w: forwarding %s binary to %s node",
				ErrNoBinary, r.Node.March.Triple.Arch, dstArch)
		}
	}
	// The frame is encoded (and the payload snapshotted out of node
	// memory) at send_self time, directly into a pooled buffer, so a
	// cached forward never copies the code section at all. reg.CodeHash
	// is memoized at registration: no hashing happens here.
	hdr := ifunc.Header{Kind: reg.Kind, NameHash: reg.Hash, Entry: uint16(entry)}
	d := r.frameForm(int(dst), reg.Hash, reg.CodeHash)
	frame := r.encodeFrame(int(dst), hdr, payload, reg.CodeBytes, reg.CodeHash, d)
	r.pendingSends = append(r.pendingSends, pendingSend{dst: int(dst), frame: frame})
	return 0, nil
}

// RegisterLocal registers a handle's module on the local node as if it
// had been received over the wire (used by sources that also execute
// their own ifuncs, e.g. the DAPC client receiving ReturnResult). The
// node keeps the code bytes so it can propagate the type onward.
func (r *Runtime) RegisterLocal(h *Handle) error {
	var code []byte
	switch h.Kind {
	case ifunc.KindBitcode:
		code = h.ArchiveBytes
	case ifunc.KindBinary:
		obj, ok := h.Objects[r.Node.March.Triple.Arch]
		if !ok {
			return fmt.Errorf("%w: %s on local %s", ErrNoBinary, h.Name, r.Node.March.Triple.Arch)
		}
		code = obj
	}
	f := &ifunc.Frame{
		Header: ifunc.Header{Kind: h.Kind, NameHash: h.Hash},
		Code:   code,
	}
	reg, _, err := r.registerFromWire(f)
	if err != nil {
		return err
	}
	reg.Name = h.Name
	return nil
}

// guestTrapCheck is a placeholder for future sandbox policies (bounds
// and step limits are enforced by the VM; deps by the linker).
var _ = ir.ErrTrap
