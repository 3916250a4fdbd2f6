// Package transport is the TCP wire layer for multi-process deployments:
// binary length-delimited frames (the hand-rolled codec of internal/types)
// authenticated with pairwise HMACs (the MAC channel of §2), sync.Pool-backed
// frame buffers, an encode-once broadcast fan-out, per-peer send queues with
// ResilientDB-style write coalescing, and automatic reconnection. Every
// connection opens with a fixed 8-byte hello identifying its owner;
// connections are bidirectional, so clients receive Informs over the
// connections they dialed.
//
// Frame layout (all integers little-endian):
//
//	u32  frame length (bytes after this field; capped at MaxFrameSize)
//	u32  sender id
//	u8   MAC length, then the MAC bytes
//	     payload — one WireKind tag byte + fixed-layout message body
//	     (types.AppendMessage / types.DecodeMessage)
//
// A broadcast serializes its payload exactly once: every peer queue shares
// one pooled, reference-counted buffer and only the per-peer HMAC differs
// (Bcast; threaded from runtime.Node.Broadcast). Drop and failure paths that
// the seed handled with silent returns are counted and exposed via Stats.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// MaxFrameSize bounds one frame in both directions: inbound, a forged
// length prefix can never force a larger allocation; outbound, Send/Bcast
// drop (and count as encode failures) payloads that would exceed it, since
// receivers kill the whole connection on an oversized frame. A full
// StateChunk at the default fetch cap is ~100 KiB; the margin covers large
// batches.
const MaxFrameSize = 16 << 20

// maxPayloadSize is the largest payload that fits a MaxFrameSize frame with
// the sender and MAC header fields.
const maxPayloadSize = MaxFrameSize - 4 - 1 - 255

// helloMagic opens every connection, followed by the owner's u32 id.
var helloMagic = [4]byte{'S', 'P', 'L', '2'}

// Encode serializes a message to its wire payload (kind tag + binary body).
// Hot paths serialize into pooled buffers instead (Send/Bcast); Encode is
// the allocation-per-call convenience form.
func Encode(msg types.Message) ([]byte, error) {
	return types.AppendMessage(nil, msg)
}

// Decode deserializes a wire payload.
func Decode(payload []byte) (types.Message, error) {
	return types.DecodeMessage(payload)
}

// payloadBuf is a pooled, reference-counted frame payload. The encode-once
// broadcast enqueues one buffer on every peer queue with refs preset to the
// fan-out; each writer (or shed path) releases once, and the last release
// returns the buffer to the pool.
type payloadBuf struct {
	b    []byte
	refs atomic.Int32
}

var payloadPool = sync.Pool{New: func() any { return new(payloadBuf) }}

func getPayload() *payloadBuf {
	pb := payloadPool.Get().(*payloadBuf)
	pb.b = pb.b[:0]
	return pb
}

func (pb *payloadBuf) release() {
	if pb.refs.Add(-1) == 0 {
		payloadPool.Put(pb)
	}
}

// frame is one queued wire unit: the shared payload plus its per-peer HMAC.
type frame struct {
	from    types.NodeID
	mac     []byte
	payload *payloadBuf
}

// Stats is a snapshot of the transport's serialization and drop counters.
// Every path that used to fail with a silent return/continue is counted.
type Stats struct {
	// Encodes counts successful payload serializations — exactly one per
	// Send and one per Bcast regardless of fan-out (the encode-once
	// invariant; asserted by TestBcastEncodesOnce).
	Encodes uint64
	// EncodeFailures counts messages dropped because serialization failed
	// (a message type not registered with the codec) or because the payload
	// would exceed MaxFrameSize (receivers drop the connection on oversized
	// frames, so they are never emitted).
	EncodeFailures uint64
	// QueueSheds counts frames dropped on full per-peer send queues (§2
	// asynchronous network model: shed, never block).
	QueueSheds uint64
	// MACRejections counts inbound frames whose HMAC failed verification.
	MACRejections uint64
	// DecodeFailures counts inbound payloads the binary codec rejected,
	// plus malformed frame headers (forged length, MAC length leaving no
	// payload) that tear the connection down.
	DecodeFailures uint64
	// IngressDrops counts decoded messages dropped by the declared ingress
	// signature checks.
	IngressDrops uint64
	// BytesOut counts frame bytes (header, MAC, payload) buffered toward
	// peers; BytesIn counts frame bytes read off connections. Together they
	// are the endpoint's egress/ingress volume, the ground truth behind the
	// coded-dissemination bandwidth claims.
	BytesOut uint64
	BytesIn  uint64
}

// Config parameterizes a TCP transport endpoint.
type Config struct {
	ID     types.NodeID
	Listen string                  // listen address ("" for pure clients)
	Peers  map[types.NodeID]string // addresses this endpoint dials
	Crypto crypto.Provider         // MAC provider (pairwise keys)
	// DialRetry is the reconnect backoff (default 250 ms).
	DialRetry time.Duration
	// QueueDepth bounds each peer's send queue (default 8192).
	QueueDepth int

	// Ingress, when set, screens every decoded inbound message before it
	// reaches the registered receiver: the checks the protocol declares for
	// the message must pass or it is dropped. MAC verification always runs
	// on the connection's reader goroutine (off any event loop); Ingress
	// signature checks run on Verifier — typically the replica's shared
	// worker pool — so certificate batches fan out across cores while the
	// reader pipelines the next frame. Set via SetIngress when the protocol
	// is constructed after the transport.
	Ingress protocol.IngressVerifier
	// Verifier executes Ingress checks (default: serial on the reader).
	Verifier crypto.Verifier
}

// TCP is a runtime.Transport over TCP sockets.
type TCP struct {
	cfg  Config
	mu   sync.RWMutex
	recv func(from types.NodeID, msg types.Message)

	dialed   map[types.NodeID]*peer // peers we dial (from cfg.Peers)
	accepted map[types.NodeID]*peer // inbound-only peers (clients)

	ln   net.Listener
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	connMu sync.Mutex
	conns  []net.Conn // every accepted connection (closed on shutdown)

	// Observability counters (see Stats).
	encodes     atomic.Uint64
	encodeFails atomic.Uint64
	queueSheds  atomic.Uint64
	macRejects  atomic.Uint64
	decodeFails atomic.Uint64
	ingressDrop atomic.Uint64
	bytesOut    atomic.Uint64
	bytesIn     atomic.Uint64
}

type peer struct {
	id    types.NodeID
	addr  string
	queue chan frame

	mu   sync.Mutex
	conn net.Conn
}

func (p *peer) setConn(c net.Conn) {
	p.mu.Lock()
	if p.conn != nil && p.conn != c {
		p.conn.Close()
	}
	p.conn = c
	p.mu.Unlock()
}

// New creates a transport endpoint; call Start to listen and dial.
func New(cfg Config) *TCP {
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8192
	}
	return &TCP{
		cfg:      cfg,
		dialed:   make(map[types.NodeID]*peer),
		accepted: make(map[types.NodeID]*peer),
		done:     make(chan struct{}),
	}
}

// Register implements runtime.Transport.
func (t *TCP) Register(id types.NodeID, recv func(from types.NodeID, msg types.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = recv
}

// SetIngress installs (or replaces) the ingress screening pipeline — the
// protocol's check classifier and the verifier executing its checks. Call
// before Start; deployments whose protocol is constructed after the
// transport (the usual order) wire it here.
func (t *TCP) SetIngress(iv protocol.IngressVerifier, v crypto.Verifier) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Ingress = iv
	t.cfg.Verifier = v
}

// Stats returns a snapshot of the transport's counters.
func (t *TCP) Stats() Stats {
	return Stats{
		Encodes:        t.encodes.Load(),
		EncodeFailures: t.encodeFails.Load(),
		QueueSheds:     t.queueSheds.Load(),
		MACRejections:  t.macRejects.Load(),
		DecodeFailures: t.decodeFails.Load(),
		IngressDrops:   t.ingressDrop.Load(),
		BytesOut:       t.bytesOut.Load(),
		BytesIn:        t.bytesIn.Load(),
	}
}

// screen applies the declared ingress checks for one inbound message; it
// runs on a connection reader goroutine, after the frame's MAC verified.
func (t *TCP) screen(from types.NodeID, msg types.Message) bool {
	t.mu.RLock()
	iv, v := t.cfg.Ingress, t.cfg.Verifier
	t.mu.RUnlock()
	if iv == nil {
		return true
	}
	job, needed := iv.IngressJob(from, msg)
	if !needed {
		return true
	}
	if v == nil {
		return crypto.VerifyChecks(t.cfg.Crypto, job.Checks, job.Quorum)
	}
	return v.VerifyBatch(job.Checks, job.Quorum)
}

// Start listens (if configured) and dials all peers.
func (t *TCP) Start() error {
	if t.cfg.Listen != "" {
		ln, err := net.Listen("tcp", t.cfg.Listen)
		if err != nil {
			return fmt.Errorf("transport: listen %s: %w", t.cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	for id, addr := range t.cfg.Peers {
		if id == t.cfg.ID {
			continue
		}
		p := &peer{id: id, addr: addr, queue: make(chan frame, t.cfg.QueueDepth)}
		t.dialed[id] = p
		t.wg.Add(1)
		go t.dialLoop(p)
	}
	return nil
}

// DialPeers dials additional peers after Start — used when the address map
// is only known once every listener is bound (ephemeral ports).
func (t *TCP) DialPeers(peers map[types.NodeID]string) error {
	for id, addr := range peers {
		if id == t.cfg.ID {
			continue
		}
		t.mu.Lock()
		if _, ok := t.dialed[id]; ok {
			t.mu.Unlock()
			continue
		}
		p := &peer{id: id, addr: addr, queue: make(chan frame, t.cfg.QueueDepth)}
		t.dialed[id] = p
		t.mu.Unlock()
		t.wg.Add(1)
		go t.dialLoop(p)
	}
	return nil
}

// Addr returns the bound listen address (for ephemeral ports in tests).
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Close shuts the transport down.
func (t *TCP) Close() {
	t.once.Do(func() {
		close(t.done)
		if t.ln != nil {
			t.ln.Close()
		}
		t.mu.Lock()
		for _, p := range t.dialed {
			p.setConn(nil)
		}
		for _, p := range t.accepted {
			p.setConn(nil)
		}
		t.mu.Unlock()
		t.connMu.Lock()
		for _, c := range t.conns {
			c.Close()
		}
		t.connMu.Unlock()
	})
	t.wg.Wait()
}

// peerFor resolves a destination to its queue owner.
func (t *TCP) peerFor(to types.NodeID) *peer {
	t.mu.RLock()
	p := t.dialed[to]
	if p == nil {
		p = t.accepted[to]
	}
	t.mu.RUnlock()
	return p
}

// Send implements runtime.Transport: serialize into a pooled buffer, MAC,
// and enqueue on the destination's writer.
func (t *TCP) Send(from, to types.NodeID, msg types.Message) {
	p := t.peerFor(to)
	if p == nil {
		return // destination unknown (e.g. client not connected yet)
	}
	pb := getPayload()
	b, err := types.AppendMessage(pb.b, msg)
	if err != nil || len(b) > maxPayloadSize {
		// Oversized frames would make every receiver tear down the shared
		// connection (readLoop's forged-length guard) and the retrying
		// sender flap the link forever — drop at the source instead.
		t.encodeFails.Add(1)
		pb.b = b
		pb.refs.Store(1)
		pb.release()
		return
	}
	pb.b = b
	t.encodes.Add(1)
	pb.refs.Store(1)
	t.enqueue(p, frame{from: from, mac: t.cfg.Crypto.MAC(to, pb.b), payload: pb})
}

// Bcast is the encode-once broadcast fan-out (runtime.Broadcaster): the
// payload is serialized exactly once, every connected peer's queue shares
// the one pooled buffer, and only the per-peer HMAC is computed per
// destination. Unknown destinations are skipped like Send skips them.
func (t *TCP) Bcast(from types.NodeID, to []types.NodeID, msg types.Message) {
	t.mu.RLock()
	peers := make([]*peer, 0, len(to))
	for _, id := range to {
		if id == t.cfg.ID {
			continue
		}
		p := t.dialed[id]
		if p == nil {
			p = t.accepted[id]
		}
		if p != nil {
			peers = append(peers, p)
		}
	}
	t.mu.RUnlock()
	if len(peers) == 0 {
		return
	}
	pb := getPayload()
	b, err := types.AppendMessage(pb.b, msg)
	if err != nil || len(b) > maxPayloadSize {
		t.encodeFails.Add(1) // see Send: never emit a frame receivers must reject
		pb.b = b
		pb.refs.Store(1)
		pb.release()
		return
	}
	pb.b = b
	t.encodes.Add(1)
	pb.refs.Store(int32(len(peers)))
	for _, p := range peers {
		t.enqueue(p, frame{from: from, mac: t.cfg.Crypto.MAC(p.id, pb.b), payload: pb})
	}
}

// enqueue places a frame on a peer queue, shedding (and releasing the
// payload reference) on overflow per the asynchronous network model (§2).
func (t *TCP) enqueue(p *peer, f frame) {
	select {
	case p.queue <- f:
	default:
		t.queueSheds.Add(1)
		f.payload.release()
	}
}

// dialLoop maintains an outbound connection to one peer: it writes queued
// frames and reads replies over the same socket.
func (t *TCP) dialLoop(p *peer) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		default:
		}
		conn, err := net.Dial("tcp", p.addr)
		if err != nil {
			select {
			case <-time.After(t.cfg.DialRetry):
				continue
			case <-t.done:
				return
			}
		}
		p.setConn(conn)
		w := bufio.NewWriterSize(conn, 128<<10)
		var hb [8]byte
		copy(hb[:4], helloMagic[:])
		binary.LittleEndian.PutUint32(hb[4:], uint32(t.cfg.ID))
		if _, err := w.Write(hb[:]); err != nil || w.Flush() != nil {
			conn.Close()
			continue
		}
		// Read replies concurrently (the replica answers clients over the
		// client's own connection).
		t.wg.Add(1)
		go func(c net.Conn) {
			defer t.wg.Done()
			t.readFrames(c, p.id)
		}(conn)
		t.writeFrames(w, p)
		conn.Close()
	}
}

// writeFrames drains the peer queue until the connection breaks, releasing
// each frame's payload reference after its bytes are buffered.
func (t *TCP) writeFrames(w *bufio.Writer, p *peer) {
	var hdr [4 + 4 + 1]byte
	for {
		select {
		case <-t.done:
			return
		case f := <-p.queue:
			n := 4 + 1 + len(f.mac) + len(f.payload.b)
			binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(f.from))
			hdr[8] = byte(len(f.mac))
			_, err := w.Write(hdr[:])
			if err == nil {
				_, err = w.Write(f.mac)
			}
			if err == nil {
				_, err = w.Write(f.payload.b)
			}
			f.payload.release()
			if err != nil {
				return
			}
			t.bytesOut.Add(uint64(4 + n)) // length prefix + frame
			// Coalesce writes while the queue has backlog (§6.1 buffering).
			if len(p.queue) == 0 || w.Buffered() > 96<<10 {
				if err := w.Flush(); err != nil {
					return
				}
			}
		}
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-t.done:
				return
			default:
				continue
			}
		}
		// Close marks done before it walks conns under connMu, so a conn
		// accepted after that walk sees done here and is closed now rather
		// than left open for serveInbound to wait on.
		t.connMu.Lock()
		select {
		case <-t.done:
			t.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		t.conns = append(t.conns, conn)
		t.connMu.Unlock()
		t.wg.Add(1)
		go func(c net.Conn) {
			defer t.wg.Done()
			t.serveInbound(c)
		}(conn)
	}
}

// serveInbound handles one accepted connection: learn the owner, spawn a
// writer for replies, and read frames.
func (t *TCP) serveInbound(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 128<<10)
	var hb [8]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil || [4]byte(hb[:4]) != helloMagic {
		return
	}
	owner := types.NodeID(binary.LittleEndian.Uint32(hb[4:]))
	t.mu.Lock()
	p := t.accepted[owner]
	if _, isDialed := t.dialed[owner]; !isDialed {
		if p == nil {
			p = &peer{id: owner, queue: make(chan frame, t.cfg.QueueDepth)}
			t.accepted[owner] = p
		}
		p.setConn(conn)
		w := bufio.NewWriterSize(conn, 128<<10)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.writeFrames(w, p)
		}()
	}
	t.mu.Unlock()
	t.readLoop(r, owner)
}

// readFrames decodes frames from an established outbound connection.
func (t *TCP) readFrames(conn net.Conn, owner types.NodeID) {
	t.readLoop(bufio.NewReaderSize(conn, 128<<10), owner)
}

// readLoop reads length-delimited frames from one connection. The scratch
// buffer is reused across frames: MAC verification, decoding (which copies
// variable-length fields), and ingress screening all complete before the
// next frame overwrites it. MAC verification stays on this reader goroutine
// — the per-frame HMAC (the §2 MAC channel) never touches the node's event
// loop — and declared signature checks run on the shared verification pool;
// failing messages are counted and dropped before the event loop sees them.
func (t *TCP) readLoop(r *bufio.Reader, owner types.NodeID) {
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 4+1+1 || n > MaxFrameSize {
			t.decodeFails.Add(1)
			return // malformed or forged length: drop the connection
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		t.bytesIn.Add(uint64(4 + n)) // length prefix + frame
		from := types.NodeID(binary.LittleEndian.Uint32(buf[0:]))
		macLen := int(buf[4])
		if 4+1+macLen >= n {
			t.decodeFails.Add(1)
			return // malformed: no payload left
		}
		mac := buf[5 : 5+macLen]
		payload := buf[5+macLen:]
		if from != owner {
			continue // connections speak only for their owner
		}
		if err := t.cfg.Crypto.VerifyMAC(from, payload, mac); err != nil {
			t.macRejects.Add(1)
			continue
		}
		msg, err := types.DecodeMessage(payload)
		if err != nil {
			t.decodeFails.Add(1)
			continue
		}
		if !t.screen(from, msg) {
			t.ingressDrop.Add(1)
			continue
		}
		t.mu.RLock()
		recv := t.recv
		t.mu.RUnlock()
		if recv != nil {
			recv(from, msg)
		}
	}
}
