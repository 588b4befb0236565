package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"whowas/internal/ipaddr"
)

// memPair is a buffered in-memory connection: two ends joined by two
// one-way byte buffers. It keeps net.Pipe's observable contract —
// io.ErrClosedPipe after a local close and on a write after the peer
// closed, io.EOF once the peer closed and its bytes are drained,
// os.ErrDeadlineExceeded past a deadline, Close unblocking a pending
// Read — but a Write never waits for a reader: it appends to the
// buffer and returns, so one Write of a whole response is one
// hand-off however the reader slices it.
//
// Everything lives in one allocation; buffers come from bufPool and
// go back as soon as they are drained, so an idle connection holds no
// buffered bytes.
type memPair struct {
	mu   sync.Mutex
	dirs [2]memPipe // [0] client -> server, [1] server -> client
	ends [2]memConn // [0] client, [1] server

	// web, when non-nil, answers the server end with serveHTTP once
	// the client first writes: on 80 and 443 the server only ever
	// speaks second, so a probe that dials and closes costs no
	// goroutine.
	web    *Network
	webIP  ipaddr.Addr
	webTLS bool
}

// memPipe is one direction of a memPair. Its fields are guarded by the
// pair's mu.
type memPipe struct {
	ready   sync.Cond // broadcast on every change a blocked Read waits for
	buf     *[]byte   // unread bytes from buf[off:]; nil when empty
	off     int
	wclosed bool // the writing end closed: drain, then io.EOF
	rclosed bool // the reading end closed: writes fail
}

// memConn is one end of a memPair.
type memConn struct {
	pair   *memPair
	rx, tx *memPipe
	// Deadlines, guarded by the pair's mu. Writes never block, so only
	// a read deadline needs a timer to wake a waiting Read; it is
	// allocated the first time a future read deadline is set.
	rdl, wdl time.Time
	rtimer   *time.Timer
}

// newMemPair returns a connected pair; ends[0] is the client end.
func newMemPair() *memPair {
	p := &memPair{}
	for i := range p.dirs {
		p.dirs[i].ready.L = &p.mu
	}
	p.ends[0] = memConn{pair: p, rx: &p.dirs[1], tx: &p.dirs[0]}
	p.ends[1] = memConn{pair: p, rx: &p.dirs[0], tx: &p.dirs[1]}
	return p
}

// maxPooledBuf caps the buffers bufPool keeps, so one large transfer
// does not pin its buffer for every later connection.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// release returns the pipe's buffer to the pool, dropping any unread
// bytes.
func (d *memPipe) release() {
	if d.buf != nil && cap(*d.buf) <= maxPooledBuf {
		*d.buf = (*d.buf)[:0]
		bufPool.Put(d.buf)
	}
	d.buf, d.off = nil, 0
}

// Read implements net.Conn.
func (c *memConn) Read(b []byte) (int, error) {
	p := c.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	in := c.rx
	for {
		switch {
		case in.rclosed:
			return 0, io.ErrClosedPipe
		case in.buf == nil && in.wclosed:
			return 0, io.EOF
		case !c.rdl.IsZero() && !time.Now().Before(c.rdl):
			return 0, os.ErrDeadlineExceeded
		case in.buf != nil:
			n := copy(b, (*in.buf)[in.off:])
			if in.off += n; in.off == len(*in.buf) {
				in.release()
			}
			return n, nil
		}
		in.ready.Wait()
	}
}

// Write implements net.Conn. It copies b into the peer's buffer and
// returns without waiting for the peer to read. The client's first
// non-empty Write starts a lazily served web end.
func (c *memConn) Write(b []byte) (int, error) {
	p := c.pair
	p.mu.Lock()
	out := c.tx
	switch {
	case out.wclosed || out.rclosed:
		p.mu.Unlock()
		return 0, io.ErrClosedPipe
	case !c.wdl.IsZero() && !time.Now().Before(c.wdl):
		p.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	case len(b) == 0:
		p.mu.Unlock()
		return 0, nil
	}
	if out.buf == nil {
		out.buf = bufPool.Get().(*[]byte)
	}
	*out.buf = append(*out.buf, b...)
	out.ready.Broadcast()
	var web *Network
	if c == &p.ends[0] {
		web, p.web = p.web, nil
	}
	p.mu.Unlock()
	if web != nil {
		go web.serveHTTP(&p.ends[1], p.webIP, p.webTLS)
	}
	return len(b), nil
}

// Close implements net.Conn: the peer drains what this end wrote, then
// sees io.EOF; a Read blocked on this end returns io.ErrClosedPipe.
// Closing twice is a no-op.
func (c *memConn) Close() error {
	p := c.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.rx.rclosed {
		return nil
	}
	c.rx.rclosed = true
	c.rx.release()
	c.tx.wclosed = true
	c.rx.ready.Broadcast()
	c.tx.ready.Broadcast()
	if c.rtimer != nil {
		c.rtimer.Stop()
	}
	return nil
}

// SetDeadline implements net.Conn.
func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. A zero t clears the deadline; a
// Read already waiting re-evaluates the new one. Unlike net.Pipe it
// still works after the peer closed, whose bytes may still be draining.
func (c *memConn) SetReadDeadline(t time.Time) error {
	p := c.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.rx.rclosed {
		return io.ErrClosedPipe
	}
	c.rdl = t
	if c.rtimer != nil {
		c.rtimer.Stop()
	}
	if d := time.Until(t); !t.IsZero() && d > 0 {
		if c.rtimer == nil {
			c.rtimer = time.AfterFunc(d, c.wakeReader)
		} else {
			c.rtimer.Reset(d)
		}
	}
	c.rx.ready.Broadcast()
	return nil
}

// wakeReader lets a waiting Read see that its deadline has passed.
func (c *memConn) wakeReader() {
	c.pair.mu.Lock()
	c.rx.ready.Broadcast()
	c.pair.mu.Unlock()
}

// SetWriteDeadline implements net.Conn.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	p := c.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.rx.rclosed {
		return io.ErrClosedPipe
	}
	c.wdl = t
	return nil
}

// memAddr is both ends' address, as net.Pipe reports it.
type memAddr struct{}

func (memAddr) Network() string { return "pipe" }
func (memAddr) String() string  { return "pipe" }

// LocalAddr implements net.Conn.
func (c *memConn) LocalAddr() net.Addr { return memAddr{} }

// RemoteAddr implements net.Conn.
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }
