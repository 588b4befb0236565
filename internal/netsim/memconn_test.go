package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// connPairs are the implementations the conn contract runs against:
// net.Pipe, the reference, and the buffered memPair the simulated
// network serves over.
var connPairs = []struct {
	name string
	make func() (net.Conn, net.Conn)
}{
	{"net.Pipe", net.Pipe},
	{"memPair", func() (net.Conn, net.Conn) {
		p := newMemPair()
		return &p.ends[0], &p.ends[1]
	}},
}

// writeAsync writes s to c on its own goroutine, since a net.Pipe
// Write blocks until the peer reads, then optionally closes c.
func writeAsync(c net.Conn, s string, closeAfter bool) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := io.WriteString(c, s)
		if closeAfter {
			_ = c.Close()
		}
		done <- err
	}()
	return done
}

// readResult is what one Read returned.
type readResult struct {
	data string
	err  error
}

// readAsync runs one Read of up to n bytes on its own goroutine.
func readAsync(c net.Conn, n int) <-chan readResult {
	done := make(chan readResult, 1)
	go func() {
		buf := make([]byte, n)
		k, err := c.Read(buf)
		done <- readResult{string(buf[:k]), err}
	}()
	return done
}

func wantTimeout(t *testing.T, what string, err error) {
	t.Helper()
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("%s: err = %v, want os.ErrDeadlineExceeded with Timeout()", what, err)
	}
}

func awaitRead(t *testing.T, what string, ch <-chan readResult) readResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Read still blocked after 5s", what)
		return readResult{}
	}
}

// TestConnContract pins the net.Conn behaviour the scanner, fetcher,
// TLS and the cloudd splice rely on, identically for net.Pipe and the
// buffered conn.
func TestConnContract(t *testing.T) {
	past := time.Now().Add(-time.Second)
	cases := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn)
	}{
		{"bytes cross in order, in reader-sized pieces", func(t *testing.T, a, b net.Conn) {
			w := writeAsync(b, "hello", false)
			var got string
			for len(got) < 5 {
				r := awaitRead(t, "read", readAsync(a, 2))
				if r.err != nil {
					t.Fatalf("read after %q: %v", got, r.err)
				}
				if len(r.data) > 2 {
					t.Fatalf("read %q into a 2-byte buffer", r.data)
				}
				got += r.data
			}
			if got != "hello" {
				t.Errorf("read %q, want hello", got)
			}
			if err := <-w; err != nil {
				t.Errorf("write: %v", err)
			}
		}},
		{"local close", func(t *testing.T, a, b net.Conn) {
			if err := a.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("Read after Close = %v, want io.ErrClosedPipe", err)
			}
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("Write after Close = %v, want io.ErrClosedPipe", err)
			}
			if err := a.SetReadDeadline(time.Now()); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("SetReadDeadline after Close = %v, want io.ErrClosedPipe", err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close = %v, want nil", err)
			}
		}},
		{"peer close drains then EOF", func(t *testing.T, a, b net.Conn) {
			w := writeAsync(b, "bye", true)
			buf := make([]byte, 3)
			if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "bye" {
				t.Fatalf("ReadFull = %q, %v", buf, err)
			}
			if err := <-w; err != nil {
				t.Errorf("write: %v", err)
			}
			if r := awaitRead(t, "read at EOF", readAsync(a, 1)); r.err != io.EOF {
				t.Errorf("Read after drain = %q, %v; want io.EOF", r.data, r.err)
			}
		}},
		{"write after peer close", func(t *testing.T, a, b net.Conn) {
			_ = b.Close()
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("Write after peer Close = %v, want io.ErrClosedPipe", err)
			}
		}},
		{"past deadlines", func(t *testing.T, a, b net.Conn) {
			if err := a.SetDeadline(past); err != nil {
				t.Fatal(err)
			}
			_, err := a.Read(make([]byte, 1))
			wantTimeout(t, "Read", err)
			_, err = a.Write([]byte("x"))
			wantTimeout(t, "Write", err)
		}},
		{"future read deadline expires while blocked", func(t *testing.T, a, b net.Conn) {
			start := time.Now()
			if err := a.SetReadDeadline(start.Add(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			r := awaitRead(t, "read", readAsync(a, 1))
			wantTimeout(t, "Read", r.err)
			if d := time.Since(start); d < 40*time.Millisecond {
				t.Errorf("Read timed out after %v, before its deadline", d)
			}
		}},
		{"deadline set while a Read is blocked", func(t *testing.T, a, b net.Conn) {
			ch := readAsync(a, 1)
			time.Sleep(10 * time.Millisecond)
			if err := a.SetReadDeadline(past); err != nil {
				t.Fatal(err)
			}
			wantTimeout(t, "Read", awaitRead(t, "read", ch).err)
		}},
		{"cleared deadlines", func(t *testing.T, a, b net.Conn) {
			_ = a.SetDeadline(past)
			if err := a.SetDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			w := writeAsync(b, "x", false)
			if r := awaitRead(t, "read", readAsync(a, 1)); r.err != nil || r.data != "x" {
				t.Errorf("Read after clearing = %q, %v", r.data, r.err)
			}
			<-w
			rd := readAsync(b, 1)
			if _, err := a.Write([]byte("y")); err != nil {
				t.Errorf("Write after clearing: %v", err)
			}
			if r := awaitRead(t, "peer read", rd); r.data != "y" {
				t.Errorf("peer read %q, %v", r.data, r.err)
			}
		}},
		{"Close unblocks a pending Read", func(t *testing.T, a, b net.Conn) {
			ch := readAsync(a, 1)
			time.Sleep(10 * time.Millisecond)
			_ = a.Close()
			if r := awaitRead(t, "read", ch); !errors.Is(r.err, io.ErrClosedPipe) {
				t.Errorf("pending Read after Close = %v, want io.ErrClosedPipe", r.err)
			}
		}},
		{"peer Close unblocks a pending Read", func(t *testing.T, a, b net.Conn) {
			ch := readAsync(a, 1)
			time.Sleep(10 * time.Millisecond)
			_ = b.Close()
			if r := awaitRead(t, "read", ch); r.err != io.EOF {
				t.Errorf("pending Read after peer Close = %v, want io.EOF", r.err)
			}
		}},
	}
	for _, impl := range connPairs {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				a, b := impl.make()
				defer a.Close()
				defer b.Close()
				tc.run(t, a, b)
			})
		}
	}
}

// TestMemPairBuffersWrites is what the buffered conn adds over
// net.Pipe: a Write returns before the peer reads, a reader with room
// gets everything written so far in one Read, and a drained direction
// gives its buffer back.
func TestMemPairBuffersWrites(t *testing.T) {
	p := newMemPair()
	a, b := &p.ends[0], &p.ends[1]
	for _, s := range []string{"HTTP/1.1 200 OK\r\n", "\r\nbody"} {
		if _, err := b.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "HTTP/1.1 200 OK\r\n\r\nbody" {
		t.Errorf("Read = %q, %v; want both writes in one read", buf[:n], err)
	}
	if p.dirs[1].buf != nil {
		t.Error("drained direction still holds its buffer")
	}
	_ = a.Close()
	_ = b.Close()
}

// TestWebDialStartsNoServerUntilWrite: on 80 and 443 the server
// speaks second, so a scan probe that dials and closes must start no
// serving goroutine — yet still count as an accepted connection.
func TestWebDialStartsNoServerUntilWrite(t *testing.T) {
	n, cloud := testNetwork(t)
	n.LossPerMille = 0
	addrs := []string{
		findWebIP(t, cloud, 80).String() + ":80",
		findWebIP(t, cloud, 443).String() + ":443",
	}
	before := runtime.NumGoroutine()
	var conns []net.Conn
	for i := 0; i < 25; i++ {
		for _, addr := range addrs {
			c, err := n.DialContext(context.Background(), "tcp", addr)
			if err != nil {
				t.Fatalf("dial %s: %v", addr, err)
			}
			conns = append(conns, c)
		}
	}
	// An eagerly served dial would park one goroutine per open conn in
	// ReadRequest or the TLS handshake.
	if g := runtime.NumGoroutine(); g > before+5 {
		t.Errorf("%d goroutines with %d idle web conns open, %d before", g, len(conns), before)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	st := n.Stats()
	if got := st.Accepted.Load(); got != int64(len(conns)) {
		t.Errorf("Accepted = %d, want %d", got, len(conns))
	}
	if r, tc := st.Requests.Load(), st.TLSConns.Load(); r != 0 || tc != 0 {
		t.Errorf("Requests = %d, TLSConns = %d after dial+close; want 0, 0", r, tc)
	}
}
