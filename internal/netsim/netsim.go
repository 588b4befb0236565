// Package netsim is the virtual network between the WhoWas scanner/
// fetcher and the simulated clouds. It implements the same dial
// semantics the real Internet gave the paper's probes:
//
//   - unbound IPs drop SYNs (the dial times out),
//   - bound instances answer on their open ports and refuse others,
//   - a small population of hosts is persistently slow, answering only
//     probes willing to wait (the §4 2s-vs-8s timeout experiment),
//   - a small per-probe transient loss makes a first probe fail where
//     a retry would succeed (the §4 retry experiment),
//   - open web ports serve real HTTP — and real TLS on 443 — over
//     buffered in-memory connections, with content from the cloud
//     simulator.
//
// The scanner and fetcher consume the network through the Dialer
// interface, exactly as they would plug a custom DialContext into
// net.Dialer / http.Transport; swapping in a real dialer changes
// nothing else.
package netsim

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
)

// Dialer is the scanner/fetcher-facing dial interface, matching the
// signature of net.Dialer.DialContext and http.Transport.DialContext.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// timeoutError reports a dropped SYN, satisfying net.Error so callers
// can distinguish timeouts from refusals.
type timeoutError struct{ addr string }

func (e *timeoutError) Error() string   { return fmt.Sprintf("dial tcp %s: i/o timeout", e.addr) }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// refusedError reports an RST from a bound instance with the port
// closed.
type refusedError struct{ addr string }

func (e *refusedError) Error() string   { return fmt.Sprintf("dial tcp %s: connection refused", e.addr) }
func (e *refusedError) Timeout() bool   { return false }
func (e *refusedError) Temporary() bool { return false }

// NewTimeoutError returns the dial-timeout error this network produces
// for a dropped SYN. Fault layers wrapping a Dialer (internal/faults)
// reuse it so injected failures are indistinguishable from organic
// ones to the scanner's timeout classification.
func NewTimeoutError(addr string) net.Error { return &timeoutError{addr: addr} }

// NewRefusedError returns the connection-refused error this network
// produces for a closed port on a bound instance.
func NewRefusedError(addr string) net.Error { return &refusedError{addr: addr} }

// Stats counts network activity, for the §7 politeness checks.
type Stats struct {
	Dials    atomic.Int64 // dial attempts
	Accepted atomic.Int64 // successful connections
	Requests atomic.Int64 // HTTP requests served
	TLSConns atomic.Int64 // TLS handshakes completed
}

// Network serves the simulated cloud's IP space. Safe for concurrent
// use; the measurement day is advanced between rounds with SetDay.
type Network struct {
	cloud *cloudsim.Cloud
	day   atomic.Int64

	// SlowThreshold is the patience a dialer needs for a slow host to
	// answer (default 5s; the paper compared 2s vs 8s timeouts).
	SlowThreshold time.Duration
	// LossPerMille is the per-probe transient failure rate (default 3,
	// i.e. 0.3%); a retry of a lost probe succeeds.
	LossPerMille int

	mu       sync.Mutex
	attempts map[attemptKey]int

	// recordProbes gates the per-IP accounting below; the maps are
	// guarded by mu, which the hot path takes only when it is on.
	recordProbes  atomic.Bool
	probeCounts   map[int]map[ipaddr.Addr]int // day -> ip -> probes
	requestCounts map[int]map[ipaddr.Addr]int // day -> ip -> HTTP requests

	tlsConf *tls.Config
	stats   Stats
}

type attemptKey struct {
	session string
	ip      ipaddr.Addr
	day     int
}

// probeSessionKey carries a WithProbeSession identity through dial
// contexts.
type probeSessionKey struct{}

// WithProbeSession scopes the network's per-(ip, day) transient-loss
// bookkeeping to the given session identity. Dials in different
// sessions count attempts independently, so re-measuring a range in a
// fresh session behaves exactly like a first measurement — which is
// what lets a distributed campaign re-run a dead worker's
// half-probed shard and still reproduce the single-process store
// digest. An unstamped context is the "" session; a campaign that
// never re-measures needs no stamping.
func WithProbeSession(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, probeSessionKey{}, id)
}

// ProbeSession returns the identity stamped by WithProbeSession, or
// "" when the context carries none.
func ProbeSession(ctx context.Context) string {
	s, _ := ctx.Value(probeSessionKey{}).(string)
	return s
}

// New builds a network over the given cloud.
func New(cloud *cloudsim.Cloud) (*Network, error) {
	tlsConf, err := selfSignedTLS()
	if err != nil {
		return nil, fmt.Errorf("netsim: generating TLS certificate: %w", err)
	}
	return &Network{
		cloud:         cloud,
		SlowThreshold: 5 * time.Second,
		LossPerMille:  3,
		attempts:      make(map[attemptKey]int),
		tlsConf:       tlsConf,
	}, nil
}

// SetDay advances the simulated day. Bookkeeping for the previous day
// (retry attempts) is dropped.
func (n *Network) SetDay(d int) {
	n.day.Store(int64(d))
	n.mu.Lock()
	n.attempts = make(map[attemptKey]int)
	n.mu.Unlock()
}

// Day returns the current simulated day.
func (n *Network) Day() int { return int(n.day.Load()) }

// Stats exposes the activity counters.
func (n *Network) Stats() *Stats { return &n.stats }

// RecordProbes enables per-IP probe and HTTP-request counting
// (politeness tests).
func (n *Network) RecordProbes(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if on && n.probeCounts == nil {
		n.probeCounts = make(map[int]map[ipaddr.Addr]int)
		n.requestCounts = make(map[int]map[ipaddr.Addr]int)
	}
	n.recordProbes.Store(on)
}

// ProbeCount reports how many dials an IP received on a day (only
// meaningful when RecordProbes was enabled).
func (n *Network) ProbeCount(day int, ip ipaddr.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.probeCounts[day][ip]
}

// RequestCount reports how many HTTP requests an IP served on a day
// (only meaningful when RecordProbes was enabled).
func (n *Network) RequestCount(day int, ip ipaddr.Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.requestCounts[day][ip]
}

// countRequest records one HTTP request when accounting is on.
func (n *Network) countRequest(day int, ip ipaddr.Addr) {
	if !n.recordProbes.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bump(n.requestCounts, day, ip)
}

// bump adds one to counts[day][ip]; the caller holds n.mu.
func bump(counts map[int]map[ipaddr.Addr]int, day int, ip ipaddr.Addr) {
	if counts[day] == nil {
		counts[day] = make(map[ipaddr.Addr]int)
	}
	counts[day][ip]++
}

// DialContext implements Dialer against the simulated cloud.
func (n *Network) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad port %q", portStr)
	}
	ip, err := ipaddr.ParseAddr(host)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	n.stats.Dials.Add(1)
	day := n.Day()

	if n.recordProbes.Load() {
		n.mu.Lock()
		bump(n.probeCounts, day, ip)
		n.mu.Unlock()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := n.cloud.StateAt(day, ip)
	if !st.Bound {
		return nil, &timeoutError{addr: address}
	}
	if !st.Ports.OpensPort(port) {
		return nil, &refusedError{addr: address}
	}
	// Slow hosts answer only patient dialers: if the caller's deadline
	// arrives before SlowThreshold, the SYN goes unanswered.
	if st.Slow {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < n.SlowThreshold {
			return nil, &timeoutError{addr: address}
		}
	}
	// Transient loss: hash-selected probes fail on their first attempt
	// and succeed on retry, counted per probe session.
	if n.lossDrop(ProbeSession(ctx), ip, port, day) {
		return nil, &timeoutError{addr: address}
	}

	n.stats.Accepted.Add(1)
	p := newMemPair()
	if port == 22 {
		// Answer with an SSH banner then close on input.
		go serveSSHBanner(&p.ends[1])
	} else {
		// 80 and 443: serveHTTP starts on the client's first Write.
		p.web, p.webIP, p.webTLS = n, ip, port == 443
	}
	return &p.ends[0], nil
}

// lossDrop decides whether this attempt is transiently lost. Loss is
// correlated per host, as real congestion is: a "lossy" (ip, day)
// drops its first three connection attempts — a full 80/443/22 scan
// sequence — and answers retries after that. This is what the §4
// retry experiment measures: probing the same IP again minutes later
// recovers a small fraction of non-responders.
func (n *Network) lossDrop(session string, ip ipaddr.Addr, port, day int) bool {
	if n.LossPerMille <= 0 {
		return false
	}
	h := uint64(ip)*0x9e3779b97f4a7c15 ^ uint64(day)<<20
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	if h%1000 >= uint64(n.LossPerMille) {
		return false
	}
	k := attemptKey{session: session, ip: ip, day: day}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attempts[k]++
	return n.attempts[k] <= 3
}

// serveSSHBanner emulates an OpenSSH identification string; the
// scanner only needs the connection to succeed.
func serveSSHBanner(c net.Conn) {
	defer c.Close()
	_, _ = io.WriteString(c, "SSH-2.0-OpenSSH_5.9p1 Debian-5ubuntu1.1\r\n")
	// Wait for the peer to close (read until error), bounded.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// serveHTTP answers HTTP requests on one connection with the cloud's
// content for the network's *current* day — a keep-alive connection
// held across SetDay serves fresh content, like a long-lived server
// would. On 443 the connection is wrapped in TLS with a self-signed
// certificate, as most 2013 cloud HTTPS endpoints were. A GET's
// response is encoded by appendResponse and sent with one Write; any
// other method goes through http.Response.Write.
func (n *Network) serveHTTP(c net.Conn, ip ipaddr.Addr, useTLS bool) {
	defer c.Close()
	if useTLS {
		tc := tls.Server(c, n.tlsConf)
		if err := tc.Handshake(); err != nil {
			return
		}
		n.stats.TLSConns.Add(1)
		c = tc
	}
	sb := serveBufPool.Get().(*serveBufs)
	defer sb.release()
	sb.br.Reset(c)
	for {
		req, err := http.ReadRequest(sb.br)
		if err != nil {
			return
		}
		n.stats.Requests.Add(1)
		day := n.Day()
		n.countRequest(day, ip)
		pg, ok := n.route(day, ip, req.URL.Path)
		if !ok {
			// Application-layer failure: the backend dies mid-request,
			// like the transient failures WhoWas observed — the client
			// sees a reset, and the IP counts as unavailable.
			return
		}
		if req.Method == http.MethodGet {
			sb.out = appendResponse(sb.out[:0], req, pg)
			_, err = c.Write(sb.out)
		} else {
			err = plainResponse(req, pg).Write(c)
		}
		if err != nil || req.Close {
			return
		}
	}
}

// serveBufs is one served connection's scratch space, pooled across
// connections: the request reader and the response being encoded.
type serveBufs struct {
	br  *bufio.Reader
	out []byte
}

var serveBufPool = sync.Pool{New: func() any {
	return &serveBufs{br: bufio.NewReader(nil)}
}}

// release drops the connection and returns sb to the pool.
func (sb *serveBufs) release() {
	sb.br.Reset(nil)
	if cap(sb.out) > maxPooledBuf {
		sb.out = nil
	}
	serveBufPool.Put(sb)
}

// notFoundPage is the body every simulated server returns for an
// unknown path.
const notFoundPage = "<html><head><title>404 Not Found</title></head><body><h1>Not Found</h1></body></html>\n"

// page is a routed response before encoding. When headers carries a
// Content-Type it wins over ctype; an empty ctype means HTML.
type page struct {
	status  int
	ctype   string
	body    string
	headers map[string]string
}

// defaultType is the Content-Type sent when headers carries none.
func (pg page) defaultType() string {
	if pg.ctype == "" {
		return "text/html; charset=utf-8"
	}
	return pg.ctype
}

// route picks the response to a request for path on ip on the given
// day. ok is false when the port is open but the application layer is
// failing that day: no HTTP response at all, the connection closes.
func (n *Network) route(day int, ip ipaddr.Addr, path string) (pg page, ok bool) {
	profile, revision, ok := n.cloud.PageOn(day, ip)
	if !ok {
		return page{}, false
	}
	switch {
	case path == "/robots.txt":
		return page{status: 200, ctype: "text/plain", body: profile.RobotsTxt()}, true
	case path == "/" || path == "":
		return page{status: profile.StatusCode, body: profile.RenderPage(revision),
			headers: profile.Headers(revision)}, true
	}
	server := map[string]string{"Server": profile.Server}
	if body := profile.RenderSubpage(path, revision); body != "" {
		return page{status: 200, ctype: "text/html", body: body, headers: server}, true
	}
	return page{status: 404, ctype: "text/html", body: notFoundPage, headers: server}, true
}

// plainResponse assembles the *http.Response for pg.
func plainResponse(req *http.Request, pg page) *http.Response {
	h := http.Header{}
	for k, v := range pg.headers {
		h.Set(k, v)
	}
	if h.Get("Content-Type") == "" {
		h.Set("Content-Type", pg.defaultType())
	}
	return &http.Response{
		StatusCode:    pg.status,
		Status:        fmt.Sprintf("%d %s", pg.status, http.StatusText(pg.status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(pg.body)),
		ContentLength: int64(len(pg.body)),
		Request:       req,
	}
}

// headerField is one header line of an encoded response.
type headerField struct{ key, value string }

// appendResponse appends to dst the response to the GET req for pg:
// the bytes plainResponse(req, pg).Write produces — status line,
// Content-Length, the headers in sorted key order, a blank line, the
// body — built without an http.Response. A page the direct encoding
// does not cover (an empty body, an out-of-range status, a header that
// http.Header would canonicalise, drop or clean) is encoded by
// plainResponse itself, so the bytes match by construction.
func appendResponse(dst []byte, req *http.Request, pg page) []byte {
	ctype := pg.defaultType()
	var fieldsBuf [8]headerField
	fields := fieldsBuf[:0]
	direct := pg.body != "" && pg.status >= 100 && pg.status <= 999
	for k, v := range pg.headers {
		if !direct {
			break
		}
		switch {
		case !plainHeader(k, v):
			direct = false
		case k == "Content-Type":
			if v != "" {
				ctype = v
			}
		default:
			fields = append(fields, headerField{k, v})
		}
	}
	if !direct || !plainHeader("Content-Type", ctype) {
		b := bytes.NewBuffer(dst)
		// Writing to a bytes.Buffer from a strings.Reader body cannot
		// fail.
		_ = plainResponse(req, pg).Write(b)
		return b.Bytes()
	}
	fields = append(fields, headerField{"Content-Type", ctype})
	slices.SortFunc(fields, func(a, b headerField) int { return strings.Compare(a.key, b.key) })

	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(pg.status), 10)
	dst = append(dst, ' ')
	dst = append(dst, http.StatusText(pg.status)...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(pg.body)), 10)
	dst = append(dst, "\r\n"...)
	for _, f := range fields {
		dst = append(dst, f.key...)
		dst = append(dst, ": "...)
		dst = append(dst, f.value...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, pg.body...)
}

// plainHeader reports whether http.Header would store and write k: v
// unchanged: k is already canonical, made of letters, digits and '-',
// and not one of the framing headers Response.Write computes itself;
// v has no line breaks and no surrounding blanks.
func plainHeader(k, v string) bool {
	if k == "" || http.CanonicalHeaderKey(k) != k ||
		k == "Content-Length" || k == "Transfer-Encoding" || k == "Trailer" {
		return false
	}
	for i := 0; i < len(k); i++ {
		if c := k[i]; c != '-' && !('0' <= c && c <= '9') && !('a' <= c && c <= 'z') && !('A' <= c && c <= 'Z') {
			return false
		}
	}
	return !strings.ContainsAny(v, "\r\n") && textproto.TrimString(v) == v
}

// selfSignedTLS builds a TLS config with a fresh ECDSA P-256
// self-signed certificate (fast handshakes; the fetcher, like the
// paper's, does not validate cloud certificates).
func selfSignedTLS() (*tls.Config, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "whowas-netsim"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * 365 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IsCA:         true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}
